import json

import numpy as np
import pytest

from grou.cli import run
from grou.graphs import path_graph
from grou.model import GrouParams
from grou.noise import CompoundPoissonJumps, LevySpec, SymmetricGammaJumps


@pytest.fixture
def workdir(tmp_path):
    graph = path_graph(3)
    (tmp_path / "graph.json").write_text(graph.to_json())
    params = GrouParams(np.array([[4.0, 3.0]]), (np.array([1.0]),))
    (tmp_path / "params.json").write_text(params.to_json())
    noise = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
    (tmp_path / "noise.json").write_text(noise.to_json())
    return tmp_path


def simulate_args(workdir, out="path.csv", seed=3, extra=()):
    return [
        "simulate",
        "--graph", str(workdir / "graph.json"),
        "--params", str(workdir / "params.json"),
        "--noise", str(workdir / "noise.json"),
        "--t-end", "4.0",
        "--mesh-fine", "0.015625",
        "--ratio", "4",
        "--seed", str(seed),
        "--out", str(workdir / out),
        *extra,
    ]


class TestSimulate:
    def test_writes_path_and_sidecar(self, workdir):
        code = run(simulate_args(workdir, extra=["--truth-out", str(workdir / "truth.json")]))
        assert code == 0
        lines = (workdir / "path.csv").read_text().splitlines()
        assert lines[0].startswith("# grou")
        assert "config" in lines[1]
        assert lines[2] == "time,e_1,e_2"
        sidecar = json.loads((workdir / "truth.json").read_text())
        assert "jump_times" in sidecar and sidecar["config"]["seed"] == 3

    def test_byte_identical_given_seed(self, workdir):
        run(simulate_args(workdir, out="a.csv", seed=9))
        run(simulate_args(workdir, out="b.csv", seed=9))
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()
        run(simulate_args(workdir, out="c.csv", seed=10))
        assert (workdir / "a.csv").read_bytes() != (workdir / "c.csv").read_bytes()

    def test_env_seed_fallback(self, workdir, monkeypatch):
        monkeypatch.setenv("GROU_SEED", "9")
        args = simulate_args(workdir, out="env.csv")
        args.remove("--seed")
        args.remove("3")
        assert run(args) == 0
        run(simulate_args(workdir, out="flag.csv", seed=9))
        assert (workdir / "env.csv").read_bytes() == (workdir / "flag.csv").read_bytes()

    def test_missing_file_is_usage_error(self, workdir):
        args = simulate_args(workdir)
        args[args.index("--graph") + 1] = str(workdir / "nope.json")
        assert run(args) == 1

    def test_params_shape_mismatch_exit_1(self, workdir, capsys):
        doc = json.loads((workdir / "params.json").read_text())
        doc["R"] = [2]
        (workdir / "params.json").write_text(json.dumps(doc))
        assert run(simulate_args(workdir)) == 1
        assert "bad params file" in capsys.readouterr().err

    def test_coarse_gamma_mesh_exit_0(self, workdir):
        # alpha = 5 at mesh 0.5, where an explicit Euler step I + h*T would
        # have eigenvalue -1.5: the exact step simulates a finite path
        params = GrouParams(np.array([[5.0, 5.0]]), (np.empty(0),))
        (workdir / "params.json").write_text(params.to_json())
        noise = LevySpec(np.zeros(2), np.eye(2), SymmetricGammaJumps(1.0, 1.0))
        (workdir / "noise.json").write_text(noise.to_json())
        args = simulate_args(workdir)
        args[args.index("--mesh-fine") + 1] = "0.5"
        args[args.index("--ratio") + 1] = "1"
        assert run(args) == 0
        values = np.loadtxt(workdir / "path.csv", delimiter=",", comments="#", skiprows=3)
        assert values.shape == (9, 3)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize(
        "doc", ['{"b": [0, 0], "sigma": [[1, 0], [0, 1]], "jumps": "none"}', "[1, 2]"]
    )
    def test_noise_not_an_object_exit_1(self, workdir, capsys, doc):
        (workdir / "noise.json").write_text(doc)
        assert run(simulate_args(workdir)) == 1
        assert "object" in capsys.readouterr().err
        assert not (workdir / "path.csv").exists()


class TestEstimateForecast:
    def test_round_trip(self, workdir):
        assert run(simulate_args(workdir)) == 0
        code = run(
            [
                "estimate",
                "--path", str(workdir / "path.csv"),
                "--ratio", "4",
                "--graph", str(workdir / "graph.json"),
                "--lags", "1",
                "--stages", "1",
                "--triplet", str(workdir / "noise.json"),
                "--out", str(workdir / "report.json"),
            ]
        )
        assert code == 0
        report = json.loads((workdir / "report.json").read_text())
        assert report["shape"] == {"L": 1, "R": [1]}
        assert len(report["theta"]) == 3
        assert np.isfinite(report["bic"])

        code = run(
            [
                "forecast",
                "--path", str(workdir / "path.csv"),
                "--fit", str(workdir / "report.json"),
                "--graph", str(workdir / "graph.json"),
                "--eval-tail", "5",
                "--out", str(workdir / "forecast.csv"),
            ]
        )
        assert code == 0
        lines = [
            ln for ln in (workdir / "forecast.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == "time,edge,forecast_mean,forecast_var"
        assert len(lines) == 1 + 6 * 2  # 5 rolling + 1 beyond, per edge

    def test_two_lag_simulate_estimate_recovers_truth(self, workdir, tmp_path):
        # the canonical two-lag configuration round-trips through the CLI
        # with the estimate landing near the simulated coefficients
        params = GrouParams(
            np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0]))
        )
        (workdir / "params2.json").write_text(params.to_json())
        noise = LevySpec(np.zeros(2), np.eye(2))
        (workdir / "brownian.json").write_text(noise.to_json())
        assert (
            run(
                [
                    "simulate",
                    "--graph", str(workdir / "graph.json"),
                    "--params", str(workdir / "params2.json"),
                    "--noise", str(workdir / "brownian.json"),
                    "--t-end", "8.0",
                    "--mesh-fine", str(2.0**-10),
                    "--ratio", "16",
                    "--seed", "12",
                    "--out", str(workdir / "path2.csv"),
                ]
            )
            == 0
        )
        assert (
            run(
                [
                    "estimate",
                    "--path", str(workdir / "path2.csv"),
                    "--ratio", "16",
                    "--graph", str(workdir / "graph.json"),
                    "--lags", "2",
                    "--stages", "1,1",
                    "--triplet", str(workdir / "brownian.json"),
                    "--out", str(workdir / "report2.json"),
                ]
            )
            == 0
        )
        report = json.loads((workdir / "report2.json").read_text())
        theta = np.asarray(report["theta"])
        truth = params.flatten()
        # lag-1 block is sharply identified; the lag-2 block carries the
        # slow mode and stays loose at this horizon
        assert np.all(np.abs(theta[:3] - truth[:3]) < 1.2)
        assert np.all(np.abs(theta - truth) < 3.0)

    def test_estimate_missing_columns_exit_1(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text("a,b\n0,1\n1,2\n")
        code = run(
            ["estimate", "--path", str(bad), "--stages", "0", "--out", str(workdir / "r.json")]
        )
        assert code == 1

    def test_estimate_degenerate_data_exit_2(self, workdir):
        flat = workdir / "flat.csv"
        rows = "\n".join(f"{0.01 * k:.17g},0,0" for k in range(240))
        flat.write_text("time,e_1,e_2\n" + rows + "\n")
        code = run(
            [
                "estimate",
                "--path", str(flat),
                "--stages", "0",
                "--triplet", str(workdir / "noise.json"),
                "--ridge", "0",
                "--out", str(workdir / "r.json"),
            ]
        )
        assert code == 2

    def test_singular_fit_exit_2(self, workdir, monkeypatch, capsys):
        # numpy's LinAlgError subclasses ValueError, but is a numerical error
        def singular_fit(*args, **kwargs):
            return np.linalg.solve(np.zeros((2, 2)), np.ones(2))

        monkeypatch.setattr("grou.cli.estimate_drift", singular_fit)
        run(simulate_args(workdir))
        code = run(
            [
                "estimate",
                "--path", str(workdir / "path.csv"),
                "--stages", "0",
                "--out", str(workdir / "r.json"),
            ]
        )
        assert code == 2
        assert "LinAlgError" in capsys.readouterr().err

    def test_stage_requires_graph(self, workdir):
        run(simulate_args(workdir))
        code = run(
            [
                "estimate",
                "--path", str(workdir / "path.csv"),
                "--stages", "1",
                "--out", str(workdir / "r.json"),
            ]
        )
        assert code == 1


class TestBenchmark:
    def test_small_study_table(self, workdir):
        config = {
            "design": {"sigma2": 1.0, "scenario": "correct"},
            "n_paths": 3,
            "n_obs": 400,
            "test_size": 100,
            "seed": 5,
            "models": ["NA", "AR", "GROU"],
        }
        (workdir / "study.json").write_text(json.dumps(config))
        code = run(
            [
                "benchmark",
                "--config", str(workdir / "study.json"),
                "--out", str(workdir / "table.csv"),
            ]
        )
        assert code == 0
        lines = [
            ln for ln in (workdir / "table.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0].startswith("model,rmse_mean")
        assert len(lines) == 4
        na = lines[1].split(",")
        assert na[0] == "NA" and float(na[3]) == 0.5

    def test_unknown_scenario_exit_1(self, workdir):
        config = {"design": {"scenario": "nonsense"}}
        (workdir / "study.json").write_text(json.dumps(config))
        assert (
            run(
                [
                    "benchmark",
                    "--config", str(workdir / "study.json"),
                    "--out", str(workdir / "t.csv"),
                ]
            )
            == 1
        )


class TestMrcCommand:
    def test_prices_to_edges(self, workdir):
        rng = np.random.default_rng(0)
        n = 1800
        prices = 100 * np.exp(rng.normal(size=(n, 3)).cumsum(axis=0) * 1e-4)
        lines = ["timestamp,AAA,BBB,CCC"]
        for k in range(n):
            lines.append(f"{k},{prices[k,0]:.8f},{prices[k,1]:.8f},{prices[k,2]:.8f}")
        (workdir / "prices.csv").write_text("\n".join(lines) + "\n")
        code = run(
            [
                "mrc",
                "--prices", str(workdir / "prices.csv"),
                "--freq", "1",
                "--window", "300",
                "--out", str(workdir / "edges.csv"),
            ]
        )
        assert code == 0
        body = [
            ln for ln in (workdir / "edges.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert body[0] == "window_start,pair,value"
        assert len(body) == 1 + 6 * 3  # 6 windows x 3 pairs

    def test_bad_prices_exit_1(self, workdir):
        (workdir / "prices.csv").write_text("x,y\n1,2\n")
        code = run(
            [
                "mrc",
                "--prices", str(workdir / "prices.csv"),
                "--out", str(workdir / "edges.csv"),
            ]
        )
        assert code == 2  # ingestion failure is a data error


class TestSelect:
    def make_edge_series(self, workdir, n=600, seed=4):
        # persistent mean-reverting pair series so the fits are sane
        rng = np.random.default_rng(seed)
        pairs = ["A-B", "A-C", "B-C"]
        x = np.zeros((n, 3))
        for t in range(1, n):
            x[t] = 0.95 * x[t - 1] + 0.1 * rng.normal(size=3)
        lines = ["window_start,pair,value"]
        for t in range(n):
            for j, p in enumerate(pairs):
                lines.append(f"{t},{p},{x[t, j]:.17g}")
        (workdir / "edges.csv").write_text("\n".join(lines) + "\n")

    def test_shapes_mode(self, workdir):
        self.make_edge_series(workdir)
        from grou.graphs import complete_graph

        (workdir / "net.json").write_text(complete_graph(3).to_json())
        config = {
            "edge_series": str(workdir / "edges.csv"),
            "mode": "shapes",
            "graph": str(workdir / "net.json"),
            "shapes": [[1, [1]], [1, [2]]],
            "mesh_fine": 0.01,
            "ratio": 1,
            "seed": 1,
        }
        (workdir / "select.json").write_text(json.dumps(config))
        code = run(
            [
                "select",
                "--config", str(workdir / "select.json"),
                "--out", str(workdir / "selection.json"),
            ]
        )
        assert code == 0
        report = json.loads((workdir / "selection.json").read_text())
        assert report["chosen"]["shape"]["L"] == 1
        models = [row["model"] for row in report["test_table"]]
        assert "NA" in models and any(m.startswith("grOU") for m in models)

    def test_joint_mode(self, workdir):
        self.make_edge_series(workdir, seed=5)
        config = {
            "edge_series": str(workdir / "edges.csv"),
            "mode": "joint",
            "n_vertices": 3,
            "shapes": [[1, [1]]],
            "n_candidates": 5,
            "retain": 2,
            "edge_prob": 0.7,
            "mesh_fine": 0.01,
            "ratio": 1,
            "seed": 2,
        }
        (workdir / "select.json").write_text(json.dumps(config))
        code = run(
            [
                "select",
                "--config", str(workdir / "select.json"),
                "--out", str(workdir / "selection.json"),
            ]
        )
        assert code == 0
        report = json.loads((workdir / "selection.json").read_text())
        assert "chosen_graph" in report


class TestHyphenatedTickers:
    def test_mrc_then_select(self, workdir):
        rng = np.random.default_rng(7)
        prices = 50 * np.exp(rng.normal(size=(2000, 3)).cumsum(axis=0) * 1e-4)
        lines = ["timestamp,BRK-B,BF-B,SPY"]
        lines += [f"{k}," + ",".join(f"{p:.10f}" for p in row) for k, row in enumerate(prices)]
        (workdir / "prices.csv").write_text("\n".join(lines) + "\n")
        edges = str(workdir / "edges.csv")
        mrc_args = ["mrc", "--prices", str(workdir / "prices.csv"), "--freq", "1", "--window", "10"]
        assert run([*mrc_args, "--out", edges]) == 0
        (workdir / "net.json").write_text(json.dumps({"n_vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}))
        config = {
            "edge_series": edges,
            "mode": "shapes",
            "graph": str(workdir / "net.json"),
            "shapes": [[1, [1]]],
            "mesh_fine": 0.01,
            "ratio": 1,
            "seed": 1,
        }
        (workdir / "select.json").write_text(json.dumps(config))
        out = workdir / "selection.json"
        assert run(["select", "--config", str(workdir / "select.json"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["chosen"]["shape"]["L"] == 1


def _config_fault(workdir, name):
    """Write one malformed config; return its argv and the text the error must name."""
    if name == "scenario":
        (workdir / "study.json").write_text(json.dumps({"design": {"scenario": 5}}))
        return ["benchmark", "--config", str(workdir / "study.json")], "5"
    TestSelect().make_edge_series(workdir, n=40)
    config = {"edge_series": str(workdir / "edges.csv"), "mode": "shapes", "ratio": 1,
              "graph": str(workdir / "net.json"), "shapes": [[1, [1]]]}
    graph = {"n_vertices": 3, "edges": [[0, 1], [1, 2]]}
    if name == "graph_vertex":
        graph = {"n_vertices": 4, "edges": [[0, 1], [0, 3]]}
        needle = "(0, 3)"
    else:
        config["shapes"] = {"shape_one_item": [[1]], "shape_int_stages": [[1, 1]]}[name]
        needle = str(config["shapes"][0])
    (workdir / "net.json").write_text(json.dumps(graph))
    (workdir / "select.json").write_text(json.dumps(config))
    return ["select", "--config", str(workdir / "select.json")], needle


class TestUsage:
    @pytest.mark.parametrize(
        "name", ["shape_one_item", "shape_int_stages", "graph_vertex", "scenario"]
    )
    def test_config_fault_is_usage_error(self, workdir, name, capsys):
        argv, needle = _config_fault(workdir, name)
        assert run([*argv, "--out", str(workdir / "out"), "--threads", "1"]) == 1
        assert needle in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand(self):
        assert run([]) == 1

    @pytest.mark.parametrize("threads", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["benchmark", "--config", "study.json"],
            ["select", "--config", "select.json"],
            ["mrc", "--prices", "prices.csv"],
        ],
    )
    def test_threads_below_one_is_usage_error(self, argv, threads, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("grou._parallel.ThreadPoolExecutor", no_pool)
        assert run([*argv, "--out", "out", "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err
