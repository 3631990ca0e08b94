import argparse
import json

import numpy as np
import pytest

import grou.cli
from grou.cli import _build_parser, run
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

    def fit_two_edges(self, workdir):
        assert run(simulate_args(workdir)) == 0
        args = ["estimate", "--path", str(workdir / "path.csv"), "--ratio", "4",
                "--graph", str(workdir / "graph.json"), "--triplet", str(workdir / "noise.json"),
                "--out", str(workdir / "report.json")]
        assert run(args) == 0

    def test_forecast_header_carries_ratio(self, workdir):
        # with --horizon coarse the forecasts depend on the ratio
        self.fit_two_edges(workdir)
        code = run(
            [
                "forecast",
                "--path", str(workdir / "path.csv"),
                "--ratio", "4",
                "--fit", str(workdir / "report.json"),
                "--graph", str(workdir / "graph.json"),
                "--horizon", "coarse",
                "--out", str(workdir / "forecast.csv"),
            ]
        )
        assert code == 0
        header = (workdir / "forecast.csv").read_text().splitlines()[1]
        assert json.loads(header.removeprefix("# config: "))["ratio"] == 4

    def test_forecast_graph_edge_mismatch_exit_1(self, workdir, capsys):
        self.fit_two_edges(workdir)
        (workdir / "graph3.json").write_text(path_graph(4).to_json())
        code = run(
            [
                "forecast",
                "--path", str(workdir / "path.csv"),
                "--fit", str(workdir / "report.json"),
                "--graph", str(workdir / "graph3.json"),
                "--out", str(workdir / "forecast.csv"),
            ]
        )
        assert code == 1
        assert "weights are for 3 edges" in capsys.readouterr().err

    def test_forecast_horizon_steps_zero_exit_1(self, workdir, capsys):
        self.fit_two_edges(workdir)
        code = run(
            [
                "forecast",
                "--path", str(workdir / "path.csv"),
                "--fit", str(workdir / "report.json"),
                "--graph", str(workdir / "graph.json"),
                "--horizon-steps", "0",
                "--out", str(workdir / "forecast.csv"),
            ]
        )
        assert code == 1
        assert "horizon_steps must be >= 1, got 0" in capsys.readouterr().err
        assert not (workdir / "forecast.csv").exists()

    def test_forecast_negative_eval_tail_exit_1(self, workdir, capsys):
        self.fit_two_edges(workdir)
        argv = [
            "forecast",
            "--path", str(workdir / "path.csv"),
            "--fit", str(workdir / "report.json"),
            "--graph", str(workdir / "graph.json"),
            "--out", str(workdir / "forecast.csv"),
        ]
        assert run([*argv, "--eval-tail", "-5"]) == 1
        assert "--eval-tail must be >= 0, got -5" in capsys.readouterr().err
        assert not (workdir / "forecast.csv").exists()
        # zero stays valid: only the forecast beyond the path
        assert run([*argv, "--eval-tail", "0"]) == 0
        assert "wrote 1 forecast rows" in capsys.readouterr().out

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

    @pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_ridge_exit_1(self, workdir, ridge, capsys):
        run(simulate_args(workdir))
        argv = ["estimate", "--path", str(workdir / "path.csv"), "--stages", "0", "--ridge", ridge]
        assert run([*argv, "--out", str(workdir / "r.json")]) == 1
        assert f"ridge must be finite and >= 0, got {float(ridge)}" in capsys.readouterr().err
        assert not (workdir / "r.json").exists()

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

    def test_discrete_models_need_no_triplet(self, workdir):
        """50 points leave too few coarse increments for the noise triplet,
        which none of the discrete-time models uses."""
        config = {
            "design": {"sigma2": 1.0},
            "n_paths": 2,
            "n_obs": 50,
            "test_size": 10,
            "models": ["NA", "AR", "VAR", "GNAR"],
        }
        (workdir / "study.json").write_text(json.dumps(config))
        argv = ["benchmark", "--config", str(workdir / "study.json")]
        assert run([*argv, "--out", str(workdir / "t.csv")]) == 0
        lines = (workdir / "t.csv").read_text().splitlines()
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert [row.split(",")[0] for row in rows[1:]] == config["models"]

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

    def write_prices(self, workdir, extra_rows):
        rows = [f"{k},{100 + k % 7},{50 + k % 5}" for k in range(600)] + extra_rows
        (workdir / "prices.csv").write_text("timestamp,AAA,BBB\n" + "\n".join(rows) + "\n")
        return ["mrc", "--prices", str(workdir / "prices.csv"), "--window", "100",
                "--out", str(workdir / "edges.csv")]

    def test_non_finite_timestamps_are_skipped_rows(self, workdir):
        assert run(self.write_prices(workdir, ["nan,101,51", "inf,102,52"])) == 0
        header = (workdir / "edges.csv").read_text().splitlines()[1]
        assert json.loads(header.removeprefix("# config: "))["skipped_rows"] == 2

    def test_step_zero_exit_1(self, workdir, capsys):
        assert run([*self.write_prices(workdir, []), "--step", "0"]) == 1
        assert "step must be positive" in capsys.readouterr().err
        assert not (workdir / "edges.csv").exists()

    def test_absurd_time_span_exit_2(self, workdir, capsys):
        assert run(self.write_prices(workdir, ["1e300,101,51"])) == 2
        assert "time span of 1e+291 s" in capsys.readouterr().err  # read as nanoseconds


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


class TestGridArguments:
    @pytest.mark.parametrize("t_end", ["0", "-5"])
    def test_simulate_horizon_not_positive_exit_1(self, workdir, t_end, capsys):
        args = simulate_args(workdir)
        args[args.index("--t-end") + 1] = t_end
        assert run(args) == 1
        assert "t_end must be positive" in capsys.readouterr().err
        assert not (workdir / "path.csv").exists()

    @pytest.mark.parametrize("ratio", ["0", "-1"])
    @pytest.mark.parametrize("subcommand", ["estimate", "forecast"])
    def test_path_ratio_below_one_exit_1(self, workdir, subcommand, ratio, capsys):
        assert run(simulate_args(workdir)) == 0
        capsys.readouterr()
        args = [subcommand, "--path", str(workdir / "path.csv"), "--ratio", ratio,
                "--out", str(workdir / "out")]
        if subcommand == "forecast":
            args += ["--fit", str(workdir / "report.json")]
        assert run(args) == 1
        assert f"ratio must be >= 1, got {ratio}" in capsys.readouterr().err


def _parser_destinations(subcommand):
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subparsers.choices[subcommand]._actions} - {"help"}


def _header_config(file):
    line = file.read_text().splitlines()[1]
    return json.loads(line.removeprefix("# config: "))


class TestHeaderConfig:
    def test_header_keys_are_the_parsed_flags(self, workdir):
        """Each header config records every flag of its subcommand but the
        outputs (plus the subcommand name and, for mrc, the skip counts)."""
        assert run(simulate_args(workdir, extra=["--truth-out", str(workdir / "truth.json")])) == 0
        fit = TestEstimateForecast()
        fit.fit_two_edges(workdir)
        forecast = ["forecast", "--path", str(workdir / "path.csv"), "--fit",
                    str(workdir / "report.json"), "--graph", str(workdir / "graph.json"),
                    "--out", str(workdir / "forecast.csv")]
        assert run(forecast) == 0
        assert run(TestMrcCommand().write_prices(workdir, [])) == 0
        headers = {
            "simulate": _header_config(workdir / "path.csv"),
            "truth": json.loads((workdir / "truth.json").read_text())["config"],
            "estimate": json.loads((workdir / "report.json").read_text())["config"],
            "forecast": _header_config(workdir / "forecast.csv"),
            "mrc": _header_config(workdir / "edges.csv"),
        }
        for name, config in headers.items():
            subcommand = "simulate" if name == "truth" else name
            expected = _parser_destinations(subcommand) - {"out", "truth_out"} | {"subcommand"}
            if subcommand == "mrc":
                expected |= {"skipped_rows", "skipped_windows"}
            assert set(config) == expected, name
            assert config["subcommand"] == subcommand


# wrong-typed config entries: (subcommand, entries the config sets, entry named)
_WRONG_TYPES = {
    "wrong_type_ratio": ("select", {"ratio": None}, "ratio"),
    "wrong_type_tolerance": ("select", {"tolerance": [1]}, "tolerance"),
    "wrong_type_mesh_fine": ("select", {"mesh_fine": None}, "mesh_fine"),
    "wrong_type_eval_fraction": ("select", {"eval_fraction": {}}, "eval_fraction"),
    "wrong_type_test_fraction": ("select", {"test_fraction": None}, "test_fraction"),
    "wrong_type_seed": ("select", {"seed": [1]}, "seed"),
    "wrong_type_edge_series": ("select", {"edge_series": None}, "edge_series"),
    "wrong_type_n_vertices": ("select", {"mode": "joint", "n_vertices": None}, "n_vertices"),
    "wrong_type_demean": ("select", {"demean": "no"}, "demean"),
    "wrong_type_table_out": ("select", {"table_out": 5}, "table_out"),
    "wrong_type_n_paths": ("benchmark", {"n_paths": None}, "n_paths"),
    "wrong_type_models": ("benchmark", {"models": 5}, "models"),
    "wrong_type_t_end": ("benchmark", {"t_end": [2]}, "t_end"),
    "wrong_type_sigma2": ("benchmark", {"design": {"sigma2": None}}, "sigma2"),
    "wrong_type_study_graph": (
        "benchmark", {"design": {}, "graph": ["g.json"], "params": "p.json", "noise": "n.json"},
        "graph",
    ),
    # integer entries take no booleans and no fractions
    "not_integer_n_candidates": ("select", {"mode": "joint", "n_candidates": True}, "n_candidates"),
    "not_integer_retain": ("select", {"mode": "joint", "retain": 2.9}, "retain"),
    "not_integer_n_vertices": ("select", {"mode": "joint", "n_vertices": False}, "n_vertices"),
    "not_integer_ratio": ("select", {"ratio": True}, "ratio"),
    "not_integer_seed": ("select", {"seed": 1.5}, "seed"),
    "not_integer_n_paths": ("benchmark", {"n_paths": 2.5}, "n_paths"),
    "not_integer_n_obs": ("benchmark", {"n_obs": True}, "n_obs"),
    "not_integer_study_ratio": ("benchmark", {"ratio": False}, "ratio"),
    "not_integer_test_size": ("benchmark", {"test_size": 100.5}, "test_size"),
}


# config entries of the right type that would give an empty or garbage result:
# (subcommand, entries the config sets, text the error must hold)
_OUT_OF_RANGE = {
    "n_paths_zero": ("benchmark", {"n_paths": 0}, "n_paths must be >= 1, got 0"),
    "n_paths_negative": ("benchmark", {"n_paths": -3}, "n_paths must be >= 1, got -3"),
    "models_empty": ("benchmark", {"models": []}, "models must be a non-empty list"),
    "models_string": ("benchmark", {"models": "GNAR"}, "config entry 'models'"),
    "models_unknown": ("benchmark", {"models": ["NA", "ARIMA"]}, "unknown kind 'ARIMA'"),
    "retain_negative": ("select", {"mode": "joint", "retain": -4}, "retain must be >= 1, got -4"),
    "retain_zero": ("select", {"mode": "joint", "retain": 0}, "retain must be >= 1, got 0"),
    "n_candidates_zero": ("select", {"mode": "joint", "n_candidates": 0}, "n_candidates must be >= 1, got 0"),
    "n_candidates_negative": (
        "select", {"mode": "joint", "n_candidates": -3}, "n_candidates must be >= 1, got -3"
    ),
    "tolerance_joint": ("select", {"mode": "joint", "tolerance": -1}, "tolerance must be >= 0"),
    "tolerance_shapes": ("select", {"tolerance": -1}, "tolerance must be >= 0, got -1.0"),
    "eval_fraction_negative": ("select", {"eval_fraction": -0.5}, "eval_fraction must be in (0, 1), got -0.5"),
    "eval_fraction_zero": ("select", {"eval_fraction": 0}, "eval_fraction must be in (0, 1), got 0.0"),
    "eval_fraction_joint": (
        "select", {"mode": "joint", "eval_fraction": 0}, "eval_fraction must be in (0, 1), got 0.0"
    ),
    "eval_fraction_one_joint": (
        "select", {"mode": "joint", "eval_fraction": 1}, "eval_fraction must be in (0, 1), got 1.0"
    ),
    "test_fraction_negative": ("select", {"test_fraction": -1}, "test_fraction must be in (0, 1), got -1.0"),
    "test_fraction_zero": ("select", {"test_fraction": 0}, "test_fraction must be in (0, 1), got 0.0"),
    "test_fraction_joint": (
        "select", {"mode": "joint", "test_fraction": -1}, "test_fraction must be in (0, 1), got -1.0"
    ),
    "test_fraction_above_one_joint": (
        "select", {"mode": "joint", "test_fraction": 1.5}, "test_fraction must be in (0, 1), got 1.5"
    ),
    "shape_negative_stage": (
        "select", {"shapes": [[1, [1]], [1, [-1]]]}, "bad shape [1, [-1]]; need L >= 1 and every R_l >= 0"
    ),
    "shape_no_lag": ("select", {"shapes": [[0, []]]}, "bad shape [0, []]; need L >= 1"),
    "screen_shape_negative_stage": (
        "select", {"mode": "joint", "screen_shape": [2, [1, -1]]}, "bad shape [2, [1, -1]]; need L >= 1"
    ),
    "n_obs_one": ("benchmark", {"n_paths": 1, "n_obs": 1}, "got test_size=400 with n_obs=1"),
    "test_size_above_n_obs": ("benchmark", {"test_size": 3000}, "got test_size=3000 with n_obs=2187"),
    "test_size_zero": ("benchmark", {"test_size": 0}, "test_size must be in [1, n_obs - 2], got test_size=0"),
    "test_size_leaves_one_point": ("benchmark", {"n_obs": 50, "test_size": 49}, "got test_size=49 with n_obs=50"),
}


def _entries_fault(name):
    """``(subcommand, entries, needle)`` of a faulty-entry case, or Nones."""
    if name in _WRONG_TYPES:
        subcommand, entries, key = _WRONG_TYPES[name]
        return subcommand, entries, f"config entry '{key}'"
    return _OUT_OF_RANGE.get(name, (None, None, None))


def _config_fault(workdir, name):
    """Write one malformed config; return its argv and the text the error must name."""
    subcommand, entries, needle = _entries_fault(name)
    if subcommand == "benchmark":
        (workdir / "study.json").write_text(json.dumps({"design": {"sigma2": 1.0}, **entries}))
        return ["benchmark", "--config", str(workdir / "study.json")], needle
    if name == "scenario":
        (workdir / "study.json").write_text(json.dumps({"design": {"scenario": 5}}))
        return ["benchmark", "--config", str(workdir / "study.json")], "5"
    if name == "design_not_object":
        (workdir / "study.json").write_text(json.dumps({"design": 5}))
        return ["benchmark", "--config", str(workdir / "study.json")], "'design' must be a JSON object"
    if name.startswith("study_"):
        study = {key: str(workdir / f"{key}.json") for key in ("graph", "params", "noise")}
        fault, needle = {
            "study_shape": ({"shape": [1, [1]]}, "bad study config shape"),
            "study_lag_mismatch": ({"shape": {"L": 2, "R": [1]}}, "shape mismatch"),
            "study_negative_stage": ({"shape": {"L": 1, "R": [-1]}}, "every R_l >= 0"),
            "study_no_lag": ({"shape": {"L": 0, "R": []}}, "need L >= 1"),
            "study_scenario": ({"scenario": "correct"}, "'scenario' must be a JSON object"),
            "study_missing_edge": ({"scenario": {"type": "missing_edge"}}, "needs an 'edge'"),
        }[name]
        (workdir / "study.json").write_text(json.dumps({**study, **fault}))
        return ["benchmark", "--config", str(workdir / "study.json")], needle
    if name == "select_not_object":
        (workdir / "select.json").write_text(json.dumps([1, 2]))
        return ["select", "--config", str(workdir / "select.json")], "[1, 2]"
    TestSelect().make_edge_series(workdir, n=40)
    config = {"edge_series": str(workdir / "edges.csv"), "mode": "shapes", "ratio": 1,
              "graph": str(workdir / "net.json"), "shapes": [[1, [1]]]}
    graph = {"n_vertices": 3, "edges": [[0, 1], [1, 2]]}
    if entries is not None:
        config.update(entries)
    elif name == "graph_vertex":
        graph = {"n_vertices": 4, "edges": [[0, 1], [0, 3]]}
        needle = "(0, 3)"
    elif name.startswith("select_ratio"):
        config["ratio"] = {"select_ratio_zero": 0, "select_ratio_negative": -1}[name]
        needle = f"ratio must be >= 1, got {config['ratio']}"
    else:
        config["shapes"] = {
            "shape_one_item": [[1]],
            "shape_int_stages": [[1, 1]],
            "shape_lag_mismatch": [[2, [1]]],
        }[name]
        needle = str(config["shapes"][0])
    (workdir / "net.json").write_text(json.dumps(graph))
    (workdir / "select.json").write_text(json.dumps(config))
    return ["select", "--config", str(workdir / "select.json")], needle


class TestUsage:
    @pytest.mark.parametrize(
        "name",
        [
            "shape_one_item",
            "shape_int_stages",
            "shape_lag_mismatch",
            "graph_vertex",
            "scenario",
            "design_not_object",
            "study_shape",
            "study_lag_mismatch",
            "study_negative_stage",
            "study_no_lag",
            "study_scenario",
            "study_missing_edge",
            "select_not_object",
            "select_ratio_zero",
            "select_ratio_negative",
            *_WRONG_TYPES,
        ],
    )
    def test_config_fault_is_usage_error(self, workdir, name, capsys, monkeypatch):
        """Rejected before any path is simulated."""

        def not_reached(*args, **kwargs):
            raise AssertionError("a path was simulated before the config was checked")

        monkeypatch.setattr("grou.benchmarks.simulate_paths", not_reached)
        argv, needle = _config_fault(workdir, name)
        assert run([*argv, "--out", str(workdir / "out")]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(_OUT_OF_RANGE))
    def test_out_of_range_entry_is_usage_error(self, workdir, name, capsys, monkeypatch):
        """Rejected before any path is simulated or candidate screened."""

        def not_reached(*args, **kwargs):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr("grou.benchmarks.simulate_paths", not_reached)
        monkeypatch.setattr("grou.selection._score_graphs", not_reached)
        argv, needle = _config_fault(workdir, name)
        assert run([*argv, "--out", str(workdir / "out")]) == 1
        assert needle in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_parser_is_built_once_on_the_first_run(self, monkeypatch):
        built = []

        def build():
            built.append(1)
            return _build_parser()

        monkeypatch.setattr(grou.cli, "_build_parser", build)
        grou.cli._parser.cache_clear()
        try:
            assert not built
            assert run(["frobnicate"]) == 1
            assert run([]) == 1
            assert len(built) == 1
        finally:
            grou.cli._parser.cache_clear()

    def test_a_parse_leaves_no_state_on_the_parser(self):
        parser = grou.cli._parser()
        first = parser.parse_args(["benchmark", "--config", "a.json", "--seed", "3", "--out", "o"])
        with pytest.raises(grou.cli._UsageError):
            parser.parse_args(["benchmark", "--config", "a.json", "--seed", "x", "--out", "o"])
        again = parser.parse_args(["benchmark", "--config", "b.json", "--out", "p"])
        assert (first.seed, first.config) == (3, "a.json")
        assert (again.seed, again.config, again.out) == (None, "b.json", "p")
        assert again.func is first.func is grou.cli._cmd_benchmark

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
    def test_threads_below_one_is_usage_error(self, argv, threads, capsys):
        """The subcommands run serially and take no ``--threads``: any value,
        these included, is an unknown flag."""
        assert run([*argv, "--out", "out", "--threads", threads]) == 1
        assert f"unrecognized arguments: --threads {threads}" in capsys.readouterr().err
