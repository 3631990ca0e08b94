"""The three benchmark workloads.

A workload has two halves.  ``prepare`` runs in the parent process before
any clock starts and writes the input files the benchmark makes for itself
(price CSVs, config JSON).  The rest runs in a fresh worker process:
``setup`` imports ``grou`` and builds the inputs through the public API,
``run_round`` performs one round of operations (the timed part),
``check_round`` checks that round's outputs, and ``finish`` applies the
checks that pool over the whole run.

Every round of a workload performs the same operations, so the share of
failed operations is the same in every run.  Library calls go through
module attributes at call time (``grou.simulate_path``, ``grou.cli.run``)
so that a traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import oracles


@dataclass
class RoundResult:
    reps: int
    attempted: int
    failed: int = 0
    payload: object = None
    errors: list = field(default_factory=list)


def _no_span(name, cpu=False):
    return nullcontext()


class Workload:
    name = ""

    def __init__(self, run_dir, seed, tracer=None):
        self.run_dir = run_dir
        self.seed = seed
        self.span = tracer.span if tracer is not None else _no_span

    def file(self, name):
        return os.path.join(self.run_dir, name)

    def prepare(self):
        """Write the benchmark's own input files (parent process, before timing)."""

    def setup(self):
        raise NotImplementedError

    def run_round(self, i) -> RoundResult:
        raise NotImplementedError

    def check_round(self, result: RoundResult) -> list:
        return []

    def finish(self) -> list:
        return []

    def input_files(self):
        """Generated files that are deleted when the run ends."""
        return []


# -- mc-consistency-t8 ---------------------------------------------------------

REGIMES = ("brownian", "compound_poisson", "symmetric_gamma")
T_END = 8.0
ALPHA = [[4.0, 3.0], [2.0, 1.0]]
BETA = [[1.0], [1.0]]
# path_graph(3): edges (0,1) and (1,2) share vertex 1, so each is the
# other's only stage-1 neighbour and the row-normalised weight matrix swaps them
PATH3_WEIGHTS = [np.array([[0.0, 1.0], [1.0, 0.0]])]
# thresholding exponents of the estimator's defaults (finite, infinite activity)
BETA_EXP = {"brownian": 0.2, "compound_poisson": 0.2, "symmetric_gamma": 0.1}
# covariance of the driving noise per unit time: Brownian I, plus rate*jump_cov
# for compound Poisson (rate 1, I) or 2*shape*scale^2 for symmetric Gamma (1, 1)
NOISE_COV_RATE = {"brownian": 1.0, "compound_poisson": 2.0, "symmetric_gamma": 3.0}
CP_RATE = 1.0


class ConsistencyT8(Workload):
    """Criterion 3's t=8 design: one stationary path and one known-triplet fit per replication."""

    name = "mc-consistency-t8"

    def setup(self):
        import grou

        self.grou = grou
        graph = grou.path_graph(3)
        self.weights = grou.weight_matrices(graph, 1)
        params = grou.GrouParams(np.array(ALPHA), tuple(np.array(b) for b in BETA))
        self.system = grou.build_companion(params, self.weights)
        K = graph.n_edges
        self.specs = {
            "brownian": grou.LevySpec(np.zeros(K), np.eye(K)),
            "compound_poisson": grou.LevySpec(
                np.zeros(K), np.eye(K), grou.CompoundPoissonJumps(CP_RATE, np.eye(K))
            ),
            "symmetric_gamma": grou.LevySpec(
                np.zeros(K), np.eye(K), grou.SymmetricGammaJumps(1.0, 1.0)
            ),
        }
        self.grid = grou.power_law_grids(T_END, mesh_cap=2.0**-14)
        self.meansquares = {r: [] for r in REGIMES}
        self.arrivals = 0
        self.cp_time = 0.0

    def run_round(self, i):
        grou = self.grou
        out = []
        with self.span("bench.work"):
            for j, regime in enumerate(REGIMES):
                spec = self.specs[regime]
                seed = np.random.SeedSequence(entropy=self.seed, spawn_key=(i, j))
                path = grou.simulate_path(self.system, spec, self.grid, init="stationary", rng_seed=seed)
                fit = grou.estimate_drift(path, self.weights, (2, [1, 1]), spec)
                out.append((regime, path, fit))
        return RoundResult(reps=len(REGIMES), attempted=len(REGIMES), payload=out)

    def check_round(self, result):
        fails = []
        for regime, path, fit in result.payload:
            times = path.grid.fine
            ref = oracles.drift_estimate(
                path.values, times, path.grid.coarse_idx, (2, (1, 1)), PATH3_WEIGHTS,
                np.eye(path.n_edges), np.zeros(path.n_edges), BETA_EXP[regime], fit.ridge_used,
            )
            fails += [f"{regime}: {m}" for m in oracles.check_drift_fit(fit.theta_hat, ref)]
            self.meansquares[regime].append(np.mean(path.values**2, axis=0))
            if regime == "compound_poisson":
                arrivals = path.truth.arrival_times
                fails += oracles.check_arrival_times(arrivals, times[-1])
                self.arrivals += arrivals.size
                self.cp_time += times[-1] - times[0]
        return fails

    def finish(self):
        fails = oracles.check_poisson_count(self.arrivals, CP_RATE * self.cp_time)
        T = oracles.companion_transition(ALPHA, BETA, PATH3_WEIGHTS)
        K = 2
        for regime in REGIMES:
            G = oracles.stationary_state_cov(T, NOISE_COV_RATE[regime] * np.eye(K))
            spread = oracles.meansquare_spread(T, G, K, T_END)
            fails += [
                f"{regime}: {m}"
                for m in oracles.check_pooled_variance(
                    self.meansquares[regime], np.diag(G)[:K], spread
                )
            ]
        return fails


# -- mc-predictive-k10 ---------------------------------------------------------

PATHS_PER_CALL = 8
STUDY = {
    "design": {"sigma2": 10.0, "scenario": "correct"},
    "n_paths": PATHS_PER_CALL,
    "n_obs": 2187,
    "t_end": 2.0,
    "ratio": 1,
    "test_size": 400,
}


class PredictiveK10(Workload):
    """``grou benchmark`` on the built-in predictive design, all seven models."""

    name = "mc-predictive-k10"

    def prepare(self):
        with open(self.file("study.json"), "w") as fh:
            json.dump(STUDY, fh)

    def setup(self):
        import grou
        import grou.cli

        self.grou = grou
        self.tables = []

    def call_seed(self, i):
        return self.seed * 100_000 + i

    def run_round(self, i):
        argv = [
            "benchmark", "--config", self.file("study.json"),
            "--seed", str(self.call_seed(i)), "--out", self.file("table.csv"),
        ]
        with self.span("bench.work"):
            code = self.grou.cli.run(argv)
        failed = int(code != 0)
        return RoundResult(
            reps=PATHS_PER_CALL, attempted=PATHS_PER_CALL, failed=PATHS_PER_CALL * failed,
            payload=i, errors=[f"grou benchmark exited {code}"] if failed else [],
        )

    def na_rmse_mean(self, seed):
        """Mean over the study's paths of the carry-forward RMSE on their test ranges."""
        grou = self.grou
        cfg = grou.predictive_study_config(sigma2=STUDY["design"]["sigma2"], seed=seed)
        system = grou.build_companion(cfg.params, grou.weight_matrices(cfg.graph, 1))
        n_obs, t_end = STUDY["n_obs"], STUDY["t_end"]
        grid = grou.make_uniform_grids(t_end, t_end / (n_obs - 1), STUDY["ratio"])
        n_train = n_obs - STUDY["test_size"]
        rmses = []
        for k in range(PATHS_PER_CALL):
            path_seed = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
            path = grou.simulate_path(system, cfg.noise, grid, init="stationary", rng_seed=path_seed)
            rmses.append(oracles.naive_rmse(path.values, n_train))
        return float(np.mean(rmses))

    def check_round(self, result):
        if result.failed:
            return []
        rows = oracles.read_study_table(self.file("table.csv"))
        fails = oracles.check_study_table(rows, self.na_rmse_mean(self.call_seed(result.payload)))
        if not fails:
            self.tables.append(oracles.study_values(rows))
        return fails

    def finish(self):
        return oracles.check_pooled_study(self.tables) if self.tables else []


# -- cli-mrc-select ------------------------------------------------------------

N_ASSETS, N_WINDOWS, WINDOW = 8, 4500, 60
SHAPES = [[1, [1]], [1, [2]], [2, [1, 1]], [2, [2, 2]], [3, [1, 1, 1]], [3, [2, 2, 2]]]
SAMPLED_WINDOWS = 12
# pair labels of these tickers contain "-", the edge-series CSV separator
HYPHEN_TICKERS = ("BRK-B", "BF-B", "SPY")
HYPHEN_ROWS, HYPHEN_WINDOW, HYPHEN_SEED = 2000, 10, 20240229


def write_price_fixture(file, seed):
    """Criterion 8's synthetic eight-asset one-second prices with persistent common volatility."""
    rng = np.random.default_rng(seed)
    corr = np.full((N_ASSETS, N_ASSETS), 0.3) + 0.7 * np.eye(N_ASSETS)
    chol = np.linalg.cholesky(corr)
    logv = np.zeros(N_WINDOWS)
    for w in range(1, N_WINDOWS):
        logv[w] = 0.85 * logv[w - 1] + 0.35 * rng.standard_normal()
    rows = N_WINDOWS * WINDOW
    z = rng.standard_normal((rows, N_ASSETS))
    vol = np.repeat(np.sqrt(1e-8 * np.exp(logv)), WINDOW)
    log_price = np.log(100.0) + np.cumsum((z @ chol.T) * vol[:, None], axis=0)
    prices = np.exp(log_price + 2e-5 * rng.standard_normal((rows, N_ASSETS)))
    _write_prices(file, [f"A{k}" for k in range(N_ASSETS)], prices)


def _write_prices(file, names, prices):
    with open(file, "w") as fh:
        fh.write("timestamp," + ",".join(names) + "\n")
        for k, row in enumerate(prices):
            fh.write(f"{k}," + ",".join(f"{p:.10f}" for p in row) + "\n")


class CliMrcSelect(Workload):
    """``grou mrc`` then joint-mode ``grou select``, plus one short hyphenated-ticker chain."""

    name = "cli-mrc-select"

    def prepare(self):
        write_price_fixture(self.file("prices.csv"), self.seed)
        select = {
            "edge_series": self.file("edges.csv"),
            "mode": "joint",
            "n_vertices": N_ASSETS,
            "shapes": SHAPES,
            "n_candidates": 1000,
            "edge_prob": 0.4,
            "retain": 50,
            "mesh_fine": 0.01,
            "ratio": 18,
            "test_fraction": 0.2,
            "seed": self.seed,
        }
        with open(self.file("select.json"), "w") as fh:
            json.dump(select, fh)
        # the hyphenated-ticker inputs do not depend on the seed
        rng = np.random.default_rng(HYPHEN_SEED)
        steps = 1e-4 * rng.standard_normal((HYPHEN_ROWS, len(HYPHEN_TICKERS)))
        _write_prices(self.file("hyphen_prices.csv"), HYPHEN_TICKERS, 50.0 * np.exp(np.cumsum(steps, axis=0)))
        with open(self.file("hyphen_graph.json"), "w") as fh:
            json.dump({"n_vertices": 3, "directed": False, "edges": [[0, 1], [0, 2], [1, 2]]}, fh)
        hyphen_select = {
            "edge_series": self.file("hyphen_edges.csv"),
            "mode": "shapes",
            "graph": self.file("hyphen_graph.json"),
            "shapes": [[1, [1]]],
            "mesh_fine": 0.01,
            "ratio": 1,
            "seed": 1,
        }
        with open(self.file("hyphen_select.json"), "w") as fh:
            json.dump(hyphen_select, fh)

    def input_files(self):
        return [self.file(n) for n in ("prices.csv", "edges.csv", "hyphen_prices.csv", "hyphen_edges.csv")]

    def setup(self):
        import grou
        import grou.cli

        self.grou = grou
        self.sample_prices = None

    def _chain(self, prices, window, edges, select_cfg, out):
        run = self.grou.cli.run
        code = run(["mrc", "--prices", prices, "--freq", "1", "--window", str(window), "--out", edges])
        if code != 0:
            return f"grou mrc exited {code}"
        code = run(["select", "--config", select_cfg, "--out", out])
        return f"grou select exited {code}" if code != 0 else None

    def run_round(self, i):
        with self.span("bench.work"):
            error = self._chain(
                self.file("prices.csv"), WINDOW, self.file("edges.csv"),
                self.file("select.json"), self.file("selection.json"),
            )
        errors = [error] if error else []
        # shapes-mode select on hyphenated tickers; the edge-series reader
        # splits their pair labels on "-" and the column map overruns
        with self.span("bench.extra"):
            try:
                hyphen_error = self._chain(
                    self.file("hyphen_prices.csv"), HYPHEN_WINDOW, self.file("hyphen_edges.csv"),
                    self.file("hyphen_select.json"), self.file("hyphen_selection.json"),
                )
            except Exception as exc:  # the failure under measurement; recorded, not fatal
                hyphen_error = f"hyphenated tickers: {type(exc).__name__}: {exc}"
        if hyphen_error:
            errors.append(hyphen_error)
        return RoundResult(
            reps=1, attempted=2, failed=int(bool(error)) + int(bool(hyphen_error)), payload=error, errors=errors
        )

    def check_round(self, result):
        if result.payload:
            return []
        if self.sample_prices is None:
            windows = np.random.default_rng(self.seed).choice(N_WINDOWS, SAMPLED_WINDOWS, replace=False)
            ranges = [(int(w) * WINDOW, (int(w) + 1) * WINDOW) for w in windows]
            by_range = oracles.read_price_rows(self.file("prices.csv"), ranges)
            # timestamps are the row numbers, so a window starts at its first row
            self.sample_prices = {float(lo): v for (lo, _), v in by_range.items()}
        values, n_rows = oracles.read_edge_windows(self.file("edges.csv"), self.sample_prices)
        n_pairs = N_ASSETS * (N_ASSETS - 1) // 2
        fails = []
        if n_rows != N_WINDOWS * n_pairs:
            fails.append(f"edge series has {n_rows} rows, expected {N_WINDOWS} windows x {n_pairs} pairs")
        fails += oracles.check_mrc_windows(values, self.sample_prices, [f"A{k}" for k in range(N_ASSETS)])
        with open(self.file("selection.json")) as fh:
            fails += oracles.check_select_report(json.load(fh))
        return fails


WORKLOADS = {w.name: w for w in (ConsistencyT8, PredictiveK10, CliMrcSelect)}
