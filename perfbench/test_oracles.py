"""Tests of the benchmark's own checks: each passes on a good output and fails on a corrupted one.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_oracles.py``.
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import grou  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def fitted_path():
    weights = grou.weight_matrices(grou.path_graph(3), 1)
    params = grou.GrouParams(np.array(workloads.ALPHA), tuple(np.array(b) for b in workloads.BETA))
    system = grou.build_companion(params, weights)
    spec = grou.LevySpec(np.zeros(2), np.eye(2), grou.CompoundPoissonJumps(1.0, np.eye(2)))
    grid = grou.make_uniform_grids(4.0, 2.0**-10, 16)
    path = grou.simulate_path(system, spec, grid, rng_seed=5)
    fit = grou.estimate_drift(path, weights, (2, [1, 1]), spec)
    return path, fit


def _oracle_theta(path, fit):
    return oracles.drift_estimate(
        path.values, path.grid.fine, path.grid.coarse_idx, (2, (1, 1)), workloads.PATH3_WEIGHTS,
        np.eye(2), np.zeros(2), 0.2, fit.ridge_used,
    )


def test_drift_fit_matches_and_corruption_fails(fitted_path):
    path, fit = fitted_path
    ref = _oracle_theta(path, fit)
    assert oracles.check_drift_fit(fit.theta_hat, ref) == []
    bad = fit.theta_hat.copy()
    bad[3] *= 1.0 + 1e-6
    assert oracles.check_drift_fit(bad, ref)
    assert oracles.check_drift_fit(fit.theta_hat[:-1], ref)
    assert oracles.check_drift_fit(np.full_like(bad, np.nan), ref)


def test_drift_oracle_sees_a_wrong_threshold(fitted_path):
    path, fit = fitted_path
    loose = oracles.drift_estimate(
        path.values, path.grid.fine, path.grid.coarse_idx, (2, (1, 1)), workloads.PATH3_WEIGHTS,
        np.eye(2), np.zeros(2), 0.05, fit.ridge_used,
    )
    assert oracles.check_drift_fit(fit.theta_hat, loose)


def test_poisson_and_arrival_checks():
    assert oracles.check_poisson_count(80, 80.0) == []
    assert oracles.check_poisson_count(140, 80.0)
    assert oracles.check_poisson_count(0, 80.0)
    assert oracles.check_arrival_times(np.array([0.5, 1.0, 7.9]), 8.0) == []
    assert oracles.check_arrival_times(np.array([1.0, 0.5]), 8.0)
    assert oracles.check_arrival_times(np.array([0.5, 8.5]), 8.0)


def test_stationary_variance_matches_library():
    T = oracles.companion_transition(workloads.ALPHA, workloads.BETA, workloads.PATH3_WEIGHTS)
    G = oracles.stationary_state_cov(T, 2.0 * np.eye(2))
    weights = grou.weight_matrices(grou.path_graph(3), 1)
    params = grou.GrouParams(np.array(workloads.ALPHA), tuple(np.array(b) for b in workloads.BETA))
    spec = grou.LevySpec(np.zeros(2), np.eye(2), grou.CompoundPoissonJumps(1.0, np.eye(2)))
    lib = grou.stationary_moments(grou.build_companion(params, weights), spec).variance
    np.testing.assert_allclose(G[:2, :2], lib, rtol=1e-10)


def test_pooled_variance_band():
    T = oracles.companion_transition(workloads.ALPHA, workloads.BETA, workloads.PATH3_WEIGHTS)
    G = oracles.stationary_state_cov(T, 3.0 * np.eye(2))
    var = np.diag(G)[:2]
    spread = oracles.meansquare_spread(T, G, 2, 8.0)
    rng = np.random.default_rng(0)
    good = var * rng.gamma(2.0, 0.5, size=(10, 2))
    assert oracles.check_pooled_variance(good, var, spread) == []
    blown = good.copy()
    blown[4] = 1e17
    assert oracles.check_pooled_variance(blown, var, spread)
    assert oracles.check_pooled_variance(good * 10.0, var, spread)


def _study_rows():
    rows = []
    for k, model in enumerate(oracles.MODELS):
        rows.append({
            "model": model, "rmse_mean": repr(0.062 * (1 + 0.001 * k)), "rmse_sd": "0.05",
            "diracc_mean": "0.5" if model == "NA" else "0.515", "diracc_sd": "0.01",
            "time_mean": "0.01", "time_sd": "0.001",
        })
    return rows


def test_study_table_checks():
    rows = _study_rows()
    assert oracles.check_study_table(rows, 0.062) == []
    assert oracles.check_study_table(rows[:-1], 0.062)
    assert oracles.check_study_table(rows, 0.0621)
    bad = _study_rows()
    bad[0]["diracc_mean"] = "0.50000001"
    assert oracles.check_study_table(bad, 0.062)
    bad = _study_rows()
    bad[2]["rmse_sd"] = "nan"
    assert oracles.check_study_table(bad, 0.062)
    bad[2]["rmse_sd"] = "n/a"
    assert oracles.check_study_table(bad, 0.062)


def test_pooled_study_checks():
    good = oracles.study_values(_study_rows())
    assert oracles.check_pooled_study([good, good]) == []
    off = oracles.study_values(_study_rows())
    off["AR"]["rmse_mean"] = 0.062 * 1.06
    assert oracles.check_pooled_study([good, off])
    assert oracles.check_pooled_study([good, good, off, off, off, off]) != []
    weak = oracles.study_values(_study_rows())
    weak["GROU"]["diracc_mean"] = 0.48
    assert oracles.check_pooled_study([good, weak])


def test_naive_rmse():
    values = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [0.0, 2.0]])
    assert math.isclose(oracles.naive_rmse(values, 2), math.sqrt((0 + 4 + 1 + 0) / 4))


def test_mrc_windows_match_library_and_corruption_fails():
    rng = np.random.default_rng(3)
    logp = np.log(100.0) + np.cumsum(1e-4 * rng.standard_normal((60, 4)), axis=0)
    lib = grou.mrc(logp)
    ids = [f"A{k}" for k in range(4)]
    values = {0.0: {f"{ids[i]}-{ids[j]}": lib.matrix[i, j] for i in range(4) for j in range(i + 1, 4)}}
    assert oracles.check_mrc_windows(values, {0.0: logp}, ids) == []
    values[0.0]["A1-A3"] *= 1.0 + 1e-6
    assert oracles.check_mrc_windows(values, {0.0: logp}, ids)
    assert oracles.check_mrc_windows({}, {0.0: logp}, ids)


def test_price_and_edge_readers(tmp_path):
    prices = tmp_path / "p.csv"
    prices.write_text("timestamp,A,B\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n")
    rows = oracles.read_price_rows(prices, [(1, 3)])
    np.testing.assert_allclose(rows[(1, 3)], np.log([[3.0, 4.0], [5.0, 6.0]]))
    edges = tmp_path / "e.csv"
    edges.write_text("# grou\nwindow_start,pair,value\n0,A-B,1.5\n60,A-B,2.5\n")
    values, n = oracles.read_edge_windows(edges, [60.0])
    assert n == 2 and values == {60.0: {"A-B": 2.5}}


def _select_doc():
    table = [{"model": m, "rmse": 1e-7, "dir_acc": 0.5 if m == "NA" else 0.69} for m in oracles.MODELS[:-1]]
    table.append({"model": "grOU(1,[1])", "rmse": 1e-7, "dir_acc": 0.69})
    return {"test_table": table}


def test_select_report_checks():
    assert oracles.check_select_report(_select_doc()) == []
    doc = _select_doc()
    doc["test_table"][0]["dir_acc"] = 0.49
    assert oracles.check_select_report(doc)
    doc = _select_doc()
    doc["test_table"][-1]["dir_acc"] = 0.5
    assert oracles.check_select_report(doc)
    doc = _select_doc()
    del doc["test_table"][3]
    assert oracles.check_select_report(doc)
    assert oracles.check_select_report({})


def test_tracer_wraps_every_import_site_and_restores_them():
    tracer = tracing.Tracer()
    original = grou.estimate_drift
    tracing.install_library_spans(tracer)
    try:
        assert grou.estimate_drift is not original
        assert sys.modules["grou.selection"].estimate_drift is grou.estimate_drift
        assert sys.modules["grou.benchmarks"].estimate_drift is grou.estimate_drift
        weights = grou.weight_matrices(grou.path_graph(3), 1)
        params = grou.GrouParams(np.array(workloads.ALPHA), tuple(np.array(b) for b in workloads.BETA))
        system = grou.build_companion(params, weights)
        spec = grou.LevySpec(np.zeros(2), np.eye(2), grou.CompoundPoissonJumps(1.0, np.eye(2)))
        grid = grou.make_uniform_grids(2.0, 2.0**-8, 16)
        with tracer.span("bench.work"):
            path = grou.simulate_path(system, spec, grid, rng_seed=1)
            grou.estimate_drift(path, weights, (2, [1, 1]), spec)
        grou.simulate_path(system, spec, grid, rng_seed=2)  # outside the work span
    finally:
        tracer.uninstall()
    assert grou.estimate_drift is original
    assert sys.modules["grou.selection"].estimate_drift is original
    metrics = tracing.layer_metrics(tracer.spans, reps=1)
    assert set(metrics) == set(tracing.LAYER_UNITS) - {"trace.reps_per_s"}
    assert metrics["simulate.simulate_path.ms"] > 0
    assert metrics["simulate.expm_calls"] > 0
    assert metrics["simulate.jumps"] == path.truth.arrival_times.size
    assert metrics["model.stationary_moments.ms"] > 0
    assert metrics["estimate.n_coarse"] > 0
    assert metrics["mrc.windows"] == 0
    names = [s.name for s in tracer.spans]
    assert names.count("simulate.simulate_path") == 2


def test_union_length_counts_overlaps_once():
    assert tracing._union_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracing._union_length([(1, 3)], 2, 10) == 1


def test_skipped_candidates_counted_by_reason_from_pool_threads():
    from concurrent.futures import ThreadPoolExecutor

    tracer = tracing.Tracer()
    tracing.install_library_spans(tracer)
    selection = sys.modules["grou.selection"]
    try:
        with pytest.warns(UserWarning), tracer.span("bench.work"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda i: selection.warnings.warn(f"candidate {i} skipped in screening: x"), range(3)))
            selection.warnings.warn("shape (2, (1, 1)) skipped: singular")
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, reps=1)
    assert metrics["selection.skipped.screen_error"] == 3
    assert metrics["selection.skipped.shape_error"] == 1
    assert metrics["selection.skipped"] == 4
