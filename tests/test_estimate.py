import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import grou.estimate as estimate_module
from grou.benchmarks import predictive_study_config
from grou.errors import ConfigurationError, EstimationError, SingularityError
from grou.estimate import (
    ThresholdPolicy,
    estimate_drift,
    estimate_mcar,
    estimate_triplet,
    finite_differences,
    grid_diagnostics,
    threshold_increments,
    _coarse_increments,
    _drift_statistics,
    _precision,
    _solve_with_ridge,
    _working_covariance,
)
from grou.graphs import EdgeGraph, complete_graph, path_graph, weight_matrices
from grou.model import GrouParams, build_companion
from grou.noise import CompoundPoissonJumps, LevySpec
from grou.simulate import SampledPath, grid_from_times, make_uniform_grids, simulate_path

from conftest import build_h_matrix, dense_statistics, mcar_h_matrix, ridge_solve_loop


def scalar_system(rate=2.0):
    return build_companion(GrouParams(np.array([[rate]]), (np.empty(0),)), None)


def two_edge_setup():
    graph = path_graph(3)
    weights = weight_matrices(graph, 1)
    params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
    return weights, params, build_companion(params, weights)


def path_from_values(values, mesh=0.25, ratio=1):
    values = np.asarray(values, dtype=float)
    grid = make_uniform_grids(mesh * (values.shape[0] - 1), mesh, ratio)
    return SampledPath(grid=grid, values=values)


class TestFiniteDifferences:
    def test_constant_path(self):
        path = path_from_values(np.ones((9, 2)) * 3.0)
        np.testing.assert_array_equal(finite_differences(path, 1), np.zeros((8, 2)))

    def test_linear_path_exact(self):
        grid = make_uniform_grids(1.0, 0.125, 1)
        t = grid.fine
        path = SampledPath(grid=grid, values=t[:, None].copy())
        np.testing.assert_allclose(finite_differences(path, 1), 1.0)
        np.testing.assert_allclose(finite_differences(path, 2), 0.0, atol=1e-12)

    def test_quadratic_forward_bias(self):
        h = 0.125
        grid = make_uniform_grids(1.0, h, 1)
        t = grid.fine
        path = SampledPath(grid=grid, values=(t**2)[:, None].copy())
        d1 = finite_differences(path, 1)
        np.testing.assert_allclose(d1[:, 0], 2 * t[:-1] + h, atol=1e-12)
        np.testing.assert_allclose(finite_differences(path, 2), 2.0, atol=1e-10)

    def test_order_zero_is_identity(self):
        path = path_from_values(np.arange(10.0)[:, None])
        np.testing.assert_array_equal(finite_differences(path, 0), path.values)

    def test_too_few_points(self):
        path = path_from_values(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            finite_differences(path, 3)


class TestHMatrix:
    def test_diagonal_only(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        path = path_from_values(values)
        H = build_h_matrix(path, None, (1, [0]))
        # usable coarse points exclude the last one; H at each point is diag
        assert H.shape == (2, 2, 2)
        np.testing.assert_array_equal(H[0], np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(H[1], np.diag([3.0, 4.0]))

    def test_single_stage_row_layout(self):
        weights = weight_matrices(path_graph(3), 1)
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        path = path_from_values(values)
        H = build_h_matrix(path, weights, (1, [1]))
        assert H.shape == (1, 3, 2)
        np.testing.assert_array_equal(H[0, 0], [1.0, 0.0])
        np.testing.assert_array_equal(H[0, 1], [0.0, 2.0])
        np.testing.assert_array_equal(H[0, 2], [2.0, 1.0])  # neighborhood aggregate

    def test_two_lag_shape_and_pairing(self):
        weights, params, system = two_edge_setup()
        grid = make_uniform_grids(1.0, 1 / 32, 4)
        rng_values = np.random.default_rng(0).normal(size=(grid.fine.size, 2))
        path = SampledPath(grid=grid, values=rng_values)
        H = build_h_matrix(path, weights, (2, [1, 1]))
        assert H.shape[1] == 2 * 2 + 2  # theta length 6
        # lag-1 block pairs with the first finite difference, lag-2 with Y
        d1 = finite_differences(path, 1)
        idx = path.grid.coarse_idx
        np.testing.assert_allclose(H[0, 0, 0], d1[idx[0], 0])
        np.testing.assert_allclose(H[0, 3 + 0, 0], path.values[idx[0], 0])

    def test_stage_shortfall(self):
        path = path_from_values(np.zeros((6, 2)))
        with pytest.raises(ConfigurationError):
            build_h_matrix(path, None, (1, [1]))

    def test_mcar_layout(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        path = path_from_values(values)
        H = mcar_h_matrix(path)
        assert H.shape == (2, 4, 2)
        np.testing.assert_array_equal(H[0, 0:2, 0], [1.0, 2.0])
        np.testing.assert_array_equal(H[0, 2:4, 1], [1.0, 2.0])
        np.testing.assert_array_equal(H[0, 0:2, 1], 0.0)


# Four-edge path graph with stage-2 neighbors, simulated with a
# non-diagonal Brownian covariance and compound-Poisson jumps.
ORACLE_COV = np.array(
    [[2.0, 0.5, 0.0, 0.2], [0.5, 1.0, 0.3, 0.0], [0.0, 0.3, 1.5, -0.4], [0.2, 0.0, -0.4, 1.0]]
)
# Exactly singular (the last edge has no Brownian part), so the working
# covariance carries the jitter.  The null direction is an axis, which any
# two factorizations invert alike; a null direction mixing edges is known
# only to cond * eps ~ 1e-8 and no two solvers agree there to 1e-12.
SINGULAR_COV = np.array(
    [[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
)


def oracle_path(irregular):
    weights = weight_matrices(path_graph(5), 2)
    params = GrouParams(
        np.array([[4.0, 3.0, 3.5, 2.5], [2.0, 1.0, 1.5, 1.2]]), (np.array([0.5]), np.array([0.3]))
    )
    noise = LevySpec(np.zeros(4), ORACLE_COV, CompoundPoissonJumps(1.0, np.eye(4)))
    if irregular:
        times = np.sort(np.random.default_rng(3).uniform(0.0, 4.0, size=1024))
        grid = grid_from_times(np.concatenate([[0.0], times]), ratio=4)
    else:
        grid = make_uniform_grids(4.0, 1 / 256, 4)
    system = build_companion(params, weights)
    return weights, simulate_path(system, noise, grid, init="stationary", rng_seed=17)


def assert_relative(actual, desired, rtol=1e-12):
    scale = np.abs(desired).max()
    assert scale > 0
    np.testing.assert_allclose(actual, desired, rtol=0, atol=rtol * scale)


class TestStructuredStatistics:
    """The fits' Gram and Kronecker statistics against the dense stacks."""

    @pytest.mark.parametrize("shape", [(1, (0,)), (1, (1,)), (2, (1, 1)), (2, (2, 0)), "mcar"])
    @pytest.mark.parametrize("case", ["non_diagonal", "irregular_grid", "near_singular"])
    def test_matches_dense_oracle(self, case, shape):
        weights, path = oracle_path(irregular=case == "irregular_grid")
        cov = SINGULAR_COV if case == "near_singular" else ORACLE_COV
        triplet = LevySpec(np.zeros(4), cov, CompoundPoissonJumps(1.0, np.eye(4)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the irregular grid warns
            if shape == "mcar":
                fit, lags = estimate_mcar(path, triplet), 1
                H = mcar_h_matrix(path)
            else:
                fit, lags = estimate_drift(path, weights, shape, triplet), shape[0]
                H = build_h_matrix(path, weights, shape)
        sigma_w = _working_covariance(triplet)
        assert (case == "near_singular") == (not np.array_equal(sigma_w, cov))
        inc = threshold_increments(path, ThresholdPolicy.for_noise(triplet), triplet, lags)
        info, score = dense_statistics(H, inc.values, inc.spacings, sigma_w)
        assert_relative(fit.info, info)
        assert_relative(fit.score, score)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_flattened_parameters_give_the_implied_drift(self, n_vertices, stages, seed):
        # H_m^T theta is the drift the parameters imply at point m, so the
        # statistics follow GrouParams.flatten's order
        lags = len(stages)
        graph = complete_graph(n_vertices)
        K = graph.n_edges
        weights = weight_matrices(graph, 2)
        rng = np.random.default_rng(seed)
        params = GrouParams(rng.normal(size=(lags, K)), tuple(rng.normal(size=r) for r in stages))
        grid = make_uniform_grids(1.0, 1 / 32, 4)
        path = SampledPath(grid=grid, values=rng.normal(size=(grid.fine.size, K)))
        H = build_h_matrix(path, weights, (lags, stages))
        points = path.grid.coarse_idx[path.grid.coarse_idx <= grid.fine.size - 1 - lags][:-1]
        expected = np.zeros((points.size, K))
        for l in range(lags):
            deriv = finite_differences(path, lags - 1 - l)[points]
            expected += params.alpha[l] * deriv
            for r, b in enumerate(params.beta[l], start=1):
                expected += b * deriv @ weights.stage(r).T
        implied = np.einsum("mpk,p->mk", H, params.flatten())
        np.testing.assert_allclose(implied, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=19),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_stacked_fits_equal_single_fits_bit_for_bit(self, stages, K, G, seed):
        rng = np.random.default_rng(seed)
        lags, Q, M = len(stages), sum(stages), int(rng.integers(2, 300))
        derivs = rng.normal(size=(G, lags, M, K))
        aggregates = rng.normal(size=(G, Q, M, K))
        increments = rng.normal(size=(G, M, K))
        spacings = rng.uniform(0.01, 0.1, size=M)
        root = rng.normal(size=(G, K, K))
        prec = root @ root.transpose(0, 2, 1) + np.eye(K)
        info, score = _drift_statistics(derivs, aggregates, stages, increments, spacings, prec)
        for g in range(G):
            one = slice(g, g + 1)
            (info_g,), (score_g,) = _drift_statistics(
                derivs[one], aggregates[one], stages, increments[one], spacings, prec[one]
            )
            assert np.array_equal(info[g], info_g)
            assert np.array_equal(score[g], score_g)

    def test_stacked_ridge_escalates_only_the_failing_fits(self):
        infos = np.array([np.eye(2), np.diag([1.0, -1e-6]), np.diag([1.0, -1e30])])
        scores = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        theta, ridges = _solve_with_ridge(infos, scores)
        expected, expected_ridges = ridge_solve_loop(infos, scores)
        np.testing.assert_array_equal(theta, expected)
        np.testing.assert_array_equal(ridges, expected_ridges)
        assert ridges[0] == 1e-8 and ridges[1] > 1e-6  # only the second escalated
        assert np.isnan(theta[2]).all() and np.isnan(ridges[2])

    def test_mcar_fit_forms_no_dense_regressors(self):
        # training section of one K=10 predictive-study path: M = 1,785
        # intervals, so one (M, K^2, K) regressor tensor would hold 14.3 MB
        config = predictive_study_config(n_paths=1)
        system = build_companion(config.params, weight_matrices(config.graph, 1))
        grid = make_uniform_grids(config.t_end, config.t_end / (config.n_obs - 1), 1)
        path = simulate_path(system, config.noise, grid, init="stationary", rng_seed=0)
        train = path.section(0, config.n_obs - config.test_size)
        triplet = estimate_triplet(train)
        tracemalloc.start()
        try:
            fit = estimate_mcar(train, triplet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        K = train.n_edges
        assert fit.n_coarse == 1785
        dense_bytes = fit.n_coarse * K * K * K * 8
        assert peak < 4e6 < dense_bytes / 3


def spd_stack(rng, G, p, interleaved):
    """``G`` symmetric positive definite ``p``-by-``p`` matrices, optionally interleaved in memory."""
    root = rng.normal(size=(G, p, p))
    info = root @ root.transpose(0, 2, 1) + 0.1 * np.eye(p)
    info = 0.5 * (info + info.transpose(0, 2, 1))
    if interleaved:
        # the layout _drift_statistics returns: matrix g's entries G apart
        info = np.ascontiguousarray(info.transpose(1, 2, 0)).transpose(2, 0, 1)
    return info


class TestRidgeSolve:
    """The stacked ridge solve against the per-fit ``cho_factor`` route it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=30),
        st.booleans(),
        st.sampled_from([None, 1e-3]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_equals_the_per_fit_loop_bit_for_bit(self, G, p, interleaved, ridge, seed):
        rng = np.random.default_rng(seed)
        info = spd_stack(rng, G, p, interleaved)
        # some fits lose definiteness: a negative direction the automatic
        # ridge escalates past, or one that no ridge in reach overcomes
        for g in np.flatnonzero(rng.random(G) < 0.4):
            info[g, 0, 0] = -rng.choice([1e-6, 1e-3, 1e30])
        score = rng.normal(size=(G, p))
        theta, ridges = _solve_with_ridge(info, score, ridge)
        expected, expected_ridges = ridge_solve_loop(info, score, ridge)
        np.testing.assert_array_equal(theta, expected)
        np.testing.assert_array_equal(ridges, expected_ridges)

    def test_never_factorizing_fits_are_marked(self):
        info = np.array([np.eye(3), -np.eye(3), np.eye(3)])
        theta, ridges = _solve_with_ridge(info, np.ones((3, 3)))
        assert np.isnan(ridges).tolist() == [False, True, False]
        assert np.isnan(theta[1]).all()
        np.testing.assert_allclose(theta[[0, 2]], 1.0, rtol=1e-7)

    def test_given_ridge_is_not_escalated(self):
        info = np.array([np.diag([1.0, -0.5]), np.diag([1.0, -2.0])])
        theta, ridges = _solve_with_ridge(info, np.ones((2, 2)), ridge=1.0)
        assert ridges[0] == 1.0 and np.isnan(ridges[1])
        np.testing.assert_allclose(theta[0], [0.5, 2.0], rtol=1e-15)
        assert np.isnan(theta[1]).all()

    def test_lone_one_by_one_fit_is_factorized(self):
        # scipy's solve divides a lone 1x1 system without factorizing it
        info, score = np.array([[[-4.0]]]), np.array([[1.0]])
        assert np.isnan(_solve_with_ridge(info, score, ridge=0.0)[1][0])
        rng = np.random.default_rng(3)
        for value, b in zip(rng.uniform(0.01, 100.0, 50), rng.normal(size=50)):
            args = np.array([[[value]]]), np.array([[b]])
            assert _solve_with_ridge(*args, ridge=0.0)[0][0, 0] == ridge_solve_loop(*args, 0.0)[0][0, 0]

    def test_flat_path_solves_without_scipys_warning(self):
        """An all-zero path's information is zero, so the automatic ridge starts subnormal.

        That matrix factorizes with rcond 0: scipy's batched solve warns of
        it and ``cho_solve`` does not.
        """
        path = path_from_values(np.zeros((9, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate_drift(path, None, (1, [0]), LevySpec(np.zeros(3), np.eye(3)))
        (theta,), (ridge,) = ridge_solve_loop(result.info[None], result.score[None])
        assert np.array_equal(result.theta_hat, theta) and result.ridge_used == ridge

    def test_non_finite_information_raises(self):
        info = np.array([np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(ValueError):
            _solve_with_ridge(info, np.ones((2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_stacked_precision_equals_each_triplets(self, G, K, seed):
        rng = np.random.default_rng(seed)
        covs = spd_stack(rng, G, K, interleaved=False)
        covs[0] *= 1e-12  # jittered
        triplets = [LevySpec(np.zeros(K), cov) for cov in covs]
        working = np.array([_working_covariance(t) for t in triplets])
        prec, ok = _precision(working)
        assert ok.all()
        for g, cov in enumerate(working):
            np.testing.assert_array_equal(prec[g], cho_solve(cho_factor(cov), np.eye(K)))


class TestThresholdPolicy:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0.5, "finite")
        with pytest.raises(ValueError):
            ThresholdPolicy(0.25, "infinite")
        with pytest.raises(ValueError):
            ThresholdPolicy(-0.1)
        assert ThresholdPolicy(activity="finite").beta_exp[0] == 0.2
        assert ThresholdPolicy(activity="infinite").beta_exp[0] == 0.1

    def test_threshold_values(self):
        policy = ThresholdPolicy(0.2, "finite")
        cuts = policy.thresholds(np.array([0.25, 0.25]), 2)
        np.testing.assert_allclose(cuts, 0.25**0.2)

    def test_per_component_exponents(self):
        policy = ThresholdPolicy([0.1, 0.3], "finite")
        cuts = policy.thresholds(np.array([0.25]), 2)
        np.testing.assert_allclose(cuts[0], [0.25**0.1, 0.25**0.3])


class TestThresholdIncrements:
    def test_small_increments_pass_through(self):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.normal(size=(41, 2)) * 0.01, axis=0)
        path = path_from_values(values, mesh=0.25, ratio=1)
        spec = LevySpec(np.array([0.1, -0.05]), np.eye(2))
        out = threshold_increments(path, ThresholdPolicy(0.2), spec, lags=1)
        _, _, raw, spacings = _coarse_increments(path.values, path.grid, 1)
        expected = raw - spec.drift * spacings[:, None]
        np.testing.assert_allclose(out.values, expected)
        assert out.kept.all()

    def test_single_big_jump_zeroed(self):
        values = np.zeros((41, 2))
        values[20:, 0] += 10.0  # one jump of size 10 in component 1
        path = path_from_values(values, mesh=0.25, ratio=1)
        spec = LevySpec(np.zeros(2), np.eye(2))
        out = threshold_increments(path, ThresholdPolicy(0.2), spec, lags=1)
        assert out.values[19, 0] == 0.0
        assert not out.kept[19, 0]
        assert out.kept[19, 1]
        assert out.kept[:19].all() and out.kept[20:].all()

    def test_detectable_jumps_zeroed_on_simulated_path(self):
        # jumps well above the cutoff must be censored almost surely; the
        # oracle is the true arrival record carried by the simulation
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, 100.0 * np.eye(2)))
        grid = make_uniform_grids(8.0, 1 / 64, 16)  # coarse mesh 1/4
        policy = ThresholdPolicy(0.2)
        hits = 0
        zeroed = 0
        for seed in range(20):
            path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
            out = threshold_increments(path, policy, spec, lags=2)
            idx, _, _, spacings = _coarse_increments(path.values, path.grid, 2)
            times = path.grid.fine[idx]
            cuts = out.thresholds
            arr_t, arr_s = path.truth.arrival_times, path.truth.arrival_sizes
            for m in range(spacings.size):
                inside = (arr_t > times[m]) & (arr_t <= times[m + 1])
                if not inside.any():
                    continue
                for k in range(2):
                    # margin of 4x the cutoff leaves room for within-interval
                    # mean-reversion decay and diffusive noise
                    if np.abs(arr_s[inside, k]).max() > 4 * cuts[m, k]:
                        hits += 1
                        zeroed += not out.kept[m, k]
        assert hits > 50
        assert zeroed / hits >= 0.95


class TestEstimateDrift:
    def test_noiseless_scalar_identification(self):
        # deterministic decay dY = -2Y dt observed exactly; ratio 2 keeps
        # the Riemann bias below 0.1
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.zeros((1, 1)))
        grid = make_uniform_grids(8.0, 1 / 64, 2)
        path = simulate_path(system, spec, grid, init=np.array([1.0]), rng_seed=0)
        working = LevySpec(np.zeros(1), np.eye(1))
        result = estimate_drift(path, None, (1, [0]), working, ThresholdPolicy(0.2))
        assert abs(result.theta_hat[0] - 2.0) < 0.1

    def test_ridge_dominates(self):
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(4.0, 1 / 32, 4)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=3)
        result = estimate_drift(path, None, (1, [0]), spec, ridge=1e8)
        assert abs(result.theta_hat[0]) < 1e-4
        assert result.ridge_used == 1e8

    def test_zero_ridge_on_degenerate_data_raises(self):
        values = np.zeros((9, 2))
        path = path_from_values(values)
        spec = LevySpec(np.zeros(2), np.eye(2))
        with pytest.raises(SingularityError):
            estimate_drift(path, None, (1, [0]), spec, ridge=0.0)

    @pytest.mark.parametrize("ridge", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_negative_or_non_finite_ridge_rejected(self, ridge, monkeypatch):
        # rejected before any statistic is formed
        monkeypatch.setattr(estimate_module, "threshold_increments", None)
        path = path_from_values(np.random.default_rng(0).normal(size=(9, 2)))
        spec = LevySpec(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match=f"ridge must be finite and >= 0, got {ridge}"):
            estimate_drift(path, None, (1, [0]), spec, ridge=ridge)
        with pytest.raises(ValueError, match=f"ridge_scale must be finite and >= 0, got {ridge}"):
            estimate_mcar(path, spec, ridge_scale=ridge)

    @pytest.mark.parametrize("shape", [(1, [-1]), (2, [1, -2]), (0, [])])
    def test_shape_without_a_lag_or_with_a_negative_stage_rejected(self, shape):
        # (1, [-1]) used to fit an R=0 model labelled R=-1, and (0, []) died in np.stack
        weights, _, _ = two_edge_setup()
        path = path_from_values(np.random.default_rng(0).normal(size=(9, 2)))
        spec = LevySpec(np.zeros(2), np.eye(2))
        with pytest.raises(ConfigurationError, match=rf"need L >= 1 and every R_l >= 0, got L={shape[0]}"):
            estimate_drift(path, weights, shape, spec)

    def test_automatic_ridge_that_never_factorizes_raises(self, monkeypatch):
        # no ridge in reach of the escalation lifts a -1e30 direction
        def statistics(*args):
            return np.diag([1.0, -1e30])[None], np.array([[1.0, 2.0]])

        monkeypatch.setattr(estimate_module, "_drift_statistics", statistics)
        path = path_from_values(np.random.default_rng(0).normal(size=(9, 2)))
        spec = LevySpec(np.zeros(2), np.eye(2))
        with pytest.raises(SingularityError, match="stayed singular"):
            estimate_drift(path, None, (1, [0]), spec)

    def test_loglik_quadratic_identity(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(4.0, 1 / 64, 8)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=11)
        result = estimate_drift(path, weights, (2, [1, 1]), spec, ridge=0.0)
        direct = 0.5 * result.score @ np.linalg.solve(result.info, result.score)
        assert result.loglik == pytest.approx(direct, rel=1e-8)

    def test_diagonal_specialization_block_structure(self):
        # R = 0 with diagonal working covariance: information separates per
        # edge, so off-diagonal entries vanish identically
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.diag([1.0, 2.0]))
        grid = make_uniform_grids(4.0, 1 / 32, 4)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=2)
        result = estimate_drift(path, None, (1, [0]), spec)
        np.testing.assert_allclose(result.info[0, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(result.info[1, 0], 0.0, atol=1e-12)

    def test_permutation_equivariance(self):
        # relabeling the two edges swaps the alpha estimates and leaves the
        # shared network coefficient unchanged
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
        grid = make_uniform_grids(4.0, 1 / 64, 8)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=21)
        graph_swapped = EdgeGraph(3, [(1, 2), (0, 1)])
        weights_swapped = weight_matrices(graph_swapped, 1)
        path_swapped = SampledPath(grid=path.grid, values=path.values[:, ::-1].copy())
        a = estimate_drift(path, weights, (1, [1]), spec, ridge=1e-10)
        spec_swapped = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
        b = estimate_drift(path_swapped, weights_swapped, (1, [1]), spec_swapped, ridge=1e-10)
        pa, pb = a.params, b.params
        np.testing.assert_allclose(pb.alpha[0], pa.alpha[0][::-1], rtol=1e-8)
        np.testing.assert_allclose(pb.beta[0], pa.beta[0], rtol=1e-8)

    def test_brownian_recovery_moderate_horizon(self):
        # smoke-scale version of the consistency study (short horizon, so
        # generous tolerances; the acceptance suite runs the real grids)
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(8.0, 2.0**-10, 16)  # coarse mesh 1/64
        errs = []
        for seed in range(9):
            path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
            result = estimate_drift(path, weights, (2, [1, 1]), spec)
            errs.append(np.abs(result.theta_hat - params.flatten()))
        med = np.median(errs, axis=0)
        assert np.all(med[:2] < 0.9)  # lag-1 alphas are well identified
        assert np.all(med < 2.0)  # lag-2 terms carry slow-mode noise at t=8

    def test_oracle_thresholding_equivalence(self):
        # replacing the threshold rule by the true jump subtraction moves
        # the estimate by much less than its own sampling noise
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
        grid = make_uniform_grids(8.0, 2.0**-10, 64)
        policy = ThresholdPolicy(0.2)
        thetas, deltas = [], []
        for seed in range(12):
            path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
            fitted = estimate_drift(path, weights, (2, [1, 1]), spec, policy)
            idx, _, raw, spacings = _coarse_increments(path.values, path.grid, 2)
            times = path.grid.fine[idx]
            arr_t, arr_s = path.truth.arrival_times, path.truth.arrival_sizes
            jump_sum = np.zeros_like(raw)
            for m in range(spacings.size):
                inside = (arr_t > times[m]) & (arr_t <= times[m + 1])
                if inside.any():
                    jump_sum[m] = arr_s[inside].sum(axis=0)
            oracle_inc = raw - jump_sum
            H = build_h_matrix(path, weights, (2, [1, 1]))
            sigma_inv_H = H  # working covariance is the identity here
            info = np.tensordot(
                sigma_inv_H * spacings[:, None, None], H, axes=([0, 2], [0, 2])
            )
            score = -np.tensordot(sigma_inv_H, oracle_inc, axes=([0, 2], [0, 1]))
            theta_oracle = np.linalg.solve(info, score)
            thetas.append(fitted.theta_hat)
            deltas.append(fitted.theta_hat - theta_oracle)
        sd = np.std(thetas, axis=0)
        mean_abs_delta = np.mean(np.abs(deltas), axis=0)
        assert np.all(mean_abs_delta < 2 * sd)

    def test_mcar_matches_diagonal_truth_shape(self):
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(8.0, 1 / 128, 8)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=13)
        result = estimate_mcar(path, spec)
        assert result.drift_matrix.shape == (1, 1)
        assert abs(result.drift_matrix[0, 0] - 2.0) < 1.0

    def test_degenerate_inputs_handled_by_ridge(self):
        # isolated edge (all-zero weight row) and a dead data column both
        # leave directions unidentified; the automatic ridge absorbs them
        g = EdgeGraph(5, [(0, 1), (1, 2), (3, 4)])
        w = weight_matrices(g, 1)
        params = GrouParams(np.array([[3.0, 2.5, 4.0]]), (np.array([0.8]),))
        system = build_companion(params, w)
        spec = LevySpec(np.zeros(3), np.eye(3))
        grid = make_uniform_grids(8.0, 1 / 256, 16)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=0)
        fit = estimate_drift(path, w, (1, [1]), spec)
        assert np.all(np.isfinite(fit.theta_hat))
        dead = SampledPath(grid=grid, values=np.where([True, True, False], path.values, 0.0))
        fit2 = estimate_drift(dead, w, (1, [1]), spec)
        assert np.all(np.isfinite(fit2.theta_hat))
        assert abs(fit2.theta_hat[2]) < 1e-6  # dead edge pinned at zero

    def test_report_round_trip(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(2.0, 1 / 32, 4)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=5)
        result = estimate_drift(path, weights, (2, [1, 1]), spec)
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert doc["shape"] == {"L": 2, "R": [1, 1]}
        np.testing.assert_allclose(doc["theta"], result.theta_hat)
        assert 0.9 < doc["diagnostics"]["kept_fraction"] <= 1.0
        restored = GrouParams(np.asarray(doc["alpha"]), tuple(np.asarray(b) for b in doc["beta"]))
        np.testing.assert_allclose(restored.flatten(), result.theta_hat)


class TestEstimateTriplet:
    def test_zero_path(self):
        path = path_from_values(np.zeros((150, 2)), mesh=0.05, ratio=1)
        est = estimate_triplet(path)
        np.testing.assert_array_equal(est.drift, 0.0)
        np.testing.assert_array_equal(est.brownian_cov, 0.0)
        assert est.jumps is None

    def test_pure_brownian_recovery(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(8.0, 2.0**-9, 8)  # coarse mesh 1/64
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=8)
        est = estimate_triplet(path, lags=2)
        err = np.linalg.norm(est.brownian_cov - np.eye(2)) / np.linalg.norm(np.eye(2))
        assert err < 0.10
        assert np.all(np.abs(est.drift) < 0.5)

    def test_compound_poisson_split(self):
        # Monte Carlo oracle: the sub-threshold realized covariance tracks
        # the Brownian part and the exceedance second moment the jump part
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
        grid = make_uniform_grids(8.0, 2.0**-9, 8)
        sigmas, jump_moments = [], []
        for seed in range(60):
            path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
            est = estimate_triplet(path, lags=2)
            sigmas.append(est.brownian_cov)
            if est.jumps is not None:
                jump_moments.append(est.jumps.rate * est.jumps.jump_cov)
        sigma_mean = np.mean(sigmas, axis=0)
        assert np.linalg.norm(sigma_mean - np.eye(2)) / np.sqrt(2) < 0.15
        jump_mean = np.mean(jump_moments, axis=0)
        assert np.linalg.norm(jump_mean - np.eye(2)) / np.sqrt(2) < 0.25

    def test_needs_enough_increments(self):
        path = path_from_values(np.zeros((20, 1)), mesh=0.1, ratio=1)
        with pytest.raises(EstimationError):
            estimate_triplet(path)

    def test_all_exceeding_raises(self):
        values = np.cumsum(np.full((150, 1), 50.0), axis=0)
        path = path_from_values(values, mesh=0.01, ratio=1)
        with pytest.raises(EstimationError):
            estimate_triplet(path)


class TestDiagnostics:
    def test_reported_ratios(self):
        grid = make_uniform_grids(2.0, 1 / 64, 16)
        diag = grid_diagnostics(grid)
        assert diag["t_times_coarse_mesh"] == pytest.approx(0.5)
        assert diag["fine_mesh_times_t_over_coarse_sq"] == pytest.approx(0.5)
        assert diag["uniformity_fine"] == pytest.approx(1.0)

    def test_irregular_grid_warns(self):
        from grou.simulate import grid_from_times

        times = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.55, 0.8, 0.9, 1.0])
        grid = grid_from_times(times, ratio=2)
        rng = np.random.default_rng(0)
        path = SampledPath(grid=grid, values=rng.normal(size=(9, 1)))
        spec = LevySpec(np.zeros(1), np.eye(1))
        with pytest.warns(UserWarning, match="irregular"):
            estimate_drift(path, None, (1, [0]), spec)


@pytest.mark.parametrize("M, K", [(30, 1), (199, 3), (600, 10), (2000, 21)])
@pytest.mark.parametrize(
    "keep",
    [
        # sets with every row kept, a few rows above a cutoff, many, and none below
        [1.0, 1.0, 0.999, 0.99, 0.9, 0.0],
        [1.0] * 6,
        [0.99] * 6,
        [0.99],
    ],
)
def test_stacked_brownian_cov_equals_each_set_on_its_own(M, K, keep):
    """A stack's covariances are bit for bit ``kept.T @ kept`` on each set's own kept rows."""
    rng = np.random.default_rng(M + K)
    G = len(keep)
    corrected = rng.standard_normal((G, M, K))
    small = rng.random((G, M, K)) < np.array(keep)[:, None, None]
    sigma, joint_small = estimate_module._brownian_cov(corrected, small, 2.7)
    for g in range(G):
        kept = corrected[g][small[g].all(axis=1)]
        expected = kept.T @ kept / 2.7
        assert (0.5 * (expected + expected.T)).tobytes() == sigma[g].tobytes()
        np.testing.assert_array_equal(joint_small[g], small[g].all(axis=1))
