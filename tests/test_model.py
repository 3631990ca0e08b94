import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import grou.model
from grou.benchmarks import predictive_study_config
from grou.errors import ConfigurationError, StationarityError
from grou.forecast import one_step_map
from grou.graphs import path_graph, weight_matrices
from grou.model import (
    GrouParams,
    build_companion,
    companion_inverse,
    conditional_moments,
    cov_integral,
    is_hurwitz,
    lyapunov_solve,
    propagator,
    stationary_moments,
)
from grou.noise import LevySpec
from grou.selection import _one_step_maps

from conftest import (
    draw_hurwitz_system,
    kronecker_lyapunov,
    propagator_two_exponentials,
    van_loan_two_exponentials,
)


def scalar_ou(rate=2.0):
    """dX = -rate*X dt + dW as a one-edge, one-lag system."""
    params = GrouParams(np.array([[rate]]), (np.empty(0),))
    return build_companion(params, None)


def paper_two_edge_system():
    """Two-edge path graph, two lags: lag-1 diag (4,3), lag-2 diag (2,1), beta=1."""
    graph = path_graph(3)
    weights = weight_matrices(graph, 1)
    params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
    return weights, params, build_companion(params, weights)


def random_stable(rng, n):
    """Random dense matrix shifted so its spectral abscissa is -0.5."""
    M = rng.normal(size=(n, n))
    return M - (np.max(np.linalg.eigvals(M).real) + 0.5) * np.eye(n)


def stationary_centred_mean(system, spec, x, h):
    """Conditional mean as ``mean + A expm(hT) (x - state_mean)``.

    The stationary-centred form ``conditional_moments`` used before its
    affine drift-integral form, kept as its oracle.
    """
    m = stationary_moments(system, spec)
    return m.mean + system.observation @ expm(h * system.transition) @ (x - m.state_mean)


def quadrature_cov_integral(transition, rhs, h, n=4000):
    """Independent trapezoid oracle for the conditional-variance integral."""
    us = np.linspace(0.0, h, n + 1)
    vals = np.array([expm(u * transition) @ rhs @ expm(u * transition).T for u in us])
    return np.trapezoid(vals, us, axis=0)


class TestParams:
    def test_flatten_layout(self):
        params = GrouParams(
            np.array([[4.0, 2.0], [3.0, 1.0]]), (np.array([1.5]), np.array([0.5]))
        )
        np.testing.assert_array_equal(params.flatten(), [4, 2, 1.5, 3, 1, 0.5])
        assert params.n_params == 2 * 2 + 2

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_flatten_unflatten_inverse(self, lags, n_edges, stages, seed):
        stages = (stages * lags)[:lags]
        rng = np.random.default_rng(seed)
        theta = rng.normal(size=lags * n_edges + sum(stages))
        params = GrouParams.unflatten(theta, lags, stages, n_edges)
        np.testing.assert_array_equal(params.flatten(), theta)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_params_flatten_round_trip(self, data):
        lags = data.draw(st.integers(min_value=1, max_value=4))
        n_edges = data.draw(st.integers(min_value=1, max_value=6))
        stages = data.draw(st.lists(st.integers(0, 3), min_size=lags, max_size=lags))
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        alpha = data.draw(arrays(float, (lags, n_edges), elements=finite))
        beta = tuple(data.draw(arrays(float, r, elements=finite)) for r in stages)
        theta = GrouParams(alpha, beta).flatten()
        assert theta.size == lags * n_edges + sum(stages)
        pos = 0
        for l in range(lags):
            np.testing.assert_array_equal(theta[pos : pos + n_edges], alpha[l])
            pos += n_edges
            np.testing.assert_array_equal(theta[pos : pos + stages[l]], beta[l])
            pos += stages[l]
        back = GrouParams.unflatten(theta, lags, stages, n_edges)
        np.testing.assert_array_equal(back.alpha, alpha)
        assert back.stages == tuple(stages)
        for b, b0 in zip(back.beta, beta):
            np.testing.assert_array_equal(b, b0)

    def test_json_round_trip(self):
        params = GrouParams(np.array([[1.0, 2.0]]), (np.array([0.25, 0.5]),))
        params2 = GrouParams.from_json(params.to_json())
        np.testing.assert_array_equal(params2.alpha, params.alpha)
        np.testing.assert_array_equal(params2.beta[0], params.beta[0])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_json_round_trip_property(self, data):
        # stage counts of zero give lags without a network term
        lags = data.draw(st.integers(min_value=1, max_value=4))
        n_edges = data.draw(st.integers(min_value=1, max_value=6))
        stages = data.draw(st.lists(st.integers(0, 3), min_size=lags, max_size=lags))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        params = GrouParams(
            data.draw(arrays(float, (lags, n_edges), elements=finite)),
            tuple(data.draw(arrays(float, r, elements=finite)) for r in stages),
        )
        back = GrouParams.from_json(params.to_json())
        assert back.stages == tuple(stages)
        assert back.alpha.tobytes() == params.alpha.tobytes()
        assert [b.tobytes() for b in back.beta] == [b.tobytes() for b in params.beta]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GrouParams(np.array([[1.0]]), (np.empty(0), np.empty(0)))
        with pytest.raises(ValueError):
            GrouParams.unflatten(np.zeros(3), 1, [0], 2)


class TestCompanion:
    def test_scalar_ou_blocks(self):
        system = scalar_ou(2.0)
        np.testing.assert_array_equal(system.transition, [[-2.0]])
        np.testing.assert_array_equal(system.noise_selector, [[1.0]])
        np.testing.assert_array_equal(system.observation, [[1.0]])

    def test_single_lag_is_negated_coefficient(self):
        weights = weight_matrices(path_graph(3), 1)
        params = GrouParams(np.array([[4.0, 3.0]]), (np.array([1.0]),))
        system = build_companion(params, weights)
        np.testing.assert_allclose(system.transition, -system.lag_matrices[0])

    def test_two_lag_block_layout(self):
        weights, params, system = paper_two_edge_system()
        W = weights.stage(1)
        Q1 = np.diag([4.0, 3.0]) + W
        Q2 = np.diag([2.0, 1.0]) + W
        np.testing.assert_allclose(system.lag_matrices[0], Q1)
        np.testing.assert_allclose(system.lag_matrices[1], Q2)
        np.testing.assert_allclose(system.transition[:2, 2:], np.eye(2))
        np.testing.assert_allclose(system.transition[:2, :2], np.zeros((2, 2)))
        np.testing.assert_allclose(system.transition[2:, :2], -Q2)
        np.testing.assert_allclose(system.transition[2:, 2:], -Q1)

    def test_stage_shortfall_raises(self):
        weights = weight_matrices(path_graph(3), 1)
        params = GrouParams(np.array([[4.0, 3.0]]), (np.array([1.0, 0.5]),))
        with pytest.raises(ConfigurationError):
            build_companion(params, weights)
        with pytest.raises(ConfigurationError):
            build_companion(params, None)


class TestHurwitz:
    def test_scalar_cases(self):
        assert is_hurwitz(scalar_ou(2.0))
        assert not is_hurwitz(scalar_ou(0.0))
        assert not is_hurwitz(scalar_ou(-1.0))

    def test_paper_system_is_stable(self):
        _, _, system = paper_two_edge_system()
        assert is_hurwitz(system)


class TestCompanionInverse:
    def test_single_lag(self):
        weights = weight_matrices(path_graph(3), 1)
        params = GrouParams(np.array([[4.0, 3.0]]), (np.array([1.0]),))
        system = build_companion(params, weights)
        np.testing.assert_allclose(
            companion_inverse(system), -np.linalg.inv(system.lag_matrices[0])
        )

    def test_matches_dense_inverse_random(self, rng):
        for _ in range(10):
            _, _, _, system = draw_hurwitz_system(rng)
            got = companion_inverse(system)
            want = np.linalg.inv(system.transition)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_matches_dense_inverse_paper_system(self):
        _, _, system = paper_two_edge_system()
        np.testing.assert_allclose(
            companion_inverse(system), np.linalg.inv(system.transition), atol=1e-10
        )


class TestStationaryMoments:
    def test_scalar_ou_closed_form(self):
        system = scalar_ou(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        m = stationary_moments(system, spec)
        assert m.mean[0] == pytest.approx(0.0, abs=1e-14)
        assert m.variance[0, 0] == pytest.approx(0.25, rel=1e-12)
        for h in (0.0, 0.3, 1.7):
            assert m.autocov(h)[0, 0] == pytest.approx(np.exp(-2 * h) / 4, rel=1e-10)

    def test_zero_mean_noise_gives_zero_mean(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        spec = LevySpec(np.zeros(system.n_edges), np.eye(system.n_edges))
        m = stationary_moments(system, spec)
        np.testing.assert_allclose(m.mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(m.state_mean, 0.0, atol=1e-14)

    def test_mean_is_last_lag_solve(self):
        params = GrouParams(np.array([[2.0]]), (np.empty(0),))
        system = build_companion(params, None)
        spec = LevySpec(np.array([4.0]), np.eye(1))
        m = stationary_moments(system, spec)
        assert m.mean[0] == pytest.approx(2.0, rel=1e-12)

    def test_mean_identity_two_routes(self, rng):
        # observation @ state_mean (block-inverse route) must equal the
        # direct lag-L solve to tight tolerance
        for _ in range(10):
            _, _, _, system = draw_hurwitz_system(rng)
            K = system.n_edges
            spec = LevySpec(rng.normal(size=K), np.eye(K))
            m = stationary_moments(system, spec)
            np.testing.assert_allclose(
                system.observation @ m.state_mean, m.mean, atol=1e-10, rtol=1e-10
            )

    def test_lyapunov_residual_small(self, rng):
        for _ in range(10):
            _, _, _, system = draw_hurwitz_system(rng)
            K = system.n_edges
            cov = rng.normal(size=(K, K))
            cov = cov @ cov.T + 0.5 * np.eye(K)
            spec = LevySpec(np.zeros(K), cov)
            m = stationary_moments(system, spec)
            E = system.noise_selector
            rhs = E @ cov @ E.T
            resid = system.transition @ m.state_cov + m.state_cov @ system.transition.T + rhs
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(rhs)

    def test_state_cov_symmetric_psd(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        spec = LevySpec(np.zeros(system.n_edges), np.eye(system.n_edges))
        m = stationary_moments(system, spec)
        np.testing.assert_allclose(m.state_cov, m.state_cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(m.state_cov).min() > -1e-10

    def test_autocov_zero_equals_variance(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        spec = LevySpec(np.zeros(system.n_edges), np.eye(system.n_edges))
        m = stationary_moments(system, spec)
        np.testing.assert_allclose(m.autocov(0.0), m.variance, atol=1e-12)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(StationarityError):
            stationary_moments(scalar_ou(0.0), LevySpec(np.zeros(1), np.eye(1)))


class TestConditionalMoments:
    def test_zero_horizon(self):
        _, _, system = paper_two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2))
        x = np.array([1.0, -2.0, 0.5, 0.25])
        mean, var = conditional_moments(system, spec, x, 0.0)
        np.testing.assert_allclose(mean, system.observation @ x, atol=1e-12)
        np.testing.assert_allclose(var, 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        system = scalar_ou(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        for x, h in [(1.0, 0.5), (-3.0, 0.1), (0.7, 2.0)]:
            mean, var = conditional_moments(system, spec, [x], h)
            assert mean[0] == pytest.approx(x * np.exp(-2 * h), rel=1e-10, abs=1e-12)
            assert var[0, 0] == pytest.approx((1 - np.exp(-4 * h)) / 4, rel=1e-10)

    def test_long_horizon_reaches_stationary(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        K = system.n_edges
        spec = LevySpec(rng.normal(size=K), np.eye(K))
        m = stationary_moments(system, spec)
        rate = abs(np.max(np.linalg.eigvals(system.transition).real))
        h = 50.0 / rate
        mean, var = conditional_moments(system, spec, rng.normal(size=system.dim), h)
        np.testing.assert_allclose(mean, m.mean, atol=1e-6)
        np.testing.assert_allclose(var, m.variance, atol=1e-6)

    def test_variance_monotone_in_horizon(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        K = system.n_edges
        spec = LevySpec(np.zeros(K), np.eye(K))
        x = np.zeros(system.dim)
        previous = np.zeros((K, K))
        for h in (0.05, 0.2, 0.5, 1.0, 3.0):
            _, var = conditional_moments(system, spec, x, h)
            assert np.linalg.eigvalsh(var - previous).min() > -1e-10
            previous = var

    def test_mean_matches_stationary_centred_form(self, rng):
        for _ in range(10):
            _, _, _, system = draw_hurwitz_system(rng)
            K = system.n_edges
            spec = LevySpec(rng.normal(size=K), np.eye(K))
            x = rng.normal(size=system.dim)
            for h in (0.0, 0.1, 1.3, 20.0):
                mean, _ = conditional_moments(system, spec, x, h)
                want = stationary_centred_mean(system, spec, x, h)
                np.testing.assert_allclose(mean, want, rtol=1e-10, atol=1e-10)

    def test_negative_horizon_rejected(self):
        system = scalar_ou(2.0)
        with pytest.raises(ValueError):
            conditional_moments(system, LevySpec(np.zeros(1), np.eye(1)), [0.0], -0.1)


class TestIntegralHelpers:
    def test_cov_integral_matches_quadrature(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        E = system.noise_selector
        rhs = E @ np.eye(system.n_edges) @ E.T
        h = 0.7
        _, got, _ = cov_integral(system.transition, rhs, np.zeros(system.dim), h)
        want = quadrature_cov_integral(system.transition, rhs, h)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_drift_integral_matches_quadrature(self, rng):
        _, _, _, system = draw_hurwitz_system(rng)
        vec = rng.normal(size=system.dim)
        h = 0.9
        us = np.linspace(0, h, 4001)
        vals = np.array([expm(u * system.transition) @ vec for u in us])
        want = np.trapezoid(vals, us, axis=0)
        rhs = np.eye(system.dim)
        for got in (propagator(system.transition, vec, h)[1],
                    cov_integral(system.transition, rhs, vec, h)[2]):
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    def test_lyapunov_solver_residual(self, rng):
        for n in (3, 6):
            A = -np.eye(n) * 2 + 0.3 * rng.normal(size=(n, n))
            C = rng.normal(size=(n, n))
            C = C @ C.T
            X = lyapunov_solve(A, C)
            np.testing.assert_allclose(A @ X + X @ A.T, -C, atol=1e-9 * np.linalg.norm(C))

    def test_lyapunov_matches_kronecker_oracle(self, rng):
        for n in range(1, 25):
            A = random_stable(rng, n)
            C = rng.normal(size=(n, n))
            C = C @ C.T + np.eye(n)
            want = kronecker_lyapunov(A, C)
            got = lyapunov_solve(A, C)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_lyapunov_memory_at_dim_48(self, rng):
        A = random_stable(rng, 48)
        C = np.eye(48)
        lyapunov_solve(A, C)
        tracemalloc.start()
        try:
            lyapunov_solve(A, C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def rel_err(got, want, floor=0.0):
    """Largest entry of ``got - want`` over the largest entry of ``want``, or over ``floor`` if larger."""
    scale = max(np.abs(want).max(), floor)
    return np.abs(got - want).max() / scale if scale else np.abs(got).max()


class TestOneExponentialKernels:
    """``propagator`` and ``cov_integral`` against the two-exponential route they replace.

    A propagator's error is taken relative to the larger of its entries and
    1: ``expm(h*T)`` starts at the identity, and in the Lyapunov branch it is
    below ``e^-15`` and carried at the augmented block's absolute accuracy.
    The Lyapunov steps take the library's companion transitions.  The block
    route's steps keep ``h * rho(T) <= 2`` for dense stable and non-Hurwitz
    transitions, where both routes are well conditioned; beyond that the two
    sides differ by the conditioning of the exponential, not by the route.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 6),
        stack=st.integers(1, 3),
        abscissa=st.sampled_from([-2.0, -0.5, -0.05, 0.0, 0.4]),
        step=st.sampled_from(["zero", "tiny", "block", "lyapunov"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_the_two_exponential_route(self, n, stack, abscissa, step, seed):
        rng = np.random.default_rng(seed)
        if step == "lyapunov":
            T = draw_hurwitz_system(rng)[3].transition * rng.uniform(1.0, 2.0, size=(stack, 1, 1))
            n = T.shape[-1]
        else:
            T = rng.normal(size=(stack, n, n)) * rng.uniform(0.2, 5.0)
            T -= (np.linalg.eigvals(T).real.max(axis=-1) - abscissa)[:, None, None] * np.eye(n)
        vec = rng.normal(size=(stack, n))
        root = rng.normal(size=(n, n))
        rhs = root @ root.T
        real = np.linalg.eigvals(T[0]).real
        # past this step cov_integral takes its Lyapunov branch for a stable T
        h_lyapunov = 15.0 / max(-real.min(), 1.0)
        h = {
            "zero": 0.0,
            "tiny": 10.0 ** rng.uniform(-12, -6),
            "block": rng.uniform(0.01, 2.0) / max(np.abs(np.linalg.eigvals(T)).max(), 1.0),
            "lyapunov": rng.uniform(1.01, 4.0) * h_lyapunov,
        }[step]
        prop, drift = propagator(T, vec, h)
        want_prop, want_drift = propagator_two_exponentials(T, vec, h)
        assert rel_err(prop, want_prop, 1.0) <= 1e-13
        assert rel_err(drift, want_drift) <= 1e-13
        got = cov_integral(T[0], rhs, vec[0], h)
        want = van_loan_two_exponentials(T[0], rhs, vec[0], h)
        assert rel_err(got[0], want[0], 1.0) <= 1e-13
        assert rel_err(got[1], want[1]) <= 1e-13
        assert rel_err(got[2], want[2]) <= 1e-13

    def test_predictive_design_steps(self):
        """The K=10 predictive design at the study's fine mesh up to seven time units."""
        config = predictive_study_config()
        system = build_companion(config.params, weight_matrices(config.graph, 1))
        T, E = system.transition, system.noise_selector
        rhs, vec = E @ (10.0 * np.eye(10)) @ E.T, E @ np.linspace(-1.0, 1.0, 10)
        for h in (2 / 2186, 0.01, 0.1, 0.5, 1.0, 3.0, 7.0):
            got, want = cov_integral(T, rhs, vec, h), van_loan_two_exponentials(T, rhs, vec, h)
            assert rel_err(got[0], want[0], 1.0) <= 1e-13, h
            assert rel_err(got[1], want[1]) <= 1e-13, h
            assert rel_err(got[2], want[2]) <= 1e-13, h
            for got, want in zip(propagator(T, vec, h), propagator_two_exponentials(T, vec, h)):
                assert rel_err(got, want, 1.0) <= 1e-13, h

    def test_zero_step_is_exact(self):
        _, _, system = paper_two_edge_system()
        T, n = system.transition, system.dim
        vec = np.arange(1.0, n + 1.0)
        prop, drift = propagator(np.stack([T, 2 * T]), np.stack([vec, vec]), 0.0)
        assert np.array_equal(prop, np.stack([np.eye(n)] * 2)) and not drift.any()
        prop, integral, drift = cov_integral(T, np.eye(n), vec, 0.0)
        assert np.array_equal(prop, np.eye(n)) and not integral.any() and not drift.any()

    def test_one_exponential_per_transition(self, monkeypatch):
        calls = []

        def counting_expm(matrix):
            calls.append(matrix.shape)
            return expm(matrix)

        monkeypatch.setattr(grou.model, "expm", counting_expm)
        weights, _, system = paper_two_edge_system()
        spec = LevySpec(np.array([0.4, -0.2]), np.eye(2))
        one_step_map(system, spec.mean_rate, 0.1)
        assert calls == [(5, 5)]
        calls.clear()
        conditional_moments(system, spec, np.ones(system.dim), 0.2)
        assert calls == [(9, 9)]
        calls.clear()
        stack = [np.stack([weights.matrices[0]] * 3)]
        _one_step_maps(np.ones((3, 6)), stack, (2, (1, 1)), np.zeros((3, 2)), 0.1)
        assert calls == [(3, 5, 5)]
