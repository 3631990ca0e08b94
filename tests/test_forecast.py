import sys

import numpy as np
import pytest

from grou.errors import StationarityError
from grou.estimate import estimate_drift
from grou.forecast import (
    ForecastState,
    init_state,
    one_step_map,
    rolling_forecast,
    system_from_fit,
)
from grou.graphs import path_graph, weight_matrices
from grou.model import (
    GrouParams,
    build_companion,
    conditional_moments,
    cov_integral,
    propagator,
    stationary_moments,
)
from grou.noise import LevySpec
from grou.simulate import SampledPath, make_uniform_grids, simulate_path


def scalar_system(rate=2.0):
    return build_companion(GrouParams(np.array([[rate]]), (np.empty(0),)), None)


def two_edge_setup():
    weights = weight_matrices(path_graph(3), 1)
    params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
    return weights, params, build_companion(params, weights)


class TestInitState:
    def test_single_lag_is_last_observation(self):
        grid = make_uniform_grids(1.0, 0.25, 1)
        values = np.arange(10.0).reshape(5, 2)
        path = SampledPath(grid=grid, values=values)
        state = init_state(path, (1, [1]))
        np.testing.assert_array_equal(state.x, [8.0, 9.0])
        assert state.origin_time == 1.0

    def test_higher_blocks_zeroed(self):
        grid = make_uniform_grids(1.0, 0.25, 1)
        values = np.zeros((5, 2))
        values[-1] = [1.0, 2.0]
        path = SampledPath(grid=grid, values=values)
        state = init_state(path, (3, [1, 1, 1]))
        np.testing.assert_array_equal(state.x, [1.0, 2.0, 0, 0, 0, 0])


class TestForecast:
    def test_stationary_state_is_fixed_point(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.array([0.4, -0.2]), np.eye(2))
        m = stationary_moments(system, spec)
        state = ForecastState(x=m.state_mean, origin_time=0.0)
        for h in (0.1, 1.0, 5.0):
            mean, _ = conditional_moments(system, spec, state.x, h)
            np.testing.assert_allclose(mean, m.mean, atol=1e-9)

    def test_scalar_exponential_decay(self):
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        state = ForecastState(x=np.array([1.5]), origin_time=0.0)
        for h in (0.1, 0.5, 2.0):
            mean, _ = conditional_moments(system, spec, state.x, h)
            assert mean[0] == pytest.approx(1.5 * np.exp(-2 * h), rel=1e-10)

    def test_short_horizon_single_lag_is_flat(self):
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        state = ForecastState(x=np.array([0.7]), origin_time=0.0)
        mean, var = conditional_moments(system, spec, state.x, 1e-9)
        assert mean[0] == pytest.approx(0.7, abs=1e-8)
        assert var[0, 0] == pytest.approx(0.0, abs=1e-8)

    def test_non_hurwitz_propagates(self):
        system = scalar_system(0.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        with pytest.raises(StationarityError):
            conditional_moments(system, spec, np.array([1.0]), 0.5)

    def test_tower_property(self):
        # forecasting 2h ahead equals forecasting h ahead from the
        # mean-propagated state (semigroup of the conditional mean)
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.array([0.4, -0.2]), np.eye(2))
        x = np.array([1.0, -0.7, 0.2, 0.9])
        h = 0.37
        mean_2h, _ = conditional_moments(system, spec, x, 2 * h)
        prop, drift = propagator(system.transition, system.noise_selector @ spec.mean_rate, h)
        propagated = prop @ x + drift
        mean_hh, _ = conditional_moments(system, spec, propagated, h)
        np.testing.assert_allclose(mean_2h, mean_hh, atol=1e-10)

    def test_variance_additivity(self):
        # state-level Chapman-Kolmogorov: V(2h) = P V(h) P' + V(h)
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        rhs = system.noise_selector @ spec.covariance_rate @ system.noise_selector.T
        h = 0.42
        drift_rate = np.zeros(system.dim)
        prop, v_h, _ = cov_integral(system.transition, rhs, drift_rate, h)
        _, v_2h, _ = cov_integral(system.transition, rhs, drift_rate, 2 * h)
        np.testing.assert_allclose(
            v_2h, prop @ v_h @ prop.T + v_h, rtol=1e-8, atol=1e-12
        )


class TestOneStepMap:
    def test_matches_conditional_moments_for_zero_init(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.array([0.4, -0.2]), np.eye(2))
        last = np.array([0.8, -1.1])
        x = np.array([0.8, -1.1, 0.0, 0.0])
        h = 0.09
        const, gain = one_step_map(system, spec.mean_rate, h)
        want, _ = conditional_moments(system, spec, x, h)
        np.testing.assert_allclose(const + gain @ last, want, atol=1e-10)

    def test_no_stationarity_needed(self):
        system = scalar_system(-0.5)  # explosive
        const, gain = one_step_map(system, np.zeros(1), 0.1)
        assert np.isfinite(const).all() and np.isfinite(gain).all()
        assert gain[0, 0] == pytest.approx(np.exp(0.05), rel=1e-10)


class TestRollingForecast:
    def fitted_on(self, system, spec, grid, seed=0, shape=(2, [1, 1]), weights=None):
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
        return path, estimate_drift(path, weights, shape, spec)

    def test_deterministic_flow_one_step_accuracy(self):
        # noiseless path generated by the model itself: one-step forecasts
        # from the true parameters reproduce the realized values up to the
        # zero-init error of the unobserved derivative blocks
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.zeros((1, 1)))
        grid = make_uniform_grids(1.0, 1 / 128, 1)
        path = simulate_path(system, spec, grid, init=np.array([1.0]), rng_seed=0)
        truth_fit = estimate_drift(path, None, (1, [0]), LevySpec(np.zeros(1), np.eye(1)))
        idx = range(1, path.n_points)
        preds = rolling_forecast(path, truth_fit, None, idx, horizon="fine")
        realized = path.values[1:]
        assert np.max(np.abs(preds - realized)) < 5e-4  # O(mesh^2) per step

    def test_eval_range_bounds(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(1.0, 1 / 32, 4)
        path, fitted = self.fitted_on(system, spec, grid, weights=weights)
        with pytest.raises(ValueError):
            rolling_forecast(path, fitted, weights, range(0, 4))
        with pytest.raises(ValueError):
            rolling_forecast(path, fitted, weights, [path.n_points])

    @pytest.mark.parametrize("steps", [0, -1])
    def test_horizon_steps_below_one_rejected(self, steps):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(1.0, 1 / 32, 4)
        path, fitted = self.fitted_on(system, spec, grid, weights=weights)
        with pytest.raises(ValueError, match="horizon_steps must be >= 1"):
            rolling_forecast(path, fitted, weights, range(4, 8), horizon_steps=steps)
        with pytest.raises(ValueError, match="horizon_steps must be >= 1"):
            rolling_forecast(path, fitted, weights, [], horizon_steps=steps)

    def test_horizon_modes(self):
        weights, params, system = two_edge_setup()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(2.0, 1 / 64, 16)
        path, fitted = self.fitted_on(system, spec, grid, weights=weights)
        idx = range(path.n_points - 10, path.n_points)
        fine = rolling_forecast(path, fitted, weights, idx, horizon="fine")
        coarse = rolling_forecast(path, fitted, weights, idx, horizon="coarse")
        explicit = rolling_forecast(path, fitted, weights, idx, horizon=1 / 64)
        np.testing.assert_allclose(fine, explicit, atol=1e-12)
        assert not np.allclose(fine, coarse)

    def test_mcar_fit_round_trip(self):
        from grou.estimate import estimate_mcar

        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(4.0, 1 / 64, 8)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=1)
        fitted = estimate_mcar(path, spec)
        rebuilt = system_from_fit(fitted, None)
        assert rebuilt.transition.shape == (1, 1)
        preds = rolling_forecast(path, fitted, None, range(1, 5))
        assert preds.shape == (4, 1)


def test_package_attribute_is_the_module():
    import grou.forecast as m

    assert m is sys.modules["grou.forecast"]
