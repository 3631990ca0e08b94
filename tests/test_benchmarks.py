import numpy as np
import pytest
from conftest import (
    continuous_fit_loop,
    fit_and_evaluate_loop,
    ols_benchmark_fits,
    set_blas_threads,
    study_figures_loop,
    study_one_path_loop,
)

import grou.benchmarks
import grou.estimate
from grou.benchmarks import (
    BenchmarkContext,
    MODEL_KINDS,
    _score_stack,
    directional_accuracy,
    evaluate,
    fit_and_evaluate,
    fit_benchmark,
    monte_carlo_study,
    predictive_study_config,
)
from grou.errors import ConfigurationError, EstimationError, GrouError, SingularityError
from grou.estimate import _ALL_EXCEED, ThresholdPolicy
from grou.graphs import EdgeGraph, complete_graph, path_graph, random_er_graph, weight_matrices
from grou.model import GrouParams, build_companion
from grou.noise import CompoundPoissonJumps, LevySpec
from grou.simulate import SampledPath, make_uniform_grids, simulate_path


def discrete_path(values, mesh=1.0):
    values = np.asarray(values, dtype=float)
    grid = make_uniform_grids(mesh * (values.shape[0] - 1), mesh, 1)
    return SampledPath(grid=grid, values=values)


def simulated_k5_path(sigma2=1.0, seed=0, n_obs=800):
    graph = complete_graph(5)
    weights = weight_matrices(graph, 1)
    alpha = np.full((1, 10), 1.0)
    alpha[0, 0] = 5.0
    params = GrouParams(alpha, (np.array([2.0]),))
    system = build_companion(params, weights)
    noise = LevySpec(
        np.zeros(10), np.eye(10), CompoundPoissonJumps(1.0, sigma2 * np.eye(10))
    )
    t_end = 2.0 * (n_obs - 1) / 2186
    grid = make_uniform_grids(t_end, 2.0 / 2186, 1)
    path = simulate_path(system, noise, grid, init="stationary", rng_seed=seed)
    return graph, weights, path


class TestFitters:
    def test_naive_predicts_previous(self):
        rng = np.random.default_rng(0)
        path = discrete_path(rng.normal(size=(50, 3)))
        model = fit_benchmark("NA", path, BenchmarkContext())
        np.testing.assert_array_equal(model.predict_matrix(path.values), path.values)

    def test_ar_recovers_autoregression(self):
        # y_t = 0.5 y_{t-1} + eps; OLS slope lands within a few standard
        # errors of 0.5 (oracle: textbook OLS consistency)
        rng = np.random.default_rng(42)
        n = 4000
        y = np.zeros((n, 2))
        for t in range(1, n):
            y[t] = 0.5 * y[t - 1] + rng.normal(size=2)
        path = discrete_path(y)
        model = fit_benchmark("AR", path, BenchmarkContext())
        se = np.sqrt(1.0 / (n * (1.0 / (1 - 0.25))))  # sd(eps)/sqrt(n*var(y))
        assert np.all(np.abs(np.diag(model.gain) - 0.5) < 4 * se)
        assert np.allclose(model.gain - np.diag(np.diag(model.gain)), 0.0)

    def test_gnar_recovers_network_map(self):
        # data generated exactly by the GNAR one-step map plus small noise
        weights = weight_matrices(path_graph(4), 1)
        alpha_true = np.array([0.4, 0.3, 0.2])
        beta_true = 0.25
        gain_true = np.diag(alpha_true) + beta_true * weights.stage(1)
        rng = np.random.default_rng(1)
        n = 6000
        y = np.zeros((n, 3))
        for t in range(1, n):
            y[t] = gain_true @ y[t - 1] + 0.1 * rng.normal(size=3)
        path = discrete_path(y)
        ctx = BenchmarkContext(weights=weights)
        model = fit_benchmark("GNAR", path, ctx)
        np.testing.assert_allclose(model.detail["alpha"], alpha_true, atol=0.05)
        assert abs(model.detail["beta"][0] - beta_true) < 0.05

    def test_var_stays_near_naive_map(self):
        graph, weights, path = simulated_k5_path(sigma2=10.0, seed=5)
        model = fit_benchmark("VAR", path, BenchmarkContext(weights=weights))
        # shrinkage anchors the one-step map at the identity
        assert np.abs(model.gain - np.eye(10)).max() < 0.2

    def test_continuous_kinds_share_triplet(self):
        _, weights, path = simulated_k5_path(seed=3)
        triplet = LevySpec(np.zeros(10), np.eye(10))
        ctx = BenchmarkContext(weights=weights, shape=(1, (1,)), triplet=triplet)
        for kind in ("OU", "MCAR", "GROU"):
            model = fit_benchmark(kind, path, ctx)
            assert model.detail.triplet_used is triplet
            assert model.gain.shape == (10, 10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_benchmark("ARIMA", discrete_path(np.zeros((10, 1))), BenchmarkContext())


class TestSufficientStatisticFits:
    """AR and GNAR from lagged cross-products against dense-design lstsq."""

    @staticmethod
    def assert_matches_dense(path, weights):
        """The AR and GNAR models of ``path``, checked against the dense oracle."""
        models = {}
        for kind, (const, gain) in ols_benchmark_fits(path, weights).items():
            models[kind] = fit_benchmark(kind, path, BenchmarkContext(weights=weights))
            for got, want in ((models[kind].const, const), (models[kind].gain, gain)):
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        return models

    @pytest.mark.parametrize("seed", range(6))
    def test_random_designs(self, seed):
        rng = np.random.default_rng(seed)
        graph = random_er_graph(int(rng.integers(3, 7)), 0.6, rng)
        graph = graph if graph.n_edges else path_graph(3)
        K = graph.n_edges
        n = int(rng.integers(20, 400))
        # persistent series around nonzero levels, so slopes and intercepts both matter
        y = rng.normal(size=(n, K)).cumsum(axis=0) * 0.1 + rng.normal(scale=3.0, size=K)
        self.assert_matches_dense(discrete_path(y), weight_matrices(graph, 1))

    @pytest.mark.parametrize("level", [0.0, 0.1, 3.7])
    def test_constant_column(self, level):
        """A constant column's [1, c] design is rank one: lstsq's minimum-norm answer."""
        y = np.random.default_rng(3).normal(size=(200, 3))
        y[:, 1] = level
        models = self.assert_matches_dense(discrete_path(y), weight_matrices(path_graph(4), 1))
        const = y[1:, 1].mean() / (1 + level**2)
        assert models["AR"].const[1] == pytest.approx(const, rel=1e-12, abs=1e-15)
        assert models["AR"].gain[1, 1] == pytest.approx(level * const, rel=1e-12, abs=1e-15)
        if level == 0.0:
            assert models["AR"].gain[1, 1] == 0.0 and models["GNAR"].gain[1, 1] == 0.0

    def test_zero_stage_one_weights(self):
        """Two disjoint edges have no neighbors: the GNAR effect is the min-norm 0."""
        graph = EdgeGraph(4, [(0, 1), (2, 3)])
        weights = weight_matrices(graph, 1)
        assert not weights.stage(1).any()
        path = discrete_path(np.random.default_rng(4).normal(size=(200, 2)))
        assert self.assert_matches_dense(path, weights)["GNAR"].detail["beta"][0] == 0.0


class TestFitAndEvaluate:
    def test_triplet_only_for_continuous_kinds(self, monkeypatch):
        calls = []

        def estimate_triplet(*args):
            calls.append(args)
            raise RuntimeError("triplet estimated")

        # the first step of the continuous-time fits' stacked triplet
        monkeypatch.setattr("grou.benchmarks._triplet_increments", estimate_triplet)
        _, weights, path = simulated_k5_path(seed=6, n_obs=120)
        ctx = BenchmarkContext(weights=weights)
        _, reports = fit_and_evaluate(path, 100, ctx, kinds=("NA", "ar", "VAR", "GNAR"))
        assert [r.kind for r in reports] == ["NA", "AR", "VAR", "GNAR"] and not calls
        with pytest.raises(RuntimeError, match="triplet estimated"):
            fit_and_evaluate(path, 100, ctx, kinds=("NA", "grou"))
        assert len(calls) == 1

    def test_thread_invariance(self, blas_at_two):
        """Seed 0's path 5 on the full K=10 design: its GROU RMSE differs in the
        last bit between one and two BLAS threads unless the fits hold one."""
        config = predictive_study_config(n_paths=6, seed=0)
        system = build_companion(config.params, weight_matrices(config.graph, 1))

        def figures():
            return [(r.kind, r.rmse, r.dir_acc) for r in study_one_path_loop(config, system, 5)]

        at_two = figures()
        set_blas_threads(blas_at_two, 1)
        assert figures() == at_two


class TestEvaluate:
    def test_perfect_and_naive(self):
        rng = np.random.default_rng(2)
        path = discrete_path(rng.normal(size=(30, 2)))
        naive = fit_benchmark("NA", path, BenchmarkContext())
        reports = evaluate([naive], path, range(10, 30))
        assert reports[0].dir_acc == 0.5
        assert reports[0].rmse > 0

    def test_sign_convention(self):
        realized = np.array([[1.0], [0.0]])
        previous = np.array([[0.0], [0.0]])
        predicted_zero = previous.copy()
        # zero predicted increment vs nonzero realized -> miss;
        # both exactly zero -> hit
        acc = directional_accuracy(realized, predicted_zero, previous)
        assert acc == 0.5

    def test_nan_prediction_counts_as_miss(self):
        realized = np.array([[1.0]])
        previous = np.array([[0.0]])
        predicted = np.array([[np.nan]])
        assert directional_accuracy(realized, predicted, previous) == 0.0

    def test_purity_and_determinism(self):
        _, weights, path = simulated_k5_path(seed=9, n_obs=400)
        ctx = BenchmarkContext(weights=weights, triplet=LevySpec(np.zeros(10), np.eye(10)))
        models = [fit_benchmark(k, path.section(0, 300), ctx) for k in ("NA", "AR", "GROU")]
        before = path.values.copy()
        r1 = evaluate(models, path, range(300, 400))
        r2 = evaluate(models, path, range(300, 400))
        np.testing.assert_array_equal(path.values, before)
        for a, b in zip(r1, r2):
            assert a.rmse == b.rmse and a.dir_acc == b.dir_acc

    def test_range_validation(self):
        path = discrete_path(np.zeros((10, 1)))
        naive = fit_benchmark("NA", path, BenchmarkContext())
        with pytest.raises(ValueError):
            evaluate([naive], path, range(0, 5))
        with pytest.raises(ValueError):
            evaluate([naive], path, range(5, 11))


class TestStudy:
    def test_small_study_well_formed(self):
        config = predictive_study_config(sigma2=1.0, n_paths=3, seed=11, n_obs=600, test_size=150)
        rows = monte_carlo_study(config)
        assert [r["model"] for r in rows] == list(MODEL_KINDS)
        na = next(r for r in rows if r["model"] == "NA")
        assert na["diracc_mean"] == 0.5 and na["diracc_sd"] == 0.0
        for r in rows:
            assert np.isfinite(r["rmse_mean"]) and r["rmse_mean"] > 0

    def test_single_path_sd_zero(self):
        config = predictive_study_config(
            sigma2=1.0, n_paths=1, seed=2, n_obs=500, test_size=100, models=("NA", "AR")
        )
        rows = monte_carlo_study(config)
        assert all(r["rmse_sd"] == 0.0 for r in rows)

    def test_missing_edge_scenario(self):
        config = predictive_study_config(
            sigma2=1.0,
            n_paths=2,
            seed=3,
            n_obs=500,
            test_size=100,
            scenario=("missing_edge", (0, 1)),
            models=("NA", "GROU"),
        )
        rows = monte_carlo_study(config)
        assert np.isfinite(rows[1]["diracc_mean"])

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"n_paths": 0}, "n_paths must be >= 1"),
            ({"n_paths": -3}, "n_paths must be >= 1"),
            ({"models": ()}, "non-empty list"),
            ({"models": "GNAR"}, "non-empty list"),
            ({"models": ("NA", "ARIMA")}, "unknown kind 'ARIMA'"),
        ],
    )
    def test_config_rejects_empty_or_garbage_tables(self, overrides, needle):
        with pytest.raises(ValueError, match=needle):
            predictive_study_config(**overrides)

    @pytest.mark.parametrize("shape", [(1, (-1,)), (0, ()), (2, (1,))])
    def test_config_rejects_bad_shapes(self, shape):
        with pytest.raises(ConfigurationError):
            predictive_study_config(shape=shape)

    def test_thread_invariance(self, blas_at_two):
        """The rows do not depend on the BLAS thread count the caller left.

        At the full 2,187-point size, between one and two BLAS threads, seed
        0's GNAR RMSE differs in its last bit on paths 0, 1, 4, 6 and 7 and
        its GROU RMSE on paths 5 and 7, so this holds only because the study
        runs its paths on one BLAS thread.
        """
        config = predictive_study_config(n_paths=8, seed=0)
        assert config.n_obs == 2187

        def figures(rows):
            return [{k: v for k, v in row.items() if not k.startswith("time_")} for row in rows]

        at_two = figures(monte_carlo_study(config))
        set_blas_threads(blas_at_two, 1)
        assert figures(monte_carlo_study(config)) == at_two


def _same_fit(got, want):
    """Two fitted models of one kind carry the same one-step map and, if any, the same drift fit."""
    assert got.kind == want.kind
    assert np.array_equal(got.const, want.const) and np.array_equal(got.gain, want.gain)
    if want.kind in ("OU", "MCAR", "GROU"):
        a, b = got.detail, want.detail
        for field in ("theta_hat", "score", "info"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert (a.loglik, a.n_coarse, a.ridge_used, a.structure, a.shape, a.n_edges) == (
            b.loglik, b.n_coarse, b.ridge_used, b.structure, b.shape, b.n_edges
        )
        assert a.bic == b.bic and a.diagnostics == b.diagnostics
        assert a.triplet_used.to_json() == b.triplet_used.to_json()


def _same_reports(got, want):
    assert [(r.kind, r.rmse, r.dir_acc) for r in got] == [(r.kind, r.rmse, r.dir_acc) for r in want]


class TestStackedScorer:
    """The study's stacks and fit_and_evaluate against each kind fitted on its own."""

    @pytest.mark.parametrize(
        "context",
        [
            {},
            {"shape": (2, (1, 1))},
            {"triplet": LevySpec(np.full(10, 0.1), 2.0 * np.eye(10), CompoundPoissonJumps(1.0, np.eye(10)))},
            {"triplet": LevySpec(np.zeros(10), np.eye(10)), "shape": (2, (1, 0))},
            {"policy": ThresholdPolicy(0.3)},
            {"policy": ThresholdPolicy(activity="infinite"), "shape": (2, (1, 1))},
        ],
    )
    @pytest.mark.parametrize("kinds", [MODEL_KINDS, ("grou", "MCAR", "ou"), ("MCAR",), ("OU", "NA")])
    def test_fit_and_evaluate_equals_fit_benchmark(self, context, kinds):
        _, weights, path = simulated_k5_path(sigma2=10.0, seed=4, n_obs=700)
        ctx = BenchmarkContext(weights=weights, **context)
        models, reports = fit_and_evaluate(path, 550, ctx, kinds)
        want_models, want_reports = fit_and_evaluate_loop(path, 550, ctx, kinds)
        for got, want in zip(models, want_models, strict=True):
            _same_fit(got, want)
        _same_reports(reports, want_reports)

    def test_ou_without_weights(self):
        """OU alone needs no weight matrices, even under a shape with stages."""
        _, _, path = simulated_k5_path(seed=2, n_obs=500)
        ctx = BenchmarkContext(shape=(1, (1,)))
        (got,), reports = fit_and_evaluate(path, 400, ctx, ("OU",))
        (want,), want_reports = fit_and_evaluate_loop(path, 400, ctx, ("OU",))
        _same_fit(got, want)
        _same_reports(reports, want_reports)

    def test_missing_weights_raise_the_loops_error(self):
        """Without weights GNAR, ahead of grOU in the kinds, raises first, as in the loop."""
        _, _, path = simulated_k5_path(seed=2, n_obs=500)
        for run in (fit_and_evaluate_loop, fit_and_evaluate):
            with pytest.raises(ValueError, match="GNAR needs neighborhood weight matrices"):
                run(path, 400, BenchmarkContext(), MODEL_KINDS)

    @pytest.mark.parametrize("scenario", ["correct", ("missing_edge", (0, 1)), ("missing_edge", (3, 4))])
    @pytest.mark.parametrize("shape", [(1, (1,)), (2, (1, 1))])
    def test_study_rows_equal_the_loop(self, scenario, shape, monkeypatch):
        """Seven paths in stacks of three: two whole batches and a partial last one."""
        config = predictive_study_config(
            n_paths=7, seed=21, n_obs=600, test_size=150, scenario=scenario, shape=shape
        )
        K = config.graph.n_edges - (scenario != "correct")
        cells = grou.benchmarks._STACK_COPIES * config.n_obs * K
        monkeypatch.setattr(grou.estimate, "_BATCH_CELLS", 3 * cells)
        got = monte_carlo_study(config)
        for row, want in zip(got, study_figures_loop(config), strict=True):
            assert {k: row[k] for k in want} == want

    def test_full_design_rows_equal_the_loop(self):
        """The benchmark's K=10 design: 2,187 points a path, eight paths in two stacks."""
        config = predictive_study_config(n_paths=8, seed=3)
        for row, want in zip(monte_carlo_study(config), study_figures_loop(config), strict=True):
            assert {k: row[k] for k in want} == want

    @staticmethod
    def faulty_stack(order):
        """Paths on one grid: ``good``, ``flat`` (MCAR's fixed ridge is 0 and fails) and
        ``jumpy`` (every increment exceeds the threshold, so its triplet fails)."""
        _, _, path = simulated_k5_path(seed=1, n_obs=500)
        paths = {
            "good": path.values,
            "flat": np.zeros_like(path.values),
            "jumpy": 1e4 * np.cumsum(np.ones_like(path.values), axis=0),
        }
        return path.grid, np.stack([paths[name] for name in order])

    @pytest.mark.parametrize(
        "order, error, needle",
        [
            (("good", "flat", "jumpy"), SingularityError, "not positive definite at ridge=0.0"),
            (("good", "jumpy", "flat"), EstimationError, _ALL_EXCEED),
            (("jumpy", "flat", "good"), EstimationError, _ALL_EXCEED),
        ],
    )
    def test_first_failing_path_raises_its_own_error(self, order, error, needle):
        grid, values = self.faulty_stack(order)
        ctx = BenchmarkContext(weights=weight_matrices(complete_graph(5), 1))
        for v in values:
            try:
                fit_and_evaluate_loop(SampledPath(grid=grid, values=v), 400, ctx, MODEL_KINDS)
            except error as exc:
                assert needle in str(exc)
                break
        else:
            raise AssertionError("no path failed on its own")
        with pytest.raises(error, match=needle):
            _score_stack(grid, values, 400, ctx, MODEL_KINDS)

    def test_stacks_do_not_fall_back(self, monkeypatch):
        """Each stack forms its drift and MCAR statistics once, clean or failing: no path is fitted twice."""
        calls = []

        def spy(name):
            real = getattr(grou.estimate, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            return counted

        # both import sites: a fit on its own reaches the statistics through grou.estimate
        for name in ("_drift_statistics", "_mcar_statistics"):
            counted = spy(name)
            for module in (grou.benchmarks, grou.estimate):
                monkeypatch.setattr(module, name, counted)
        ctx = BenchmarkContext(weights=weight_matrices(complete_graph(5), 1))
        grid, values = self.faulty_stack(("good", "good"))
        _score_stack(grid, values, 400, ctx, MODEL_KINDS)
        assert sorted(calls) == ["_drift_statistics", "_mcar_statistics"]
        for order in (("good", "flat", "jumpy"), ("jumpy", "flat", "good")):
            calls.clear()
            grid, values = self.faulty_stack(order)
            with pytest.raises(GrouError):
                _score_stack(grid, values, 400, ctx, MODEL_KINDS)
            assert sorted(calls) == ["_drift_statistics", "_mcar_statistics"], order

    @pytest.mark.parametrize("name", ["flat", "jumpy"])
    @pytest.mark.parametrize("kind", ["OU", "MCAR", "GROU"])
    def test_fit_benchmark_raises_the_loops_error(self, kind, name):
        """On its own, each continuous kind's fit fails, or succeeds, as the per-kind loop's does."""
        grid, (values,) = self.faulty_stack((name,))
        train = SampledPath(grid=grid, values=values).section(0, 400)
        ctx = BenchmarkContext(weights=weight_matrices(complete_graph(5), 1))
        try:
            want = continuous_fit_loop(kind, train, ctx)
        except GrouError as exc:
            with pytest.raises(type(exc)) as got:
                fit_benchmark(kind, train, ctx)
            assert str(got.value) == str(exc)
        else:
            _same_fit(fit_benchmark(kind, train, ctx), want)
