import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import ks_2samp

import grou._blas
import grou.model
import grou.simulate
from grou.errors import StationarityError
from grou.graphs import complete_graph, path_graph, weight_matrices
from grou.model import GrouParams, build_companion
from grou.noise import (
    CompoundPoissonJumps,
    LevySpec,
    SymmetricGammaJumps,
    _gamma_differences,
    stream_rng,
)
from grou.simulate import (
    SampledPath,
    _add_jump_responses,
    _runs,
    _scan,
    grid_from_times,
    make_uniform_grids,
    power_law_grids,
    read_path_csv,
    simulate_path,
    simulate_paths,
    write_path_csv,
)

from conftest import linear_scan, simulate_full_state, simulate_path_loop, stepwise_path


def scalar_system(rate=2.0):
    return build_companion(GrouParams(np.array([[rate]]), (np.empty(0),)), None)


def two_edge_system():
    weights = weight_matrices(path_graph(3), 1)
    params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
    return build_companion(params, weights)


def k5_predictive_system(beta=2.0, dominant=5.0):
    graph = complete_graph(5)
    weights = weight_matrices(graph, 1)
    alpha = np.full((1, 10), 1.0)
    alpha[0, 0] = dominant
    params = GrouParams(alpha, (np.array([beta]),))
    return build_companion(params, weights)


class TestGrids:
    def test_paper_meshes_for_t2(self):
        grid = make_uniform_grids(2.0, 2.0**-6, 16)
        assert grid.t_end == pytest.approx(2.0)
        assert grid.mesh_fine == pytest.approx(1 / 64)
        assert grid.mesh_coarse == pytest.approx(1 / 4)
        assert grid.ratio == 16
        assert grid.fine.size == 129
        assert grid.coarse.size == 9

    def test_ratio_one_collapses(self):
        grid = make_uniform_grids(1.0, 0.125, 1)
        np.testing.assert_array_equal(grid.coarse, grid.fine)

    def test_snapping_to_coarse_step(self):
        grid = make_uniform_grids(1.0, 0.01, 18)
        assert grid.mesh_coarse == pytest.approx(0.18)
        assert grid.t_end == pytest.approx(0.18 * 6)  # snapped up from 1.0
        assert grid.uniformity_fine == pytest.approx(1.0)

    def test_power_law_grids(self):
        grid = power_law_grids(2.0)
        assert grid.mesh_fine == pytest.approx(2.0**-6)
        assert grid.ratio == 16
        capped = power_law_grids(8.0)
        assert capped.mesh_fine == pytest.approx(2.0**-14)
        assert capped.ratio == 256

    def test_grid_from_times_appends_endpoint(self):
        grid = grid_from_times([5.0, 6.0, 7.0, 8.0, 9.0], ratio=3)
        np.testing.assert_allclose(grid.fine, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(grid.coarse_idx, [0, 3, 4])
        assert grid.uniformity_coarse < 1.0

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_grids(1.0, -0.1, 1)
        with pytest.raises(ValueError):
            make_uniform_grids(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            grid_from_times([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("ratio", [0, -1])
    def test_ratio_below_one_rejected(self, ratio):
        with pytest.raises(ValueError, match=f"ratio must be >= 1, got {ratio}"):
            grid_from_times([0.0, 1.0, 2.0], ratio=ratio)
        with pytest.raises(ValueError, match=f"ratio must be >= 1, got {ratio}"):
            make_uniform_grids(1.0, 0.1, ratio)

    @pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
    def test_horizon_and_mesh_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            make_uniform_grids(value, 0.1, 1)
        with pytest.raises(ValueError, match="mesh_fine must be positive and finite"):
            make_uniform_grids(1.0, value, 1)


class TestSimulatePath:
    def test_zero_noise_is_matrix_exponential_flow(self):
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.zeros((2, 2)))
        grid = make_uniform_grids(1.0, 1 / 32, 4)
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        path = simulate_path(system, spec, grid, init=x0, rng_seed=0)
        for n in (0, 7, 19, 32):
            t = grid.fine[n]
            want = (system.observation @ expm(t * system.transition) @ x0)
            np.testing.assert_allclose(path.values[n], want, atol=1e-12)

    def test_explicit_init_shape_check(self):
        system = scalar_system()
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(1.0, 0.25, 1)
        with pytest.raises(ValueError):
            simulate_path(system, spec, grid, init=[1.0, 2.0])

    def test_non_hurwitz_stationary_init_rejected(self):
        system = scalar_system(0.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(1.0, 0.25, 1)
        with pytest.raises(StationarityError):
            simulate_path(system, spec, grid, init="stationary")

    def test_scalar_ou_stationary_variance(self):
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(1.0, 1 / 16, 4)
        n_paths = 2000
        finals = np.array(
            [
                simulate_path(system, spec, grid, init="stationary", rng_seed=s).values[-1, 0]
                for s in range(n_paths)
            ]
        )
        # exact stationary variance 1/4; allow 3 standard errors of the
        # sample variance of a Gaussian: sd ~ var*sqrt(2/(n-1))
        tol = 3 * 0.25 * np.sqrt(2 / (n_paths - 1))
        assert abs(finals.var() - 0.25) < tol
        assert abs(finals.mean()) < 3 * 0.5 / np.sqrt(n_paths)

    def test_marginal_time_invariance_and_mid_path(self):
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1))
        grid = make_uniform_grids(1.0, 1 / 16, 4)
        vals = np.array(
            [
                simulate_path(system, spec, grid, init="stationary", rng_seed=s).values[:, 0]
                for s in range(1500)
            ]
        )
        mid, end = vals[:, 8], vals[:, -1]
        assert abs(mid.var() - end.var()) < 3 * 0.25 * np.sqrt(4 / 1500)
        assert abs(mid.mean() - end.mean()) < 3 * 0.5 * np.sqrt(2 / 1500)

    def test_compound_poisson_superposition(self):
        # responses to the continuous part and to the jumps add up to the
        # full path when the randomness is shared through the seed
        system = two_edge_system()
        jumps = CompoundPoissonJumps(rate=3.0, jump_cov=np.eye(2))
        full_spec = LevySpec(np.array([0.2, -0.1]), np.eye(2), jumps)
        cont_spec = LevySpec(np.array([0.2, -0.1]), np.eye(2))
        jump_spec = LevySpec(np.zeros(2), np.zeros((2, 2)), jumps)
        grid = make_uniform_grids(2.0, 1 / 32, 8)
        x0 = np.array([0.5, -1.0, 0.0, 0.3])
        full = simulate_path(system, full_spec, grid, init=x0, rng_seed=77)
        cont = simulate_path(system, cont_spec, grid, init=x0, rng_seed=77)
        jump = simulate_path(system, jump_spec, grid, init=np.zeros(4), rng_seed=77)
        np.testing.assert_allclose(full.values, cont.values + jump.values, atol=1e-10)

    def test_jump_truth_metadata(self):
        system = k5_predictive_system()
        spec = LevySpec(np.zeros(10), np.eye(10), CompoundPoissonJumps(1.0, np.eye(10)))
        grid = make_uniform_grids(2.0, 2 / 128, 4)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=5)
        truth = path.truth
        assert truth is not None
        assert truth.arrival_times is not None
        assert np.all(np.diff(truth.arrival_times) >= 0) or truth.arrival_times.size <= 1
        assert truth.arrival_sizes.shape[1] == 10
        assert truth.noise is spec

    def test_mesh_refinement_does_not_change_law(self):
        # the scheme is distribution-exact, so a 4x finer mesh gives the
        # same terminal law; two-sample KS at n=m=4000 should sit well
        # below 0.043 (the 1e-3 critical value for identical laws)
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1), CompoundPoissonJumps(1.0, np.eye(1)))
        coarse = make_uniform_grids(1.0, 1 / 8, 2)
        fine = make_uniform_grids(1.0, 1 / 32, 8)
        # the draws of simulate_path with each seed (TestSimulatePaths)
        a = np.array(
            [p.values[-1, 0] for p in simulate_paths(system, spec, coarse, range(4000))]
        )
        b = np.array(
            [p.values[-1, 0] for p in simulate_paths(system, spec, fine, range(100_000, 104_000))]
        )
        assert ks_2samp(a, b).statistic < 0.043

    def test_gamma_regime_long_run_variance(self):
        # stationary variance = (1 + 2)/4 = 0.75; single-path time averages
        # are heavy-tailed here, so check the median over several paths
        system = scalar_system(2.0)
        spec = LevySpec(np.zeros(1), np.eye(1), SymmetricGammaJumps(1.0, 1.0))
        grid = make_uniform_grids(60.0, 2.0**-8, 16)
        stats = []
        for seed in range(12):
            x = simulate_path(system, spec, grid, init="stationary", rng_seed=seed).values[:, 0]
            stats.append((x.var(), x.mean()))
        var_med = np.median([v for v, _ in stats])
        mean_med = np.median([m for _, m in stats])
        assert abs(var_med / 0.75 - 1.0) < 0.12
        assert abs(mean_med) < 0.1

    def test_determinism(self):
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
        grid = make_uniform_grids(1.0, 1 / 64, 8)
        a = simulate_path(system, spec, grid, init="stationary", rng_seed=9)
        b = simulate_path(system, spec, grid, init="stationary", rng_seed=9)
        np.testing.assert_array_equal(a.values, b.values)


class TestPathContainer:
    def make_path(self):
        grid = make_uniform_grids(1.0, 0.125, 2)
        values = np.arange(grid.fine.size * 2, dtype=float).reshape(-1, 2)
        return SampledPath(grid=grid, values=values, labels=("e_1", "e_2"))

    def test_section(self):
        path = self.make_path()
        sub = path.section(2, 7)
        assert sub.n_points == 5
        np.testing.assert_allclose(sub.grid.fine, path.grid.fine[2:7] - path.grid.fine[2])
        np.testing.assert_array_equal(sub.values, path.values[2:7])

    def test_section_carries_no_truth(self):
        spec = LevySpec(np.zeros(1), np.eye(1), CompoundPoissonJumps(5.0, np.eye(1)))
        path = simulate_path(scalar_system(), spec, make_uniform_grids(2.0, 0.01, 1), rng_seed=4)
        assert path.truth is not None
        assert path.section(50, 150).truth is None

    def test_section_bounds(self):
        path = self.make_path()
        with pytest.raises(ValueError):
            path.section(5, 5)

    def test_drop_columns(self):
        path = self.make_path()
        dropped = path.drop_columns([0])
        assert dropped.n_edges == 1
        assert dropped.labels == ("e_2",)
        np.testing.assert_array_equal(dropped.values, path.values[:, 1:])

    def test_non_finite_rejected(self):
        grid = make_uniform_grids(1.0, 0.5, 1)
        values = np.full((3, 1), np.nan)
        with pytest.raises(ValueError):
            SampledPath(grid=grid, values=values)

    def test_csv_round_trip(self, tmp_path):
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(0.5, 1 / 32, 4)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=1)
        file = tmp_path / "path.csv"
        write_path_csv(path, file, header_lines=["config: {}"])
        back = read_path_csv(file, ratio=4)
        np.testing.assert_array_equal(back.values, path.values)
        np.testing.assert_array_equal(back.grid.fine, path.grid.fine)
        np.testing.assert_array_equal(back.grid.coarse_idx, path.grid.coarse_idx)
        assert back.labels == ("e_1", "e_2")

    def test_csv_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_path_csv(bad)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_path_csv(empty)


class TestFullStateSimulator:
    def test_scan_matches_stepwise_recurrence(self):
        rng = np.random.default_rng(8)
        prop = expm(0.05 * two_edge_system().transition)
        first = rng.normal(size=4)
        shocks = rng.normal(size=(37, 4))
        expected = [first]
        for shock in shocks:
            expected.append(prop @ expected[-1] + shock)
        assert np.abs(linear_scan(prop, first, shocks) - np.array(expected)).max() <= 1e-10

    @pytest.mark.parametrize(
        "jumps", [None, CompoundPoissonJumps(3.0, np.eye(2)), SymmetricGammaJumps(1.0, 1.0)]
    )
    def test_first_block_reproduces_simulate_path(self, jumps):
        system = two_edge_system()
        spec = LevySpec(np.array([0.2, -0.1]), np.eye(2), jumps)
        grid = make_uniform_grids(2.0, 1 / 256, 16)
        x0 = np.array([0.3, -0.2, 1.0, 0.5])
        path = simulate_path(system, spec, grid, init=x0, rng_seed=5)
        states, jump_sums = simulate_full_state(system, spec, grid.fine, x0, stream_rng(5, 1))
        assert np.abs(states[:, :2] - path.values).max() <= 1e-10
        if isinstance(jumps, CompoundPoissonJumps):
            assert np.allclose(jump_sums.sum(axis=0), path.truth.arrival_sizes.sum(axis=0))
        elif isinstance(jumps, SymmetricGammaJumps):
            # the library's Gamma draws, regenerated from the same stream
            # position: after the Gaussian block
            rng = stream_rng(5, 1)
            rng.standard_normal((grid.fine.size - 1, system.dim))
            expected = _gamma_differences(jumps, np.diff(grid.fine), system.n_edges, rng)
            np.testing.assert_array_equal(jump_sums, expected)
        else:
            assert not jump_sums.any()


REGIMES = {
    "brownian": None,
    "compound_poisson": CompoundPoissonJumps(3.0, np.eye(2)),
    "gamma": SymmetricGammaJumps(1.0, 1.0),
}


def random_grid(seed=11, n=300):
    steps = np.random.default_rng(seed).uniform(0.001, 0.02, size=n)
    return grid_from_times(np.concatenate([[0.0], np.cumsum(steps)]), ratio=4)


class TestScanKernel:
    """The scan kernel against the step-by-step recursion it replaced.

    Runs of at least ``_FOLD_BLOCKS`` blocks of ``_BLOCK`` rows are folded,
    shorter runs and the tail take doubling rounds.
    """

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("kind", ["dyadic", "non_dyadic", "non_uniform", "dyadic_folded"])
    def test_matches_stepwise_reference(self, regime, kind):
        system = two_edge_system()
        spec = LevySpec(np.array([0.2, -0.1]), np.eye(2), REGIMES[regime])
        if kind == "dyadic":
            grid = make_uniform_grids(2.0, 1 / 256, 16)
        elif kind == "dyadic_folded":
            # 1,030 steps: 257 blocks of four and a two-row tail
            grid = make_uniform_grids(2.01, 1 / 512, 1)
            steps = grid.fine.size - 1
            assert steps // grou.simulate._BLOCK >= grou.simulate._FOLD_BLOCKS
            assert steps % grou.simulate._BLOCK == 2
        elif kind == "non_dyadic":
            grid = make_uniform_grids(2.0, 2 / 2186, 1)
        else:
            grid = random_grid()
        dt = np.diff(grid.fine)
        # a uniform grid is one run, which takes its operators from its
        # first spacing; a non-dyadic mesh has spacings that differ in the
        # last bits, so the reference is given that same spacing
        steps = np.full(dt.size, dt[0]) if kind == "non_dyadic" else None
        if kind == "non_dyadic":
            assert np.unique(dt).size > 1
        if kind == "non_uniform":
            assert np.unique(dt).size == dt.size
        x0 = np.array([0.3, -0.2, 1.0, 0.5])
        path = simulate_path(system, spec, grid, init=x0, rng_seed=5)
        states = stepwise_path(system, spec, grid.fine, x0, stream_rng(5, 1), steps=steps)
        assert np.abs(path.values - states[:, :2]).max() <= 1e-10

    def test_stationary_init_continues_from_the_burn_in_state(self):
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2), REGIMES["compound_poisson"])
        grid = make_uniform_grids(1.0, 1 / 64, 4)
        path = simulate_path(system, spec, grid, rng_seed=21)
        states = stepwise_path(system, spec, grid.fine, path.truth.init_state, stream_rng(21, 1))
        assert np.abs(path.values - states[:, :2]).max() <= 1e-10

    def test_expm_calls_do_not_grow_with_n(self, monkeypatch):
        calls = []

        def counting_expm(matrix):
            calls.append(matrix.shape)
            return expm(matrix)

        monkeypatch.setattr(grou.simulate, "expm", counting_expm)
        monkeypatch.setattr(grou.model, "expm", counting_expm)
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2))
        counts = []
        for n in (2186, 4374, 8748):
            calls.clear()
            simulate_path(system, spec, make_uniform_grids(2.0, 2 / n, 1), rng_seed=3)
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]
        # one run each for the 64-step burn-in and for the path, and one
        # exponential per run for its propagator, covariance and drift
        assert counts[0] == 2
        # compound-Poisson jumps add one exponential per anchor of the
        # response kernel that some jump reaches; the path's steps are far
        # shorter than the anchor spacing, the burn-in's reach a few anchors
        T = system.transition
        delta = 0.5 / np.abs(T).sum(axis=0).max()
        burn_step = grou.simulate.BURN_IN_RELAXATION / abs(np.linalg.eigvals(T).real.max()) / 64
        most = 2 + int(burn_step / delta)
        for rate in (3.0, 30.0):
            spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(rate, np.eye(2)))
            counts, jumps = [], []
            for n in (2186, 4374, 8748):
                calls.clear()
                path = simulate_path(system, spec, make_uniform_grids(2.0, 2 / n, 1), rng_seed=3)
                counts.append(len(calls))
                jumps.append(path.truth.arrival_times.size)
            assert counts[0] == counts[1] == counts[2] <= most, (counts, most)
            assert min(jumps) > 0

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * grou.simulate._SCAN_ROWS + 3])
    def test_chunk_boundaries(self, offset):
        self._check_scan(grou.simulate._SCAN_ROWS + offset, seed=offset)

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 23, 37])
    def test_rounds_wider_than_a_chunk(self, n, monkeypatch):
        monkeypatch.setattr(grou.simulate, "_SCAN_ROWS", 5)
        self._check_scan(n, seed=n)

    @staticmethod
    def _check_scan(n, seed):
        rng = np.random.default_rng(seed + 100)
        prop = expm(0.05 * two_edge_system().transition)
        rows = rng.normal(size=(n, 4))
        expected = rows.copy()
        for j in range(1, n):
            expected[j] = prop @ expected[j - 1] + rows[j]
        got = _scan(rows, prop)
        assert got is rows
        assert np.abs(got - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())

    @staticmethod
    def _stepwise(rows, prop):
        out = rows.copy()
        for j in range(1, out.shape[0]):
            out[j] = prop @ out[j - 1] + out[j]
        return out

    @staticmethod
    def scan_transition(kind):
        if kind == "two_edge":
            return two_edge_system().transition
        if kind == "jordan":
            # one 4x4 Jordan block, as in TestJumpResponses: defective
            return -2.0 * np.eye(4) + np.diag(np.ones(3), 1)
        if kind == "dim_1":
            return scalar_system().transition
        if kind == "dim_2":
            params = GrouParams(np.array([[3.0], [2.0]]), (np.empty(0), np.empty(0)))
            return build_companion(params, None).transition
        return k5_predictive_system().transition

    # blocks of four rows: below and above the fold's floor of 256, above
    # 1,024 (the block ends fold too) and about 4,096 (so do theirs)
    @given(
        kind=st.sampled_from(["dim_1", "dim_2", "two_edge", "jordan", "dim_10"]),
        blocks=st.one_of(
            st.integers(250, 262), st.integers(1020, 1030), st.integers(4090, 4100)
        ),
        tail=st.integers(0, 3),
        h=st.sampled_from([2.0**-14, 0.01, 0.3]),
        scan_rows=st.sampled_from([1, 3, 64, 4096]),
    )
    @example(kind="jordan", blocks=255, tail=3, h=0.01, scan_rows=1)
    @example(kind="two_edge", blocks=256, tail=0, h=2.0**-14, scan_rows=1)
    @example(kind="dim_10", blocks=4096, tail=1, h=0.01, scan_rows=1)
    @example(kind="dim_1", blocks=4096, tail=2, h=0.3, scan_rows=3)
    @settings(max_examples=30, deadline=None)
    def test_fold_matches_stepwise_recurrence(self, kind, blocks, tail, h, scan_rows):
        prop = expm(h * self.scan_transition(kind))
        n = grou.simulate._BLOCK * blocks + 1 + tail
        rows = np.random.default_rng(blocks + tail).normal(size=(n, prop.shape[0]))
        expected = self._stepwise(rows, prop)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grou.simulate, "_SCAN_ROWS", scan_rows)
            got = _scan(rows, prop)
        assert got is rows
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_non_contiguous_rows_are_updated_in_place(self):
        # the fold's blocks would be a copy of a Fortran-ordered buffer, so
        # it takes the doubling rounds
        prop = expm(0.05 * two_edge_system().transition)
        n = grou.simulate._BLOCK * grou.simulate._FOLD_BLOCKS * 2 + 3
        rows = np.asfortranarray(np.random.default_rng(8).normal(size=(n, 4)))
        expected = self._stepwise(rows, prop)
        got = _scan(rows, prop)
        assert got is rows
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_runs_of_equal_spacing(self):
        assert _runs(np.diff(np.linspace(0.0, 3.7, 1001))) == [(0, 1000)]
        assert _runs(np.array([0.1, 0.1, 0.2, 0.2, 0.2, 0.1])) == [(0, 2), (2, 5), (5, 6)]
        steps = np.diff(random_grid().fine)
        assert _runs(steps) == [(i, i + 1) for i in range(steps.size)]
        # each step within the tolerance of the last, but a run is held to
        # its first spacing
        drifting = 0.01 * (1.0 + 4e-10 * np.arange(10))
        assert _runs(drifting) == [(0, 3), (3, 6), (6, 9), (9, 10)]


class TestJumpResponses:
    """The batched jump-response kernel against one ``expm`` per jump."""

    @staticmethod
    def per_jump(T, E, owner, offsets, sizes, n):
        out = np.zeros((n, T.shape[0]))
        for i, r, size in zip(owner, offsets, sizes):
            out[i] += expm(r * T) @ (E @ size)
        return out

    @pytest.mark.parametrize("kind", ["two_edge", "jordan"])
    @pytest.mark.parametrize("h", [2.0**-14, 0.45, 0.5, 3.0])
    def test_matches_per_jump_expm(self, kind, h, monkeypatch):
        if kind == "two_edge":
            system = two_edge_system()
            T, E = system.transition, system.noise_selector
        else:
            # one 4x4 Jordan block: defective, so no eigenvector basis
            T = -2.0 * np.eye(4) + np.diag(np.ones(3), 1)
            E = np.eye(4)[:, 2:]
        # small blocks, so that blocks and anchor groups cut each other
        monkeypatch.setattr(grou.simulate, "_SCAN_ROWS", 7)
        rng = np.random.default_rng(31)
        n, m = 40, 150
        owner = np.sort(rng.integers(0, n, m))
        offsets = rng.uniform(0.0, h, m)
        sizes = rng.normal(size=(m, E.shape[1]))
        delta = 0.5 / np.abs(T).sum(axis=0).max()
        if h > 2 * delta:
            assert np.unique(np.floor(offsets / delta)).size > 2
        got = np.zeros((n, T.shape[0]))
        _add_jump_responses(T, E, owner, offsets, sizes, got)
        want = self.per_jump(T, E, owner, offsets, sizes, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_jump_per_interval(self):
        system = two_edge_system()
        T, E = system.transition, system.noise_selector
        rng = np.random.default_rng(5)
        n = 3 * grou.simulate._SCAN_ROWS + 11
        offsets = rng.uniform(0.0, 0.3, n)
        sizes = rng.normal(size=(n, 2))
        got = np.ones((n, 4))
        _add_jump_responses(T, E, np.arange(n), offsets, sizes, got)
        pick = rng.choice(n, 50, replace=False)
        want = 1.0 + np.array([expm(offsets[i] * T) @ E @ sizes[i] for i in pick])
        assert np.abs(got[pick] - want).max() <= 1e-12 * np.abs(want).max()


def _regime_specs(K):
    return {
        "brownian": LevySpec(np.zeros(K), np.eye(K)),
        "compound_poisson": LevySpec(
            np.full(K, 0.3), np.eye(K), CompoundPoissonJumps(3.0, 2.0 * np.eye(K))
        ),
        "symmetric_gamma": LevySpec(np.zeros(K), np.eye(K), SymmetricGammaJumps(1.0, 1.0)),
    }


class TestSimulatePaths:
    """One plan for many seeds against each path simulated on its own."""

    @pytest.mark.parametrize("regime", ["brownian", "compound_poisson", "symmetric_gamma"])
    @pytest.mark.parametrize("init", ["stationary", "explicit"])
    @pytest.mark.parametrize("grid_kind", ["dyadic", "non_dyadic", "from_times"])
    def test_paths_equal_the_loop(self, regime, init, grid_kind):
        system = two_edge_system()
        spec = _regime_specs(system.n_edges)[regime]
        grids = {
            "dyadic": make_uniform_grids(2.0, 2.0**-6, 4),
            "non_dyadic": make_uniform_grids(1.5, 0.013, 3),
            # irregular: runs of one spacing and single steps, past the anchor spacing
            "from_times": grid_from_times(
                np.concatenate([np.linspace(0.0, 1.0, 41), 1.0 + np.cumsum([0.3, 0.05, 0.6])]), 2
            ),
        }
        grid = grids[grid_kind]
        x0 = "stationary" if init == "stationary" else np.array([0.5, -1.0, 2.0, 0.1])
        seeds = [0, 7, np.random.SeedSequence(entropy=3, spawn_key=(2,)), 11]
        paths = list(simulate_paths(system, spec, grid, seeds, init=x0))
        assert len(paths) == len(seeds)
        for seed, path in zip(seeds, paths):
            want = simulate_path_loop(system, spec, grid, init=x0, rng_seed=seed)
            assert np.array_equal(path.values, want.values)
            assert np.array_equal(path.truth.init_state, want.truth.init_state)
            if regime == "compound_poisson":
                assert np.array_equal(path.truth.arrival_times, want.truth.arrival_times)
                assert np.array_equal(path.truth.arrival_sizes, want.truth.arrival_sizes)
            assert path.labels == ("e_1", "e_2") and path.grid is grid

    def test_simulate_path_is_its_one_seed_call(self):
        system = k5_predictive_system()
        spec = _regime_specs(system.n_edges)["compound_poisson"]
        grid = make_uniform_grids(2.0, 2.0 / 2186, 1)
        seeds = [np.random.SeedSequence(entropy=5, spawn_key=(i,)) for i in range(3)]
        for seed, path in zip(seeds, simulate_paths(system, spec, grid, seeds)):
            assert np.array_equal(path.values, simulate_path(system, spec, grid, rng_seed=seed).values)

    def test_faults_raise_at_the_call(self):
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = make_uniform_grids(1.0, 0.25, 1)
        with pytest.raises(ValueError, match="unknown init mode"):
            simulate_paths(system, spec, grid, [0], init="warm")
        with pytest.raises(ValueError, match="init state has length 2"):
            simulate_paths(system, spec, grid, [0], init=[1.0, 2.0])
        with pytest.raises(ValueError, match="noise dimension"):
            simulate_paths(system, LevySpec(np.zeros(3), np.eye(3)), grid, [0])
        assert list(simulate_paths(system, spec, grid, [])) == []

    def test_no_pin_is_held_between_paths(self):
        system = two_edge_system()
        spec = LevySpec(np.zeros(2), np.eye(2))
        paths = simulate_paths(system, spec, make_uniform_grids(1.0, 0.25, 1), [1, 2])
        next(paths)
        assert grou._blas._depth == 0
        next(paths)
        assert grou._blas._depth == 0


class TestBurnIn:
    @pytest.mark.parametrize(
        "rate, jumps",
        [
            (2.0, None),
            (2.0, CompoundPoissonJumps(3.0, np.eye(1))),
            (2.0, SymmetricGammaJumps(1.0, 1.0)),
            (1e-4, SymmetricGammaJumps(1.0, 1.0)),
        ],
    )
    def test_burn_in_takes_64_steps(self, rate, jumps, monkeypatch):
        # the exact step takes any spacing, so the burn-in costs 64 steps
        # however close the system is to the Hurwitz margin
        grids = []
        step_plan = grou.simulate._step_plan

        def spy(system, noise, times):
            grids.append(times)
            return step_plan(system, noise, times)

        monkeypatch.setattr(grou.simulate, "_step_plan", spy)
        spec = LevySpec(np.zeros(1), np.eye(1), jumps)
        grid = make_uniform_grids(1.0, 0.25, 1)
        path = simulate_path(scalar_system(rate), spec, grid, rng_seed=4)
        assert np.all(np.isfinite(path.values))
        assert [g.size for g in grids] == [65, grid.fine.size]
        assert grids[0][-1] == pytest.approx(5.0 / rate)


class TestEulerStability:
    """Meshes on which an explicit Euler step would not contract the system."""

    def test_coarse_mesh_matches_stationary_variance(self):
        # alpha = 5 at mesh 0.5: |1 + h*T| = 1.5, but the exact step keeps the
        # stationary law.  Variance (1 + 2) / (2 * 5) = 0.3; the per-path mean
        # squares are independent, so their spread gives the standard error
        system = scalar_system(5.0)
        spec = LevySpec(np.zeros(1), np.eye(1), SymmetricGammaJumps(1.0, 1.0))
        grid = make_uniform_grids(10.0, 0.5, 1)
        values = np.array(
            [simulate_path(system, spec, grid, rng_seed=s).values[:, 0] for s in range(400)]
        )
        squares = (values**2).mean(axis=1)
        se = squares.std(ddof=1) / np.sqrt(squares.size)
        assert abs(squares.mean() - 0.3) < 3 * se
        assert abs(values.mean()) < 3 * values.mean(axis=1).std(ddof=1) / np.sqrt(400)

    def test_contracting_mesh_is_simulated(self):
        system = scalar_system(5.0)
        spec = LevySpec(np.zeros(1), np.eye(1), SymmetricGammaJumps(1.0, 1.0))
        path = simulate_path(system, spec, make_uniform_grids(10.0, 0.3, 1), rng_seed=1)
        assert np.all(np.abs(path.values) < 1e3)

    def test_random_walk_is_not_a_stability_error(self):
        # alpha = 0: the exact step is the identity and every increment is
        # added whole, so the path is the Levy path itself, however coarse
        # the mesh
        system = scalar_system(0.0)
        spec = LevySpec(np.zeros(1), np.eye(1), SymmetricGammaJumps(1.0, 1.0))
        grid = make_uniform_grids(4.0, 0.5, 1)
        path = simulate_path(system, spec, grid, init=[0.0], rng_seed=2)
        states = stepwise_path(system, spec, grid.fine, np.zeros(1), stream_rng(2, 1))
        np.testing.assert_allclose(path.values[:, 0], states[:, 0], atol=1e-12)
