import contextlib
import ctypes
import importlib
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from conftest import blas_counts as counts

import grou.model
import grou.simulate
from grou import _blas
from grou._blas import one_blas_thread, openblas_controls
from grou.benchmarks import _study_one_path, predictive_study_config
from grou.forecast import one_step_map
from grou.graphs import path_graph, weight_matrices
from grou.model import (
    GrouParams,
    build_companion,
    conditional_moments,
    cov_integral,
    propagator,
    stationary_moments,
)
from grou.noise import CompoundPoissonJumps, LevySpec, SymmetricGammaJumps
from grou.selection import _one_step_maps
from grou.simulate import make_uniform_grids, simulate_path


class TestOneBlasThread:
    def test_one_thread_inside_scope(self, blas_at_two):
        with one_blas_thread():
            assert counts(blas_at_two) == [1] * len(blas_at_two)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_restores_counts_after_raise(self, blas_at_two):
        with pytest.raises(ValueError, match="boom"), one_blas_thread():
            raise ValueError("boom")
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_missing_symbols_pin_nothing(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(_blas, "_OPENBLAS_SYMBOLS", ())
        assert openblas_controls() == []
        with one_blas_thread():
            assert counts(blas_at_two) == [2] * len(blas_at_two)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_unloadable_library_pins_nothing(self, blas_at_two, monkeypatch):
        """A bundled OpenBLAS that ``ctypes`` cannot load is skipped, like a missing symbol."""

        def cannot_load(path, *args, **kwargs):
            raise OSError(f"{path}: cannot open shared object file")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(ctypes, "CDLL", cannot_load)
                _blas._openblas_control.cache_clear()
                assert openblas_controls() == []
                with one_blas_thread():
                    assert counts(blas_at_two) == [2] * len(blas_at_two)
                assert np.array_equal(grou.model.expm(np.zeros((2, 2))), np.eye(2))
        finally:
            _blas._openblas_control.cache_clear()
        assert len(openblas_controls()) == len(blas_at_two)

    def test_overlapping_scopes_restore_counts(self, blas_at_two):
        """Two user threads hold the scope at once; the pin holds until the later one leaves."""
        one, two = [1] * len(blas_at_two), [2] * len(blas_at_two)
        first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with one_blas_thread():
                first_in.set()
                assert second_in.wait(timeout=10)
            first_out.set()

        def second():
            assert first_in.wait(timeout=10)
            with one_blas_thread():
                second_in.set()
                assert first_out.wait(timeout=10)
                seen["after_first_left"] = counts(blas_at_two)

        users = [threading.Thread(target=first), threading.Thread(target=second)]
        for user in users:
            user.start()
        for user in users:
            user.join(timeout=20)
        assert not any(user.is_alive() for user in users)
        assert seen["after_first_left"] == one
        assert counts(blas_at_two) == two


def test_study_reports_blas_invariant():
    """A K=10 study path of 400 points gives identical reports at the default
    BLAS thread count and inside the one-thread scope."""
    config = predictive_study_config(n_paths=2, seed=3, n_obs=400, test_size=100)
    system = build_companion(config.params, weight_matrices(config.graph, 1))

    def summary(i):
        return [(r.kind, r.rmse, r.dir_acc) for r in _study_one_path(config, system, i)]

    at_default = [summary(i) for i in range(config.n_paths)]
    with one_blas_thread():
        pinned = [summary(i) for i in range(config.n_paths)]
    assert pinned == at_default
    assert [kind for kind, _, _ in at_default[0]] == list(config.models)


def _regimes(K):
    return {
        "brownian": LevySpec(np.zeros(K), np.eye(K)),
        "compound_poisson": LevySpec(np.zeros(K), np.eye(K), CompoundPoissonJumps(1.0, np.eye(K))),
        "symmetric_gamma": LevySpec(np.zeros(K), np.eye(K), SymmetricGammaJumps(1.0, 1.0)),
    }


def _two_edge_system():
    params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
    return build_companion(params, weight_matrices(path_graph(3), 1))


class TestOneExponential:
    def test_every_route_runs_at_one_thread(self, blas_at_two, monkeypatch):
        """A spy inside the scipy function that ``model.expm`` wraps sees one
        thread in every OpenBLAS on each route, and two once the routes return."""
        seen = []

        def spy(matrix):
            seen.append((sys._getframe(2).f_code.co_name, counts(blas_at_two)))
            return scipy.linalg.expm(matrix)

        monkeypatch.setattr(grou.model, "_scipy_expm", spy)
        system = _two_edge_system()
        regimes = _regimes(system.n_edges)
        for spec in regimes.values():
            simulate_path(system, spec, make_uniform_grids(1.0, 1 / 64, 4), rng_seed=1)
        # coarse spacing: jump offsets pass the anchor spacing 0.5 / ||T||_1
        assert 0.5 / np.abs(system.transition).sum(axis=0).max() < 0.5
        coarse = make_uniform_grids(20.0, 0.5, 1)
        simulate_path(system, regimes["compound_poisson"], coarse, rng_seed=2)
        noise = regimes["brownian"]
        one_step_map(system, noise.mean_rate, 0.1)
        stationary_moments(system, noise).autocov(0.3)
        conditional_moments(system, noise, np.ones(system.dim), 0.2)
        rhs = system.noise_selector @ system.noise_selector.T
        cov_integral(system.transition, rhs, np.ones(system.dim), 0.1)
        cov_integral(system.transition, rhs, np.ones(system.dim), 100.0)
        stack = np.stack([system.transition, 2 * system.transition])
        propagator(stack, np.ones((2, system.dim)), 0.1)
        W = weight_matrices(path_graph(3), 1).matrices[0]
        _one_step_maps(np.ones((3, 6)), [np.stack([W] * 3)], (2, (1, 1)), np.zeros((3, 2)), 0.1)

        callers = {caller for caller, _ in seen}
        assert callers == {"_add_jump_responses", "cov_integral", "propagator", "autocov"}
        assert all(count == [1] * len(blas_at_two) for _, count in seen)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_only_model_binds_scipy_expm(self):
        importlib.import_module("grou.cli")
        holders = [
            name
            for name, module in list(sys.modules.items())
            if (name == "grou" or name.startswith("grou."))
            and any(value is scipy.linalg.expm for value in vars(module).values())
        ]
        assert holders == ["grou.model"]


def _unpinned(monkeypatch):
    """Every grou binding of ``model.expm`` back to raw scipy, and no scope in the simulator."""
    pinned = grou.model.expm
    for name, module in list(sys.modules.items()):
        if name == "grou" or name.startswith("grou."):
            for attr, value in list(vars(module).items()):
                if value is pinned:
                    monkeypatch.setattr(module, attr, scipy.linalg.expm)
    monkeypatch.setattr(grou.simulate, "one_blas_thread", contextlib.nullcontext)


class TestPinnedEqualsRaw:
    """The pin changes no bit: each route against raw scipy at two BLAS threads."""

    @pytest.mark.parametrize("regime", ["brownian", "compound_poisson", "symmetric_gamma"])
    def test_simulate_path(self, blas_at_two, monkeypatch, regime):
        system = _two_edge_system()
        spec = _regimes(system.n_edges)[regime]
        grids = [make_uniform_grids(4.0, 2.0**-8, 16), make_uniform_grids(20.0, 0.5, 1)]
        cases = [(grid, seed) for grid in grids for seed in (3, 4)]
        pinned = [simulate_path(system, spec, grid, rng_seed=seed) for grid, seed in cases]
        with monkeypatch.context() as patch:
            _unpinned(patch)
            raw = [simulate_path(system, spec, grid, rng_seed=seed) for grid, seed in cases]
        for p, r in zip(pinned, raw):
            assert np.array_equal(p.values, r.values)
            assert np.array_equal(p.truth.init_state, r.truth.init_state)

    def test_one_step_map_on_predictive_design(self, blas_at_two, monkeypatch):
        config = predictive_study_config()
        system = build_companion(config.params, weight_matrices(config.graph, 1))
        hs = (2.0 / 2186, 0.05, 1.0)
        pinned = [one_step_map(system, config.noise.mean_rate, h) for h in hs]
        with monkeypatch.context() as patch:
            _unpinned(patch)
            raw = [one_step_map(system, config.noise.mean_rate, h) for h in hs]
        for (pc, pg), (rc, rg) in zip(pinned, raw):
            assert np.array_equal(pc, rc) and np.array_equal(pg, rg)

    def test_expm_matches_scipy(self, blas_at_two):
        # (L=2, K=1) companion of x'' + 2x' + x: eigenvalue -1 twice, one eigenvector
        defective = build_companion(GrouParams(np.array([[2.0], [1.0]]), (np.empty(0),) * 2), None)
        assert np.linalg.matrix_rank(defective.transition + np.eye(2)) == 1
        T = _two_edge_system().transition
        for matrix in (np.zeros((3, 3)), 0.7 * defective.transition, np.stack([T, 0.1 * T, -T])):
            assert np.array_equal(grou.model.expm(matrix), scipy.linalg.expm(matrix))
        assert counts(blas_at_two) == [2] * len(blas_at_two)
