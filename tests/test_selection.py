import numpy as np
import pytest

from grou.estimate import estimate_drift, estimate_triplet
from grou.graphs import path_graph, random_er_graph, weight_matrices
from grou.model import GrouParams, build_companion
from grou.noise import LevySpec
from grou.selection import (
    CandidateScore,
    _choose,
    _split_points,
    bic,
    joint_network_model_search,
    select_model,
)
from grou.simulate import make_uniform_grids, simulate_path

from conftest import heldout_scores


def fitted_result(seed=0):
    weights = weight_matrices(path_graph(3), 1)
    params = GrouParams(np.array([[4.0, 3.0]]), (np.array([1.0]),))
    system = build_companion(params, weights)
    spec = LevySpec(np.zeros(2), np.eye(2))
    grid = make_uniform_grids(4.0, 1 / 64, 4)
    path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
    return estimate_drift(path, weights, (1, [1]), spec)


class TestBic:
    def test_zero_theta_is_pure_penalty(self):
        result = fitted_result()
        from dataclasses import replace

        zeroed = replace(result, theta_hat=np.zeros_like(result.theta_hat))
        p = result.theta_hat.size
        assert bic(zeroed) == pytest.approx(p * np.log(result.n_coarse))

    def test_doubling_n_adds_p_log_two(self):
        result = fitted_result()
        from dataclasses import replace

        doubled = replace(result, n_coarse=2 * result.n_coarse)
        p = result.theta_hat.size
        assert bic(doubled) - bic(result) == pytest.approx(p * np.log(2.0))

    def test_first_term_is_quadratic_form_not_twice_loglik(self):
        result = fitted_result()
        theta, info = result.theta_hat, result.info
        quad = float(theta @ info @ theta)
        assert bic(result) == pytest.approx(-quad + theta.size * np.log(result.n_coarse))
        # matches the stored result fields up to the ridge perturbation
        assert bic(result) == pytest.approx(result.bic, rel=1e-10)

    def test_matches_the_fit_exactly(self):
        result = fitted_result()
        assert bic(result) == result.bic

    def test_tiny_n_rejected(self):
        from dataclasses import replace

        result = replace(fitted_result(), n_coarse=1)
        with pytest.raises(ValueError):
            bic(result)


class TestChoiceRule:
    def mk(self, acc, crit):
        return CandidateScore(graph_ref="g", shape=(1, (1,)), dir_acc=acc, bic=crit)

    def test_tolerance_triggers_bic(self):
        # accuracies 0.6717 vs 0.6687 differ by 0.003 < 0.01, so the
        # information criterion decides
        a = self.mk(0.6717, 100.0)
        b = self.mk(0.6687, 50.0)
        assert _choose([a, b], 1e-2) is b

    def test_clear_gap_ignores_bic(self):
        a = self.mk(0.70, 1e9)
        b = self.mk(0.65, -1e9)
        assert _choose([a, b], 1e-2) is a

    def test_single_candidate(self):
        a = self.mk(0.51, 0.0)
        assert _choose([a], 1e-2) is a


class TestSelectModel:
    def make_path(self, seed=0, t_end=30.0):
        graph = random_er_graph(6, 0.6, rng_seed=4)
        weights = weight_matrices(graph, 2)
        K = graph.n_edges
        rng = np.random.default_rng(11)
        alpha = rng.uniform(2.5, 4.5, size=(1, K))
        params = GrouParams(alpha, (np.array([1.2, 0.8]),))
        system = build_companion(params, weights)
        spec = LevySpec(np.zeros(K), np.eye(K))
        grid = make_uniform_grids(t_end, 0.02, 1)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
        return graph, path

    def test_two_stage_truth_selected(self):
        graph, path = self.make_path(seed=1)
        shapes = [(1, (1,)), (1, (2,))]
        outcome = select_model(path, graph, shapes)
        assert outcome.chosen.shape == (1, (2,))

    def test_single_candidate_trivial(self):
        graph, path = self.make_path(seed=2, t_end=10.0)
        outcome = select_model(path, graph, [(1, (1,))])
        assert outcome.chosen.shape == (1, (1,))
        assert len(outcome.candidates) == 1

    def test_failing_candidate_skipped_with_warning(self):
        graph, path = self.make_path(seed=3, t_end=10.0)
        # this lag order leaves no usable coarse increments, so its fit
        # fails; it must not sink the other candidates
        bad_lags = path.section(0, path.n_points - 100).n_points
        shapes = [(1, (1,)), (bad_lags, tuple([0] * bad_lags))]
        with pytest.warns(UserWarning, match="skipped"):
            outcome = select_model(path, graph, shapes)
        assert outcome.chosen.shape == (1, (1,))

    def test_scores_match_step_by_step_oracle(self):
        graph, path = self.make_path(seed=5, t_end=12.0)
        shapes = [(1, (1,)), (1, (2,)), (2, (1, 1))]
        outcome = select_model(path, graph, shapes)
        n_train = _split_points(path.n_points, 0.2)
        triplet = estimate_triplet(path.section(0, n_train))
        weights = weight_matrices(graph, 2)
        assert [c.shape for c in outcome.candidates] == shapes
        for cand in outcome.candidates:
            acc, fitted = heldout_scores(path, weights, cand.shape, n_train, triplet)
            assert cand.dir_acc == acc
            assert cand.bic == bic(fitted)

    def test_empty_candidates_rejected(self):
        graph, path = self.make_path(seed=4, t_end=10.0)
        with pytest.raises(ValueError):
            select_model(path, graph, [])


class TestJointSearch:
    def make_pair_panel(self, seed=0, n_vertices=5, t_end=24.0):
        # simulate on the complete pair universe from a sparse truth graph
        from grou.graphs import complete_graph

        truth = random_er_graph(n_vertices, 0.5, rng_seed=7)
        full = complete_graph(n_vertices)
        weights = weight_matrices(full, 1)
        n_pairs = full.n_edges
        rng = np.random.default_rng(5)
        alpha = rng.uniform(2.0, 4.0, size=(1, n_pairs))
        params = GrouParams(alpha, (np.array([1.0]),))
        system = build_companion(params, weights)
        spec = LevySpec(np.zeros(n_pairs), np.eye(n_pairs))
        grid = make_uniform_grids(t_end, 0.02, 1)
        path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
        return path, n_vertices

    def test_search_returns_pair(self):
        path, n_vertices = self.make_pair_panel()
        outcome = joint_network_model_search(
            path,
            n_vertices,
            shapes=[(1, (1,))],
            n_candidates=8,
            retain=3,
            rng_seed=13,
        )
        assert outcome.chosen_graph is not None
        assert outcome.chosen.shape == (1, (1,))
        assert len(outcome.candidates) >= 1

    def test_search_deterministic(self):
        path, n_vertices = self.make_pair_panel(seed=1)
        kwargs = dict(shapes=[(1, (1,))], n_candidates=6, retain=3, rng_seed=21)
        a = joint_network_model_search(path, n_vertices, **kwargs)
        b = joint_network_model_search(path, n_vertices, threads=3, **kwargs)
        assert a.chosen.graph_ref == b.chosen.graph_ref
        assert a.chosen.dir_acc == b.chosen.dir_acc
        assert a.chosen_graph == b.chosen_graph

    def test_monotone_in_candidate_count(self):
        path, n_vertices = self.make_pair_panel(seed=2)
        small = joint_network_model_search(
            path, n_vertices, shapes=[(1, (1,))], n_candidates=4, retain=4, rng_seed=3
        )
        large = joint_network_model_search(
            path, n_vertices, shapes=[(1, (1,))], n_candidates=8, retain=8, rng_seed=3
        )
        assert large.chosen.dir_acc >= small.chosen.dir_acc

    def test_wrong_panel_width_rejected(self):
        path, _ = self.make_pair_panel()
        with pytest.raises(ValueError):
            joint_network_model_search(path, 4, shapes=[(1, (1,))], n_candidates=2)

    def test_degenerate_single_candidate(self):
        path, n_vertices = self.make_pair_panel(seed=3)
        outcome = joint_network_model_search(
            path, n_vertices, shapes=[(1, (1,))], n_candidates=1, retain=1, rng_seed=2
        )
        assert outcome.chosen_graph is not None
