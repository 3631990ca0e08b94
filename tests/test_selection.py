import importlib
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grou.errors import GrouError
from grou.estimate import (
    _ALL_EXCEED, _IRREGULAR, ThresholdPolicy, _bic, estimate_drift, estimate_triplet,
)
from grou.graphs import EdgeGraph, pair_order, path_graph, random_er_graph, weight_matrices
from grou.model import GrouParams, build_companion
from grou.noise import LevySpec, stream_rng
from grou.selection import (
    CandidateScore,
    _choose,
    _columns_for,
    _finalists,
    _heldout,
    _screen,
    _sign_hits,
    _split_points,
    joint_network_model_search,
    select_model,
)
from grou.simulate import SampledPath, grid_from_times, make_uniform_grids, simulate_path

from conftest import blas_counts, heldout_scores, screen_loop, select_loop, sign_hits_untiled

selection_module = importlib.import_module("grou.selection")


def fitted_result(seed=0):
    weights = weight_matrices(path_graph(3), 1)
    params = GrouParams(np.array([[4.0, 3.0]]), (np.array([1.0]),))
    system = build_companion(params, weights)
    spec = LevySpec(np.zeros(2), np.eye(2))
    grid = make_uniform_grids(4.0, 1 / 64, 4)
    path = simulate_path(system, spec, grid, init="stationary", rng_seed=seed)
    return estimate_drift(path, weights, (1, [1]), spec)


class TestBic:
    """The criterion the selection ranks by: ``estimate._bic``, stored as ``EstimationResult.bic``."""

    def test_zero_theta_is_pure_penalty(self):
        result = fitted_result()
        p = result.theta_hat.size
        zero = np.zeros_like(result.theta_hat)
        assert _bic(zero, result.info, result.n_coarse) == pytest.approx(p * np.log(result.n_coarse))

    def test_doubling_n_adds_p_log_two(self):
        result = fitted_result()
        p = result.theta_hat.size
        doubled = _bic(result.theta_hat, result.info, 2 * result.n_coarse)
        assert doubled - result.bic == pytest.approx(p * np.log(2.0))

    def test_first_term_is_quadratic_form_not_twice_loglik(self):
        result = fitted_result()
        theta, info = result.theta_hat, result.info
        quad = float(theta @ info @ theta)
        assert result.bic == pytest.approx(-quad + theta.size * np.log(result.n_coarse))

    def test_matches_the_fit_exactly(self):
        # the stored criterion is the formula on the stored fit, bit for bit
        result = fitted_result()
        assert _bic(result.theta_hat, result.info, result.n_coarse) == result.bic

    def test_tiny_n_is_nan(self):
        result = fitted_result()
        for n in (1, 0):
            assert np.isnan(_bic(result.theta_hat, result.info, n))


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


class TestColumnsFor:
    def test_matches_pair_order(self):
        rng = np.random.default_rng(0)
        for n in range(2, 13):
            pairs = pair_order(n)
            for m in range(2, n + 1):
                # the pairs of a graph on the first m vertices, in shuffled edge order
                edges = [pairs[k] for k in rng.permutation(len(pairs)) if pairs[k][1] < m]
                graph = EdgeGraph(m, edges)
                assert _columns_for(graph, n) == [pairs.index(e) for e in graph.edges]

    def test_vertex_beyond_the_panel_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 3\) has no pair series among 3 vertices"):
            _columns_for(EdgeGraph(4, [(0, 1), (0, 3)]), 3)

    def test_reversed_directed_edge_rejected(self):
        graph = EdgeGraph(3, [(0, 1), (2, 1)], directed=True)
        with pytest.raises(ValueError, match=r"edge \(2, 1\) has no pair series among 3 vertices"):
            _columns_for(graph, 3)


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

    def test_shape_without_a_lag_or_with_a_negative_stage_skipped(self):
        # with one parameter fewer, (1, (-1,)) used to win on the criterion and fail to report
        graph, path = self.make_path(seed=3, t_end=10.0)
        with pytest.warns(UserWarning) as caught:
            outcome = select_model(path, graph, [(1, (1,)), (1, (-1,)), (0, ())])
        messages = [str(w.message) for w in caught]
        assert "shape (1, (-1,)) skipped: need L >= 1 and every R_l >= 0, got L=1, R=[-1]" in messages
        assert "shape (0, ()) skipped: need L >= 1 and every R_l >= 0, got L=0, R=[]" in messages
        assert [c.shape for c in outcome.candidates] == [(1, (1,))]

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
            assert cand.bic == fitted.bic

    def test_empty_candidates_rejected(self):
        graph, path = self.make_path(seed=4, t_end=10.0)
        with pytest.raises(ValueError):
            select_model(path, graph, [])

    def test_path_must_match_the_graph(self):
        graph, path = self.make_path(seed=4, t_end=10.0)
        with pytest.raises(ValueError, match="columns; graph has"):
            select_model(path.drop_columns([0]), graph, [(1, (1,))])

    @pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.0, 1.5, float("nan")])
    def test_eval_fraction_outside_unit_interval_rejected(self, fraction, monkeypatch):
        graph, path = self.make_path(seed=4, t_end=10.0)
        monkeypatch.setattr(selection_module, "_score_graphs", None)
        with pytest.raises(ValueError, match=rf"eval_fraction must be in \(0, 1\), got {fraction}"):
            select_model(path, graph, [(1, (1,))], eval_fraction=fraction)


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
        b = joint_network_model_search(path, n_vertices, **kwargs)
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

    @pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.0])
    def test_eval_fraction_outside_unit_interval_rejected(self, fraction, monkeypatch):
        path, n_vertices = self.make_pair_panel()
        monkeypatch.setattr(selection_module, "random_er_graph", None)
        with pytest.raises(ValueError, match=rf"eval_fraction must be in \(0, 1\), got {fraction}"):
            joint_network_model_search(path, n_vertices, [(1, (1,))], eval_fraction=fraction)

    def test_finalists_run_on_one_blas_thread(self, blas_at_two, monkeypatch):
        path, n_vertices = self.make_pair_panel()
        counts = []
        score_graphs = selection_module._score_graphs

        def spy(*args, **kwargs):
            counts.append(blas_counts(blas_at_two))
            return score_graphs(*args, **kwargs)

        monkeypatch.setattr(selection_module, "_score_graphs", spy)
        joint_network_model_search(
            path, n_vertices, shapes=[(1, (1,))], n_candidates=8, retain=3, rng_seed=13
        )
        # the screen and the finalists
        assert counts == [[1] * len(blas_at_two)] * 2
        assert blas_counts(blas_at_two) == [2] * len(blas_at_two)

    def test_degenerate_single_candidate(self):
        path, n_vertices = self.make_pair_panel(seed=3)
        outcome = joint_network_model_search(
            path, n_vertices, shapes=[(1, (1,))], n_candidates=1, retain=1, rng_seed=2
        )
        assert outcome.chosen_graph is not None

    def test_only_empty_candidates_are_not_scored(self, monkeypatch):
        path, n_vertices = self.make_pair_panel()

        def not_reached(*args, **kwargs):
            raise AssertionError("empty candidates reached the scorer")

        monkeypatch.setattr(selection_module, "_score_graphs", not_reached)
        with pytest.raises(GrouError, match="no candidate network survived screening"):
            joint_network_model_search(
                path, n_vertices, shapes=[(1, (1,))], n_candidates=4, edge_prob=0.0
            )


class TestSignHits:
    """The tiled held-out sign count (``_sign_hits``) against the untiled gather (``conftest.sign_hits_untiled``)."""

    @pytest.mark.parametrize("tile", [1, 7, 128])
    @pytest.mark.parametrize(
        "G, K, n_rows",
        # rows below one tile, a whole number of tiles and neither; one map, one column
        [(1, 1, 5), (1, 4, 128), (3, 1, 300), (5, 3, 127), (4, 6, 129), (7, 2, 1000)],
    )
    def test_equals_the_untiled_gather(self, G, K, n_rows, tile, monkeypatch):
        rng = np.random.default_rng(100 * G + 10 * K + n_rows)
        N = K + 3
        values = rng.standard_normal((n_rows + 1, N)).cumsum(axis=0)
        # repeated rows give realized moves of sign zero
        values[1::4] = values[0:-1:4]
        cols = np.array([rng.choice(N, K, replace=False) for _ in range(G)])
        gain = np.eye(K) + 0.3 * rng.standard_normal((G, K, K))
        const = 0.1 * rng.standard_normal((G, K))
        # the identity map forecasts moves of exactly zero, and a NaN gain never hits
        gain[0], const[0] = np.eye(K), 0.0
        gain[-1, -1, 0] = np.nan
        previous = values[:-1]
        realized = np.sign(values[1:] - previous).astype(np.int8)
        expected = sign_hits_untiled(previous, realized, gain, const, cols)
        monkeypatch.setattr(selection_module, "_TILE_ROWS", tile)
        got = _sign_hits(*_heldout(SimpleNamespace(values=values), 1), gain, const, cols)
        assert got.tobytes() == expected.tobytes()
        if G > 1:
            assert got[-1] < 1.0


SCREEN_SHAPES = [(1, (1,)), (1, (2,)), (2, (1, 1))]


def screen_panel(n_vertices, seed, ratio, jumpy):
    """Mean-reverting pair series with correlated shocks on a uniform grid.

    The shocks censor a few coarse increments here and there; with ``jumpy``
    column 0 also jumps by 5 at every coarse step, so the triplet of any
    candidate holding that pair has no sub-threshold increment left.
    """
    rng = np.random.default_rng(seed)
    n_pairs = n_vertices * (n_vertices - 1) // 2
    grid = make_uniform_grids(6.0, 0.02, ratio)
    n = grid.fine.size
    mixing = np.eye(n_pairs) + 0.3 * rng.normal(size=(n_pairs, n_pairs))
    shocks = 0.2 * rng.normal(size=(n, n_pairs)) @ mixing
    values = np.zeros((n, n_pairs))
    for t in range(1, n):
        values[t] = 0.9 * values[t - 1] + shocks[t]
    if jumpy:
        values[:, 0] += 5.0 * (np.arange(n) // ratio)
    return SampledPath(grid=grid, values=values)


class TestScreen:
    """The joint search's screen (``_screen``) against the per-candidate loop (``conftest.screen_loop``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([1, 2]),
        st.sampled_from(SCREEN_SHAPES),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=2**10 - 1), max_size=5),
    )
    def test_accuracies_and_skips_equal_the_loop(
        self, n_vertices, seed, ratio, shape, jumpy, masks
    ):
        path = screen_panel(n_vertices, seed, ratio, jumpy)
        pairs = pair_order(n_vertices)
        # the empty graph, one edge and the full graph, then random edge sets
        edge_sets = [[], [pairs[seed % len(pairs)]], pairs]
        edge_sets += [[p for k, p in enumerate(pairs) if mask >> k & 1] for mask in masks]
        graphs = [EdgeGraph(n_vertices, edges) for edges in edge_sets]
        n_train = _split_points(path.n_points, 0.2)
        policy = ThresholdPolicy()
        expected, messages = screen_loop(path, graphs, n_vertices, shape, n_train, policy)
        accuracies, got = _screen(path, graphs, n_vertices, shape, n_train, policy)
        assert accuracies == expected
        assert got == messages
        if jumpy:
            # the full graph holds the jumping pair
            assert f"candidate 2 skipped in screening: {_ALL_EXCEED}" in got

    @pytest.mark.parametrize("shape", SCREEN_SHAPES)
    def test_search_warns_and_keeps_like_the_loop(self, shape):
        path = screen_panel(4, 11, 2, jumpy=True)
        n_train = _split_points(path.n_points, 0.2)
        graphs = [random_er_graph(4, 0.5, stream_rng(5, i)) for i in range(16)]
        expected, messages = screen_loop(path, graphs, 4, shape, n_train)
        assert messages and expected
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = joint_network_model_search(
                path, 4, [shape], n_candidates=16, edge_prob=0.5, screen_shape=shape,
                retain=3, rng_seed=5,
            )
        got = [str(w.message) for w in caught if "skipped in screening" in str(w.message)]
        assert got == messages
        retained = sorted(expected, key=lambda i: (-expected[i], i))[:3]
        assert sorted({c.graph_ref for c in outcome.candidates}) == sorted(retained)



# the shapes of the stacked finalists, then one whose lag count leaves fewer
# than two usable coarse points on screen_panel's training head and one
# whose stage counts do not match its lags
FINAL_SHAPES = [(1, (1,)), (1, (2,)), (2, (1, 1)), (3, (1, 1, 1)), (240, (0,) * 240), (2, (1,))]


class TestFinalists:
    """The stacked shape selection against the per-graph loop it replaced (``conftest.select_loop``)."""

    def assert_equal_to_the_loop(self, path, graphs, n_vertices, shapes):
        n_train = _split_points(path.n_points, 0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = select_loop(path, graphs, n_vertices, shapes, n_train)
        messages = [str(w.message) for w in caught]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores, finalists = _finalists(
                path, graphs, list(range(len(graphs))), n_vertices, shapes, n_train, 1e-2, None
            )
        assert [str(w.message) for w in caught] == messages
        assert [(c.graph_ref, c.shape, c.dir_acc, c.bic) for c in scores] == [
            (c.graph_ref, c.shape, c.dir_acc, c.bic)
            for i in sorted(expected)
            for c in expected[i][0]
        ]
        assert {i: chosen for chosen, _, i in finalists} == {
            i: chosen for i, (_, chosen) in expected.items()
        }
        assert [g for _, g, _ in finalists] == [graphs[i] for i in sorted(expected)]
        return messages

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([1, 2]),
        st.booleans(),
        st.lists(
            st.integers(min_value=0, max_value=len(FINAL_SHAPES) - 1),
            min_size=1, max_size=5, unique=True,
        ),
        st.lists(st.integers(min_value=0, max_value=2**10), max_size=4),
    )
    def test_scores_and_warnings_equal_the_loop(
        self, n_vertices, seed, ratio, jumpy, shape_ids, masks
    ):
        path = screen_panel(n_vertices, seed, ratio, jumpy)
        pairs = pair_order(n_vertices)
        # one edge and the full graph, then random non-empty edge sets
        edge_sets = [[pairs[seed % len(pairs)]], pairs]
        edge_sets += [
            [p for k, p in enumerate(pairs) if (mask % (2 ** len(pairs) - 1) + 1) >> k & 1]
            for mask in masks
        ]
        graphs = [EdgeGraph(n_vertices, edges) for edges in edge_sets]
        shapes = [FINAL_SHAPES[k] for k in shape_ids]
        messages = self.assert_equal_to_the_loop(path, graphs, n_vertices, shapes)
        if jumpy:
            # the full graph holds the jumping pair
            assert f"candidate 1 skipped in selection: {_ALL_EXCEED}" in messages

    def test_irregular_grids_warn_for_every_fit_like_the_loop(self):
        panel = screen_panel(4, 3, 2, jumpy=False)
        times = panel.grid.fine + 0.004 * np.random.default_rng(3).random(panel.n_points)
        path = SampledPath(grid=grid_from_times(times, ratio=2), values=panel.values)
        graphs = [path_graph(4), random_er_graph(4, 0.5, 9)]
        shapes = [(1, (1,)), FINAL_SHAPES[4], (2, (1, 1))]
        messages = self.assert_equal_to_the_loop(path, graphs, 4, shapes)
        assert messages.count(_IRREGULAR) == 4
