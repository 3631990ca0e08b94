import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grou.graphs import (
    EdgeGraph,
    _edge_ends,
    _stage_masks,
    complete_graph,
    pair_order,
    path_graph,
    random_er_graph,
    weight_matrices,
)


def stage_sets(graph, edge, max_stage):
    """Stages ``0 .. max_stage`` of ``edge`` as sets: the rows of ``_stage_masks``."""
    masks = _stage_masks(_edge_ends(graph), graph.n_vertices, max_stage)
    return [frozenset(np.flatnonzero(m[edge]).tolist()) for m in masks]


def line_graph_bfs_stages(graph, edge, max_stage):
    """Independent oracle: stage r = line-graph BFS distance r.

    Builds the edge-adjacency ("line") graph explicitly and runs a plain
    breadth-first search from the reference edge.
    """
    K = graph.n_edges
    adj = [set() for _ in range(K)]
    for a in range(K):
        for b in range(K):
            if a == b:
                continue
            ia, ja = graph.edges[a]
            ib, jb = graph.edges[b]
            if {ia, ja} & {ib, jb}:
                adj[a].add(b)
    dist = {edge: 0}
    frontier = [edge]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for e in frontier:
            for nb in adj[e]:
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    stages = [set() for _ in range(max_stage + 1)]
    for e, d in dist.items():
        if d <= max_stage:
            stages[d].add(e)
    return [frozenset(s) for s in stages]


class TestEdgeGraph:
    def test_canonical_orientation_and_duplicates(self):
        g = EdgeGraph(3, [(2, 1), (0, 1)])
        assert g.edges == ((1, 2), (0, 1))
        with pytest.raises(ValueError):
            EdgeGraph(3, [(1, 2), (2, 1)])
        with pytest.raises(ValueError):
            EdgeGraph(3, [(1, 1)])
        with pytest.raises(ValueError):
            EdgeGraph(3, [(0, 3)])

    def test_directed_keeps_orientation(self):
        g = EdgeGraph(3, [(2, 1), (1, 2)], directed=True)
        assert g.edges == ((2, 1), (1, 2))

    def test_edge_index_and_drop(self):
        g = path_graph(4)
        assert g.edge_index((1, 0)) == 0
        assert g.drop_edge((1, 2)).edges == ((0, 1), (2, 3))
        with pytest.raises(KeyError):
            g.edge_index((0, 3))

    def test_json_round_trip(self):
        g = EdgeGraph(5, [(0, 4), (1, 2)], directed=False)
        g2 = EdgeGraph.from_json(g.to_json())
        assert g2 == g
        doc = json.loads(g.to_json())
        assert set(doc) == {"n_vertices", "directed", "edges"}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.booleans(), st.data())
    def test_json_round_trip_property(self, n_vertices, directed, data):
        make_pairs = itertools.permutations if directed else itertools.combinations
        pairs = list(make_pairs(range(n_vertices), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        # undirected edges may be written in either orientation
        written = [
            (j, i) if not directed and data.draw(st.booleans()) else (i, j) for i, j in edges
        ]
        g = EdgeGraph(n_vertices, written, directed=directed)
        back = EdgeGraph.from_json(g.to_json())
        assert back == g
        assert back.edges == tuple(edges) and back.directed is directed


class TestEdgeNeighbors:
    """Stage-r neighborhoods N_r(e) as ``_stage_masks`` defines them for ``weight_matrices``."""

    def test_path_graph_stage_one(self):
        # three vertices, two edges: each edge is the other's sole neighbor
        g = path_graph(3)
        st1 = stage_sets(g, 0, 1)
        assert st1[0] == frozenset([0])
        assert st1[1] == frozenset([1])

    def test_single_edge_graph_empty_stages(self):
        g = EdgeGraph(2, [(0, 1)])
        stages = stage_sets(g, 0, 3)
        assert stages[1] == frozenset()
        assert stages[2] == frozenset()
        assert stages[3] == frozenset()

    def test_complete_graph_k5_stage_sizes(self):
        # K5 has 10 edges; an edge {a,b} shares an endpoint with 2*3 = 6
        # others, and the remaining 3 edges are disjoint from {a,b} but
        # adjacent to its neighbors, hence stage 2.
        g = complete_graph(5)
        for e in range(10):
            stages = stage_sets(g, e, 3)
            assert len(stages[1]) == 6
            assert len(stages[2]) == 3
            assert len(stages[3]) == 0

    def test_matches_bfs_oracle_exhaustive_small(self):
        # every undirected graph on up to 5 vertices
        for n in range(2, 6):
            pairs = pair_order(n)
            for mask in range(1, 2 ** len(pairs)):
                edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
                g = EdgeGraph(n, edges)
                R = g.n_edges
                for e in range(g.n_edges):
                    got = stage_sets(g, e, R)
                    want = line_graph_bfs_stages(g, e, R)
                    assert got == want

    def test_matches_bfs_oracle_random_six_vertices(self):
        rng = np.random.default_rng(20240817)
        pairs = pair_order(6)
        for _ in range(400):
            keep = rng.random(len(pairs)) < rng.uniform(0.15, 0.8)
            edges = [p for p, k in zip(pairs, keep) if k]
            if not edges:
                continue
            g = EdgeGraph(6, edges)
            e = int(rng.integers(g.n_edges))
            got = stage_sets(g, e, 6)
            want = line_graph_bfs_stages(g, e, 6)
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_stage_disjointness_property(self, n, data):
        pairs = pair_order(n)
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, mask) if k]
        if not edges:
            return
        g = EdgeGraph(n, edges)
        e = data.draw(st.integers(min_value=0, max_value=g.n_edges - 1))
        stages = stage_sets(g, e, g.n_edges)
        for r, s in itertools.combinations(range(len(stages)), 2):
            assert not (stages[r] & stages[s])

    def test_stage_one_symmetry_undirected(self):
        g = random_er_graph(7, 0.5, rng_seed=7)
        for a in range(g.n_edges):
            for b in stage_sets(g, a, 1)[1]:
                assert a in stage_sets(g, b, 1)[1]

    def test_union_of_stages_covers_reachable(self):
        g = path_graph(6)
        stages = stage_sets(g, 0, g.n_edges)
        assert set().union(*stages) == set(range(g.n_edges))


class TestWeightMatrices:
    def test_path_graph_stage_one(self):
        g = path_graph(3)
        W = weight_matrices(g, 1)
        np.testing.assert_allclose(W.stage(1), [[0.0, 1.0], [1.0, 0.0]])

    def test_k5_uniform_rows(self):
        W1 = weight_matrices(complete_graph(5), 1).stage(1)
        assert np.all(np.diag(W1) == 0.0)
        for row in W1:
            nz = row[row > 0]
            assert len(nz) == 6
            np.testing.assert_allclose(nz, 1.0 / 6.0)

    def test_isolated_edge_zero_row(self):
        g = EdgeGraph(4, [(0, 1), (2, 3)])
        W1 = weight_matrices(g, 1).stage(1)
        np.testing.assert_array_equal(W1, np.zeros((2, 2)))

    def test_row_sums_zero_or_one(self):
        g = random_er_graph(8, 0.35, rng_seed=99)
        W = weight_matrices(g, 3)
        for r in range(1, 4):
            sums = W.stage(r).sum(axis=1)
            assert np.all((np.abs(sums) < 1e-12) | (np.abs(sums - 1.0) < 1e-12))

    def test_entries_only_on_neighbors(self):
        g = random_er_graph(6, 0.5, rng_seed=3)
        W = weight_matrices(g, 2)
        for r in (1, 2):
            for a in range(g.n_edges):
                members = line_graph_bfs_stages(g, a, r)[r]
                nz = set(np.nonzero(W.stage(r)[a])[0])
                assert nz == set(members)

    def test_stage_accessor_bounds(self):
        W = weight_matrices(path_graph(3), 2)
        with pytest.raises(IndexError):
            W.stage(0)
        with pytest.raises(IndexError):
            W.stage(3)


class TestRandomGraph:
    def test_extreme_probabilities(self):
        assert random_er_graph(5, 1.0, 0).n_edges == 10
        assert random_er_graph(5, 0.0, 0).n_edges == 0

    def test_deterministic_given_seed(self):
        a = random_er_graph(8, 0.4, rng_seed=123)
        b = random_er_graph(8, 0.4, rng_seed=123)
        assert a == b

    def test_lexicographic_order(self):
        g = random_er_graph(8, 0.6, rng_seed=5)
        assert list(g.edges) == sorted(g.edges)

    def test_mean_edge_count_matches_binomial(self):
        # n=8 -> 28 pairs; expected count 0.4*28 = 11.2, SE of the mean
        # over 1000 draws is sqrt(28*0.4*0.6/1000) ~ 0.082
        counts = [random_er_graph(8, 0.4, rng_seed=s).n_edges for s in range(1000)]
        assert abs(np.mean(counts) - 11.2) < 0.5

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            random_er_graph(1, 0.4, 0)
