"""Edge-indexed network structure.

A process lives on the *edges* of a graph, so the basic objects here are an
edge list with a stable ordering ``e_1 .. e_K``, stage-r edge neighborhoods
(edges at line-graph distance r), and the row-normalized weight matrices that
encode those neighborhoods.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeGraph",
    "NeighborStages",
    "WeightMatrices",
    "edge_neighbors",
    "weight_matrices",
    "random_er_graph",
    "complete_graph",
    "path_graph",
    "pair_order",
]


@dataclass(frozen=True)
class EdgeGraph:
    """A static graph with an immutable, ordered edge list.

    Edge labels are positions in ``edges``; every matrix row/column index in
    the package refers to this ordering.  Undirected edges are stored once
    under the canonical orientation ``(min, max)``.

    Parameters
    ----------
    n_vertices : int
        Number of vertices, labeled ``0 .. n_vertices-1``.
    edges : sequence of (int, int)
        Vertex pairs.  No self-loops, no duplicates.
    directed : bool
        Whether edge orientation is meaningful.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    def __init__(self, n_vertices, edges, directed=False):
        if n_vertices < 1:
            raise ValueError(f"n_vertices must be positive, got {n_vertices}")
        canonical = []
        seen = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) is not allowed")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise ValueError(f"edge ({i}, {j}) out of range for {n_vertices} vertices")
            if not directed and i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            canonical.append((i, j))
        object.__setattr__(self, "n_vertices", int(n_vertices))
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "directed", bool(directed))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, edge) -> int:
        """Position of a vertex pair in the edge ordering."""
        i, j = edge
        if not self.directed and i > j:
            i, j = j, i
        try:
            return self.edges.index((i, j))
        except ValueError:
            raise KeyError(f"edge {tuple(edge)} not in graph") from None

    def drop_edge(self, edge) -> "EdgeGraph":
        """New graph with one edge removed; remaining order is preserved."""
        k = self.edge_index(edge)
        kept = self.edges[:k] + self.edges[k + 1 :]
        return EdgeGraph(self.n_vertices, kept, directed=self.directed)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_vertices": self.n_vertices,
                "directed": self.directed,
                "edges": [list(e) for e in self.edges],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EdgeGraph":
        doc = json.loads(text)
        return cls(doc["n_vertices"], [tuple(e) for e in doc["edges"]], doc.get("directed", False))


@dataclass(frozen=True)
class NeighborStages:
    """Stage-r neighborhoods of one reference edge.

    ``stages[r]`` is the set of edge indices at stage ``r``; stage 0 is the
    reference edge itself.  Stages are pairwise disjoint by construction.
    """

    reference_edge: int
    stages: tuple[frozenset, ...]

    def stage(self, r: int) -> frozenset:
        return self.stages[r]


@dataclass(frozen=True)
class WeightMatrices:
    """Uniform-weight neighborhood matrices, one K-by-K matrix per stage.

    Row ``a`` of stage ``r`` holds ``1/|N_r(e_a)|`` on the columns of the
    stage-r neighbors of edge ``e_a`` and zeros elsewhere, so each row with a
    non-empty neighborhood sums to one and rows with empty neighborhoods are
    all zero.
    """

    matrices: tuple[np.ndarray, ...]

    @property
    def max_stage(self) -> int:
        return len(self.matrices)

    @property
    def n_edges(self) -> int:
        return 0 if not self.matrices else self.matrices[0].shape[0]

    def stage(self, r: int) -> np.ndarray:
        """Matrix for stage ``r`` (1-based)."""
        if not 1 <= r <= self.max_stage:
            raise IndexError(f"stage {r} not built (have 1..{self.max_stage})")
        return self.matrices[r - 1]


def _stage_masks(graph: EdgeGraph, max_stage: int) -> list[np.ndarray]:
    """Boolean K-by-K masks of stages ``0 .. max_stage``, row ``a`` for edge ``a``.

    Edges are stage-1 neighbors when they share an endpoint: the line-graph
    adjacency ``B^T B - 2I`` of the vertex-edge incidence ``B``, which counts
    outgoing and incoming incidence alike, so directed and undirected graphs
    follow one rule.  Stage r holds the edges first reached in r steps.
    """
    ends = np.array(graph.edges, dtype=int).reshape(-1, 2)
    incidence = (np.arange(graph.n_vertices)[:, None, None] == ends).any(axis=2).astype(int)
    adjacency = incidence.T @ incidence - 2 * np.eye(ends.shape[0], dtype=int) > 0
    frontier = reached = np.eye(ends.shape[0], dtype=bool)
    masks = [frontier]
    for _ in range(max_stage):
        frontier = (frontier @ adjacency) & ~reached
        reached = reached | frontier
        masks.append(frontier)
    return masks


def edge_neighbors(graph: EdgeGraph, edge: int, max_stage: int) -> NeighborStages:
    """Stage-wise edge neighborhoods of ``edge`` up to ``max_stage``.

    Stage 1 collects the edges incident to either endpoint of the reference
    edge; stage r collects the stage-1 neighbors of stage-(r-1) edges that
    have not appeared in any earlier stage.

    Raises
    ------
    IndexError
        If ``edge`` is not a valid edge index.
    """
    if not 0 <= edge < graph.n_edges:
        raise IndexError(f"edge index {edge} out of range (K={graph.n_edges})")
    if max_stage < 0:
        raise ValueError("max_stage must be >= 0")
    masks = _stage_masks(graph, max_stage)
    stages = tuple(frozenset(int(b) for b in np.flatnonzero(m[edge])) for m in masks)
    return NeighborStages(reference_edge=edge, stages=stages)


def weight_matrices(graph: EdgeGraph, max_stage: int) -> WeightMatrices:
    """Uniform neighborhood weight matrices for stages ``1 .. max_stage``."""
    if max_stage < 1:
        raise ValueError("max_stage must be >= 1")
    mats = []
    for mask in _stage_masks(graph, max_stage)[1:]:
        counts = mask.sum(axis=1, keepdims=True)
        mats.append(np.where(mask, 1.0 / np.maximum(counts, 1), 0.0))
    return WeightMatrices(matrices=tuple(mats))


def random_er_graph(n_vertices: int, edge_prob: float, rng_seed) -> EdgeGraph:
    """Undirected Erdos-Renyi graph; each vertex pair kept with ``edge_prob``.

    Edges are ordered lexicographically so the layout is reproducible given
    the seed.
    """
    if n_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {n_vertices}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(rng_seed)
    pairs = pair_order(n_vertices)
    keep = rng.random(len(pairs)) < edge_prob
    edges = [p for p, k in zip(pairs, keep) if k]
    return EdgeGraph(n_vertices, edges, directed=False)


def complete_graph(n_vertices: int) -> EdgeGraph:
    """Undirected complete graph with lexicographic edge order."""
    return EdgeGraph(n_vertices, pair_order(n_vertices), directed=False)


def path_graph(n_vertices: int) -> EdgeGraph:
    """Undirected path 0-1-2-...; edge k joins vertices (k, k+1)."""
    return EdgeGraph(n_vertices, [(k, k + 1) for k in range(n_vertices - 1)])


def pair_order(n_vertices: int) -> list[tuple[int, int]]:
    """Canonical (lexicographic) ordering of unordered vertex pairs.

    This is the column convention used whenever a data matrix holds one
    series per vertex pair (e.g. rolling covariance panels): candidate-graph
    edge (i, j) maps to position ``pair_order(n).index((i, j))``.
    """
    return [(i, j) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
