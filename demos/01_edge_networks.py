"""Edge-indexed networks: neighborhoods and weight matrices.

The processes in this package live on the *edges* of a graph.  Two edges
are stage-1 neighbors when they share a vertex; stage-r neighbors are
reached after r such hops, never revisiting earlier stages.  Uniform
weight matrices turn those neighborhoods into row-normalized linear
operators on edge vectors.
"""

import numpy as np

from grou import complete_graph, path_graph, random_er_graph, weight_matrices


def stages_of(graph, edge, max_stage):
    """Stages 0 .. max_stage of ``edge``: row ``edge`` of W_r is non-zero exactly on stage r."""
    W = weight_matrices(graph, max_stage)
    return [[edge]] + [np.flatnonzero(W.stage(r)[edge]).tolist() for r in range(1, max_stage + 1)]


# A path on three vertices has two edges; each is the other's only neighbor.
path = path_graph(3)
print("path graph edges:", path.edges)
print("neighborhood stages of edge 0:", stages_of(path, 0, max_stage=2))

# On the complete graph K5 every edge has six stage-1 and three stage-2
# neighbors: the three edges it shares no vertex with.
k5 = complete_graph(5)
print("\nK5 stage sizes for edge 0:", [len(s) for s in stages_of(k5, 0, max_stage=3)])

W = weight_matrices(k5, max_stage=2)
print("K5 stage-1 row sums:", np.unique(W.stage(1).sum(axis=1)))
print("K5 stage-2 weights are 1/3 on the disjoint edges:")
print(np.round(W.stage(2)[0], 3))

# Random candidate networks are reproducible given a seed and ordered
# lexicographically.
er = random_er_graph(8, edge_prob=0.4, rng_seed=7)
print(f"\nER(8, 0.4) draw: {er.n_edges} edges, first five: {er.edges[:5]}")
print("same seed, same graph:", er == random_er_graph(8, 0.4, rng_seed=7))

# Graphs serialize to a small JSON format used by the CLI.
print("\nJSON form:", path.to_json())
