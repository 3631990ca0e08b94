"""Order selection and joint network-plus-model screening.

Model choice is predictive first: candidates are ranked by out-of-sample
directional accuracy on a validation split, and only when two candidates
sit within a small tolerance of the best does the information criterion

    bic = - theta' info theta + n_params * log(n_coarse_increments)

break the tie (lower wins).  Joint selection over unknown networks screens
a large random candidate set with a cheap fixed shape, keeps the most
promising graphs, and then runs the full shape selection on each survivor.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .benchmarks import BenchmarkContext, fit_and_evaluate
from .errors import GrouError
# estimate_drift is unused here but stays bound: perfbench's tracer test checks this import site
from .estimate import EstimationResult, ThresholdPolicy, _bic, estimate_drift, estimate_triplet
from .graphs import EdgeGraph, pair_order, random_er_graph, weight_matrices
from .noise import LevySpec, stream_rng
from .simulate import SampledPath

__all__ = [
    "CandidateScore",
    "SelectionOutcome",
    "bic",
    "select_model",
    "joint_network_model_search",
]


def bic(result: EstimationResult) -> float:
    """Information criterion of a fitted drift; lower is better.

    ``n_coarse`` counts the coarse-grid increments that entered the fit,
    not raw timestamps.
    """
    n = result.n_coarse
    if n <= 1:
        raise ValueError(f"need more than one coarse increment, have {n}")
    return _bic(result.theta_hat, result.info, n)


@dataclass(frozen=True)
class CandidateScore:
    graph_ref: object
    shape: tuple
    dir_acc: float
    bic: float

    def to_json_dict(self):
        lags, stages = self.shape
        return {
            "graph": self.graph_ref,
            "shape": {"L": lags, "R": list(stages)},
            "dir_acc": self.dir_acc,
            "bic": self.bic,
        }


@dataclass(frozen=True)
class SelectionOutcome:
    """Ranked candidates plus the selected (graph, shape) pair."""

    candidates: tuple[CandidateScore, ...]
    chosen: CandidateScore
    chosen_graph: EdgeGraph | None = None

    def to_json_dict(self):
        doc = {
            "candidates": [c.to_json_dict() for c in self.candidates],
            "chosen": self.chosen.to_json_dict(),
        }
        if self.chosen_graph is not None:
            doc["chosen_graph"] = json.loads(self.chosen_graph.to_json())
        return doc


def _split_points(n_points: int, eval_fraction: float):
    n_eval = max(2, int(round(eval_fraction * n_points)))
    n_train = n_points - n_eval
    if n_train < 3:
        raise ValueError(f"path too short to split: {n_points} points")
    return n_train


def _score_shape(path, weights, shape, n_train, triplet, policy, ridge):
    """Held-out directional accuracy and information criterion of one grOU shape."""
    context = BenchmarkContext(
        weights=weights, shape=shape, triplet=triplet, policy=policy, ridge=ridge
    )
    (model,), (report,) = fit_and_evaluate(path, n_train, context, kinds=("GROU",))
    return report.dir_acc, bic(model.detail)


def _choose(candidates, tolerance):
    best_acc = max(c.dir_acc for c in candidates)
    eligible = [c for c in candidates if c.dir_acc >= best_acc - tolerance]
    return min(eligible, key=lambda c: c.bic)


def select_model(
    path: SampledPath,
    graph: EdgeGraph,
    candidate_shapes,
    tolerance: float = 1e-2,
    eval_fraction: float = 0.2,
    triplet: LevySpec | None = None,
    policy: ThresholdPolicy | None = None,
    ridge: float | None = None,
    graph_ref="given",
) -> SelectionOutcome:
    """Pick a model shape for a fixed network.

    Every candidate shape goes through :func:`grou.benchmarks.fit_and_evaluate`:
    a grOU fit on the head of the path (the last ``eval_fraction`` held
    out), scored by directional accuracy of one-step forecasts over the
    held-out tail at the training section's fine mesh.  Among candidates
    within ``tolerance`` of the best accuracy the lowest information
    criterion is chosen.  A missing ``triplet`` is estimated once from the
    head and shared by every shape.  Candidates whose fit fails are skipped
    with a warning.
    """
    shapes = [(int(l), tuple(int(r) for r in rs)) for l, rs in candidate_shapes]
    if not shapes:
        raise ValueError("candidate shape list is empty")
    max_stage = max((max(rs, default=0) for _, rs in shapes), default=0)
    weights = weight_matrices(graph, max(max_stage, 1))
    n_train = _split_points(path.n_points, eval_fraction)
    if triplet is None:
        triplet = estimate_triplet(path.section(0, n_train), policy)
    scores = []
    for shape in shapes:
        try:
            acc, crit = _score_shape(path, weights, shape, n_train, triplet, policy, ridge)
        except (GrouError, np.linalg.LinAlgError) as exc:
            warnings.warn(f"shape {shape} skipped: {exc}", stacklevel=2)
            continue
        scores.append(CandidateScore(graph_ref=graph_ref, shape=shape, dir_acc=acc, bic=crit))
    if not scores:
        raise GrouError("every candidate shape failed to fit")
    return SelectionOutcome(
        candidates=tuple(scores), chosen=_choose(scores, tolerance), chosen_graph=graph
    )


def _columns_for(graph: EdgeGraph, n_vertices: int):
    """Pair-series columns of the graph's edges in a canonical pair panel."""
    order = {pair: k for k, pair in enumerate(pair_order(n_vertices))}
    for edge in graph.edges:
        if edge not in order:
            raise ValueError(f"edge {edge} has no pair series among {n_vertices} vertices")
    return [order[edge] for edge in graph.edges]


def joint_network_model_search(
    path: SampledPath,
    n_vertices: int,
    shapes,
    n_candidates: int = 1000,
    edge_prob: float = 0.4,
    screen_shape=(1, (1,)),
    retain: int = 50,
    tolerance: float = 1e-2,
    eval_fraction: float = 0.2,
    policy: ThresholdPolicy | None = None,
    ridge: float | None = None,
    rng_seed: int = 0,
    threads: int = 1,
) -> SelectionOutcome:
    """Joint network and model choice over random candidate graphs.

    ``path`` must hold one column per unordered vertex pair in canonical
    (lexicographic) order; a candidate graph selects the columns of its
    edges.  Every candidate is screened with ``screen_shape`` on the same
    held-out scoring as :func:`select_model`, its noise triplet estimated
    from its own training head; the best ``retain`` graphs get the full
    shape selection, and the pair with the best accuracy wins (ties by the
    information criterion, then by candidate index).
    """
    n_pairs = n_vertices * (n_vertices - 1) // 2
    if path.n_edges != n_pairs:
        raise ValueError(
            f"path has {path.n_edges} columns; expected {n_pairs} pair series "
            f"for {n_vertices} vertices"
        )
    screen_shape = (int(screen_shape[0]), tuple(int(r) for r in screen_shape[1]))
    n_train = _split_points(path.n_points, eval_fraction)

    graphs = []
    for i in range(n_candidates):
        g = random_er_graph(n_vertices, edge_prob, stream_rng(rng_seed, i))
        graphs.append(g)

    def screen(i):
        g = graphs[i]
        if g.n_edges == 0:
            return None
        sub = path.select_columns(_columns_for(g, n_vertices))
        try:
            weights = weight_matrices(g, max(max(screen_shape[1], default=0), 1))
            acc, _ = _score_shape(sub, weights, screen_shape, n_train, None, policy, ridge)
        except (GrouError, np.linalg.LinAlgError) as exc:
            warnings.warn(f"candidate {i} skipped in screening: {exc}", stacklevel=2)
            return None
        return (acc, i)

    screened = [s for s in parallel_map(screen, range(n_candidates), threads) if s is not None]
    if not screened:
        raise GrouError("no candidate network survived screening")
    screened.sort(key=lambda s: (-s[0], s[1]))
    kept = screened[: int(retain)]

    all_scores = []
    finalists = []
    for acc, i in kept:
        g = graphs[i]
        sub = path.select_columns(_columns_for(g, n_vertices))
        try:
            outcome = select_model(
                sub,
                g,
                shapes,
                tolerance=tolerance,
                eval_fraction=eval_fraction,
                policy=policy,
                ridge=ridge,
                graph_ref=i,
            )
        except GrouError as exc:
            warnings.warn(f"candidate {i} skipped in selection: {exc}", stacklevel=2)
            continue
        all_scores.extend(outcome.candidates)
        finalists.append((outcome.chosen, g, i))
    if not finalists:
        raise GrouError("no candidate pair survived model selection")
    finalists.sort(key=lambda f: (-f[0].dir_acc, f[0].bic, f[2]))
    chosen, chosen_graph, _ = finalists[0]
    return SelectionOutcome(
        candidates=tuple(all_scores), chosen=chosen, chosen_graph=chosen_graph
    )
