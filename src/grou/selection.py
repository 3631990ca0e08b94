"""Order selection and joint network-plus-model screening.

Model choice is predictive first: candidates are ranked by out-of-sample
directional accuracy on a validation split, and only when two candidates
sit within a small tolerance of the best does the information criterion

    bic = - theta' info theta + n_params * log(n_coarse_increments)

break the tie (lower wins).  Joint selection over unknown networks screens
a large random candidate set with a cheap fixed shape, keeps the most
promising graphs, and then runs the full shape selection on each survivor.
The whole search, screen and survivors alike, runs on one BLAS thread.

The screen and the shape selection run through one scorer, an array
program: the work that depends on the path alone is done once for every
pair column, and graphs with equal edge counts run as stacks, from their
noise triplets to the held-out sign hits, which are counted over
cache-sized tiles of the held-out rows.  Each graph keeps its own noise
triplet and precision, and each fit its own ridge, so a stack scores every
shape exactly as a fit on its own would; the screen's scores are those of
:func:`select_model` on each candidate under the screen shape
(:func:`select_model` on one graph is a stack of one).  Only the shape
selection computes the information criterion; the screen ranks by accuracy
alone.  A candidate whose fit fails is skipped with a warning that gives
the reason.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .errors import EstimationError, GrouError
# estimate_drift is unused here but stays bound: perfbench's tracer test checks this import site
from .estimate import (
    _ALL_EXCEED,
    _IRREGULAR,
    _NO_PRECISION,
    ThresholdPolicy,
    _aggregates,
    _batches,
    _bic,
    _check_shape,
    _coarse_increments,
    _derivatives,
    _drift_statistics,
    _irregular,
    _noise_precisions,
    _solve_fits,
    _triplet_increments,
    _truncate,
    estimate_drift,
    grid_diagnostics,
)
from .forecast import _one_step_maps
from .graphs import EdgeGraph, _edge_ends, _weight_stack, random_er_graph
from .noise import stream_rng
from .simulate import SampledPath

__all__ = [
    "CandidateScore",
    "SelectionOutcome",
    "select_model",
    "joint_network_model_search",
]


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
    chosen_graph: EdgeGraph

    def to_json_dict(self):
        return {
            "candidates": [c.to_json_dict() for c in self.candidates],
            "chosen": self.chosen.to_json_dict(),
            "chosen_graph": json.loads(self.chosen_graph.to_json()),
        }


def _split_points(n_points: int, eval_fraction: float):
    n_eval = max(2, int(round(eval_fraction * n_points)))
    n_train = n_points - n_eval
    if n_train < 3:
        raise ValueError(f"path too short to split: {n_points} points")
    return n_train


def _choose(candidates, tolerance):
    best_acc = max(c.dir_acc for c in candidates)
    eligible = [c for c in candidates if c.dir_acc >= best_acc - tolerance]
    return min(eligible, key=lambda c: c.bic)


def _check_tolerance(tolerance):
    # a negative tolerance leaves even the best candidate ineligible
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")


def _check_fraction(name, fraction):
    """Reject a held-out fraction outside (0, 1)."""
    if not 0 < fraction < 1:
        raise ValueError(f"{name} must be in (0, 1), got {fraction}")


def _shape_list(candidate_shapes):
    shapes = [(int(l), tuple(int(r) for r in rs)) for l, rs in candidate_shapes]
    if not shapes:
        raise ValueError("candidate shape list is empty")
    return shapes


def select_model(
    path: SampledPath,
    graph: EdgeGraph,
    candidate_shapes,
    tolerance: float = 1e-2,
    eval_fraction: float = 0.2,
    policy: ThresholdPolicy | None = None,
) -> SelectionOutcome:
    """Pick a model shape for a fixed network.

    ``path`` holds one column per edge of ``graph``, in edge order.  Every
    candidate shape is scored as :func:`grou.benchmarks.fit_and_evaluate`
    scores a grOU fit: fitted on the head of the path (the last
    ``eval_fraction``, in (0, 1), held out), then scored by directional
    accuracy of one-step forecasts over the held-out tail at the training
    section's fine mesh.  Among candidates within ``tolerance`` of the best accuracy
    the lowest information criterion is chosen.  The noise triplet is
    estimated once from the head (under ``policy``) and shared by every
    shape; every drift fit takes the automatic ridge.  The shapes run as
    the joint search's finalists do, as stacks of one graph, with the same
    results as one fit at a time.  Candidates whose fit fails, or whose
    shape has no lag or a negative stage count, are skipped with a warning.
    """
    shapes = _shape_list(candidate_shapes)
    _check_tolerance(tolerance)
    _check_fraction("eval_fraction", eval_fraction)
    if path.n_edges != graph.n_edges:
        raise ValueError(f"path has {path.n_edges} columns; graph has {graph.n_edges} edges")
    n_train = _split_points(path.n_points, eval_fraction)
    irregular, (scored,) = _score_graphs(
        path, [graph], [range(graph.n_edges)], shapes, n_train, policy
    )
    return _outcome(graph, "given", shapes, scored, irregular, tolerance)


def _outcome(graph, graph_ref, shapes, scored, irregular, tolerance):
    """The :class:`SelectionOutcome` of one graph from its entry of :func:`_score_graphs`.

    Warns for each shape whose fit failed, in shape order (and, on irregular
    grids, for each fit, as every fit does); raises the graph's own error,
    or :class:`GrouError` when no shape fitted.
    """
    if isinstance(scored, Exception):
        raise scored
    scores = []
    for shape, score in zip(shapes, scored):
        if isinstance(score, Exception):
            warnings.warn(f"shape {shape} skipped: {score}", stacklevel=3)
            continue
        if irregular:
            warnings.warn(_IRREGULAR, stacklevel=3)
        scores.append(
            CandidateScore(graph_ref=graph_ref, shape=shape, dir_acc=score[0], bic=_bic(*score[1:]))
        )
    if not scores:
        raise GrouError("every candidate shape failed to fit")
    return SelectionOutcome(
        candidates=tuple(scores), chosen=_choose(scores, tolerance), chosen_graph=graph
    )


def _columns_for(graph: EdgeGraph, n_vertices: int):
    """Pair-series columns of the graph's edges in a canonical pair panel.

    Pair ``(i, j)``, ``i < j < n``, is column ``pair_order(n).index((i, j))``.
    """
    n = n_vertices
    for i, j in graph.edges:
        if not 0 <= i < j < n:
            raise ValueError(f"edge {(i, j)} has no pair series among {n} vertices")
    return [i * (2 * n - i - 1) // 2 + j - i - 1 for i, j in graph.edges]


def _by_candidate(columns, cols):
    """``columns[..., cols]`` with the candidate axis first: ``(..., N)`` to ``(G, ..., K)``."""
    return np.ascontiguousarray(np.moveaxis(columns[..., cols], -2, 0))


def _heldout(path, n_train):
    """Held-out columns ``(N, T)``: the previous values and the signs of the realized moves."""
    previous = path.values[n_train - 1 : -1]
    realized = np.sign(path.values[n_train:] - previous)
    return np.ascontiguousarray(previous.T), np.ascontiguousarray(realized.T)


# held-out rows scored at a time: a tile of a stack's gathered columns and
# moves stays in cache, where gathering every row at once copies the stack
# out to memory and back
_TILE_ROWS = 128


def _sign_hits(previous, realized, gain, const, cols):
    """Held-out directional accuracy of a stack of one-step maps ``(gain, const)``.

    ``previous`` and ``realized`` are :func:`_heldout`'s ``(N, T)`` columns;
    ``cols`` ``(G, K)`` picks each map's columns.  A forecast counts when
    the sign of its move matches the realized one (a NaN never does), as
    :func:`grou.benchmarks.evaluate` counts it: a move times a realized
    sign of one is positive, and a realized sign of zero needs a move of
    zero.  The rows go in tiles of ``_TILE_ROWS``: each map's columns of a
    tile are gathered and moved by ``gain @ tile + const - tile``.
    """
    n_rows = previous.shape[1]
    hits = np.zeros(cols.shape[0], dtype=np.intp)
    ties = None if realized.all() else realized == 0
    for start in range(0, n_rows, _TILE_ROWS):
        rows = slice(start, start + _TILE_ROWS)
        tile = previous[:, rows][cols]
        with np.errstate(invalid="ignore"):
            moves = gain @ tile
            moves += const[:, :, None]
            moves -= tile
            if ties is not None:
                hits += np.count_nonzero((moves == 0) & ties[:, rows][cols], axis=(1, 2))
            moves *= realized[:, rows][cols]
        hits += np.count_nonzero(moves > 0, axis=(1, 2))
    return hits / (n_rows * cols.shape[1])


def _score_graphs(path, graphs, columns, shapes, n_train, policy):
    """Held-out scores of every graph under every shape, one stack per shape and edge count.

    This is :func:`select_model`'s scoring for many graphs at once.
    ``columns[j]`` lists the columns of ``path`` that hold graph ``j``'s
    edges, in edge order.  Each graph gets the noise triplet of its own
    training head and that triplet's precision.  What depends on the path
    alone (the lag-1 coarse increments behind every triplet, the
    derivatives and coarse increments of each lag count, the held-out rows)
    is computed once for all columns.  Graphs with equal edge counts share
    one stack for the precisions and, per shape, for the aggregates, the
    drift statistics, the ridge solves, the one-step maps and the sign
    hits.  Every score is therefore bit for bit what
    :func:`grou.benchmarks.fit_and_evaluate` gives the fit on its own.

    Returns ``(irregular, scored)``: whether the training grids are
    irregular, and per graph either the error its triplet raised or a list
    holding, per shape, the error of that fit or ``(dir_acc, theta, info,
    n_coarse)``; the information criterion is left to the callers that
    read it, which the screen does not.
    """
    policy = ThresholdPolicy() if policy is None else policy
    train = path.section(0, n_train)
    diag = grid_diagnostics(train.grid)
    irregular = _irregular(train.grid, diag["uniformity_fine"])
    try:
        raw_lag1, spacings_lag1 = _triplet_increments(train.values, train.grid)
    except GrouError as exc:
        return irregular, [exc] * len(graphs)
    # per shape: the derivatives, raw coarse increments and spacings, or the
    # error every fit of the shape raises before it reaches a graph's data
    by_lags, steps = {}, []
    for lags, stages in shapes:
        try:
            _check_shape(lags, stages)
            if lags not in by_lags:
                # lag 1 takes the triplet's increments
                coarse = (
                    _coarse_increments(train.values, train.grid, lags)[2:]
                    if lags > 1 else (raw_lag1, spacings_lag1)
                )
                by_lags[lags] = (_derivatives(train.values, train.grid, lags), *coarse)
        except GrouError as exc:
            steps.append(exc)
            continue
        steps.append(by_lags[lags])
    previous, realized = _heldout(path, n_train)
    h = diag["mesh_fine"]
    n_vertices = max(g.n_vertices for g in graphs)
    n_stages = max(max(max(rs, default=0) for _, rs in shapes), 1)
    cells = previous.shape[1] + max(l for l, _ in shapes) * train.grid.coarse_idx.size
    scored, by_size = [None] * len(graphs), {}
    for j, cols in enumerate(columns):
        by_size.setdefault(len(cols), []).append(j)
    for K, members in sorted(by_size.items()):
        for batch in _batches(members, K * cells):
            # each graph's triplet: the drift and Brownian covariance of its columns
            batch = np.array(batch)
            cols = np.array([columns[j] for j in batch], dtype=int).reshape(batch.size, K)
            live, factored, (mean_rate, _, corrected, small, _), prec = _noise_precisions(
                _by_candidate(raw_lag1, cols), spacings_lag1, policy
            )
            for j in batch[~live].tolist():
                scored[j] = EstimationError(_ALL_EXCEED)
            for j, ok in zip(batch[live].tolist(), factored):
                # every shape that gets as far as the precision fails with it
                fault = None if ok else np.linalg.LinAlgError(_NO_PRECISION)
                scored[j] = [step if isinstance(step, Exception) else fault for step in steps]
            live[live] = factored
            if not live.any():
                continue
            js, cols = batch[live].tolist(), cols[live]
            # lag-1 shapes truncate with the triplet's own drift correction
            # and sub-threshold mask, so their increments are at hand
            lag1 = np.where(small, corrected, 0.0) if 1 in by_lags else None
            matrices = _weight_stack(
                np.array([_edge_ends(graphs[j]) for j in js]), n_vertices, n_stages
            )
            for s, (shape, step) in enumerate(zip(shapes, steps)):
                if isinstance(step, Exception):
                    continue
                stages = shape[1]
                derivs, raw, spacings = step
                d = _by_candidate(derivs, cols)
                if shape[0] == 1:
                    increments = lag1
                else:
                    raw = _by_candidate(raw, cols)
                    increments = _truncate(raw, spacings, mean_rate, policy).values
                info, score = _drift_statistics(
                    d, _aggregates(d, matrices, stages), stages, increments, spacings, prec
                )
                info, theta, ridges, faults = _solve_fits(info, score)
                for g, fault in faults.items():
                    scored[js[g]][s] = fault
                solved = np.flatnonzero(~np.isnan(ridges))
                if not solved.size:
                    continue
                gain, const = _one_step_maps(
                    theta[solved], [m[solved] for m in matrices], shape, mean_rate[solved], h
                )
                accs = _sign_hits(previous, realized, gain, const, cols[solved])
                for g, acc in zip(solved.tolist(), accs.tolist()):
                    scored[js[g]][s] = (acc, theta[g], info[g], spacings.size)
    return irregular, scored


def _screen(path, graphs, n_vertices, shape, n_train, policy):
    """Held-out directional accuracy of every non-empty candidate graph under one shape.

    Returns ``(accuracies, messages)``: the accuracies by candidate index,
    and the skip warning of each candidate whose fit failed, in order.
    """
    screened = [i for i, g in enumerate(graphs) if g.n_edges]
    if not screened:
        return {}, []
    _, scored = _score_graphs(
        path, [graphs[i] for i in screened],
        [_columns_for(graphs[i], n_vertices) for i in screened],
        [shape], n_train, policy,
    )
    accuracies, messages = {}, []
    for i, entry in zip(screened, scored):
        score = entry if isinstance(entry, Exception) else entry[0]
        if isinstance(score, Exception):
            messages.append(f"candidate {i} skipped in screening: {score}")
        else:
            accuracies[i] = score[0]
    return accuracies, messages


def _finalists(path, graphs, ids, n_vertices, shapes, n_train, tolerance, policy):
    """The shape selection of the candidates ``ids``, run as stacks.

    Warns graph by graph as :func:`select_model` on each would, then for
    each candidate that yields no outcome.  Returns every candidate's
    scores and the ``(chosen, graph, index)`` of each that yields one.
    """
    irregular, scored = _score_graphs(
        path, [graphs[i] for i in ids], [_columns_for(graphs[i], n_vertices) for i in ids],
        shapes, n_train, policy,
    )
    all_scores, finalists = [], []
    for i, entry in zip(ids, scored):
        try:
            outcome = _outcome(graphs[i], i, shapes, entry, irregular, tolerance)
        except GrouError as exc:
            warnings.warn(f"candidate {i} skipped in selection: {exc}", stacklevel=3)
            continue
        all_scores.extend(outcome.candidates)
        finalists.append((outcome.chosen, graphs[i], i))
    return all_scores, finalists


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
    rng_seed: int = 0,
) -> SelectionOutcome:
    """Joint network and model choice over random candidate graphs.

    ``path`` must hold one column per unordered vertex pair in canonical
    (lexicographic) order; a candidate graph selects the columns of its
    edges.  Every candidate is screened with ``screen_shape`` on the same
    held-out scoring as :func:`select_model`, its noise triplet estimated
    from its own training head; the best ``retain`` graphs get the full
    shape selection, and the pair with the best accuracy wins (ties by the
    information criterion, then by candidate index).  The whole search runs
    on one BLAS thread.  The screen is one array program, candidates batched
    by edge count.  The finalists' shape selection runs one stack per shape
    and edge count, with the scores :func:`select_model` gives each
    finalist.  A candidate whose fit fails is skipped with a warning giving
    the reason.
    """
    n_pairs = n_vertices * (n_vertices - 1) // 2
    if path.n_edges != n_pairs:
        raise ValueError(
            f"path has {path.n_edges} columns; expected {n_pairs} pair series "
            f"for {n_vertices} vertices"
        )
    shapes = _shape_list(shapes)
    _check_tolerance(tolerance)
    _check_fraction("eval_fraction", eval_fraction)
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    if retain < 1:
        raise ValueError(f"retain must be >= 1, got {retain}")
    lags, stages = int(screen_shape[0]), tuple(int(r) for r in screen_shape[1])
    _check_shape(lags, stages)
    n_train = _split_points(path.n_points, eval_fraction)

    graphs = [
        random_er_graph(n_vertices, edge_prob, stream_rng(rng_seed, i)) for i in range(n_candidates)
    ]
    with one_blas_thread():
        accuracies, messages = _screen(path, graphs, n_vertices, (lags, stages), n_train, policy)
        for message in messages:
            warnings.warn(message, stacklevel=2)
        if not accuracies:
            raise GrouError("no candidate network survived screening")
        kept = sorted(accuracies.items(), key=lambda s: (-s[1], s[0]))[: int(retain)]
        all_scores, finalists = _finalists(
            path, graphs, [i for i, _ in kept], n_vertices, shapes, n_train, tolerance, policy
        )
    if not finalists:
        raise GrouError("no candidate pair survived model selection")
    finalists.sort(key=lambda f: (-f[0].dir_acc, f[0].bic, f[2]))
    chosen, chosen_graph, _ = finalists[0]
    return SelectionOutcome(
        candidates=tuple(all_scores), chosen=chosen, chosen_graph=chosen_graph
    )
