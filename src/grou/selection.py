"""Order selection and joint network-plus-model screening.

Model choice is predictive first: candidates are ranked by out-of-sample
directional accuracy on a validation split, and only when two candidates
sit within a small tolerance of the best does the information criterion

    bic = - theta' info theta + n_params * log(n_coarse_increments)

break the tie (lower wins).  Joint selection over unknown networks screens
a large random candidate set with a cheap fixed shape, keeps the most
promising graphs, and then runs the full shape selection on each survivor.
The whole search, screen and survivors alike, runs on one BLAS thread.

Screen and shape selection are both array programs: the work that depends
on the path alone is done once for every pair column, and graphs with equal
edge counts run as stacks.  The screen's stacks solve together; in the
shape selection each graph keeps its own noise triplet and precision, and
each fit its own ridge solve, so a stack scores every shape exactly as a
fit on its own would (:func:`select_model` on one graph is a stack of one).
A candidate whose fit fails is skipped with a warning that gives the reason.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._blas import one_blas_thread
from .errors import EstimationError, GrouError, SingularityError
# estimate_drift is unused here but stays bound: perfbench's tracer test checks this import site
from .estimate import (
    _ALL_EXCEED,
    _IRREGULAR,
    _STAYED_SINGULAR,
    EstimationResult,
    ThresholdPolicy,
    _aggregates,
    _bic,
    _check_shape,
    _coarse_increments,
    _derivatives,
    _drift_statistics,
    _irregular,
    _jittered,
    _precision,
    _small_increments,
    _solve_with_ridge,
    _solve_with_ridge_stack,
    _truncate,
    estimate_drift,
    estimate_triplet,
)
from .graphs import EdgeGraph, _edge_ends, _weight_stack, pair_order, random_er_graph
from .model import _companion_transition, _lag_matrix, drift_integral
from .noise import _psd_spectrum, stream_rng
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
    return _checked_bic(result.theta_hat, result.info, result.n_coarse)


def _checked_bic(theta, info, n):
    if n <= 1:
        raise ValueError(f"need more than one coarse increment, have {n}")
    return _bic(theta, info, n)


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


def _choose(candidates, tolerance):
    best_acc = max(c.dir_acc for c in candidates)
    eligible = [c for c in candidates if c.dir_acc >= best_acc - tolerance]
    return min(eligible, key=lambda c: c.bic)


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
    graph_ref="given",
) -> SelectionOutcome:
    """Pick a model shape for a fixed network.

    ``path`` holds one column per edge of ``graph``, in edge order.  Every
    candidate shape is scored as :func:`grou.benchmarks.fit_and_evaluate`
    scores a grOU fit: fitted on the head of the path (the last
    ``eval_fraction`` held out), then scored by directional accuracy of
    one-step forecasts over the held-out tail at the training section's
    fine mesh.  Among candidates within ``tolerance`` of the best accuracy
    the lowest information criterion is chosen.  The noise triplet is
    estimated once from the head (under ``policy``) and shared by every
    shape; every drift fit takes the automatic ridge.  The shapes run as
    the joint search's finalists do, as stacks of one graph, with the same
    results as one fit at a time.  Candidates whose fit fails are skipped
    with a warning.
    """
    shapes = _shape_list(candidate_shapes)
    if path.n_edges != graph.n_edges:
        raise ValueError(f"path has {path.n_edges} columns; graph has {graph.n_edges} edges")
    n_train = _split_points(path.n_points, eval_fraction)
    irregular, (scored,) = _score_graphs(
        path, [graph], [range(graph.n_edges)], shapes, n_train, policy
    )
    return _outcome(graph, graph_ref, shapes, scored, irregular, tolerance)


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
        scores.append(CandidateScore(graph_ref=graph_ref, shape=shape, dir_acc=score[0], bic=score[1]))
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


# Cells (edges x rows) per stack of graphs.  A stack holds a few copies of
# its graphs' held-out rows and regressors; the bound keeps each copy to
# 4 MiB however many graphs share an edge count.
_BATCH_CELLS = 1 << 19


def _batches(members, cells):
    """``members`` in stacks of at most ``_BATCH_CELLS`` cells, ``cells`` per member."""
    size = max(1, _BATCH_CELLS // cells)
    for start in range(0, len(members), size):
        yield members[start : start + size]


def _by_candidate(columns, cols):
    """``columns[..., cols]`` with the candidate axis first: ``(..., N)`` to ``(G, ..., K)``."""
    return np.ascontiguousarray(np.moveaxis(columns[..., cols], -2, 0))


def _heldout(path, n_train):
    """Held-out rows: the previous values and the signs of the realized moves."""
    previous = path.values[n_train - 1 : -1]
    return previous, np.sign(path.values[n_train:] - previous).astype(np.int8)


def _sign_hits(previous, realized, gain, const, cols):
    """Held-out directional accuracy of a stack of one-step maps ``(gain, const)``.

    ``cols`` ``(G, K)`` picks each map's columns of the held-out rows.  A
    forecast counts when the sign of its move matches the realized one (a
    NaN never does), as :func:`grou.benchmarks.evaluate` counts it.
    """
    prev = _by_candidate(previous, cols)
    with np.errstate(invalid="ignore"):
        moves = prev @ gain.transpose(0, 2, 1)
        moves += const[:, None, :]
        moves -= prev
    hits = np.count_nonzero(np.sign(moves) == _by_candidate(realized, cols), axis=(1, 2))
    return hits / prev[0].size


def _one_step_maps(theta, matrices, shape, mean_rate, h):
    """``(gain, const)`` of :func:`grou.forecast.one_step_map` for a stack of fitted drifts.

    ``theta`` is ``(G, p)`` in :meth:`GrouParams.flatten` order,
    ``matrices[r - 1]`` the ``(G, K, K)`` stack of ``W_r`` and ``mean_rate``
    ``(G, K)``; the lag matrices and transitions are built as
    :func:`grou.model.build_companion` builds them.
    """
    lags, stages = shape
    G, K = mean_rate.shape
    lag_matrices, pos = [], 0
    for l in range(lags):
        alpha, beta = theta[:, pos : pos + K], theta[:, pos + K : pos + K + stages[l]]
        lag_matrices.append(_lag_matrix(alpha, beta, matrices))
        pos += K + stages[l]
    transition = _companion_transition(lag_matrices)
    drift = np.zeros((G, lags * K))
    drift[:, -K:] = mean_rate
    return expm(h * transition)[:, :K, :K], drift_integral(transition, drift, h)[:, :K]


def _screen(path, graphs, n_vertices, shape, n_train, policy):
    """Held-out directional accuracy of every non-empty candidate graph under one shape.

    This is the scoring of :func:`select_model` run as array programs: a
    noise triplet from the training head, a drift fit with the automatic
    ridge, then one-step forecasts at the fine mesh over the held-out tail.
    What depends on the path alone (the coarse increments, their drift and
    sub-threshold masks, the regressors, the held-out rows) is computed once
    for all pair columns; candidates with equal edge counts run as stacks.
    Returns ``(accuracies, failures)``, both keyed by candidate index; a
    failure is the error the candidate's own fit raises.
    """
    lags, stages = shape
    policy = ThresholdPolicy() if policy is None else policy
    train = path.section(0, n_train)
    by_size = {}
    for i, g in enumerate(graphs):
        if g.n_edges:
            by_size.setdefault(g.n_edges, []).append(i)
    accuracies, failures = {}, {}
    try:
        b_hat, corrected, small, total_time = _small_increments(train, policy)
    except GrouError as exc:
        return accuracies, {i: exc for members in by_size.values() for i in members}
    fit_error = None
    try:
        derivs = _derivatives(train, lags)
        _, _, raw, spacings = _coarse_increments(train, lags)
        increments = _truncate(raw, spacings, b_hat, policy).values
    except GrouError as exc:
        fit_error = exc
    previous, realized = _heldout(path, n_train)
    column = np.zeros((n_vertices, n_vertices), dtype=int)
    column[np.triu_indices(n_vertices, 1)] = np.arange(path.n_edges)
    n_stages = max(max(stages, default=0), 1)
    for K, members in sorted(by_size.items()):
        for batch in _batches(members, K * (previous.shape[0] + lags * corrected.shape[0])):
            ids = np.array(batch)
            ends = np.array([graphs[i].edges for i in ids])
            # the triplet: Brownian covariance of the rows below every cutoff
            joint = small[:, column[ends[..., 0], ends[..., 1]]].all(axis=-1).T
            live = joint.any(axis=1)
            failures.update((i, EstimationError(_ALL_EXCEED)) for i in ids[~live].tolist())
            if fit_error is not None:
                failures.update((i, fit_error) for i in ids[live].tolist())
                continue
            if not live.any():
                continue
            ids, ends, joint = ids[live], ends[live], joint[live]
            cols = column[ends[..., 0], ends[..., 1]]
            kept = np.where(joint[..., None], _by_candidate(corrected, cols), 0.0)
            sigma = kept.transpose(0, 2, 1) @ kept / total_time
            sigma = 0.5 * (sigma + sigma.transpose(0, 2, 1))
            prec = np.linalg.inv(_jittered(sigma, _psd_spectrum(sigma, "brownian_cov")))
            # the drift fit
            matrices = _weight_stack(ends, n_vertices, n_stages)
            d = _by_candidate(derivs, cols)
            info, score = _drift_statistics(
                d, _aggregates(d, matrices, stages), stages,
                _by_candidate(increments, cols), spacings, prec,
            )
            theta = _solve_with_ridge_stack(0.5 * (info + info.transpose(0, 2, 1)), score)
            solved = ~np.isnan(theta).any(axis=1)
            failures.update((i, SingularityError(_STAYED_SINGULAR)) for i in ids[~solved].tolist())
            ids, cols = ids[solved], cols[solved]
            # one-step forecasts over the held-out rows
            gain, const = _one_step_maps(
                theta[solved], [m[solved] for m in matrices], shape, b_hat[cols],
                train.grid.mesh_fine,
            )
            accuracies.update(
                zip(ids.tolist(), _sign_hits(previous, realized, gain, const, cols).tolist())
            )
    return accuracies, failures


def _score_graphs(path, graphs, columns, shapes, n_train, policy):
    """Held-out scores of every graph under every shape, one stack per shape and edge count.

    This is :func:`select_model`'s scoring for many graphs at once.
    ``columns[j]`` lists the columns of ``path`` that hold graph ``j``'s
    edges, in edge order.  Each graph gets the noise triplet of its own
    training head and that triplet's precision.  What depends on the path
    alone (the derivatives and coarse increments of each lag count, the
    held-out rows) is computed once for all columns.  Per shape, graphs
    with equal edge counts share one stack for the aggregates, the drift
    statistics, the one-step maps and the sign hits; each fit keeps its own
    ridge solve and information criterion.  Every score is therefore bit
    for bit what :func:`grou.benchmarks.fit_and_evaluate` gives the fit on
    its own.

    Returns ``(irregular, scored)``: whether the training grids are
    irregular, and per graph either the error its triplet raised or a list
    holding, per shape, ``(dir_acc, bic)`` or the error of that fit.
    """
    policy = ThresholdPolicy() if policy is None else policy
    train = path.section(0, n_train)
    scored, by_size = [], {}
    for j, cols in enumerate(columns):
        cols = list(cols)
        try:
            triplet = estimate_triplet(train.select_columns(cols), policy)
        except GrouError as exc:
            scored.append(exc)
            continue
        try:
            prec = _precision(triplet)
        except np.linalg.LinAlgError as exc:
            # every shape that gets as far as the precision fails with it
            scored.append([exc] * len(shapes))
            continue
        scored.append([None] * len(shapes))
        by_size.setdefault(len(cols), []).append((j, cols, triplet.mean_rate, prec))
    # per shape: the derivatives, raw coarse increments and spacings, or the
    # error every fit of the shape raises before it reaches a graph's data
    by_lags, steps = {}, []
    for s, (lags, stages) in enumerate(shapes):
        try:
            _check_shape(lags, stages)
            if lags not in by_lags:
                by_lags[lags] = (_derivatives(train, lags), *_coarse_increments(train, lags)[2:])
        except GrouError as exc:
            steps.append(exc)
            for entry in scored:
                if isinstance(entry, list):
                    entry[s] = exc
            continue
        steps.append(by_lags[lags])
    previous, realized = _heldout(path, n_train)
    h = train.grid.mesh_fine
    n_vertices = max(g.n_vertices for g in graphs)
    n_stages = max(max(max(rs, default=0) for _, rs in shapes), 1)
    cells = previous.shape[0] + max(l for l, _ in shapes) * train.grid.coarse_idx.size
    for K, fits in sorted(by_size.items()):
        for batch in _batches(fits, K * cells):
            js, cols, mean_rate, prec = zip(*batch)
            cols, mean_rate, prec = np.array(cols), np.array(mean_rate), np.array(prec)
            matrices = _weight_stack(
                np.array([_edge_ends(graphs[j]) for j in js]), n_vertices, n_stages
            )
            for s, (shape, step) in enumerate(zip(shapes, steps)):
                if isinstance(step, Exception):
                    continue
                stages = shape[1]
                derivs, raw, spacings = step
                d = _by_candidate(derivs, cols)
                increments = _truncate(_by_candidate(raw, cols), spacings, mean_rate, policy)
                info, score = _drift_statistics(
                    d, _aggregates(d, matrices, stages), stages, increments.values, spacings, prec
                )
                solved, thetas, crits = [], [], []
                for g, j in enumerate(js):
                    info_g = 0.5 * (info[g] + info[g].T)
                    try:
                        theta, _ = _solve_with_ridge(info_g, score[g], None)
                    except SingularityError as exc:
                        scored[j][s] = exc
                        continue
                    solved.append(g)
                    thetas.append(theta)
                    crits.append(_checked_bic(theta, info_g, spacings.size))
                if not solved:
                    continue
                gain, const = _one_step_maps(
                    np.array(thetas), [m[solved] for m in matrices], shape, mean_rate[solved], h
                )
                accs = _sign_hits(previous, realized, gain, const, cols[solved])
                for g, acc, crit in zip(solved, accs.tolist(), crits):
                    scored[js[g]][s] = (acc, crit)
    return _irregular(train.grid, train.grid.uniformity_fine), scored


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
    lags, stages = int(screen_shape[0]), tuple(int(r) for r in screen_shape[1])
    _check_shape(lags, stages)
    n_train = _split_points(path.n_points, eval_fraction)

    graphs = [
        random_er_graph(n_vertices, edge_prob, stream_rng(rng_seed, i)) for i in range(n_candidates)
    ]
    with one_blas_thread():
        accuracies, failures = _screen(path, graphs, n_vertices, (lags, stages), n_train, policy)
        for i, exc in sorted(failures.items()):
            warnings.warn(f"candidate {i} skipped in screening: {exc}", stacklevel=2)
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
