"""Comparison models, evaluation metrics, and Monte Carlo studies.

Seven one-step forecasters are supported: the naive carry-forward, per-edge
AR(1) and joint VAR(1) least squares, the network autoregression with
shared neighborhood coefficients (GNAR), and three continuous-time fits
(per-edge OU, unrestricted MCAR, graph-structured grOU) driven through the
drift estimator.  Every fitted model reduces to an affine one-step map, so
evaluation is a single matrix product.

The AR and GNAR fits never form a design matrix.  AR solves each edge's
two-column regression in closed form from centred sums; GNAR solves the
arrow-shaped normal equations built from lagged cross-products, in the
way the drift estimator works from structured Gram sums.  Both give the
minimum-norm least-squares answer of the dense design, rank-deficient
designs included.

Metrics follow the usual conventions: root mean squared error over all
evaluation times and edges, and directional accuracy (the fraction of
correctly signed predicted increments, with the naive model pinned at 1/2
since its predicted increments are identically zero).

A Monte Carlo study runs its paths in batches, each one stack of arrays:
the paths come from one simulation plan (:func:`grou.simulate.simulate_paths`),
and the noise triplet, the OU, MCAR and grOU fits, their one-step maps and
the scoring of every model run once per stack, on the stacked kernels the
joint network search uses; NA, AR, VAR and GNAR are fitted path by path.
Every figure is bit for bit what the path gives on its own, and
:func:`fit_and_evaluate` is the same route for one path.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._blas import one_blas_thread
from .errors import GrouError
from .estimate import (
    ThresholdPolicy,
    _batches,
    _check_shape,
    _coarse_increments,
    _derivatives,
    _drift_statistics,
    _irregular,
    _IRREGULAR,
    _levy_spec,
    _mcar_statistics,
    _noise_precisions,
    _regressors,
    _result,
    _solve_with_ridge,
    _symmetrized,
    _triplet_increments,
    _triplet_precision,
    _truncate,
    estimate_drift,
    estimate_mcar,
    estimate_triplet,
    grid_diagnostics,
)
from .forecast import _one_step_maps, one_step_map, system_from_fit
from .graphs import EdgeGraph, WeightMatrices, complete_graph, weight_matrices
from .model import GrouParams, build_companion, propagator
from .noise import CompoundPoissonJumps, LevySpec
from .simulate import SampledPath, grid_from_times, make_uniform_grids, simulate_paths

__all__ = [
    "MODEL_KINDS",
    "BenchmarkContext",
    "FittedModel",
    "MetricReport",
    "StudyConfig",
    "fit_benchmark",
    "evaluate",
    "fit_and_evaluate",
    "monte_carlo_study",
    "predictive_study_config",
    "study_rows_to_csv",
]

MODEL_KINDS = ("NA", "AR", "VAR", "GNAR", "OU", "MCAR", "GROU")
_CONTINUOUS_KINDS = frozenset({"OU", "MCAR", "GROU"})


@dataclass(frozen=True)
class BenchmarkContext:
    """Shared inputs for fitting the model zoo on one training set.

    ``weights`` are the network's neighborhood matrices: GNAR uses stage 1,
    grOU the stages ``shape`` asks for.  ``triplet`` None means each
    continuous-time fit first estimates the driving noise from the training
    data (shared across those fits).  The OU and grOU fits take the
    automatic ridge, the MCAR fit a fixed trace-scaled one.
    """

    weights: WeightMatrices | None = None
    shape: tuple = (1, (1,))
    triplet: LevySpec | None = None
    policy: ThresholdPolicy | None = None


@dataclass(frozen=True)
class FittedModel:
    """Kind plus the affine one-step map ``prediction = previous @ gain.T + const``."""

    kind: str
    const: np.ndarray
    gain: np.ndarray
    fit_seconds: float
    detail: object = None

    def predict_matrix(self, previous) -> np.ndarray:
        return np.asarray(previous) @ self.gain.T + self.const


@dataclass(frozen=True)
class MetricReport:
    kind: str
    rmse: float
    dir_acc: float
    fit_seconds: float
    predict_seconds: float


def _fit_na(train, ctx):
    K = train.n_edges
    return np.zeros(K), np.eye(K), None


def _fit_ar(train, ctx):
    """Per-edge AR(1) with intercept: each edge's ``[1, y_{t-1}]`` least squares in closed form.

    Slopes come from centred sums, all edges at once.  A column whose
    design is rank one under lstsq's cutoff (a constant column ``c``) gets
    lstsq's minimum-norm answer, ``const = mean(y_t) / (1 + c^2)`` and
    ``phi = c * const``.
    """
    x, z = train.values[:-1], train.values[1:]
    n = x.shape[0]
    x_bar, z_bar = x.mean(axis=0), z.mean(axis=0)
    dx = x - x_bar
    sxx = np.einsum("tk,tk->k", dx, dx)
    sxz = np.einsum("tk,tk->k", dx, z - z_bar)
    # lstsq's rank test, sigma_min / sigma_max <= eps * n, on [1, x]: the Gram
    # determinant is n * sxx = (sigma_min * sigma_max)^2 and sigma_max^2 <= its trace
    trace = n + np.einsum("tk,tk->k", x, x)
    flat = n * sxx <= (np.finfo(float).eps * n * trace) ** 2
    phi = sxz / np.where(flat, 1.0, sxx)
    const = np.where(flat, z_bar / (1.0 + x_bar**2), z_bar - phi * x_bar)
    phi = np.where(flat, x_bar * const, phi)
    return const, np.diag(phi), None


# Shrinkage scale for the VAR fit.  At high observation frequencies the
# per-step map is nearly the identity, and an exactly-identified OLS fit of
# K^2 + K coefficients inflates out-of-sample RMSE by at least
# sqrt(1 + p/T); anchoring the regression at the random walk and ridging
# the level-to-increment map keeps the forecast within noise of the naive
# one while preserving mean-reversion signal in well-explored directions.
_VAR_RIDGE_SCALE = 0.3


def _fit_var(train, ctx):
    y = train.values
    design = np.column_stack([np.ones(y.shape[0] - 1), y[:-1]])
    increments = y[1:] - y[:-1]
    gram = design.T @ design
    lam = _VAR_RIDGE_SCALE * np.trace(gram) / gram.shape[0]
    coef = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), design.T @ increments)
    gain = np.eye(train.n_edges) + coef[1:].T
    return coef[0].copy(), gain, None


def _fit_gnar(train, ctx):
    """Least squares with per-edge own-lag and one shared stage-1 neighborhood effect.

    The stacked design has a row per time and edge: edge k's own lag in
    column k and its neighborhood aggregate ``a = y_{t-1} W1^T`` in the
    last column.  The own-lag columns sit on disjoint rows, so the normal
    equations are an arrow matrix of lagged cross-products (diagonal
    ``sum_t y_{t-1,k}^2``, border ``sum_t y_{t-1,k} a_{t,k}``, corner
    ``sum a^2``), built without the design.  lstsq on them gives the
    design's minimum-norm answer, ``pinv(X^T X) X^T = pinv(X)``, so a
    rank-deficient design (all stage-1 weights zero) is fitted as before.
    """
    if ctx.weights is None:
        raise ValueError("GNAR needs neighborhood weight matrices")
    K = train.n_edges
    lagged, target = train.values[:-1], train.values[1:]
    w1 = ctx.weights.stage(1)
    agg = lagged @ w1.T
    gram = np.diag(np.append(np.einsum("tk,tk->k", lagged, lagged), np.vdot(agg, agg)))
    gram[:K, K] = gram[K, :K] = np.einsum("tk,tk->k", lagged, agg)
    rhs = np.append(np.einsum("tk,tk->k", lagged, target), np.vdot(agg, target))
    coef, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    alphas, betas = coef[:K], coef[K:]
    gain = np.diag(alphas) + betas[0] * w1
    return np.zeros(K), gain, {"alpha": alphas, "beta": betas}


def _shared_triplet(train, ctx):
    if ctx.triplet is not None:
        return ctx.triplet
    return estimate_triplet(train, ctx.policy)


def _continuous_map(train, fitted, weights):
    h = train.grid.mesh_fine
    system = system_from_fit(fitted, weights)
    const, gain = one_step_map(system, fitted.triplet_used.mean_rate, h)
    return const, gain


def _fit_ou(train, ctx):
    triplet = _shared_triplet(train, ctx)
    lags = ctx.shape[0]
    fitted = estimate_drift(train, None, (lags, [0] * lags), triplet, ctx.policy)
    const, gain = _continuous_map(train, fitted, None)
    return const, gain, fitted


# The unrestricted drift fit has K*K free parameters; without shrinkage its
# one-step forecasts inflate RMSE visibly above the naive benchmark.
_MCAR_RIDGE_SCALE = 0.02


def _fit_mcar(train, ctx):
    triplet = _shared_triplet(train, ctx)
    fitted = estimate_mcar(train, triplet, ctx.policy, ridge_scale=_MCAR_RIDGE_SCALE)
    const, gain = _continuous_map(train, fitted, None)
    return const, gain, fitted


def _fit_grou(train, ctx):
    triplet = _shared_triplet(train, ctx)
    fitted = estimate_drift(train, ctx.weights, ctx.shape, triplet, ctx.policy)
    const, gain = _continuous_map(train, fitted, ctx.weights)
    return const, gain, fitted


_FITTERS = {
    "NA": _fit_na,
    "AR": _fit_ar,
    "VAR": _fit_var,
    "GNAR": _fit_gnar,
    "OU": _fit_ou,
    "MCAR": _fit_mcar,
    "GROU": _fit_grou,
}


def fit_benchmark(kind: str, train: SampledPath, context: BenchmarkContext) -> FittedModel:
    """Fit one comparison model on the training section of a path."""
    kind = kind.upper()
    if kind not in _FITTERS:
        raise ValueError(f"unknown benchmark kind {kind!r}; choose from {MODEL_KINDS}")
    start = time.perf_counter()
    const, gain, detail = _FITTERS[kind](train, context)
    elapsed = time.perf_counter() - start
    return FittedModel(kind=kind, const=const, gain=gain, fit_seconds=elapsed, detail=detail)


def directional_accuracy(realized, predicted, previous) -> float:
    """Fraction of sign matches between predicted and realized increments.

    A zero predicted increment only counts as correct against a zero
    realized increment; non-finite predictions count as misses.
    """
    return float(np.mean(_sign_matches(realized, predicted, previous)))


def _sign_matches(realized, predicted, previous):
    """Where the signs of the predicted and realized increments match."""
    pred_inc = np.sign(np.asarray(predicted) - previous)
    real_inc = np.sign(np.asarray(realized) - previous)
    with np.errstate(invalid="ignore"):
        return pred_inc == real_inc


def _metrics(kind, realized, previous, preds):
    """``(rmse, dir_acc)`` over the last two axes, for one path or a stack.

    The naive model's directional accuracy is 0.5.
    """
    rmse = np.sqrt(np.mean((realized - preds) ** 2, axis=(-2, -1)))
    if kind == "NA":
        return rmse, np.full(rmse.shape, 0.5)
    return rmse, np.mean(_sign_matches(realized, preds, previous), axis=(-2, -1))


def evaluate(models, path: SampledPath, test_range) -> list[MetricReport]:
    """Score fitted models on one-step predictions over ``test_range``.

    Each index n is predicted from the realized observation at n-1.  The
    naive model's directional accuracy is 0.5 by convention.  Inputs are
    never mutated.
    """
    idx = np.asarray(list(test_range), dtype=int)
    if idx.size == 0 or idx.min() < 1 or idx.max() >= path.n_points:
        raise ValueError("test range must lie inside the path and start at index >= 1")
    realized = path.values[idx]
    previous = path.values[idx - 1]
    reports = []
    for model in models:
        start = time.perf_counter()
        preds = model.predict_matrix(previous)
        predict_seconds = time.perf_counter() - start
        rmse, dir_acc = _metrics(model.kind, realized, previous, preds)
        reports.append(
            MetricReport(
                kind=model.kind,
                rmse=float(rmse),
                dir_acc=float(dir_acc),
                fit_seconds=model.fit_seconds,
                predict_seconds=predict_seconds,
            )
        )
    return reports


def fit_and_evaluate(
    path: SampledPath, n_train: int, context: BenchmarkContext, kinds=MODEL_KINDS
):
    """Fit models on the head of ``path`` and score them on its tail.

    Every kind is fitted on the first ``n_train`` points; when
    ``context.triplet`` is None and ``kinds`` holds a continuous-time fit,
    the driving noise is estimated once from that section and shared by
    those fits.  Everything runs on one BLAS thread, so the figures do not
    depend on the caller's thread count.  Returns ``(models, reports)``,
    the reports scoring one-step forecasts over indices
    ``n_train .. path.n_points - 1``.  This is a Monte Carlo study's route
    for a stack of one path; its models and figures are bit for bit those
    of :func:`fit_benchmark` and :func:`evaluate` on each kind.
    """
    with one_blas_thread():
        (result,) = _score_stack(path.grid, path.values[None], n_train, context, kinds)
    return result


class _StackFault(Exception):
    """A fit of a stack failed; the stack is fitted again path by path to raise its error."""


def _score_stack(grid, values, n_train, context, kinds):
    """:func:`fit_and_evaluate` of every path of a stack ``values`` ``(B, n, K)`` on ``grid``.

    The noise triplet, the OU, MCAR and grOU fits, their one-step maps and
    the scoring of every kind run once for the stack; NA, AR, VAR and GNAR
    are fitted path by path through :func:`fit_benchmark`.  Each model is
    charged the time of its own part of the stack divided by the paths in
    it; the triplet and the regressors that the continuous-time fits share
    are charged to none, and grOU is charged the drift statistics that OU
    reads its own off.  Where a fit of the stack fails, the stack is fitted
    again path by path through :func:`fit_benchmark` and :func:`evaluate`,
    so that the first failing path raises its own error.  Returns
    ``(models, reports)`` per path.
    """
    kinds = [kind.upper() for kind in kinds]
    B = values.shape[0]
    train = SampledPath(grid=grid, values=values[0]).section(0, n_train)
    try:
        if values.shape[1] == n_train:
            raise _StackFault  # no test range: evaluate raises, after the fits
        continuous = [kind for kind in kinds if kind in _CONTINUOUS_KINDS]
        fits = _continuous_fits(train.grid, values[:, :n_train], context, continuous)
        models = [[] for _ in range(B)]
        for kind in kinds:
            if kind in fits:
                const, gain, seconds, details = fits[kind]
                for b in range(B):
                    models[b].append(FittedModel(kind, const[b], gain[b], seconds, details[b]))
                continue
            for b, v in enumerate(values):
                head = train if b == 0 else SampledPath(grid=train.grid, values=v[:n_train])
                models[b].append(fit_benchmark(kind, head, context))
    except (GrouError, ValueError, _StackFault):
        return [
            _one_by_one(SampledPath(grid=grid, values=v), n_train, context, kinds) for v in values
        ]
    previous = np.ascontiguousarray(values[:, n_train - 1 : -1])
    realized = np.ascontiguousarray(values[:, n_train:])
    reports = [[] for _ in range(B)]
    for j, kind in enumerate(kinds):
        start = time.perf_counter()
        gain = np.stack([m[j].gain for m in models])
        const = np.stack([m[j].const for m in models])
        preds = previous @ gain.transpose(0, 2, 1) + const[:, None, :]
        predict_seconds = (time.perf_counter() - start) / B
        rmse, dir_acc = _metrics(kind, realized, previous, preds)
        for b in range(B):
            reports[b].append(
                MetricReport(
                    kind, float(rmse[b]), float(dir_acc[b]), models[b][j].fit_seconds,
                    predict_seconds,
                )
            )
    return list(zip(models, reports))


def _one_by_one(path, n_train, context, kinds):
    """``(models, reports)`` of one path, each kind fitted on its own by :func:`fit_benchmark`."""
    train = path.section(0, n_train)
    if context.triplet is None and _CONTINUOUS_KINDS.intersection(kinds):
        context = replace(context, triplet=estimate_triplet(train, context.policy))
    models = [fit_benchmark(kind, train, context) for kind in kinds]
    return models, evaluate(models, path, range(n_train, path.n_points))


def _continuous_fits(grid, heads, context, kinds):
    """The OU, MCAR and grOU fits among ``kinds`` on a stack of training sections.

    ``heads`` is ``(B, n, K)`` on ``grid``.  Returns, per kind, ``(const,
    gain, seconds, details)``: the stacked one-step maps, the seconds
    charged to each path and each path's :class:`EstimationResult`.  Raises
    :class:`_StackFault` where some path's triplet, precision or ridge
    solve fails.
    """
    if not kinds:
        return {}
    B, _, K = heads.shape
    lags, stages = context.shape
    lags, stages = int(lags), tuple(int(r) for r in stages)
    triplet, policy = context.triplet, context.policy
    if triplet is None:
        policy = ThresholdPolicy() if policy is None else policy
        raw, spacings = _triplet_increments(heads, grid)
        live, factored, parts, prec = _noise_precisions(raw, spacings, policy)
        del raw
        if not (live.all() and factored.all()):
            raise _StackFault
        mean_rate, sigma, corrected, small, total_time = parts
        triplets = [
            _levy_spec(mean_rate[b], sigma[b], corrected[b], small[b].all(axis=-1), total_time)
            for b in range(B)
        ]
        # the triplet's drift correction and sub-threshold mask truncate the
        # lag-1 increments: np.where(small, corrected, 0.0), in place
        corrected[~small] = 0.0
        by_lags = {1: (corrected, small, spacings)}
    else:
        policy = ThresholdPolicy.for_noise(triplet) if policy is None else policy
        mean_rate = np.broadcast_to(triplet.mean_rate, (B, K))
        prec = np.broadcast_to(_triplet_precision(triplet), (B, K, K))
        triplets = [triplet] * B
        by_lags = {}
    drifts = "OU" in kinds or "GROU" in kinds
    # the thresholded increments at each lag count a fit takes
    needed = ({lags} if drifts else set()) | ({1} if "MCAR" in kinds else set())
    for l in needed - by_lags.keys():
        _, _, raw_l, spacings_l = _coarse_increments(heads, grid, l)
        out = _truncate(raw_l, spacings_l, mean_rate, policy)
        by_lags[l] = (out.values, out.kept, spacings_l)

    diag = grid_diagnostics(grid)
    h = grid.mesh_fine
    fits = {}

    def solve(kind, info, score, ridge, shape, l, maps, started):
        """Solve a stack of fits at ``l`` lags and record its maps, time and results."""
        info = _symmetrized(info)
        theta, ridges = _solve_with_ridge(info, score, ridge)
        if np.isnan(ridges).any():
            raise _StackFault
        gain, const = maps(theta)
        _, kept, spacings_l = by_lags[l]
        details = [
            _result(theta[b], score[b], info[b], ridges[b], spacings_l.size,
                    {**diag, "kept_fraction": float(kept[b].mean())}, triplets[b],
                    "mcar" if shape is None else "grou", shape, K)
            for b in range(B)
        ]
        fits[kind] = (const, gain, (time.perf_counter() - started) / B, details)

    derivs = None
    if drifts:
        fit_stages = stages if "GROU" in kinds else (0,) * lags
        weights = context.weights if "GROU" in kinds else None
        derivs, aggregates = _regressors(heads, grid, weights, (lags, fit_stages))
        increments, _, spacings_l = by_lags[lags]
        started = time.perf_counter()
        info, score = _drift_statistics(
            derivs, aggregates, fit_stages, increments, spacings_l, prec
        )
        if "GROU" in kinds:
            matrices = () if weights is None else weights.matrices
            solve("GROU", info, score, None, (lags, stages), lags,
                  lambda theta: _one_step_maps(theta, matrices, (lags, stages), mean_rate, h),
                  started)
            started = time.perf_counter()
        if "OU" in kinds:
            # OU's statistics are the alpha blocks of grOU's
            ou_shape = (lags, (0,) * lags)
            alpha = np.concatenate(
                [sum(K + r for r in fit_stages[:l]) + np.arange(K) for l in range(lags)]
            )
            solve("OU", info[:, alpha[:, None], alpha], score[:, alpha], None, ou_shape, lags,
                  lambda theta: _one_step_maps(theta, (), ou_shape, mean_rate, h), started)
        del aggregates, info, score
    if "MCAR" in kinds:
        started = time.perf_counter()
        increments, _, spacings_1 = by_lags[1]
        if lags != 1 or derivs is None:
            derivs = _derivatives(heads, grid, 1)
        values = derivs[:, 0]
        info, score = _mcar_statistics(values, increments, spacings_1, prec)
        ridge = _MCAR_RIDGE_SCALE * np.trace(info, axis1=1, axis2=2) / info.shape[-1]
        solve("MCAR", info, score, ridge, None, 1,
              lambda theta: propagator(-theta.reshape(B, K, K), mean_rate, h), started)
    if _irregular(grid, diag["uniformity_fine"]):
        # one warning per fit and path, as each fit on its own warns
        for _ in range(B * len(kinds)):
            warnings.warn(_IRREGULAR, stacklevel=4)
    return fits


@dataclass(frozen=True)
class StudyConfig:
    """Monte Carlo study description.

    ``scenario`` is "correct" or ("missing_edge", vertex-pair): the path is
    always simulated from the full graph, and a missing-edge scenario drops
    that edge (column and network node) from everything the models see.
    The driving noise is estimated from each path's training section, with
    the default threshold policy.
    """

    graph: EdgeGraph
    params: GrouParams
    noise: LevySpec
    n_paths: int = 200
    n_obs: int = 2187
    t_end: float = 2.0
    ratio: int = 1
    test_size: int = 400
    shape: tuple = (1, (1,))
    models: tuple = MODEL_KINDS
    scenario: object = "correct"
    seed: int = 0

    def __post_init__(self):
        # checked before any path is simulated: these would give an empty or all-NaN table
        _check_shape(*self.shape)
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 1 <= self.test_size <= self.n_obs - 2:
            raise ValueError(
                f"test_size must be in [1, n_obs - 2], got test_size={self.test_size} "
                f"with n_obs={self.n_obs}"
            )
        if isinstance(self.models, str) or not self.models:
            raise ValueError(
                f"models must be a non-empty list of model kinds, got {self.models!r}"
            )
        for kind in self.models:
            if not isinstance(kind, str) or kind.upper() not in MODEL_KINDS:
                raise ValueError(f"models: unknown kind {kind!r}; choose from {MODEL_KINDS}")


def predictive_study_config(sigma2: float = 10.0, scenario="correct", **overrides) -> StudyConfig:
    """Complete-graph five-vertex design with one dominant edge.

    The dominant edge (vertices 0-1) has autoregressive coefficient 5, all
    others 1; the single-stage network effect is 2; the noise is compound
    Poisson with unit rate and jump covariance ``sigma2 * I``.
    """
    graph = complete_graph(5)
    K = graph.n_edges
    alpha = np.full((1, K), 1.0)
    alpha[0, 0] = 5.0
    params = GrouParams(alpha, (np.array([2.0]),))
    noise = LevySpec(
        np.zeros(K), np.eye(K), CompoundPoissonJumps(rate=1.0, jump_cov=sigma2 * np.eye(K))
    )
    return StudyConfig(graph=graph, params=params, noise=noise, scenario=scenario, **overrides)


# At its peak a study's stack holds about this many arrays the size of its
# observed values: the values, the lag-1 increments, the regressors, the
# aggregates and a temporary of the drift statistics.  Counting each path
# that many times against _BATCH_CELLS bounds the whole stack, not each
# copy, by 4 MiB.  On the K=10 design, stacks of four paths raised the peak
# RSS of an eight-path study by 2.9 MB and one stack of eight by 6.1 MB, for
# 7% less time a path.
_STACK_COPIES = 5


def _scenario_columns(config: StudyConfig):
    """The graph the models see under ``config.scenario`` and the path columns they see."""
    columns = list(range(config.graph.n_edges))
    if config.scenario == "correct":
        return config.graph, columns
    kind, edge = config.scenario
    if kind != "missing_edge":
        raise ValueError(f"unknown scenario {config.scenario!r}")
    columns.remove(config.graph.edge_index(edge))
    return config.graph.drop_edge(edge), columns


def monte_carlo_study(config: StudyConfig) -> list[dict]:
    """Aggregate per-model metrics over simulated paths.

    Returns one row per model with mean and standard deviation of RMSE,
    directional accuracy, and total (fit + predict) seconds.  Path ``i`` is
    seeded from ``(config.seed, i)`` alone, and the paths run on one BLAS
    thread.  The paths come from one simulation plan and are scored in
    stacks of a few paths (``_STACK_COPIES``); a model's seconds on a path
    are its time on the path's stack divided by the paths in it.
    """
    max_stage = max(max(config.shape[1], default=0), 1)
    system = build_companion(config.params, weight_matrices(config.graph, max_stage))
    graph_fit, columns = _scenario_columns(config)
    ctx = BenchmarkContext(weights=weight_matrices(graph_fit, max_stage), shape=config.shape)
    mesh = config.t_end / (config.n_obs - 1)
    grid = make_uniform_grids(config.t_end, mesh, config.ratio)
    # the grid's horizon is snapped up to a whole coarse step, so a path may
    # run past n_obs; the study scores the test_size points before n_obs
    observed = grid_from_times(grid.fine[: config.n_obs], ratio=grid.ratio)
    seeds = [
        np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)) for i in range(config.n_paths)
    ]
    paths = simulate_paths(system, config.noise, grid, seeds)
    n_train = config.n_obs - config.test_size
    batches = list(_batches(seeds, _STACK_COPIES * config.n_obs * len(columns)))
    # one buffer for every stack, C-contiguous, as each path's own columns are
    buffer = np.empty((len(batches[0]), config.n_obs, len(columns)))
    all_reports = []
    with one_blas_thread():
        for batch in batches:
            values = buffer[: len(batch)]
            for v in values:
                v[:] = next(paths).values[: config.n_obs, columns]
            all_reports += [
                reports for _, reports in _score_stack(observed, values, n_train, ctx, config.models)
            ]

    rows = []
    for j, kind in enumerate(config.models):
        rmse = np.array([reports[j].rmse for reports in all_reports])
        dacc = np.array([reports[j].dir_acc for reports in all_reports])
        secs = np.array(
            [reports[j].fit_seconds + reports[j].predict_seconds for reports in all_reports]
        )
        rows.append(
            {
                "model": kind,
                "rmse_mean": float(rmse.mean()),
                "rmse_sd": float(rmse.std(ddof=1)) if rmse.size > 1 else 0.0,
                "diracc_mean": float(dacc.mean()),
                "diracc_sd": float(dacc.std(ddof=1)) if dacc.size > 1 else 0.0,
                "time_mean": float(secs.mean()),
                "time_sd": float(secs.std(ddof=1)) if secs.size > 1 else 0.0,
            }
        )
    return rows


def study_rows_to_csv(rows, file, header_lines=()) -> None:
    """Table in the study-report layout: one row per model, mean(sd) columns."""
    cols = ["model", "rmse_mean", "rmse_sd", "diracc_mean", "diracc_sd", "time_mean", "time_sd"]
    with open(file, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            out = [row["model"]]
            out += [f"{row[c]:.17g}" for c in cols[1:]]
            fh.write(",".join(out) + "\n")
