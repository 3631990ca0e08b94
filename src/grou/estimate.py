"""Discretized maximum-likelihood estimation of the drift parameters.

The estimator works on two grids: forward finite differences recover the
unobserved derivative states on the fine grid, while the score and
information statistics accumulate over the coarser sub-grid,

    score  = - sum_m H_m S c_m,
    info   =   sum_m dt_m H_m S H_m^T,

where ``c_m`` is the drift-corrected, jump-truncated increment of the
highest derivative over the m-th coarse interval, ``dt_m`` its length,
``H_m`` stacks the per-edge and neighborhood regressors at the left
endpoint, and ``S`` is the inverse of the Brownian covariance of the
driving noise, taken from one Cholesky factorization.  The drift estimate
solves ``(info + ridge*I) theta = score``.

The stacks are never formed.  Each ``H_m`` is structured: lag l
contributes the diagonal ``diag(D_l[m])`` of the matching derivative and
one row ``A_q[m] = D_l[m] W_r^T`` per neighborhood stage, so ``info`` is
built from K-by-K weighted Gram matrices, ``S o (D_l^T diag(dt) D_l')``
between diagonal blocks and dt-weighted sums of ``(A S)[m]`` against
``D_l[m]`` and ``A'[m]`` for the aggregate rows.  For an unrestricted
drift ``H_m = I_K kron x_m``, which gives ``info = S kron (X^T diag(dt) X)``
and ``score = -vec(S C^T X)``.  For M coarse intervals and a fixed shape
either costs O(M K^2), where contracting the (M, p, K) stacks costs
O(M K p^2).

Jump truncation keeps a component only when the corrected increment stays
within ``spacing**beta_exp``; admissible exponents depend on whether the
jump activity is finite or infinite.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigurationError, EstimationError, SingularityError
from .graphs import WeightMatrices
from .model import GrouParams
from .noise import CompoundPoissonJumps, LevySpec
from .simulate import SampledPath

__all__ = [
    "ThresholdPolicy",
    "ThresholdedIncrements",
    "EstimationResult",
    "finite_differences",
    "threshold_increments",
    "estimate_drift",
    "estimate_mcar",
    "estimate_triplet",
    "grid_diagnostics",
]

# Admissible exponent intervals are (0, 1/2) for finite jump activity and
# (0, 1/4) for infinite activity.  The defaults sit low in those intervals:
# with coarse meshes of practical size, larger exponents put the cutoff so
# close to the diffusive scale that censoring visibly attenuates the drift
# signal, while these values keep the censored mass negligible and still
# remove order-one jumps.
FINITE_BETA_DEFAULT = 0.2
INFINITE_BETA_DEFAULT = 0.1

_RIDGE_SCALE_DEFAULT = 1e-8
_RIDGE_ESCALATIONS = 30
_STAYED_SINGULAR = "information matrix stayed singular under ridge escalation"
_ALL_EXCEED = "every coarse increment exceeds the threshold"
_IRREGULAR = "observation grids are irregular; estimator uses actual spacings"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-component jump-truncation rule ``cutoff = spacing**beta_exp``."""

    beta_exp: np.ndarray
    activity: str = "finite"

    def __init__(self, beta_exp=None, activity="finite"):
        if activity not in ("finite", "infinite"):
            raise ValueError(f"activity must be 'finite' or 'infinite', got {activity!r}")
        upper = 0.5 if activity == "finite" else 0.25
        if beta_exp is None:
            beta_exp = FINITE_BETA_DEFAULT if activity == "finite" else INFINITE_BETA_DEFAULT
        beta_exp = np.atleast_1d(np.asarray(beta_exp, dtype=float))
        if np.any(beta_exp <= 0) or np.any(beta_exp >= upper):
            raise ValueError(
                f"beta_exp must lie in (0, {upper}) for {activity} activity, got {beta_exp}"
            )
        object.__setattr__(self, "beta_exp", beta_exp)
        object.__setattr__(self, "activity", activity)

    @classmethod
    def for_noise(cls, spec: LevySpec) -> "ThresholdPolicy":
        return cls(activity=spec.activity)

    def thresholds(self, spacings, n_components: int) -> np.ndarray:
        """Cutoff matrix, one row per interval and one column per component."""
        spacings = np.asarray(spacings, dtype=float)
        beta = self.beta_exp
        if beta.size == 1:
            beta = np.full(n_components, beta[0])
        elif beta.size != n_components:
            raise ValueError(f"need {n_components} exponents, got {beta.size}")
        return spacings[:, None] ** beta[None, :]


def finite_differences(path: SampledPath, order_l: int) -> np.ndarray:
    """Forward finite differences of the given order on the fine grid.

    Order zero returns the values themselves; order ``l`` divides successive
    differences by the local fine spacing and shortens the output by one row
    per order.
    """
    if order_l < 0:
        raise ValueError("order must be >= 0")
    values = path.values
    if values.shape[0] <= order_l:
        raise ValueError(
            f"need more than {order_l} points for order-{order_l} differences, "
            f"have {values.shape[0]}"
        )
    dts = np.diff(path.grid.fine)
    out = values
    for _ in range(order_l):
        m = out.shape[0] - 1
        out = (out[1:] - out[:-1]) / dts[:m, None]
    return out


def _estimation_window(path: SampledPath, lags: int):
    """Coarse positions usable for a model with ``lags`` lags.

    Returns the fine indices of the usable coarse points; the left endpoint
    of the last usable coarse interval is capped so every regressor stays
    inside the domain of the order-(lags-1) finite differences.
    """
    n_intervals = path.grid.fine.size - 1
    idx = path.grid.coarse_idx
    usable = idx[idx <= n_intervals - lags]
    if usable.size < 2:
        raise EstimationError(
            f"grid leaves {usable.size} usable coarse points for lags={lags}; need >= 2"
        )
    return usable


@dataclass(frozen=True)
class ThresholdedIncrements:
    """Drift-corrected, jump-truncated coarse increments."""

    values: np.ndarray
    kept: np.ndarray
    thresholds: np.ndarray
    spacings: np.ndarray

    @property
    def kept_fraction(self) -> float:
        return float(self.kept.mean())


def _coarse_increments(path, lags):
    idx = _estimation_window(path, lags)
    top = finite_differences(path, lags - 1)
    dvals = top[idx]
    times = path.grid.fine[idx]
    spacings = np.diff(times)
    return idx, dvals, np.diff(dvals, axis=0), spacings


def threshold_increments(
    path: SampledPath, policy: ThresholdPolicy, triplet: LevySpec, lags: int = 1
) -> ThresholdedIncrements:
    """Apply the drift correction and jump-truncation rule per coarse interval.

    Component i of interval m survives when
    ``|increment_i - b_i * spacing| <= spacing**beta_i``; censored components
    are zeroed, not dropped.
    """
    _, _, raw, spacings = _coarse_increments(path, lags)
    return _truncate(raw, spacings, triplet.mean_rate, policy)


def _truncate(raw, spacings, mean_rate, policy):
    """The rule of :func:`threshold_increments` on raw coarse increments, column by column.

    ``raw`` is ``(M, K)`` with ``mean_rate`` ``(K,)``, or a stack ``(..., M, K)``
    with ``mean_rate`` ``(..., K)``.
    """
    corrected = raw - mean_rate[..., None, :] * spacings[:, None]
    cuts = policy.thresholds(spacings, raw.shape[-1])
    kept = np.abs(corrected) <= cuts
    return ThresholdedIncrements(
        values=np.where(kept, corrected, 0.0), kept=kept, thresholds=cuts, spacings=spacings
    )


def _regressors(path: SampledPath, weights: WeightMatrices | None, shape):
    """Regressor blocks at the left ends of the usable coarse intervals.

    Returns ``(derivs, aggregates)``: ``derivs[l - 1]`` is the derivative
    paired with lag l (lag 1 with the highest finite difference, lag L with
    the raw values), shape ``(L, M, K)``; ``aggregates`` stacks the
    neighborhood aggregates ``derivs[l - 1] @ W_r^T``, lag by lag and stage
    by stage, shape ``(sum(R), M, K)``.  This is the one definition of the
    regressors behind every fit.
    """
    lags, stages = shape
    stages = tuple(int(r) for r in stages)
    _check_shape(lags, stages)
    K = path.n_edges
    max_stage = max(stages, default=0)
    if max_stage > 0:
        if weights is None or weights.max_stage < max_stage:
            raise ConfigurationError(f"need weight matrices up to stage {max_stage}")
        if weights.n_edges != K:
            raise ConfigurationError(
                f"weights are for {weights.n_edges} edges, path has {K}"
            )
    derivs = _derivatives(path, lags)
    return derivs, _aggregates(derivs, () if weights is None else weights.matrices, stages)


def _check_shape(lags, stages):
    if len(stages) != lags:
        raise ConfigurationError(f"shape mismatch: {lags} lags but {len(stages)} stage counts")


def _derivatives(path: SampledPath, lags: int) -> np.ndarray:
    """The ``derivs`` of :func:`_regressors`, shape ``(L, M, K)``."""
    points = _estimation_window(path, lags)[:-1]
    return np.stack([finite_differences(path, lags - l)[points] for l in range(1, lags + 1)])


def _aggregates(derivs, matrices, stages) -> np.ndarray:
    """Neighborhood aggregates ``derivs[l] @ W_r^T``, lag by lag and stage by stage.

    ``derivs`` is ``(..., L, M, K)`` and ``matrices[r - 1]`` holds ``W_r``, one
    matrix or a stack ``(..., K, K)`` matching the leading axes of ``derivs``;
    the result is ``(..., sum(R), M, K)``.
    """
    parts = [
        derivs[..., l, :, :] @ np.swapaxes(matrices[r], -1, -2)
        for l in range(len(stages))
        for r in range(stages[l])
    ]
    if not parts:
        return np.zeros(derivs.shape[:-3] + (0,) + derivs.shape[-2:])
    return np.stack(parts, axis=-3)


@dataclass(frozen=True)
class EstimationResult:
    """Output of a drift fit.

    ``structure`` is "grou" (structured alpha/beta drift) or "mcar"
    (unrestricted drift matrix); ``theta_hat`` is laid out accordingly.
    """

    theta_hat: np.ndarray
    score: np.ndarray
    info: np.ndarray
    loglik: float
    bic: float
    n_coarse: int
    ridge_used: float
    triplet_used: LevySpec
    structure: str
    shape: tuple | None
    n_edges: int
    diagnostics: dict

    @property
    def params(self) -> GrouParams:
        if self.structure != "grou":
            raise ValueError(f"no structured parameters for {self.structure!r} fits")
        lags, stages = self.shape
        return GrouParams.unflatten(self.theta_hat, lags, stages, self.n_edges)

    @property
    def drift_matrix(self) -> np.ndarray:
        """Fitted lag-1 coefficient matrix of an unrestricted fit."""
        if self.structure != "mcar":
            raise ValueError(f"no drift matrix for {self.structure!r} fits")
        return self.theta_hat.reshape(self.n_edges, self.n_edges)

    def to_json_dict(self) -> dict:
        doc = {
            "structure": self.structure,
            "theta": self.theta_hat.tolist(),
            "loglik": self.loglik,
            "bic": self.bic,
            "n_coarse": self.n_coarse,
            "ridge": self.ridge_used,
            "n_edges": self.n_edges,
            "diagnostics": self.diagnostics,
            "triplet": json.loads(self.triplet_used.to_json()),
        }
        if self.structure == "grou":
            lags, stages = self.shape
            params = self.params
            doc["shape"] = {"L": lags, "R": list(stages)}
            doc["alpha"] = params.alpha.tolist()
            doc["beta"] = [b.tolist() for b in params.beta]
        return doc


def _working_covariance(triplet: LevySpec) -> np.ndarray:
    sigma = np.asarray(triplet.brownian_cov, dtype=float)
    return _jittered(sigma, np.linalg.eigvalsh(sigma))


def _jittered(sigma, eigenvalues):
    """``sigma + 1e-8 * max(lambda_max, 1) * I`` where ``lambda_min`` is at or below that floor.

    ``eigenvalues`` are those of ``sigma``; both may carry leading stack axes.
    """
    floor = 1e-8 * np.maximum(eigenvalues.max(axis=-1), 1.0)
    low = eigenvalues.min(axis=-1) <= floor
    jittered = sigma + floor[..., None, None] * np.eye(sigma.shape[-1])
    return np.where(low[..., None, None], jittered, sigma)


def _solve_with_ridge(info, score, ridge):
    """Solve (info + ridge*I) theta = score, escalating an automatic ridge.

    ``ridge=None`` starts from a trace-scaled value and multiplies by ten
    until the regularized matrix admits a Cholesky factorization; an
    explicit ridge is used as given and failure raises.
    """
    p = info.shape[0]
    eye = np.eye(p)
    if ridge is not None:
        try:
            factor = cho_factor(info + float(ridge) * eye)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(
                f"information matrix not positive definite at ridge={ridge}"
            ) from exc
        return cho_solve(factor, score), float(ridge)
    base = _RIDGE_SCALE_DEFAULT * max(np.trace(info) / p, np.finfo(float).tiny)
    value = base
    for _ in range(_RIDGE_ESCALATIONS):
        try:
            factor = cho_factor(info + value * eye)
            return cho_solve(factor, score), float(value)
        except np.linalg.LinAlgError:
            value *= 10.0
    raise SingularityError(_STAYED_SINGULAR)


def _solve_with_ridge_stack(info, score):
    """The automatic ridge of :func:`_solve_with_ridge` over a stack of fits.

    ``info`` is ``(G, p, p)`` and ``score`` ``(G, p)``.  Only the fits whose
    regularized matrix fails to factorize escalate, tenfold per round.
    Returns ``theta``, with NaN rows where every escalation failed.
    """
    p = info.shape[-1]
    eye = np.eye(p)
    value = _RIDGE_SCALE_DEFAULT * np.maximum(
        np.trace(info, axis1=-2, axis2=-1) / p, np.finfo(float).tiny
    )
    theta = np.full(score.shape, np.nan)
    todo = np.arange(info.shape[0])
    for _ in range(_RIDGE_ESCALATIONS):
        regularized = info[todo] + value[todo, None, None] * eye
        ok = _factorable(regularized)
        solved = todo[ok]
        theta[solved] = np.linalg.solve(regularized[ok], score[solved, :, None])[..., 0]
        todo = todo[~ok]
        if todo.size == 0:
            break
        value[todo] *= 10.0
    return theta


def _factorable(stack) -> np.ndarray:
    """Which matrices of a stack admit a Cholesky factorization."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        if stack.shape[0] == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_factorable(stack[g : g + 1]) for g in range(stack.shape[0])])
    return np.ones(stack.shape[0], dtype=bool)


def grid_diagnostics(grid) -> dict:
    """Realized values of the grid-asymptotics ratios plus uniformity.

    The estimator is consistent along grid sequences with
    ``t * coarse_mesh -> 0`` and ``fine_mesh = o(coarse_mesh^2 / t)``; for a
    single dataset these can only be reported, not asserted.
    """
    t = grid.t_end
    fine, coarse = grid.mesh_fine, grid.mesh_coarse
    return {
        "t_end": t,
        "mesh_fine": fine,
        "mesh_coarse": coarse,
        "t_times_coarse_mesh": t * coarse,
        "fine_mesh_times_t_over_coarse_sq": fine * t / coarse**2,
        "uniformity_fine": grid.uniformity_fine,
        "uniformity_coarse": grid.uniformity_coarse,
    }


def _precision(triplet: LevySpec) -> np.ndarray:
    """Inverse of the working covariance from a single Cholesky factorization."""
    sigma = _working_covariance(triplet)
    return cho_solve(cho_factor(sigma), np.eye(sigma.shape[0]))


def _drift_statistics(derivs, aggregates, stages, increments, spacings, prec):
    """Information matrices and scores of a stack of structured drift fits, in parameter order.

    Every input but ``spacings`` carries a leading axis of G fits that share
    one coarse grid and one shape: ``derivs`` ``(G, L, M, K)``, ``aggregates``
    ``(G, Q, M, K)``, ``increments`` ``(G, M, K)``, ``prec`` ``(G, K, K)``.
    With ``D_l`` the lag-l derivative rows, ``A_q`` the aggregate rows,
    ``C`` the thresholded increments and ``S`` the precision, each fit gets

        diagonal x diagonal   S o (D_l^T diag(dt) D_l')
        diagonal x aggregate  sum_m dt_m D_l[m] o (A_q S)[m]
        aggregate x aggregate sum_m dt_m (A_q S)[m] . A_q'[m]
        score                 -sum_m D_l[m] o (C S)[m],  -sum_m A_q[m] . (C S)[m]

    Each fit's products run on its own slice, so a stack gives bit for bit
    what its fits give one at a time.
    """
    G, L, M, K = derivs.shape
    Q = aggregates.shape[1]
    wide = derivs.transpose(0, 2, 1, 3).reshape(G, M, L * K)
    weighted_aggs = aggregates @ prec[:, None] * spacings[:, None]
    inc_prec = increments @ prec
    cross = np.einsum("glmk,gqmk->glkq", derivs, weighted_aggs).reshape(G, L * K, Q)
    flat_aggs = aggregates.reshape(G, Q, M * K)
    info = np.block(
        [
            [
                np.tile(prec, (1, L, L)) * ((wide * spacings[:, None]).transpose(0, 2, 1) @ wide),
                cross,
            ],
            [
                cross.transpose(0, 2, 1),
                weighted_aggs.reshape(G, Q, M * K) @ flat_aggs.transpose(0, 2, 1),
            ],
        ]
    )
    score = -np.concatenate(
        [
            np.einsum("glmk,gmk->glk", derivs, inc_prec).reshape(G, L * K),
            (flat_aggs @ inc_prec.reshape(G, M * K, 1))[..., 0],
        ],
        axis=1,
    )
    # the statistics come out grouped as [all diagonal blocks | all
    # aggregates]; GrouParams.flatten's layout interleaves them lag by lag
    order = GrouParams(
        np.arange(L * K).reshape(L, K),
        np.split(np.arange(L * K, L * K + Q), np.cumsum(stages)[:-1]),
    ).flatten().astype(int)
    return info[:, order[:, None], order], score[:, order]


def _mcar_statistics(values, increments, spacings, prec):
    """``info = S kron (X^T diag(dt) X)`` and ``score = -vec(S C^T X)``."""
    gram = (values * spacings[:, None]).T @ values
    return np.kron(prec, gram), -(prec @ (increments.T @ values)).reshape(-1)


def _bic(theta, info, n_coarse) -> float:
    return float(-theta @ info @ theta + theta.size * np.log(n_coarse))


def _irregular(grid, uniformity_fine) -> bool:
    """Whether a fit on ``grid`` warns that its grids are irregular (``uniformity_fine`` is the grid's)."""
    # data-driven grids routinely end on a shorter coarse interval (the
    # series length is rarely a whole number of coarse steps); that stub is
    # harmless, so judge coarse uniformity on the interior spacings
    coarse_steps = np.diff(grid.coarse)
    interior = coarse_steps[:-1] if coarse_steps.size > 1 else coarse_steps
    coarse_uniform = (
        interior.min() / interior.max() >= 0.99
        and coarse_steps[-1] <= interior.max() * 1.01
    )
    return uniformity_fine < 0.99 or not coarse_uniform


def _finish(info, score, thresholded, path, triplet, ridge, structure, shape):
    info = 0.5 * (info + info.T)
    theta, ridge_used = _solve_with_ridge(info, score, ridge)
    loglik = float(theta @ score - 0.5 * theta @ info @ theta)
    n_coarse = thresholded.spacings.size
    bic = _bic(theta, info, n_coarse) if n_coarse > 1 else float("nan")
    diag = grid_diagnostics(path.grid)
    diag["kept_fraction"] = thresholded.kept_fraction
    if _irregular(path.grid, diag["uniformity_fine"]):
        warnings.warn(_IRREGULAR, stacklevel=3)
    return EstimationResult(
        theta_hat=theta,
        score=score,
        info=info,
        loglik=loglik,
        bic=bic,
        n_coarse=n_coarse,
        ridge_used=ridge_used,
        triplet_used=triplet,
        structure=structure,
        shape=shape,
        n_edges=path.n_edges,
        diagnostics=diag,
    )


def estimate_drift(
    path: SampledPath,
    weights: WeightMatrices | None,
    shape,
    triplet: LevySpec,
    policy: ThresholdPolicy | None = None,
    ridge: float | None = None,
) -> EstimationResult:
    """Fit structured drift parameters by the discretized likelihood.

    Parameters
    ----------
    shape : (lags, stage-counts)
        Model order, e.g. ``(1, [1])`` or ``(2, [1, 1])``.
    triplet : LevySpec
        Driving-noise description (known or previously estimated); its
        Brownian covariance weights the statistics and its drift centers
        the increments.
    ridge : float or None
        None selects a trace-scaled ridge and escalates it tenfold until
        the regularized information matrix is positive definite.
    """
    if policy is None:
        policy = ThresholdPolicy.for_noise(triplet)
    lags, stages = shape
    shape = (int(lags), tuple(int(r) for r in stages))
    derivs, aggregates = _regressors(path, weights, shape)
    thresholded = threshold_increments(path, policy, triplet, lags=shape[0])
    (info,), (score,) = _drift_statistics(
        derivs[None], aggregates[None], shape[1], thresholded.values[None],
        thresholded.spacings, _precision(triplet)[None],
    )
    return _finish(info, score, thresholded, path, triplet, ridge, "grou", shape)


def estimate_mcar(
    path: SampledPath,
    triplet: LevySpec,
    policy: ThresholdPolicy | None = None,
    ridge_scale: float | None = None,
) -> EstimationResult:
    """Fit an unrestricted one-lag drift matrix (K*K free parameters).

    ``ridge_scale`` fixes the ridge as a fraction of the mean
    information-diagonal (None takes the automatic one); the unrestricted
    fit has K*K free parameters and usually wants more shrinkage than the
    structured one.
    """
    if policy is None:
        policy = ThresholdPolicy.for_noise(triplet)
    values = _regressors(path, None, (1, (0,)))[0][0]
    thresholded = threshold_increments(path, policy, triplet, lags=1)
    info, score = _mcar_statistics(
        values, thresholded.values, thresholded.spacings, _precision(triplet)
    )
    ridge = None if ridge_scale is None else ridge_scale * np.trace(info) / info.shape[0]
    return _finish(info, score, thresholded, path, triplet, ridge, "mcar", None)


def estimate_triplet(
    path: SampledPath,
    policy: ThresholdPolicy | None = None,
    lags: int = 1,
    min_increments: int = 100,
) -> LevySpec:
    """Estimate the driving-noise triplet from thresholded coarse increments.

    The Brownian covariance is the realized covariance of the small
    (drift-corrected, sub-threshold in every component) increments scaled
    by total time; the drift is the per-unit-time mean of per-component
    small increments; exceedance increments contribute a compound-Poisson
    second moment split into an arrival rate and a jump covariance.

    This stage intentionally reuses only quantities the thresholding rule
    already defines, so its fidelity is limited to second moments.
    """
    if policy is None:
        policy = ThresholdPolicy()
    b_hat, corrected, small, total_time = _small_increments(path, policy, lags, min_increments)
    joint_small = small.all(axis=1)
    if not joint_small.any():
        raise EstimationError(_ALL_EXCEED)
    kept = corrected[joint_small]
    sigma_hat = kept.T @ kept / total_time

    jumps = None
    exceed = ~joint_small
    if exceed.any():
        exceeding = corrected[exceed]
        second_moment = exceeding.T @ exceeding / total_time
        rate_hat = float(exceed.sum()) / total_time
        jumps = CompoundPoissonJumps(rate=rate_hat, jump_cov=second_moment / rate_hat)
    return LevySpec(b_hat, 0.5 * (sigma_hat + sigma_hat.T), jumps)


def _small_increments(path, policy, lags=1, min_increments=100):
    """The column-by-column part of :func:`estimate_triplet`.

    Returns ``(b_hat, corrected, small, total_time)``: the per-component
    drift, the drift-corrected coarse increments, their sub-threshold mask
    and the time they span.  No column's values depend on another's.
    """
    _, _, raw, spacings = _coarse_increments(path, lags)
    if raw.shape[0] < min_increments:
        raise EstimationError(
            f"triplet estimation needs >= {min_increments} coarse increments, "
            f"have {raw.shape[0]}"
        )
    cuts = policy.thresholds(spacings, path.n_edges)
    total_time = float(spacings.sum())
    small0 = np.abs(raw) <= cuts
    b_hat = (raw * small0).sum(axis=0) / total_time
    corrected = raw - b_hat[None, :] * spacings[:, None]
    return b_hat, corrected, np.abs(corrected) <= cuts, total_time
