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
from scipy.linalg import LinAlgWarning, solve

from .errors import ConfigurationError, EstimationError, SingularityError
from .graphs import WeightMatrices
from .model import GrouParams
from .noise import CompoundPoissonJumps, LevySpec, _psd_spectrum
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

# the fewest coarse increments a triplet estimate accepts, on any columns
_MIN_INCREMENTS = 100

_RIDGE_SCALE_DEFAULT = 1e-8
_RIDGE_ESCALATIONS = 30
_STAYED_SINGULAR = "information matrix stayed singular under ridge escalation"
_ALL_EXCEED = "every coarse increment exceeds the threshold"
_NO_PRECISION = "working covariance is not positive definite"
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
    return _differences(path.values, path.grid.fine, order_l)


def _differences(values, fine, order_l):
    """:func:`finite_differences` of ``values`` ``(..., n, K)`` on the fine times ``fine``.

    Leading axes give a stack of paths on one grid, each differenced as on its own.
    """
    n = values.shape[-2]
    if n <= order_l:
        raise ValueError(
            f"need more than {order_l} points for order-{order_l} differences, have {n}"
        )
    dts = np.diff(fine)
    out = values
    for _ in range(order_l):
        m = out.shape[-2] - 1
        out = (out[..., 1:, :] - out[..., :-1, :]) / dts[:m, None]
    return out


def _estimation_window(grid, lags: int):
    """Coarse positions of ``grid`` usable for a model with ``lags`` lags.

    Returns the fine indices of the usable coarse points; the left endpoint
    of the last usable coarse interval is capped so every regressor stays
    inside the domain of the order-(lags-1) finite differences.
    """
    n_intervals = grid.fine.size - 1
    idx = grid.coarse_idx
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


def _coarse_increments(values, grid, lags):
    """``(idx, dvals, raw, spacings)`` of values ``(..., n, K)`` on ``grid`` at ``lags`` lags.

    ``dvals`` holds the order-(lags-1) differences at the usable coarse
    points ``idx``, and ``raw`` their increments over intervals ``spacings``.
    """
    idx = _estimation_window(grid, lags)
    dvals = _differences(values, grid.fine, lags - 1)[..., idx, :]
    spacings = np.diff(grid.fine[idx])
    return idx, dvals, np.diff(dvals, axis=-2), spacings


def threshold_increments(
    path: SampledPath, policy: ThresholdPolicy, triplet: LevySpec, lags: int = 1
) -> ThresholdedIncrements:
    """Apply the drift correction and jump-truncation rule per coarse interval.

    Component i of interval m survives when
    ``|increment_i - b_i * spacing| <= spacing**beta_i``; censored components
    are zeroed, not dropped.
    """
    _, _, raw, spacings = _coarse_increments(path.values, path.grid, lags)
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


def _regressors(values, grid, weights: WeightMatrices | None, shape):
    """Regressor blocks at the left ends of the usable coarse intervals of ``grid``.

    Returns ``(derivs, aggregates)`` of the values ``(n, K)``:
    ``derivs[l - 1]`` is the derivative paired with lag l (lag 1 with the
    highest finite difference, lag L with the raw values), shape
    ``(L, M, K)``; ``aggregates`` stacks the neighborhood aggregates
    ``derivs[l - 1] @ W_r^T``, lag by lag and stage by stage, shape
    ``(sum(R), M, K)``.  A stack ``(..., n, K)`` of paths on ``grid`` gives
    stacks with the same leading axes.  This is the one definition of the
    regressors behind every fit.
    """
    lags, stages = shape
    stages = tuple(int(r) for r in stages)
    _check_shape(lags, stages)
    K = values.shape[-1]
    max_stage = max(stages, default=0)
    if max_stage > 0:
        if weights is None or weights.max_stage < max_stage:
            raise ConfigurationError(f"need weight matrices up to stage {max_stage}")
        if weights.n_edges != K:
            raise ConfigurationError(
                f"weights are for {weights.n_edges} edges, path has {K}"
            )
    derivs = _derivatives(values, grid, lags)
    return derivs, _aggregates(derivs, () if weights is None else weights.matrices, stages)


def _check_shape(lags, stages):
    """Reject a shape without a lag, with a negative stage count, or whose stage counts miss its lags."""
    if lags < 1 or any(r < 0 for r in stages):
        raise ConfigurationError(f"need L >= 1 and every R_l >= 0, got L={lags}, R={list(stages)}")
    if len(stages) != lags:
        raise ConfigurationError(f"shape mismatch: {lags} lags but {len(stages)} stage counts")


def _derivatives(values, grid, lags: int) -> np.ndarray:
    """The ``derivs`` of :func:`_regressors`, shape ``(..., L, M, K)``."""
    points = _estimation_window(grid, lags)[:-1]
    return np.stack(
        [_differences(values, grid.fine, lags - l)[..., points, :] for l in range(1, lags + 1)],
        axis=-3,
    )


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


def _solve_with_ridge(info, score, ridge=None):
    """Solve ``(info[g] + ridge_g * I) theta[g] = score[g]`` for a stack of fits.

    ``info`` is a ``(G, p, p)`` stack of symmetric matrices and ``score``
    ``(G, p)``.  ``ridge=None`` starts each fit from a trace-scaled ridge and
    multiplies it by ten until the regularized matrix admits a Cholesky
    factorization; only the fits that fail escalate.  An explicit ridge, one
    for all fits or one per fit, is used as given.  Returns ``(theta,
    ridges)``, with NaN in both for the fits whose matrix never factorized.
    Each fit gets the bits of ``cho_solve(cho_factor(...))`` on its own
    matrix.
    """
    # on other layouts the stacked trace sums the diagonals in another order
    info = np.ascontiguousarray(info)
    G, p = score.shape
    if ridge is None:
        tiny = np.finfo(float).tiny
        ridges = _RIDGE_SCALE_DEFAULT * np.maximum(np.trace(info, axis1=1, axis2=2) / p, tiny)
    else:
        ridges = np.broadcast_to(np.asarray(ridge, dtype=float), (G,)).copy()
    theta = np.full((G, p), np.nan)
    todo = np.arange(G)
    for _ in range(_RIDGE_ESCALATIONS if ridge is None else 1):
        solved, ok = _cholesky_solve(
            info[todo] + ridges[todo, None, None] * np.eye(p), score[todo, :, None]
        )
        theta[todo[ok]] = solved[ok, :, 0]
        todo = todo[~ok]
        if todo.size == 0:
            break
        ridges[todo] *= 10.0
    ridges[todo] = np.nan
    return theta, ridges


def _cholesky_solve(matrices, rhs):
    """``cho_solve(cho_factor(matrices[g]), rhs[g])`` for every slice of a stack, in one call.

    ``matrices`` is ``(G, n, n)`` and ``rhs`` ``(G, n, m)``.  The batched
    solve gives each slice the bits of its own factorization only on a
    C-contiguous stack.  Where a slice fails, the whole call fails, so the
    slices are then solved one by one.  Returns ``(x, ok)``: ``ok[g]`` is
    False, and ``x[g]`` NaN, where ``matrices[g]`` admits no Cholesky
    factorization.
    """
    matrices = np.ascontiguousarray(matrices)
    G = matrices.shape[0]
    if matrices.size == 1:
        # scipy divides a lone 1-by-1 system instead of factorizing it
        matrices = np.broadcast_to(matrices, (2, 1, 1))
        rhs = np.broadcast_to(rhs, (2, 1, rhs.shape[2]))
    try:
        with warnings.catch_warnings():
            # scipy warns where a factorized slice is ill-conditioned;
            # cho_solve, whose bits each slice gets, does not
            warnings.simplefilter("ignore", LinAlgWarning)
            return solve(matrices, rhs, assume_a="pos")[:G], np.ones(G, dtype=bool)
    except np.linalg.LinAlgError:
        if G == 1:
            return np.full((1,) + rhs.shape[1:], np.nan), np.zeros(1, dtype=bool)
    parts = [_cholesky_solve(matrices[g : g + 1], rhs[g : g + 1]) for g in range(G)]
    return np.concatenate([x for x, _ in parts]), np.concatenate([ok for _, ok in parts])


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


def _precision(covariance):
    """Inverses of a stack ``(G, K, K)`` of working covariances, one Cholesky factorization each.

    Returns ``(prec, ok)`` as :func:`_cholesky_solve` does.
    """
    eye = np.broadcast_to(np.eye(covariance.shape[-1]), covariance.shape)
    return _cholesky_solve(covariance, eye)


def _triplet_precision(triplet: LevySpec) -> np.ndarray:
    """The precision of ``triplet``'s working covariance."""
    (prec,), (ok,) = _precision(_working_covariance(triplet)[None])
    if not ok:
        raise np.linalg.LinAlgError(_NO_PRECISION)
    return prec


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
    flat_aggs = aggregates.reshape(G, Q, M * K)
    # each (G, M, K) temporary is released before the next is formed
    inc_prec = increments @ prec
    score = -np.concatenate(
        [
            np.einsum("glmk,gmk->glk", derivs, inc_prec).reshape(G, L * K),
            (flat_aggs @ inc_prec.reshape(G, M * K, 1))[..., 0],
        ],
        axis=1,
    )
    del inc_prec
    weighted_aggs = aggregates @ prec[:, None]
    weighted_aggs *= spacings[:, None]
    cross = np.einsum("glmk,gqmk->glkq", derivs, weighted_aggs).reshape(G, L * K, Q)
    agg_block = weighted_aggs.reshape(G, Q, M * K) @ flat_aggs.transpose(0, 2, 1)
    del weighted_aggs
    info = np.block(
        [
            [
                np.tile(prec, (1, L, L)) * ((wide * spacings[:, None]).transpose(0, 2, 1) @ wide),
                cross,
            ],
            [cross.transpose(0, 2, 1), agg_block],
        ]
    )
    # the statistics come out grouped as [all diagonal blocks | all
    # aggregates]; GrouParams.flatten's layout interleaves them lag by lag
    order = GrouParams(
        np.arange(L * K).reshape(L, K),
        np.split(np.arange(L * K, L * K + Q), np.cumsum(stages)[:-1]),
    ).flatten().astype(int)
    return info[:, order[:, None], order], score[:, order]


def _mcar_statistics(values, increments, spacings, prec):
    """``info = S kron (X^T diag(dt) X)`` and ``score = -vec(S C^T X)`` for a stack of fits.

    ``values`` and ``increments`` are ``(G, M, K)`` and ``prec`` ``(G, K, K)``;
    each fit's products run on its own slice, as in :func:`_drift_statistics`.
    """
    G, _, K = values.shape
    gram = (values * spacings[:, None]).transpose(0, 2, 1) @ values
    # S kron gram, element by element as np.kron forms it
    info = (prec[:, :, None, :, None] * gram[:, None, :, None, :]).reshape(G, K * K, K * K)
    return info, -(prec @ (increments.transpose(0, 2, 1) @ values)).reshape(G, K * K)


def _bic(theta, info, n_coarse) -> float:
    """Information criterion of a fitted drift (lower is better); NaN for ``n_coarse <= 1``."""
    if n_coarse <= 1:
        return float("nan")
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


def _solve_fits(info, score, ridge=None):
    """:func:`_solve_with_ridge` on the symmetrized ``info``, naming each failed fit's fault.

    Returns ``(info, theta, ridges, faults)``; ``faults`` maps the index of
    each fit that never factorized to the :class:`SingularityError` it
    raises on its own, which names the ridge it was given, if any.
    """
    info = np.ascontiguousarray(0.5 * (info + np.swapaxes(info, -1, -2)))
    theta, ridges = _solve_with_ridge(info, score, ridge)
    faults = {}
    for g in np.flatnonzero(np.isnan(ridges)).tolist():
        message = _STAYED_SINGULAR
        if ridge is not None:
            given = np.broadcast_to(ridge, ridges.shape)[g]
            message = f"information matrix not positive definite at ridge={given}"
        faults[g] = SingularityError(message)
    return info, theta, ridges, faults


def _finish(info, score, thresholded, path, triplet, ridge, structure, shape):
    (info,), (theta,), (ridge_used,), faults = _solve_fits(info[None], score[None], ridge)
    if faults:
        raise faults[0]
    diag = grid_diagnostics(path.grid)
    if _irregular(path.grid, diag["uniformity_fine"]):
        warnings.warn(_IRREGULAR, stacklevel=3)
    return _result(
        theta, score, info, ridge_used, thresholded.spacings.size,
        {**diag, "kept_fraction": thresholded.kept_fraction}, triplet, structure, shape,
        path.n_edges,
    )


def _result(theta, score, info, ridge_used, n_coarse, diagnostics, triplet, structure, shape,
            n_edges):
    """The :class:`EstimationResult` of a solved fit; ``info`` is symmetrized."""
    return EstimationResult(
        theta_hat=theta,
        score=score,
        info=info,
        loglik=float(theta @ score - 0.5 * theta @ info @ theta),
        bic=_bic(theta, info, n_coarse),
        n_coarse=n_coarse,
        ridge_used=float(ridge_used),
        triplet_used=triplet,
        structure=structure,
        shape=shape,
        n_edges=n_edges,
        diagnostics=diagnostics,
    )


def _check_ridge(name, value):
    """Reject a given ridge that is negative or not finite; None is the automatic one."""
    if value is not None and not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
        Model order, e.g. ``(1, [1])`` or ``(2, [1, 1])``: at least one
        lag, one stage count per lag and no negative count, else
        :class:`ConfigurationError`.
    triplet : LevySpec
        Driving-noise description (known or previously estimated); its
        Brownian covariance weights the statistics and its drift centers
        the increments.
    ridge : float or None
        None selects a trace-scaled ridge and escalates it tenfold until
        the regularized information matrix is positive definite.  A given
        ridge must be finite and >= 0.
    """
    _check_ridge("ridge", ridge)
    if policy is None:
        policy = ThresholdPolicy.for_noise(triplet)
    lags, stages = shape
    shape = (int(lags), tuple(int(r) for r in stages))
    derivs, aggregates = _regressors(path.values, path.grid, weights, shape)
    thresholded = threshold_increments(path, policy, triplet, lags=shape[0])
    (info,), (score,) = _drift_statistics(
        derivs[None], aggregates[None], shape[1], thresholded.values[None],
        thresholded.spacings, _triplet_precision(triplet)[None],
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
    structured one.  A given ``ridge_scale`` must be finite and >= 0.
    """
    _check_ridge("ridge_scale", ridge_scale)
    if policy is None:
        policy = ThresholdPolicy.for_noise(triplet)
    values = _regressors(path.values, path.grid, None, (1, (0,)))[0]
    thresholded = threshold_increments(path, policy, triplet, lags=1)
    (info,), (score,) = _mcar_statistics(
        values, thresholded.values[None], thresholded.spacings, _triplet_precision(triplet)[None]
    )
    ridge = None if ridge_scale is None else ridge_scale * np.trace(info) / info.shape[0]
    return _finish(info, score, thresholded, path, triplet, ridge, "mcar", None)


def estimate_triplet(
    path: SampledPath, policy: ThresholdPolicy | None = None, lags: int = 1
) -> LevySpec:
    """Estimate the driving-noise triplet from thresholded coarse increments.

    The Brownian covariance is the realized covariance of the small
    (drift-corrected, sub-threshold in every component) increments scaled
    by total time; the drift is the per-unit-time mean of per-component
    small increments; exceedance increments contribute a compound-Poisson
    second moment split into an arrival rate and a jump covariance.  The
    path needs at least 100 coarse increments (``_MIN_INCREMENTS``).

    This stage intentionally reuses only quantities the thresholding rule
    already defines, so its fidelity is limited to second moments.
    """
    if policy is None:
        policy = ThresholdPolicy()
    raw, spacings = _triplet_increments(path.values, path.grid, lags)
    b_hat, corrected, small, total_time = _small_increments(raw, spacings, policy)
    (sigma_hat,), (joint_small,) = _brownian_cov(corrected[None], small[None], total_time)
    if not joint_small.any():
        raise EstimationError(_ALL_EXCEED)
    return _levy_spec(b_hat, sigma_hat, corrected, joint_small, total_time)


def _levy_spec(b_hat, sigma_hat, corrected, joint_small, total_time):
    """The :class:`LevySpec` of one set's triplet, from :func:`_small_increments` and :func:`_brownian_cov`.

    The rows above any cutoff give the compound-Poisson part: their count
    per unit time is the rate and their second moment the jump covariance.
    """
    jumps = None
    exceed = ~joint_small
    if exceed.any():
        exceeding = corrected[exceed]
        second_moment = exceeding.T @ exceeding / total_time
        rate_hat = float(exceed.sum()) / total_time
        jumps = CompoundPoissonJumps(rate=rate_hat, jump_cov=second_moment / rate_hat)
    return LevySpec(b_hat, sigma_hat, jumps)


def _triplet_increments(values, grid, lags=1):
    """Raw coarse increments and spacings of a triplet estimate, at least ``_MIN_INCREMENTS``."""
    _, _, raw, spacings = _coarse_increments(values, grid, lags)
    if spacings.size < _MIN_INCREMENTS:
        raise EstimationError(
            f"triplet estimation needs >= {_MIN_INCREMENTS} coarse increments, "
            f"have {spacings.size}"
        )
    return raw, spacings


def _small_increments(raw, spacings, policy):
    """The column-by-column part of :func:`estimate_triplet`.

    ``raw`` holds the coarse increments of one set of columns, C-contiguous
    ``(M, K)``, or of a stack of sets, ``(G, M, K)``; the columns of a wider
    panel could sum in another order.  Returns ``(b_hat, corrected, small, total_time)``: the per-component
    drift, the drift-corrected increments, their sub-threshold mask and
    the time they span.
    """
    cuts = policy.thresholds(spacings, raw.shape[-1])
    total_time = float(spacings.sum())
    small0 = np.abs(raw) <= cuts
    b_hat = (raw * small0).sum(axis=-2) / total_time
    corrected = raw - b_hat[..., None, :] * spacings[:, None]
    return b_hat, corrected, np.abs(corrected) <= cuts, total_time


def _brownian_cov(corrected, small, total_time):
    """The joint part of :func:`estimate_triplet`, on a stack ``(G, M, K)`` of sets of columns.

    ``corrected`` (C-contiguous) and ``small`` come from
    :func:`_small_increments`.  Returns each set's symmetrized covariance of
    the rows below every cutoff (zero for a set without one) and the masks
    of those rows.  Only the sets whose rows all stay below share one
    stacked product (every screened set did on the benchmark fixtures); a
    set with rows above any cutoff (most single fits on jump paths) takes
    its own product of a copy of its kept rows.  Either way a set gets the
    bits of ``kept.T @ kept`` on its own.
    """
    joint_small = small.all(axis=-1)
    whole = joint_small.all(axis=-1)
    clean = corrected if whole.all() else corrected[whole]
    sigma_hat = np.empty(corrected.shape[:1] + corrected.shape[-1:] * 2)
    sigma_hat[whole] = np.swapaxes(clean, -1, -2) @ clean
    for g in np.flatnonzero(~whole).tolist():
        kept = corrected[g][joint_small[g]]
        sigma_hat[g] = kept.T @ kept
    sigma_hat /= total_time
    return 0.5 * (sigma_hat + np.swapaxes(sigma_hat, -1, -2)), joint_small


def _noise_precisions(raw, spacings, policy):
    """The noise triplets and their working precisions of a stack ``(G, M, K)`` of column sets.

    ``raw`` holds each set's lag-1 coarse increments, as
    :func:`_small_increments` takes them.  Returns ``(live, factored,
    (b_hat, sigma, corrected, small, total_time), prec)``: ``live[g]`` is
    False where set g has no row below every cutoff (its triplet estimate
    raises :data:`_ALL_EXCEED`), and ``factored``, one entry per live set,
    False where the working covariance admits no Cholesky factorization.
    The drifts ``b_hat``, Brownian covariances ``sigma``, corrected
    increments ``corrected`` and sub-threshold masks ``small`` (of
    :func:`_small_increments` and :func:`_brownian_cov`) and the
    precisions ``prec`` are those of the sets that are live and factored.
    Each set gets the bits of :func:`estimate_triplet` and of its
    triplet's precision on its own.
    """
    b_hat, corrected, small, total_time = _small_increments(raw, spacings, policy)
    sigma, joint_small = _brownian_cov(corrected, small, total_time)
    live = joint_small.any(axis=1)
    kept = live.copy()
    prec, factored = sigma[:0], np.zeros(0, dtype=bool)
    if live.any():
        prec, factored = _precision(
            _jittered(sigma[live], _psd_spectrum(sigma[live], "brownian_cov"))
        )
        kept[live] = factored
    if not kept.all():
        b_hat, sigma, corrected, small = b_hat[kept], sigma[kept], corrected[kept], small[kept]
    return live, factored, (b_hat, sigma, corrected, small, total_time), prec[factored]


# Cells (edges x rows) per stack of fits.  A stack holds a few copies of its
# fits' rows and regressors; the bound keeps each copy to 4 MiB however
# many fits share a stack.
_BATCH_CELLS = 1 << 19


def _batches(members, cells):
    """``members`` in stacks of at most ``_BATCH_CELLS`` cells, ``cells`` per member."""
    size = max(1, _BATCH_CELLS // cells)
    for start in range(0, len(members), size):
        yield members[start : start + size]
