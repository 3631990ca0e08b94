"""Drift parametrization, companion state space, and second-order moments.

The edge process with L autoregressive lags is represented through a linear
state-space system: the state stacks the process and its first L-1 (right)
derivatives, the transition matrix has identity super-diagonal blocks over a
negated bottom row of lag coefficient matrices, noise enters only the last
block, and the observation matrix reads off the first block.

Each lag coefficient matrix combines a per-edge diagonal with scaled
neighborhood matrices::

    Q_l = diag(alpha[l]) + sum_r beta[l][r] * W_r

Stationary moments come from one Schur-based Lyapunov solve.  A step of
length ``h`` takes one exponential of an augmented block (Van Loan 1978):
:func:`propagator` gives ``expm(h*T)`` and the drift integral
``int_0^h expm(u*T) du @ v``, :func:`cov_integral` the covariance integral
besides, so no quadrature is involved anywhere.

Every matrix exponential in the library goes through :func:`expm`, which
runs scipy's at one BLAS thread (see :func:`expm` for why).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as _scipy_expm
from scipy.linalg import solve_continuous_lyapunov

from ._blas import one_blas_thread
from .errors import ConfigurationError, SingularityError, StationarityError
from .graphs import WeightMatrices

__all__ = [
    "GrouParams",
    "CompanionSystem",
    "MomentSet",
    "build_companion",
    "is_hurwitz",
    "companion_inverse",
    "stationary_moments",
    "conditional_moments",
    "lyapunov_solve",
    "cov_integral",
    "propagator",
]

HURWITZ_MARGIN = 1e-10
# the largest h |min Re lambda| at which cov_integral reads the integral off
# its block exponential
_BLOCK_CUTOFF = 15.0


def expm(matrix: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of one matrix or a stack, run at one BLAS thread.

    Every scipy exponential, even of one 2x2 matrix, wakes the worker thread
    of scipy's bundled OpenBLAS, which then spins for ~0.1-0.2 s, and a pin
    entered afterwards does not stop it (measured on a 2-core machine with
    scipy 1.17.1).  A simulated path takes at least two exponentials, so
    unpinned they kept a second core busy behind every path; that is why the
    pin sits here, at the exponential.  It is held while scipy runs (~25 us
    for a small matrix), and a concurrent user thread's BLAS runs at one
    thread for that long too.
    """
    with one_blas_thread():
        return _scipy_expm(matrix)


@dataclass(frozen=True)
class GrouParams:
    """Structured drift parameters of a grOU(L, [R_1..R_L]) model.

    Parameters
    ----------
    alpha : ndarray, shape (L, K)
        Per-edge autoregressive coefficients, one row per lag.
    beta : tuple of ndarray
        Neighborhood-stage coefficients; entry ``l`` has length ``R_{l+1}``
        (length zero is allowed and means no network term at that lag).
    """

    alpha: np.ndarray
    beta: tuple[np.ndarray, ...]

    def __init__(self, alpha, beta):
        alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
        beta = tuple(np.asarray(b, dtype=float).reshape(-1) for b in beta)
        if len(beta) != alpha.shape[0]:
            raise ValueError(
                f"got {alpha.shape[0]} alpha rows but {len(beta)} beta vectors"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def lags(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_edges(self) -> int:
        return self.alpha.shape[1]

    @property
    def stages(self) -> tuple[int, ...]:
        """R_1..R_L, the number of neighborhood stages per lag."""
        return tuple(len(b) for b in self.beta)

    @property
    def n_params(self) -> int:
        return self.lags * self.n_edges + sum(self.stages)

    def flatten(self) -> np.ndarray:
        """Parameter vector [alpha_1, beta_1, ..., alpha_L, beta_L]."""
        parts = []
        for l in range(self.lags):
            parts.append(self.alpha[l])
            parts.append(self.beta[l])
        return np.concatenate(parts) if parts else np.empty(0)

    @classmethod
    def unflatten(cls, theta, lags: int, stages, n_edges: int) -> "GrouParams":
        """Inverse of :meth:`flatten` for the given (L, R, K) shape."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        stages = tuple(int(r) for r in stages)
        if len(stages) != lags:
            raise ValueError(f"need {lags} stage counts, got {len(stages)}")
        expected = lags * n_edges + sum(stages)
        if theta.size != expected:
            raise ValueError(f"theta has length {theta.size}, expected {expected}")
        alpha = np.empty((lags, n_edges))
        beta = []
        pos = 0
        for l in range(lags):
            alpha[l] = theta[pos : pos + n_edges]
            pos += n_edges
            beta.append(theta[pos : pos + stages[l]].copy())
            pos += stages[l]
        return cls(alpha, tuple(beta))

    def to_json(self) -> str:
        return json.dumps(
            {
                "L": self.lags,
                "R": list(self.stages),
                "alpha": self.alpha.tolist(),
                "beta": [b.tolist() for b in self.beta],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GrouParams":
        doc = json.loads(text)
        params = cls(np.asarray(doc["alpha"]), tuple(np.asarray(b) for b in doc["beta"]))
        if params.lags != doc["L"] or list(params.stages) != list(doc["R"]):
            raise ValueError("alpha/beta arrays inconsistent with declared L, R")
        return params


@dataclass(frozen=True)
class CompanionSystem:
    """State-space matrices of the companion form.

    Attributes
    ----------
    lag_matrices : tuple of ndarray
        Q_1..Q_L, each K-by-K.
    transition : ndarray, shape (LK, LK)
        Drift matrix with identity super-diagonal blocks and bottom block
        row (-Q_L, ..., -Q_1).
    noise_selector : ndarray, shape (LK, K)
        Routes the driving noise into the last state block.
    observation : ndarray, shape (K, LK)
        Reads the first state block (the observed edge process).
    """

    lag_matrices: tuple[np.ndarray, ...]
    transition: np.ndarray
    noise_selector: np.ndarray
    observation: np.ndarray

    @property
    def n_edges(self) -> int:
        return self.lag_matrices[0].shape[0]

    @property
    def lags(self) -> int:
        return len(self.lag_matrices)

    @property
    def dim(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class MomentSet:
    """Stationary first and second moments of the edge process."""

    mean: np.ndarray
    variance: np.ndarray
    state_mean: np.ndarray
    state_cov: np.ndarray
    _transition: np.ndarray
    _observation: np.ndarray

    def autocov(self, h: float) -> np.ndarray:
        """Autocovariance Cov(Y_{t+h}, Y_t) for lag h >= 0."""
        if h < 0:
            raise ValueError(f"lag must be >= 0, got {h}")
        prop = expm(h * self._transition)
        return self._observation @ prop @ self.state_cov @ self._observation.T


def build_companion(params: GrouParams, weights: WeightMatrices | None) -> CompanionSystem:
    """Assemble the companion state-space system from structured parameters.

    ``weights`` may be None only when every lag has zero neighborhood stages.

    Raises
    ------
    ConfigurationError
        If fewer weight stages are available than the parameters require.
    """
    K, L = params.n_edges, params.lags
    max_stage = max(params.stages, default=0)
    if max_stage > 0:
        if weights is None:
            raise ConfigurationError("parameters use neighborhood stages but no weights given")
        if weights.max_stage < max_stage:
            raise ConfigurationError(
                f"need weight matrices up to stage {max_stage}, have {weights.max_stage}"
            )
        if weights.n_edges != K:
            raise ConfigurationError(
                f"weights are for {weights.n_edges} edges, parameters for {K}"
            )
    matrices = () if weights is None else weights.matrices
    lag_matrices = [_lag_matrix(params.alpha[l], params.beta[l], matrices) for l in range(L)]
    dim = L * K
    transition = _companion_transition(lag_matrices)
    noise_selector = np.zeros((dim, K))
    noise_selector[(L - 1) * K :, :] = np.eye(K)
    observation = np.zeros((K, dim))
    observation[:, :K] = np.eye(K)
    return CompanionSystem(
        lag_matrices=tuple(lag_matrices),
        transition=transition,
        noise_selector=noise_selector,
        observation=observation,
    )


def _lag_matrix(alpha, beta, matrices) -> np.ndarray:
    """``Q = diag(alpha) + sum_r beta[r - 1] * W_r``.

    ``alpha`` is ``(..., K)``, ``beta`` ``(..., R)`` and ``matrices[r - 1]``
    holds ``W_r``; leading axes give a stack of lag matrices.
    """
    K = alpha.shape[-1]
    Q = np.zeros(alpha.shape + (K,))
    Q[..., np.arange(K), np.arange(K)] = alpha
    for r in range(beta.shape[-1]):
        Q = Q + beta[..., r, None, None] * matrices[r]
    return Q


def _companion_transition(lag_matrices) -> np.ndarray:
    """Companion transition of the lag matrices ``Q_1 .. Q_L``.

    Identity blocks on the block super-diagonal, ``-Q_L, ..., -Q_1`` along the
    bottom block row.  Each ``Q_l`` may be a stack ``(..., K, K)``, which gives a
    stack of transitions.
    """
    L = len(lag_matrices)
    K = lag_matrices[0].shape[-1]
    transition = np.zeros(lag_matrices[0].shape[:-2] + (L * K, L * K))
    for l in range(L - 1):
        transition[..., l * K : (l + 1) * K, (l + 1) * K : (l + 2) * K] = np.eye(K)
    for l in range(L):
        transition[..., (L - 1) * K :, l * K : (l + 1) * K] = -lag_matrices[L - 1 - l]
    return transition


def is_hurwitz(system: CompanionSystem) -> bool:
    """True iff every transition eigenvalue has real part below ``-HURWITZ_MARGIN``."""
    eig = np.linalg.eigvals(system.transition)
    return bool(np.max(eig.real) < -HURWITZ_MARGIN)


def spectral_abscissa(system: CompanionSystem) -> float:
    """Largest real part among transition eigenvalues."""
    return float(np.max(np.linalg.eigvals(system.transition).real))


def companion_inverse(system: CompanionSystem) -> np.ndarray:
    """Explicit block inverse of the transition matrix.

    First block row is (-Q_L^{-1} Q_{L-1}, ..., -Q_L^{-1} Q_1, -Q_L^{-1}),
    identities sit on the sub-diagonal, and everything else is zero.  Only
    one K-by-K solve against Q_L is required.

    Raises
    ------
    SingularityError
        If Q_L is singular.
    """
    K, L = system.n_edges, system.lags
    Q_L = system.lag_matrices[L - 1]
    eye = np.eye(K)
    try:
        Q_L_inv = np.linalg.solve(Q_L, eye)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("lag-L coefficient matrix is singular") from exc
    inv = np.zeros((L * K, L * K))
    for l in range(L - 1):
        # columns 0..L-2 of the first block row: -Q_L^{-1} Q_{L-1-l}
        inv[:K, l * K : (l + 1) * K] = -Q_L_inv @ system.lag_matrices[L - 2 - l]
    inv[:K, (L - 1) * K :] = -Q_L_inv
    for l in range(1, L):
        inv[l * K : (l + 1) * K, (l - 1) * K : l * K] = eye
    return inv


def lyapunov_solve(transition: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``transition @ X + X @ transition.T = -rhs`` for symmetric X.

    Bartels-Stewart (Schur) solve; callers check that ``transition`` is
    Hurwitz, which makes the solution unique.
    """
    X = solve_continuous_lyapunov(transition, -rhs)
    return 0.5 * (X + X.T)


def propagator(transition: np.ndarray, vec: np.ndarray, h: float):
    """``(expm(h*T), int_0^h expm(u*T) du @ vec)``, read off one exponential.

    They are the top left and the last column of the exponential of the
    ``(n+1)`` block ``[[T, vec], [0, 0]]``, so T is never inverted.  Stacks
    ``(..., n, n)`` of transitions with ``(..., n)`` vectors give stacks.
    """
    n = transition.shape[-1]
    block = np.zeros(transition.shape[:-2] + (n + 1, n + 1))
    block[..., :n, :n] = transition
    block[..., :n, n] = vec
    phi = expm(h * block)
    return phi[..., :n, :n], phi[..., :n, n]


def cov_integral(transition: np.ndarray, rhs: np.ndarray, vec: np.ndarray, h: float):
    """``(prop, integral, drift)``: :func:`propagator`'s pair and the covariance integral.

    ``integral = int_0^h expm(u*T) rhs expm(u*T)^T du``.  All three come from
    one exponential of the ``(2n+1)`` block
    ``[[T, rhs, vec], [0, -T^T, 0], [0, 0, 0]]``.  Its ``-T^T`` grows as
    ``exp(h |min Re lambda|)``, and past ``h |min Re lambda| = 15`` the
    product that reads the integral off the block cancels away its digits.
    There, a stable system's integral is ``gamma - prop gamma prop^T``
    (gamma the stationary solution) with ``prop`` and ``drift`` from
    :func:`propagator`; any other system's is read off the block at
    ``s = h / 2^k``, short enough, and doubled k times:
    ``V(2s) = V(s) + P V(s) P^T``, ``d(2s) = d(s) + P d(s)``, ``P <- P^2``.
    """
    n = transition.shape[0]
    real_parts = np.linalg.eigvals(transition).real
    if real_parts.max() < 0 and h * max(-real_parts.min(), 1.0) > _BLOCK_CUTOFF:
        gamma = lyapunov_solve(transition, rhs)
        prop, drift = propagator(transition, vec, h)
        integral = gamma - prop @ gamma @ prop.T
    else:
        step, doublings = h, 0
        while step * -real_parts.min() > _BLOCK_CUTOFF:
            step, doublings = step / 2, doublings + 1
        block = np.zeros((2 * n + 1, 2 * n + 1))
        block[:n] = np.column_stack([transition, rhs, vec])
        block[n : 2 * n, n : 2 * n] = -transition.T
        phi = expm(step * block)
        prop, drift = phi[:n, :n], phi[:n, 2 * n]
        integral = phi[:n, n : 2 * n] @ prop.T
        for _ in range(doublings):
            integral = integral + prop @ integral @ prop.T
            drift = drift + prop @ drift
            prop = prop @ prop
    return prop, 0.5 * (integral + integral.T), drift


def stationary_moments(system: CompanionSystem, noise) -> MomentSet:
    """Stationary mean, variance, and autocovariance structure.

    ``noise`` is any object exposing ``mean_rate`` (K-vector, the expected
    driving increment per unit time) and ``covariance_rate`` (K-by-K, its
    variance per unit time).

    Raises
    ------
    StationarityError
        If the system is not Hurwitz.
    """
    if not is_hurwitz(system):
        raise StationarityError("transition matrix is not Hurwitz; no stationary law")
    mu = np.asarray(noise.mean_rate, dtype=float)
    Sigma_L = np.asarray(noise.covariance_rate, dtype=float)
    E, A = system.noise_selector, system.observation
    # mean through the lag-L solve, state mean through the block inverse;
    # the two routes must agree and are cross-checked in tests
    try:
        mean = np.linalg.solve(system.lag_matrices[-1], mu)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("lag-L coefficient matrix is singular") from exc
    state_mean = -companion_inverse(system) @ (E @ mu)
    gamma = lyapunov_solve(system.transition, E @ Sigma_L @ E.T)
    variance = A @ gamma @ A.T
    return MomentSet(
        mean=mean,
        variance=0.5 * (variance + variance.T),
        state_mean=state_mean,
        state_cov=gamma,
        _transition=system.transition,
        _observation=A,
    )


def conditional_moments(system: CompanionSystem, noise, state_x, horizon_h: float):
    """Mean and variance of the edge process ``horizon_h`` ahead of ``state_x``.

    Returns
    -------
    (mean, variance) : (ndarray (K,), ndarray (K, K))

    Raises
    ------
    StationarityError
        If the system is not Hurwitz.
    """
    if horizon_h < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon_h}")
    state_x = np.asarray(state_x, dtype=float).reshape(-1)
    if state_x.size != system.dim:
        raise ValueError(f"state has length {state_x.size}, expected {system.dim}")
    if not is_hurwitz(system):
        raise StationarityError("transition matrix is not Hurwitz; no stationary law")
    A, E, T = system.observation, system.noise_selector, system.transition
    mu = np.asarray(noise.mean_rate, dtype=float)
    Sigma_L = np.asarray(noise.covariance_rate, dtype=float)
    prop, integral, drift = cov_integral(T, E @ Sigma_L @ E.T, E @ mu, horizon_h)
    mean = A @ (prop @ state_x + drift)
    variance = A @ integral @ A.T
    return mean, 0.5 * (variance + variance.T)
