"""Conditional-mean forecasting from fitted edge systems.

Only the edge process itself is observed, never its derivative states, so
forecast states are built by the zero-initialization rule: the first state
block carries the last observation and every higher block starts at zero.

One-step-ahead prediction is an affine map of the last observation,

    mean = observation @ expm(h*T) @ state + observation @ D(h) @ E @ mu,

with ``D(h) = int_0^h expm(u*T) du``.  Rolling evaluation precomputes the
map once, from one exponential (:func:`grou.model.propagator`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CompanionSystem,
    _companion_transition,
    _lag_matrix,
    build_companion,
    propagator,
)
from .simulate import SampledPath

__all__ = [
    "ForecastState",
    "init_state",
    "one_step_map",
    "rolling_forecast",
    "system_from_fit",
    "write_forecast_csv",
]


@dataclass(frozen=True)
class ForecastState:
    """Companion state at a forecast origin; block one is the observed edge values."""

    x: np.ndarray
    origin_time: float


def init_state(path: SampledPath, shape) -> ForecastState:
    """Zero-initialization: last observation in block one, zeros above."""
    lags, _ = shape
    if path.n_points < 1:
        raise ValueError("cannot initialize a forecast state from an empty path")
    K = path.n_edges
    x = np.zeros(int(lags) * K)
    x[:K] = path.values[-1]
    return ForecastState(x=x, origin_time=float(path.grid.fine[-1]))


def one_step_map(system: CompanionSystem, mean_rate, h: float):
    """Affine representation of the h-ahead conditional mean for zero-init states.

    Returns ``(const, gain)`` with ``mean = const + gain @ last_observation``,
    both read off the one exponential of :func:`grou.model.propagator`.
    Unlike :func:`grou.model.conditional_moments` this needs no stationarity,
    which keeps rolling benchmark evaluation robust when a fitted competitor
    drifts out of the stable region; for Hurwitz systems the two agree.
    """
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {h}")
    K = system.n_edges
    prop, drift = propagator(system.transition, system.noise_selector @ np.asarray(mean_rate), h)
    return drift[:K], prop[:K, :K]


def _one_step_maps(theta, matrices, shape, mean_rate, h):
    """``(gain, const)`` of :func:`one_step_map` for a stack of fitted drifts.

    ``theta`` is ``(G, p)`` in :meth:`GrouParams.flatten` order,
    ``matrices[r - 1]`` the ``(G, K, K)`` stack of ``W_r`` (or one ``W_r``
    for every fit) and ``mean_rate`` ``(G, K)``; the lag matrices and transitions are built as
    :func:`grou.model.build_companion` builds them, and the whole stack takes
    one exponential, :func:`grou.model.propagator`'s.
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
    prop, const = propagator(transition, drift, h)
    return prop[:, :K, :K], const[:, :K]


def system_from_fit(fitted, weights) -> CompanionSystem:
    """Companion system from an estimation result (structured or full-matrix)."""
    if fitted.structure == "grou":
        return build_companion(fitted.params, weights)
    K = fitted.n_edges
    Q = fitted.drift_matrix
    return CompanionSystem(
        lag_matrices=(Q,),
        transition=-Q,
        noise_selector=np.eye(K),
        observation=np.eye(K),
    )


def rolling_forecast(
    path: SampledPath,
    fitted,
    weights,
    eval_range,
    horizon: str | float = "fine",
    horizon_steps: int = 1,
) -> np.ndarray:
    """One-step conditional-mean forecasts over evaluation indices.

    For each fine-grid index ``n`` in ``eval_range`` the state is built from
    the observation at ``n - horizon_steps`` (zero-init rule; at least one
    step back) and propagated forward.  ``horizon`` selects the time step:
    "fine" uses the fine mesh, "coarse" the coarse mesh (the convention that
    matches discrete benchmarks when the two grids coincide), or an explicit
    float.

    Returns an array of shape ``(len(eval_range), n_edges)``.
    """
    if horizon_steps < 1:
        raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
    idx = np.asarray(list(eval_range), dtype=int)
    if idx.size == 0:
        return np.empty((0, path.n_edges))
    if idx.min() - horizon_steps < 0 or idx.max() >= path.n_points:
        raise ValueError("evaluation range reaches outside the path")
    if horizon == "fine":
        h = path.grid.mesh_fine * horizon_steps
    elif horizon == "coarse":
        h = path.grid.mesh_coarse * horizon_steps
    else:
        h = float(horizon) * horizon_steps
    system = system_from_fit(fitted, weights)
    const, gain = one_step_map(system, fitted.triplet_used.mean_rate, h)
    previous = path.values[idx - horizon_steps]
    return previous @ gain.T + const


def write_forecast_csv(file, times, labels, means, variances, header_lines=()) -> None:
    """Long-format rows ``time,edge,forecast_mean,forecast_var``."""
    means = np.asarray(means)
    variances = np.asarray(variances)
    with open(file, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("time,edge,forecast_mean,forecast_var\n")
        for t, mrow, vrow in zip(times, means, variances):
            for label, m, v in zip(labels, mrow, vrow):
                fh.write(f"{t:.17g},{label},{m:.17g},{v:.17g}\n")
