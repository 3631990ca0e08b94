"""Conditional-mean forecasting from fitted edge systems.

Only the edge process itself is observed, never its derivative states, so
forecast states are built by the zero-initialization rule: the first state
block carries the last observation and every higher block starts at zero.

One-step-ahead prediction is an affine map of the last observation,

    mean = observation @ expm(h*T) @ state + observation @ D(h) @ E @ mu,

which rolling evaluation exploits by precomputing the map once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CompanionSystem, build_companion, drift_integral, expm
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

    Returns ``(const, gain)`` with ``mean = const + gain @ last_observation``.
    Unlike :func:`grou.model.conditional_moments` this needs no
    stationarity, which keeps rolling benchmark evaluation robust when a
    fitted competitor drifts out of the stable region; for Hurwitz systems
    the two agree exactly.
    """
    if h < 0:
        raise ValueError(f"horizon must be >= 0, got {h}")
    K = system.n_edges
    prop = expm(h * system.transition)
    gain = prop[:K, :K]
    const = drift_integral(system.transition, system.noise_selector @ np.asarray(mean_rate), h)[:K]
    return const, gain


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
