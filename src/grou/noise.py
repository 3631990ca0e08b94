"""Driving-noise specification and increment sampling.

Three regimes are supported: pure diffusion, compound Poisson jumps with
common arrival times across components, and independent symmetric
Gamma-difference jumps (infinite activity).  Increments of the Gamma regime
are exact on any grid because a Gamma process restricted to an interval is
again Gamma with the shape scaled by the interval length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompoundPoissonJumps",
    "SymmetricGammaJumps",
    "LevySpec",
    "IncrementBatch",
    "sample_increments",
    "stream_rng",
    "psd_factor",
]


def stream_rng(root_seed, stream: int = 0) -> np.random.Generator:
    """Independent generator for one stream of a multi-stream experiment.

    Streams are derived from the root seed by spawn key, so stream ``i`` is
    reproducible no matter how many streams a run uses.  A SeedSequence
    root gets the stream appended to its spawn key; a Generator is passed
    through unchanged (no further splitting).
    """
    if isinstance(root_seed, np.random.Generator):
        return root_seed
    if isinstance(root_seed, np.random.SeedSequence):
        seq = np.random.SeedSequence(
            entropy=root_seed.entropy, spawn_key=tuple(root_seed.spawn_key) + (stream,)
        )
        return np.random.default_rng(seq)
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=(stream,)))


def psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T == matrix for a symmetric PSD matrix.

    Tolerates semi-definiteness (including the zero matrix), unlike a plain
    Cholesky factorization.
    """
    matrix = np.asarray(matrix, dtype=float)
    w, v = np.linalg.eigh(0.5 * (matrix + matrix.T))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def _check_psd(matrix, name):
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")
    _psd_spectrum(matrix, name)
    return matrix


def _psd_spectrum(matrix, name):
    """Eigenvalues of a symmetric PSD matrix, or of each matrix of a stack ``(..., n, n)``.

    Raises ValueError naming ``name`` when any matrix is asymmetric or has an
    eigenvalue below ``-1e-10 * max(1, |largest|)``.
    """
    flipped = np.swapaxes(matrix, -1, -2)
    if not np.allclose(matrix, flipped, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(0.5 * (matrix + flipped))
    if np.any(w.min(axis=-1) < -1e-10 * np.maximum(1.0, np.abs(w.max(axis=-1)))):
        raise ValueError(f"{name} must be positive semi-definite")
    return w


@dataclass(frozen=True)
class CompoundPoissonJumps:
    """Jumps arrive jointly at Poisson times; sizes are centered Gaussian."""

    rate: float
    jump_cov: np.ndarray

    def __init__(self, rate, jump_cov):
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        object.__setattr__(self, "rate", float(rate))
        object.__setattr__(self, "jump_cov", _check_psd(jump_cov, "jump_cov"))


@dataclass(frozen=True)
class SymmetricGammaJumps:
    """Per-component difference of two independent Gamma subordinators.

    Each component contributes variance ``2 * shape * scale**2`` per unit
    time and has symmetric (zero-mean) increments.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")


@dataclass(frozen=True)
class LevySpec:
    """Driving-noise description: drift, Brownian covariance, jump family.

    ``mean_rate`` and ``covariance_rate`` are the mean and variance of the
    noise over a unit time interval; all three jump regimes have symmetric
    jumps, so the mean rate always equals the drift.
    """

    drift: np.ndarray
    brownian_cov: np.ndarray
    jumps: CompoundPoissonJumps | SymmetricGammaJumps | None = None

    def __init__(self, drift, brownian_cov, jumps=None):
        drift = np.asarray(drift, dtype=float).reshape(-1)
        brownian_cov = _check_psd(brownian_cov, "brownian_cov")
        if brownian_cov.shape[0] != drift.size:
            raise ValueError(
                f"drift has {drift.size} components but brownian_cov is {brownian_cov.shape}"
            )
        if isinstance(jumps, CompoundPoissonJumps) and jumps.jump_cov.shape[0] != drift.size:
            raise ValueError("jump_cov dimension does not match drift")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "brownian_cov", brownian_cov)
        object.__setattr__(self, "jumps", jumps)

    @property
    def n_components(self) -> int:
        return self.drift.size

    @property
    def mean_rate(self) -> np.ndarray:
        return self.drift

    @property
    def covariance_rate(self) -> np.ndarray:
        if self.jumps is None:
            return self.brownian_cov
        if isinstance(self.jumps, CompoundPoissonJumps):
            return self.brownian_cov + self.jumps.rate * self.jumps.jump_cov
        k, s = self.jumps.shape, self.jumps.scale
        return self.brownian_cov + 2.0 * k * s * s * np.eye(self.n_components)

    @property
    def activity(self) -> str:
        """Jump activity class: 'finite' or 'infinite'."""
        return "infinite" if isinstance(self.jumps, SymmetricGammaJumps) else "finite"

    def to_json(self) -> str:
        if self.jumps is None:
            jd = {"type": "none"}
        elif isinstance(self.jumps, CompoundPoissonJumps):
            jd = {
                "type": "compound_poisson",
                "rate": self.jumps.rate,
                "jump_cov": self.jumps.jump_cov.tolist(),
            }
        else:
            jd = {"type": "sym_gamma", "shape": self.jumps.shape, "scale": self.jumps.scale}
        return json.dumps(
            {"b": self.drift.tolist(), "sigma": self.brownian_cov.tolist(), "jumps": jd}
        )

    @classmethod
    def from_json(cls, text: str) -> "LevySpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("noise document must be a JSON object")
        jd = doc.get("jumps", {"type": "none"})
        if not isinstance(jd, dict):
            raise ValueError(f'"jumps" must be a JSON object, got {jd!r}')
        kind = jd.get("type", "none")
        if kind == "none":
            jumps = None
        elif kind == "compound_poisson":
            jumps = CompoundPoissonJumps(jd["rate"], np.asarray(jd["jump_cov"]))
        elif kind == "sym_gamma":
            jumps = SymmetricGammaJumps(jd["shape"], jd["scale"])
        else:
            raise ValueError(f"unknown jump type {kind!r}")
        return cls(np.asarray(doc["b"]), np.asarray(doc["sigma"]), jumps)


@dataclass(frozen=True)
class IncrementBatch:
    """Noise increments on a grid, split by source.

    ``total = continuous + small_jump + large_jump`` on every interval.  The
    split exists only for simulated noise; observed data never provides it.
    For compound Poisson noise the exact arrival times and sizes are kept so
    simulation schemes can place jumps within intervals.
    """

    times: np.ndarray
    continuous: np.ndarray
    small_jump: np.ndarray
    large_jump: np.ndarray
    arrival_times: np.ndarray | None = None
    arrival_sizes: np.ndarray | None = None

    @property
    def total(self) -> np.ndarray:
        return self.continuous + self.small_jump + self.large_jump

    @property
    def jump(self) -> np.ndarray:
        return self.small_jump + self.large_jump


def sample_increments(spec: LevySpec, grid, rng_seed) -> IncrementBatch:
    """Sample noise increments over each interval of a strictly increasing grid.

    The Brownian-plus-drift part of interval ``[a, b]`` is Gaussian with mean
    ``drift*(b-a)`` and covariance ``brownian_cov*(b-a)``.  Compound Poisson
    jumps share one arrival process across components with Gaussian sizes;
    symmetric Gamma noise adds independent Gamma-difference increments per
    component.  Deterministic given the seed.
    """
    times = np.asarray(grid, dtype=float).reshape(-1)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    rng = stream_rng(rng_seed)
    K = spec.n_components
    dt = np.diff(times)
    n = dt.size

    factor = psd_factor(spec.brownian_cov)
    # updated in place: on long grids every (n, K) temporary is megabytes
    continuous = rng.standard_normal((n, K)) @ factor.T
    continuous *= np.sqrt(dt)[:, None]
    continuous += spec.drift * dt[:, None]

    small, large = np.zeros((n, K)), np.zeros((n, K))
    arrival_times = arrival_sizes = None
    if isinstance(spec.jumps, CompoundPoissonJumps):
        owner, arrival_times, arrival_sizes = _poisson_arrivals(spec.jumps, times, K, rng)
        np.add.at(large, owner, arrival_sizes)
    elif isinstance(spec.jumps, SymmetricGammaJumps):
        small = _gamma_differences(spec.jumps, dt, K, rng)

    return IncrementBatch(
        times=times,
        continuous=continuous,
        small_jump=small,
        large_jump=large,
        arrival_times=arrival_times,
        arrival_sizes=arrival_sizes,
    )


def _poisson_arrivals(jumps: CompoundPoissonJumps, times, K, rng):
    """Compound-Poisson arrivals on the intervals of ``times``.

    Draws the count of every interval, then all Gaussian sizes, then the
    uniform arrival times of each non-empty interval in turn, sorted within
    their interval.  Returns ``(owner, arrival_times, arrival_sizes)``, with
    ``owner`` the interval index of each arrival.
    """
    counts = rng.poisson(jumps.rate * np.diff(times))
    owner = np.repeat(np.arange(counts.size), counts)
    sizes = rng.standard_normal((owner.size, K)) @ psd_factor(jumps.jump_cov).T
    # the draws of ``rng.uniform(times[i], times[i + 1], size=counts[i])``
    # taken interval by interval, bit for bit
    lo = times[owner]
    arrivals = lo + (times[owner + 1] - lo) * rng.random(owner.size)
    arrivals = arrivals[np.lexsort((arrivals, owner))]
    return owner, arrivals, sizes


def _gamma_differences(jumps: SymmetricGammaJumps, dt, K, rng):
    """``(n, K)`` symmetric Gamma-difference increments over spacings ``dt``.

    Bit for bit the difference of two draws of
    ``rng.gamma(np.repeat(shape * dt, K).reshape(n, K), scale)``: numpy's
    ``gamma`` is ``scale`` times ``standard_gamma`` element by element in C
    order, and on equal spacings one scalar shape skips the per-element
    shape array.
    """
    if np.all(dt == dt[0]):
        shape, size = jumps.shape * dt[0], (dt.size, K)
    else:
        shape, size = np.repeat(jumps.shape * dt, K).reshape(dt.size, K), None
    diff = rng.standard_gamma(shape, size) * jumps.scale
    diff -= rng.standard_gamma(shape, size) * jumps.scale
    return diff
