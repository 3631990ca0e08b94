"""Sample-path generation on two-scale observation grids.

Paths are recorded on a fine grid (used later for finite differences) that
carries a coarser sub-grid (used for stochastic-integral sums).  Between
fine-grid points every noise regime uses the exact conditional-Gaussian
recursion ``x_{i+1} = expm(h T) x_i + drift + N(0, V(h)) + jump responses``.
Each compound-Poisson jump is propagated from its exact arrival time, so
that regime is distribution-exact.  The Gamma regime propagates each step's
Gamma-difference increment from one uniform time within the step, which
makes its mean and covariance exact at any mesh, since
``(1/h) int_0^h e^{sT} (h S) e^{sT'} ds = int_0^h e^{sT} S e^{sT'} ds``;
only its higher moments are approximate.

The fine-grid spacings are split into maximal runs of equal spacing (within
a relative 1e-9 of the run's first spacing), each run gets its step
operators from one exponential (:func:`grou.model.cov_integral`), and each
run is solved in place over a single state buffer.  A long run is folded in
blocks of four rows, so a uniform grid costs one exponential and work linear
in ``n``; short runs, such as the burn-in's, take ``log2(n)`` rounds of a
doubling scan.  A fully irregular grid gives runs of length one, i.e. plain
stepping.

:func:`simulate_paths` simulates many paths of one system, noise and grid
from one plan: the stationary moments and their factor, the burn-in grid,
each run's step operators and the exponentials of the jump-response
anchors are computed once, and only the draws and the scans are done per
path.  :func:`simulate_path` is its call for one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .model import (
    CompanionSystem,
    cov_integral,
    expm,
    spectral_abscissa,
    stationary_moments,
)
from .noise import (
    LevySpec,
    SymmetricGammaJumps,
    _gamma_differences,
    _poisson_arrivals,
    psd_factor,
    stream_rng,
)

__all__ = [
    "TwoScaleGrid",
    "SampledPath",
    "PathTruth",
    "make_uniform_grids",
    "power_law_grids",
    "grid_from_times",
    "simulate_path",
    "simulate_paths",
    "write_path_csv",
    "read_path_csv",
]

BURN_IN_RELAXATION = 5.0
_BURN_IN_STEPS = 64
# exponents of power_law_grids' fine and coarse meshes
FINE_POWER = 6.0
COARSE_POWER = 2.0


@dataclass(frozen=True)
class TwoScaleGrid:
    """A fine observation grid with a coarse sub-grid.

    ``coarse_idx`` indexes into ``fine``; both grids start at time zero and
    end at the horizon.  Uniformity of either grid is *not* required, only
    reported through the ``uniformity_*`` properties.
    """

    fine: np.ndarray
    coarse_idx: np.ndarray

    def __post_init__(self):
        fine = np.asarray(self.fine, dtype=float)
        idx = np.asarray(self.coarse_idx, dtype=int)
        if fine.ndim != 1 or fine.size < 2 or np.any(np.diff(fine) <= 0):
            raise ValueError("fine grid must be strictly increasing with >= 2 points")
        if abs(fine[0]) > 1e-12:
            raise ValueError("grids must start at time 0")
        if idx[0] != 0 or idx[-1] != fine.size - 1 or np.any(np.diff(idx) <= 0):
            raise ValueError("coarse grid must span the fine grid")
        object.__setattr__(self, "fine", fine)
        object.__setattr__(self, "coarse_idx", idx)

    @property
    def t_end(self) -> float:
        return float(self.fine[-1])

    @property
    def coarse(self) -> np.ndarray:
        return self.fine[self.coarse_idx]

    @property
    def mesh_fine(self) -> float:
        return float(np.max(np.diff(self.fine)))

    @property
    def mesh_coarse(self) -> float:
        return float(np.max(np.diff(self.coarse)))

    @property
    def uniformity_fine(self) -> float:
        """min spacing / max spacing of the fine grid (1 for uniform)."""
        d = np.diff(self.fine)
        return float(d.min() / d.max())

    @property
    def uniformity_coarse(self) -> float:
        d = np.diff(self.coarse)
        return float(d.min() / d.max())

    @property
    def ratio(self) -> int:
        """Nominal coarse/fine mesh ratio (rounded)."""
        return max(1, int(round(self.mesh_coarse / self.mesh_fine)))


def _coarse_ratio(ratio) -> int:
    """``ratio`` as a whole coarse/fine step ratio; below 1 is a ``ValueError``."""
    if int(ratio) < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    return int(ratio)


def make_uniform_grids(t_end: float, mesh_fine: float, ratio: int) -> TwoScaleGrid:
    """Uniform fine grid of step ``mesh_fine``; coarse keeps every ratio-th point.

    The horizon is snapped *up* to the nearest whole coarse step so both
    grids share their final point.
    """
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < mesh_fine < np.inf:
        raise ValueError(f"mesh_fine must be positive and finite, got {mesh_fine}")
    ratio = _coarse_ratio(ratio)
    coarse_step = mesh_fine * ratio
    n_coarse = max(1, int(np.ceil(t_end / coarse_step - 1e-9)))
    n_fine = n_coarse * ratio
    fine = np.arange(n_fine + 1) * mesh_fine
    return TwoScaleGrid(fine=fine, coarse_idx=np.arange(0, n_fine + 1, ratio))


def power_law_grids(t_end: float, mesh_cap: float = 2.0**-14) -> TwoScaleGrid:
    """Grids with meshes ``t^-FINE_POWER`` and ``t^-COARSE_POWER``.

    ``mesh_cap`` bounds how fine the observation grid may get for large
    horizons.  The grid ratio is rounded to an integer.
    """
    mesh_fine = max(t_end**-FINE_POWER, mesh_cap)
    mesh_coarse = t_end**-COARSE_POWER
    ratio = max(1, int(round(mesh_coarse / mesh_fine)))
    return make_uniform_grids(t_end, mesh_fine, ratio)


def grid_from_times(times, ratio: int = 1) -> TwoScaleGrid:
    """Two-scale grid over observed timestamps (shifted to start at zero).

    The coarse grid keeps every ratio-th point; if the final point is not
    ratio-aligned it is appended so both grids end together (the trailing
    coarse interval is then shorter than the rest).
    """
    times = np.asarray(times, dtype=float)
    shifted = times - times[0]
    idx = np.arange(0, times.size, _coarse_ratio(ratio))
    if idx[-1] != times.size - 1:
        idx = np.append(idx, times.size - 1)
    return TwoScaleGrid(fine=shifted, coarse_idx=idx)


@dataclass(frozen=True)
class PathTruth:
    """Ground truth attached to simulated paths (never present for data)."""

    noise: LevySpec
    init_state: np.ndarray
    arrival_times: np.ndarray | None = None
    arrival_sizes: np.ndarray | None = None


@dataclass(frozen=True)
class SampledPath:
    """Edge time series on a two-scale grid.

    ``values`` has one row per fine-grid point and one column per edge.
    """

    grid: TwoScaleGrid
    values: np.ndarray
    labels: tuple[str, ...] | None = None
    truth: PathTruth | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.grid.fine.size:
            raise ValueError(
                f"values shape {values.shape} does not match grid of {self.grid.fine.size} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_edges(self) -> int:
        return self.values.shape[1]

    def section(self, start: int, stop: int) -> "SampledPath":
        """Sub-path over fine indices ``[start, stop)``, re-anchored at time 0.

        Like :meth:`select_columns`, the sub-path carries no truth.
        """
        if not (0 <= start < stop <= self.n_points) or stop - start < 2:
            raise ValueError(f"invalid section [{start}, {stop})")
        grid = grid_from_times(self.grid.fine[start:stop], ratio=self.grid.ratio)
        return SampledPath(grid=grid, values=self.values[start:stop], labels=self.labels)

    def drop_columns(self, cols) -> "SampledPath":
        """Remove edge columns (used for misspecified-network experiments)."""
        keep = [k for k in range(self.n_edges) if k not in set(cols)]
        return self.select_columns(keep)

    def select_columns(self, cols) -> "SampledPath":
        """Sub-path over the given edge columns, in the given order."""
        cols = list(cols)
        labels = None if self.labels is None else tuple(self.labels[k] for k in cols)
        return SampledPath(grid=self.grid, values=self.values[:, cols].copy(), labels=labels)


def _default_labels(K):
    return tuple(f"e_{k + 1}" for k in range(K))


def simulate_path(
    system: CompanionSystem,
    noise: LevySpec,
    grid: TwoScaleGrid,
    init="stationary",
    rng_seed=0,
) -> SampledPath:
    """Simulate the edge process on ``grid.fine``.

    Parameters
    ----------
    init : "stationary" or array of length dim
        Stationary initialization draws the state from a Gaussian with the
        exact stationary mean and covariance and applies a burn-in of
        ``5 / |max real eigenvalue|`` time units, taken in 64 exact steps
        in every regime, to wash out the non-Gaussian correction; an
        explicit state vector skips burn-in.
    rng_seed : int or Generator
        Sub-streams for the initial state, the path's noise and the burn-in
        are derived separately; each draws its Gaussian block before its
        jumps, so superposition tests can split the noise spec while
        sharing randomness.

    The path is simulated with every bundled OpenBLAS at one thread (see
    :func:`grou.model.expm`).  This is :func:`simulate_paths` for one seed.
    """
    return next(simulate_paths(system, noise, grid, [rng_seed], init))


def simulate_paths(
    system: CompanionSystem,
    noise: LevySpec,
    grid: TwoScaleGrid,
    seeds,
    init="stationary",
):
    """Simulate one path per seed on ``grid.fine``, in seed order.

    Path ``i`` is ``simulate_path(system, noise, grid, init, seeds[i])`` bit
    for bit.  The work that does not depend on the seed (the stationary
    moments and their factor, the burn-in grid, the step operators of each
    run of equal spacing and the jump-response anchor exponentials) is done
    once, here, so that faults in the inputs raise at the call.  The paths
    come from a generator, one at a time, each simulated inside its own
    one-BLAS-thread scope, which is left before the path is handed over.
    """
    if noise.n_components != system.n_edges:
        raise ValueError("noise dimension does not match the system")
    dim = system.dim
    # one scope over the plan, so that the pin each exponential takes
    # nests (~1 us) rather than saving and restoring the counts (~5 us)
    with one_blas_thread():
        if isinstance(init, str):
            if init != "stationary":
                raise ValueError(f"unknown init mode {init!r}")
            moments = stationary_moments(system, noise)
            start = (moments.state_mean, psd_factor(moments.state_cov))
            # the exact step takes any spacing: the same cost in every regime
            # and at any Hurwitz margin
            relax = BURN_IN_RELAXATION / abs(spectral_abscissa(system))
            burn_times = np.linspace(0.0, relax, _BURN_IN_STEPS + 1)
            burn_in = (burn_times, _step_plan(system, noise, burn_times))
        else:
            start, burn_in = np.asarray(init, dtype=float).reshape(-1), None
            if start.size != dim:
                raise ValueError(f"init state has length {start.size}, expected {dim}")
        main = (grid.fine, _step_plan(system, noise, grid.fine))
    # expm(a * delta * T) for each jump-response anchor a reached so far
    anchor_ops = {}

    def paths():
        K = system.n_edges
        for seed in seeds:
            rng_init = stream_rng(seed, 0)
            rng_main = stream_rng(seed, 1)
            rng_burn = stream_rng(seed, 2)
            with one_blas_thread():
                if burn_in is not None:
                    mean, factor = start
                    x0 = mean + factor @ rng_init.standard_normal(dim)
                    states = _state_path(system, noise, *burn_in, x0, rng_burn, anchor_ops)[0]
                    x0 = states[-1].copy()
                else:
                    x0 = start
                states, arr_t, arr_s = _state_path(system, noise, *main, x0, rng_main, anchor_ops)
            truth = PathTruth(noise=noise, init_state=x0, arrival_times=arr_t, arrival_sizes=arr_s)
            values = np.ascontiguousarray(states[:, :K])
            yield SampledPath(grid=grid, values=values, labels=_default_labels(K), truth=truth)

    return paths()


# Spacings within this relative distance of their run's first spacing share
# that run's step operators.
_SPACING_RTOL = 1e-9
# Rows (blocks, in the fold) per batched product of the scan and the jump
# kernel; bounds every temporary they allocate but the fold's block ends.
_SCAN_ROWS = 4096
# The scan folds runs of at least _FOLD_BLOCKS blocks of _BLOCK rows; shorter
# runs, such as the burn-in's, are faster in doubling rounds.
_BLOCK = 4
_FOLD_BLOCKS = 256


def _runs(dt):
    """``(start, stop)`` step ranges of the maximal runs of equal spacing.

    Each run is searched in windows that grow fourfold, so finding a run
    costs time in proportion to its length, not to the rest of the grid.
    """
    runs, start = [], 0
    while start < dt.size:
        width = 64
        while True:
            seg = dt[start : start + width]
            off = np.flatnonzero(np.abs(seg - dt[start]) > _SPACING_RTOL * dt[start])
            if off.size or start + width >= dt.size:
                break
            width *= 4
        stop = start + int(off[0]) if off.size else dt.size
        runs.append((start, stop))
        start = stop
    return runs


def _scan(rows, prop):
    """In place, ``rows[j] = prop @ rows[j-1] + rows[j]`` for ``j >= 1``; returns ``rows``.

    A run of at least ``_FOLD_BLOCKS`` blocks of ``_BLOCK`` rows is first
    folded in linear work by :func:`_fold`, up to a tail of fewer than
    ``_BLOCK`` rows.  Shorter runs and the tail take a doubling scan: after
    the round with span ``s`` each row holds the sum of its last ``2s``
    inputs, each propagated to that row, so ``log2(n)`` rounds of batched
    products replace the ``n``-step recurrence.  Each round updates blocks
    of rows from the last to the first, so the rows a block reads are still
    those of the previous round.
    """
    m = (rows.shape[0] - 1) // _BLOCK
    tail = rows
    # on a C-contiguous buffer the fold's blocks are a view of rows
    if m >= _FOLD_BLOCKS and rows.flags.c_contiguous:
        _fold(rows, prop, m)
        tail = rows[m * _BLOCK :]
    n = tail.shape[0]
    tmp = np.empty((min(n, _SCAN_ROWS), tail.shape[1]))
    power, span = prop.T, 1
    while span < n:
        for hi in range(n, span, -_SCAN_ROWS):
            lo = max(span, hi - _SCAN_ROWS)
            out = tmp[: hi - lo]
            np.matmul(tail[lo - span : hi - span], power, out=out)
            tail[lo:hi] += out
        power, span = power @ power, 2 * span
    return rows


def _fold(rows, prop, m):
    """:func:`_scan` on rows ``0 .. m*B``, in blocks of ``B = _BLOCK`` rows.

    Each block is scanned from a zero state by one block-lower-triangular
    Toeplitz product of ``prop^0 .. prop^(B-1)``.  The block ends are then
    scanned by :func:`_scan` with ``prop^B``, and row ``j`` of each block
    adds ``prop^(j+1)`` times the state before the block.  Products run in
    chunks of ``_SCAN_ROWS`` blocks.
    """
    dim = rows.shape[1]
    blocks = rows[1 : 1 + m * _BLOCK].reshape(m, _BLOCK * dim)
    # updated in place, so the blocks must be rows themselves
    assert np.shares_memory(blocks, rows)
    powers = [np.eye(dim)]
    for _ in range(_BLOCK):
        powers.append(prop @ powers[-1])
    # row-vector form: part k of a block gathers prop^(k-i) @ x_i over i <= k
    toeplitz = np.zeros((_BLOCK * dim, _BLOCK * dim))
    for i in range(_BLOCK):
        for k in range(i, _BLOCK):
            toeplitz[i * dim : (i + 1) * dim, k * dim : (k + 1) * dim] = powers[k - i].T
    carry = np.hstack([p.T for p in powers[1:]])
    tmp = np.empty((min(m, _SCAN_ROWS), _BLOCK * dim))
    for lo in range(0, m, _SCAN_ROWS):
        hi = min(m, lo + _SCAN_ROWS)
        np.matmul(blocks[lo:hi], toeplitz, out=tmp[: hi - lo])
        blocks[lo:hi] = tmp[: hi - lo]
    # the state before each block: row 0, then the block ends
    ends = np.empty((m + 1, dim))
    ends[0] = rows[0]
    ends[1:] = blocks[:, -dim:]
    _scan(ends, powers[_BLOCK])
    for lo in range(0, m, _SCAN_ROWS):
        hi = min(m, lo + _SCAN_ROWS)
        np.matmul(ends[lo:hi], carry, out=tmp[: hi - lo])
        blocks[lo:hi] += tmp[: hi - lo]


def _step_plan(system, noise, times):
    """The step operators of ``times``: ``(start, stop, prop, factor_t, drift)`` per run of equal spacing.

    ``prop`` is the run's exact step, ``factor_t`` the transposed factor of
    its step covariance and ``drift`` its step drift, from one
    :func:`grou.model.cov_integral` per run.
    """
    T, E = system.transition, system.noise_selector
    dt = np.diff(times)
    rhs, rate = E @ noise.brownian_cov @ E.T, E @ noise.mean_rate
    plan = []
    for start, stop in _runs(dt):
        prop, cov, drift = cov_integral(T, rhs, rate, dt[start])
        plan.append((start, stop, prop, psd_factor(cov).T, drift))
    return plan


def _state_path(system, noise, times, plan, x0, rng, anchor_ops):
    """Companion states on ``times`` from ``x0``: one scan per run of equal spacing.

    ``plan`` is :func:`_step_plan`'s for ``times``, and ``anchor_ops`` the
    anchor exponentials of :func:`_add_jump_responses`, filled as jumps
    reach them.  Draw order: the Gaussian ``(n, dim)`` block first, so that
    zeroing one noise source leaves the draws of the others untouched
    (superposition property); then for compound-Poisson noise the counts,
    the sizes and the sorted arrival uniforms of each non-empty interval,
    and for symmetric-Gamma noise the two Gamma arrays and one arrival
    uniform per step.  Returns the states and the compound-Poisson arrival
    times and sizes (None for Gamma noise, whose arrivals are a device of
    the scheme).
    """
    dim, K = system.dim, system.n_edges
    T, E = system.transition, system.noise_selector
    dt = np.diff(times)
    states = np.empty((dt.size + 1, dim))
    shocks = states[1:]
    rng.standard_normal(out=shocks)
    tmp = np.empty((min(dt.size, _SCAN_ROWS), dim))
    for start, stop, _, factor_t, drift in plan:
        for lo in range(start, stop, _SCAN_ROWS):
            block = shocks[lo : min(stop, lo + _SCAN_ROWS)]
            out = tmp[: block.shape[0]]
            np.matmul(block, factor_t, out=out)
            np.add(out, drift, out=block)
    jumps = noise.jumps
    arr_t = arr_s = None
    if isinstance(jumps, SymmetricGammaJumps):
        sizes = _gamma_differences(jumps, dt, K, rng)
        owner = np.arange(dt.size)
        offsets = times[1:] - rng.uniform(times[:-1], times[1:])
        _add_jump_responses(T, E, owner, offsets, sizes, shocks, anchor_ops)
    elif jumps is not None:
        owner, arr_t, arr_s = _poisson_arrivals(jumps, times, K, rng)
        _add_jump_responses(T, E, owner, times[owner + 1] - arr_t, arr_s, shocks, anchor_ops)
    else:
        arr_t, arr_s = np.empty(0), np.empty((0, K))
    states[0] = x0
    for start, stop, prop, _, _ in plan:
        _scan(states[start : stop + 1], prop)
    return states, arr_t, arr_s


def _add_jump_responses(T, E, owner, offsets, sizes, shocks, anchor_ops=None):
    """``shocks[owner[j]] += expm(offsets[j] T) @ E @ sizes[j]`` for every jump j.

    ``owner`` must be nondecreasing.  Each offset splits as ``a * delta + r``
    with anchor spacing ``delta = 0.5 / ||T||_1`` and ``0 <= r < delta``.
    ``expm`` is called once per anchor that some offset falls on (none for
    anchor 0), and ``expm(r T)`` is the Taylor polynomial with as many terms
    as the largest ``||r T||_1`` needs to reach rounding, so the responses
    are exact to rounding for any ``T``, defective ones included.  Jumps are
    taken anchor by anchor in blocks of ``_SCAN_ROWS``.  ``anchor_ops`` maps
    anchors to their exponentials; calls with one ``T`` may share it, so
    that each anchor's exponential is taken once.
    """
    anchor_ops = {} if anchor_ops is None else anchor_ops
    if owner.size == 0:
        return
    norm = np.abs(T).sum(axis=0).max()
    delta = 0.5 / max(norm, np.finfo(float).tiny)
    anchors = np.floor(offsets / delta)
    if anchors.any():
        order = np.argsort(anchors, kind="stable")
        owner, offsets, sizes, anchors = owner[order], offsets[order], sizes[order], anchors[order]
    rests = offsets - anchors * delta
    n_terms, bound = 0, 1.0
    while bound > np.finfo(float).eps / 2:
        n_terms += 1
        bound *= np.abs(rests).max() * norm / n_terms
    firsts = np.flatnonzero(np.diff(anchors, prepend=-1.0))
    for first, last in zip(firsts, [*firsts[1:], anchors.size]):
        anchor = anchors[first]
        op = None
        if anchor:
            op = anchor_ops.get(anchor)
            if op is None:
                op = anchor_ops[anchor] = expm(anchor * delta * T)
        for lo in range(first, last, _SCAN_ROWS):
            hi = min(last, lo + _SCAN_ROWS)
            # one column per jump, so scaling by the rests broadcasts along rows
            term = E @ sizes[lo:hi].T
            total = term.copy()
            for k in range(1, n_terms):
                term = (T @ term) * (rests[lo:hi] / k)
                total += term
            if op is not None:
                total = op @ total
            own = owner[lo:hi]
            heads = np.flatnonzero(np.diff(own, prepend=-1))
            if heads.size == own.size == own[-1] - own[0] + 1:
                # one jump in each of consecutive intervals, as in the Gamma regime
                shocks[own[0] : own[-1] + 1] += total.T
            else:
                shocks[own[heads]] += np.add.reduceat(total, heads, axis=1).T


def write_path_csv(path: SampledPath, file, header_lines=()) -> None:
    """Write ``time,e_1,...,e_K`` rows at 17 significant digits."""
    labels = path.labels or _default_labels(path.n_edges)
    with open(file, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("time," + ",".join(labels) + "\n")
        for t, row in zip(path.grid.fine, path.values):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def read_path_csv(file, ratio: int = 1) -> SampledPath:
    """Read a path CSV (comment lines starting with '#' are skipped)."""
    with open(file) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{file}: empty path file")
    header = lines[0].split(",")
    if header[0] != "time" or len(header) < 2:
        raise ValueError(f"{file}: expected header 'time,<edge>,...', got {lines[0]!r}")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"{file}: ragged or empty data rows")
    grid = grid_from_times(data[:, 0], ratio=ratio)
    return SampledPath(grid=grid, values=data[:, 1:], labels=tuple(header[1:]))
