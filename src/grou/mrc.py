"""Pre-averaged (modulated realized) covariance from high-frequency prices.

Raw high-frequency covariance estimates are dominated by microstructure
noise.  Pre-averaging smooths each half-window of observations before
differencing, which cancels the fast noise component and keeps the slow
efficient-price moves:

    window    N  = ceil((n-1)**delta * theta), rounded up to even k_n
    returns   u_i = sum(Y[i+k/2 : i+k]) - sum(Y[i : i+k/2]),  i < n-k+1
    estimate  cov = (n-1)/(n-k+1) * 12/k * sum_i (u_i/k)(u_i/k)'

The implementation accumulates the unnormalized pre-averaged sums and
rescales once at the end, so on integer-valued inputs it is exactly
reproducible against a naive double-loop evaluation.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import IngestionError
from .simulate import SampledPath, _coarse_ratio, grid_from_times

__all__ = [
    "PriceMatrix",
    "MrcConfig",
    "MrcResult",
    "RollingMrc",
    "mrc",
    "mrc_window_length",
    "rolling_mrc",
    "ingest_prices",
    "write_edge_series_csv",
    "read_edge_series_csv",
]


@dataclass(frozen=True)
class PriceMatrix:
    """Synchronized log prices: one row per timestamp, one column per asset."""

    times: np.ndarray
    log_prices: np.ndarray
    asset_ids: tuple[str, ...]
    skipped_rows: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        prices = np.asarray(self.log_prices, dtype=float)
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ValueError("need at least two strictly increasing timestamps")
        if prices.shape != (times.size, len(self.asset_ids)):
            raise ValueError(
                f"price matrix {prices.shape} does not match {times.size} times x "
                f"{len(self.asset_ids)} assets"
            )
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "log_prices", prices)


@dataclass(frozen=True)
class MrcConfig:
    """Pre-averaging tuning: window exponent, scale, and output type."""

    delta: float = 0.5
    theta: float = 1.0
    is_corr: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")


def mrc_window_length(n_obs: int, cfg: MrcConfig) -> int:
    """Even pre-averaging window k_n for ``n_obs`` price rows.

    Raises
    ------
    ValueError
        If the window does not fit (``k_n`` outside ``[2, n_obs - 1]``),
        including ``n_obs < 2``.
    """
    if n_obs < 2:
        raise ValueError(f"pre-averaging needs at least 2 observations, got {n_obs}")
    n_window = math.ceil((n_obs - 1) ** cfg.delta * cfg.theta)
    k = n_window if n_window % 2 == 0 else n_window + 1
    if k < 2 or k > n_obs - 1:
        raise ValueError(
            f"pre-averaging window k_n={k} does not fit n={n_obs} observations"
        )
    return k


def _pair_labels(asset_ids):
    d = len(asset_ids)
    return tuple(
        f"{asset_ids[i]}-{asset_ids[j]}" for i in range(d) for j in range(i + 1, d)
    )


@dataclass(frozen=True)
class MrcResult:
    matrix: np.ndarray
    asset_ids: tuple[str, ...]
    is_corr: bool

    @property
    def pair_labels(self) -> tuple[str, ...]:
        return _pair_labels(self.asset_ids)

    @property
    def pair_values(self) -> np.ndarray:
        """Upper-triangle entries in canonical pair order."""
        d = self.matrix.shape[0]
        iu = np.triu_indices(d, k=1)
        return self.matrix[iu]


def _preaveraged_cov(blocks: np.ndarray, cfg: MrcConfig) -> np.ndarray:
    """Pre-averaged covariance (or correlation) of each block of a ``(W, n, d)`` stack.

    Every block has the same row count ``n``, so one window length, one set
    of prefix-sum slices and one scale serve the whole stack.
    """
    n_blocks, n, d = blocks.shape
    k = mrc_window_length(n, cfg)
    half = k // 2
    m = n - k + 1
    # centering by the first row cancels exactly inside each pre-averaged
    # difference and keeps the prefix sums well conditioned
    values = blocks - blocks[:, :1]
    # unnormalized pre-averaged sums via prefix sums; exact on integer input
    prefix = np.concatenate([np.zeros((n_blocks, 1, d)), np.cumsum(values, axis=1)], axis=1)
    pre = prefix[:, k : k + m] - 2.0 * prefix[:, half : half + m] + prefix[:, 0:m]
    # each Gram on its own contiguous (m, d) block: a batched product would
    # sum in another order and change the last bits
    cov = np.empty((n_blocks, d, d))
    for w, block in enumerate(pre):
        cov[w] = block.T @ block
    cov *= (n - 1) / (n - k + 1) * 12.0 / k / (k * k)
    if cfg.is_corr:
        sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            cov = cov / (sd[:, :, None] * sd[:, None, :])
        cov[~np.isfinite(cov)] = 0.0
    return cov


def mrc(prices, cfg: MrcConfig = MrcConfig()) -> MrcResult:
    """Pre-averaged covariance (or correlation) of one block of prices."""
    if isinstance(prices, PriceMatrix):
        values, ids = prices.log_prices, prices.asset_ids
    else:
        values = np.asarray(prices, dtype=float)
        ids = tuple(f"a{j}" for j in range(values.shape[1]))
    cov = _preaveraged_cov(values[None], cfg)[0]
    return MrcResult(matrix=cov, asset_ids=ids, is_corr=cfg.is_corr)


@dataclass(frozen=True)
class RollingMrc:
    """One pre-averaged covariance (or correlation) vector per window."""

    window_starts: np.ndarray
    values: np.ndarray
    pair_labels: tuple[str, ...]
    asset_ids: tuple[str, ...]
    is_corr: bool
    skipped_windows: int = 0

    def to_path(self, mesh_fine: float = 0.01, ratio: int = 18) -> SampledPath:
        """Edge time series on an abstract uniform grid for model fitting.

        The windows are mapped to an evenly spaced grid of step
        ``mesh_fine`` (the model is invariant to this time rescaling up to
        a corresponding rescaling of the drift parameters).  The oldest
        windows are trimmed as needed so the coarse sub-grid stays uniform
        up to the final observation.
        """
        excess = (self.window_starts.size - 1) % _coarse_ratio(ratio)
        values = self.values[excess:]
        times = np.arange(values.shape[0]) * mesh_fine
        grid = grid_from_times(times, ratio=ratio)
        return SampledPath(grid=grid, values=values, labels=self.pair_labels)


def _window_starts(t0: float, t_end: float, window: float, step: float) -> np.ndarray:
    """Starts ``t0 + i*step`` of every window ``[start, start + window]`` within ``t_end``.

    Each start is computed from ``t0`` directly, so rounding does not build
    up over a long session the way repeated ``start += step`` would.
    """
    count = max(0, int(np.floor((t_end - window - t0) / step)) + 2)
    starts = t0 + step * np.arange(count)
    return starts[starts + window <= t_end]


# price cells stacked per batch (512 KiB a copy): the kernel makes a few copies
# of its stack, so bounding the stack keeps overlapping windows from copying
# the price matrix many times over at once
_BATCH_CELLS = 1 << 16


def rolling_mrc(
    prices: PriceMatrix,
    cfg: MrcConfig,
    window: float,
    step: float | None = None,
) -> RollingMrc:
    """Apply the pre-averaged estimator over rolling time windows.

    Windows shorter than the minimum usable row count are skipped with a
    warning.  ``step`` defaults to ``window`` (non-overlapping).  Windows
    of equal row count are stacked and estimated in batches.
    """
    if step is None:
        step = window
    if not 0 < step <= window:
        raise ValueError("step must be positive and no longer than the window")
    # a window counts as covered up to one typical spacing past the last tick
    slack = float(np.median(np.diff(prices.times)))
    starts = _window_starts(prices.times[0], prices.times[-1] + slack + 1e-9, window, step)
    lo = np.searchsorted(prices.times, starts, side="left")
    counts = np.searchsorted(prices.times, starts + window, side="left") - lo
    d = len(prices.asset_ids)
    upper = np.triu_indices(d, k=1)
    values = np.empty((starts.size, upper[0].size))
    usable = np.zeros(starts.size, dtype=bool)
    for n in np.unique(counts).tolist():
        try:
            mrc_window_length(n, cfg)
        except ValueError:
            continue
        group = np.flatnonzero(counts == n)
        size = max(1, _BATCH_CELLS // (n * d))
        for i in range(0, group.size, size):
            members = group[i : i + size]
            rows = lo[members, None] + np.arange(n)
            values[members] = _preaveraged_cov(prices.log_prices[rows], cfg)[:, upper[0], upper[1]]
            usable[members] = True
    for start in starts[~usable].tolist():
        warnings.warn(
            f"window starting at {start} has too few observations; skipped",
            stacklevel=2,
        )
    if not usable.any():
        raise IngestionError("no window produced a covariance estimate")
    return RollingMrc(
        window_starts=starts[usable],
        values=values[usable],
        pair_labels=_pair_labels(prices.asset_ids),
        asset_ids=prices.asset_ids,
        is_corr=cfg.is_corr,
        skipped_windows=int((~usable).sum()),
    )


def _parse_timestamp(token: str) -> float:
    """A timestamp cell as a number: epoch seconds from ISO-8601, else the number as written.

    Epoch nanoseconds are told apart by magnitude later, on the whole column.
    """
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        stamp = datetime.fromisoformat(token)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return stamp.timestamp()


def _cell(parse, token: str) -> float:
    """``parse(token)``, or NaN where it fails."""
    try:
        return parse(token)
    except (ValueError, TypeError):
        return math.nan


def _parse_cells(rows: list[list[str]]) -> np.ndarray:
    """``(len(rows), width)`` numbers of equal-width rows; NaN where a cell does not parse.

    The bulk conversion calls ``float`` on every cell; a chunk holding any
    cell it rejects (an ISO timestamp, a stray word) is parsed cell by cell.
    """
    try:
        return np.array([cell for row in rows for cell in row], dtype=float).reshape(len(rows), -1)
    except ValueError:
        return np.array(
            [[_cell(_parse_timestamp, row[0]), *(_cell(float, x) for x in row[1:])] for row in rows]
        )


def _second_of_day(epoch_seconds: np.ndarray) -> np.ndarray:
    """Whole UTC second of the day, as ``datetime.fromtimestamp`` reads it.

    ``fromtimestamp`` rounds the fraction to the microsecond (half to even)
    before it takes the whole second, so a time a few hundred nanoseconds
    short of a second counts as that second.
    """
    whole = np.trunc(epoch_seconds)
    micros = np.rint((epoch_seconds - whole) * 1e6)
    whole = whole + (micros >= 1e6) - (micros < 0)
    return np.mod(whole, 86400.0)


# regular session 09:30-16:00; trimming drops the first and last hour (minutes of the day)
_SESSION = (9 * 60 + 30, 16 * 60)
_TRIMMED = (10 * 60 + 30, 15 * 60)
# lines parsed per chunk: bounds the lines and cells held at once
_CHUNK_ROWS = 32_768


def _fast_cells(lines: list[str], width: int) -> np.ndarray | None:
    """The chunk's cells read by numpy's C reader, or None where they must go through ``csv``.

    The result is used only where it is certain to equal ``csv``'s reading:
    one row of ``width`` numbers per line.  The last line must close its
    record (a quoted cell may run on into the next chunk), and a line that
    numpy drops (a blank one) or a chunk of uniformly narrow rows shows as
    a wrong shape.
    """
    try:
        if len(next(csv.reader(lines[-1:], strict=True))) != width:
            return None
        cells = np.loadtxt(
            lines, delimiter=",", dtype=float, ndmin=2, comments=None, quotechar='"'
        )
    except (ValueError, csv.Error):
        return None
    return cells if cells.shape == (len(lines), width) else None


def ingest_prices(
    file,
    frequency: float = 1.0,
    market_hours: bool = False,
    trim_open_close: bool = False,
) -> PriceMatrix:
    """Read a price CSV and synchronize it onto a fixed-frequency grid.

    The file must have a ``timestamp`` column (ISO-8601, epoch seconds, or
    epoch nanoseconds) followed by one mid-quote column per asset.  Within
    each frequency bin the last observed price wins; bins without any
    observation carry the previous value forward.  Prices are
    log-transformed.  A row is skipped and counted when it has the wrong
    number of fields, a cell that does not parse, a non-finite timestamp, a
    non-finite or non-positive price, or (with ``market_hours`` or
    ``trim_open_close``) a time outside the session.  An empty result, or
    a time span too long to lay out on the grid, raises.

    The file is read in chunks of ``_CHUNK_ROWS`` lines.  numpy's C reader
    parses a chunk first; a chunk it rejects (an ISO-8601 stamp, a cell it
    does not read as a number, a row of the wrong width, a blank line, a
    quoted cell that runs past the chunk's last line) goes through
    ``csv`` record by record with the same grammar, so the result does not
    depend on which reader took a chunk.  A rejected chunk pays for the
    failed attempt too; an ISO-stamped file fails at its first cell.
    """
    if not frequency > 0:
        raise ValueError(f"frequency must be positive, got {frequency}")
    wall_lo, wall_hi = _TRIMMED if trim_open_close else _SESSION
    filter_hours = market_hours or trim_open_close
    kept, skipped = [], 0
    with open(file, newline="") as fh:
        lines_in = (line for line in fh if not line.startswith("#"))
        try:
            header = next(csv.reader(lines_in))
        except StopIteration:
            raise IngestionError(f"{file}: empty file") from None
        if len(header) < 2 or header[0].lower() not in ("timestamp", "time"):
            raise IngestionError(
                f"{file}: expected header 'timestamp,<asset>,...', got {header!r}"
            )
        asset_ids = tuple(h.strip() for h in header[1:])
        while lines := list(itertools.islice(lines_in, _CHUNK_ROWS)):
            cells = _fast_cells(lines, len(header))
            if cells is None:
                # csv's records of the chunk; one that runs past its last line reads on from the file
                reader = csv.reader(itertools.chain(lines, lines_in))
                chunk = []
                while reader.line_num < len(lines):
                    chunk.append(next(reader))
                rows = [row for row in chunk if len(row) == len(header)]
                skipped += len(chunk) - len(rows)
                if not rows:
                    continue
                cells = _parse_cells(rows)
            t = cells[:, 0]
            cells[:, 0] = np.where(np.abs(t) > 1e14, t / 1e9, t)  # epoch nanoseconds
            quotes = cells[:, 1:]
            good = np.isfinite(cells[:, 0]) & np.all(np.isfinite(quotes) & (quotes > 0), axis=1)
            if filter_hours:
                second = _second_of_day(np.where(good, cells[:, 0], 0.0))
                good &= (60 * wall_lo <= second) & (second < 60 * wall_hi)
            skipped += len(cells) - int(good.sum())
            kept.append(cells[good])
    if not any(part.shape[0] for part in kept):
        raise IngestionError(f"{file}: no usable price rows")
    cells = np.concatenate(kept)
    cells = cells[np.argsort(cells[:, 0], kind="stable")]
    times, quotes = cells[:, 0], cells[:, 1:]

    span = times[-1] - times[0]
    n_bins = np.floor(span / frequency) + 1
    if not n_bins < 2.0**63:  # also catches an infinite span
        raise IngestionError(
            f"{file}: {n_bins:.6g} frequency bins over a time span of {span:.6g} s; "
            "check the timestamps"
        )
    n_bins = int(n_bins)
    if n_bins < 2:
        raise IngestionError(f"{file}: fewer than two usable frequency bins")
    bins = np.floor((times - times[0]) / frequency).astype(int)
    try:
        grid_prices = np.full((n_bins, quotes.shape[1]), np.nan)
        grid_prices[bins] = quotes  # later rows overwrite: last observation wins
        # forward fill empty bins
        missing = np.isnan(grid_prices[:, 0])
        if missing.any():
            last = np.maximum.accumulate(np.where(~missing, np.arange(n_bins), 0))
            grid_prices = grid_prices[last]
        log_prices = np.log(grid_prices)
        grid_times = times[0] + frequency * np.arange(n_bins)
    except MemoryError:
        raise IngestionError(
            f"{file}: {n_bins} frequency bins over a time span of {span:.6g} s do not fit in "
            "memory; check the timestamps"
        ) from None
    return PriceMatrix(
        times=grid_times,
        log_prices=log_prices,
        asset_ids=asset_ids,
        skipped_rows=skipped,
    )


def write_edge_series_csv(rolling: RollingMrc, file, header_lines=()) -> None:
    """Long-format rows ``window_start,pair,value``, numbers as ``%.17g``.

    ``# assets: [...]`` (a JSON list) and ``# is_corr: true|false`` header
    lines carry what the pair labels cannot: asset ids may contain ``-``.
    """
    starts = np.asarray(rolling.window_starts, dtype=float)
    values = np.asarray(rolling.values, dtype=float)
    # one format string per window, filled from (start, value) pairs in row order
    window_rows = "".join(
        f"%.17g,{label.replace('%', '%%')},%.17g\n" for label in rolling.pair_labels
    )
    cells = np.empty(values.shape + (2,))
    cells[..., 0] = starts[:, None]
    cells[..., 1] = values
    with open(file, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# assets: {json.dumps(list(rolling.asset_ids))}\n")
        fh.write(f"# is_corr: {json.dumps(bool(rolling.is_corr))}\n")
        fh.write("window_start,pair,value\n")
        fh.write((window_rows * starts.size) % tuple(cells.ravel().tolist()))


def read_edge_series_csv(file) -> RollingMrc:
    """Inverse of :func:`write_edge_series_csv`.

    Without an ``# assets:`` header line (files written by older versions)
    the asset ids are recovered by splitting the pair labels on ``-``, and
    ``is_corr`` defaults to False.
    """
    with open(file, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    meta: dict[str, object] = {}
    for ln in lines:
        if ln.startswith("#"):
            key, sep, text = ln[1:].strip().partition(": ")
            if sep and key in ("assets", "is_corr"):
                try:
                    meta[key] = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise IngestionError(f"{file}: malformed '# {key}:' header") from exc
    body = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
    if not body or body[0].strip() != "window_start,pair,value":
        raise IngestionError(f"{file}: expected 'window_start,pair,value' header")
    rows = body[1:]
    if any(ln.count(",") != 2 for ln in rows):
        raise IngestionError(f"{file}: expected three fields per row")
    fields = ",".join(rows).split(",") if rows else []
    if "assets" in meta:
        assets = tuple(str(a) for a in meta["assets"])
        labels = _pair_labels(assets)
    else:
        labels = tuple(dict.fromkeys(fields[1::3]))
        assets = tuple(dict.fromkeys(a for lab in labels for a in lab.split("-")))
    P = len(labels)
    n_windows = len(rows) // P if P else 0
    if not n_windows or len(rows) != P * n_windows or fields[1::3] != list(labels) * n_windows:
        raise IngestionError(f"{file}: expected one row per pair, in pair order, for every window")
    stamps = np.array(fields[0::3], dtype=float).reshape(n_windows, P)
    if not np.all(stamps == stamps[:, :1]):
        raise IngestionError(f"{file}: expected one row per pair, in pair order, for every window")
    return RollingMrc(
        window_starts=stamps[:, 0].copy(),
        values=np.array(fields[2::3], dtype=float).reshape(n_windows, P),
        pair_labels=labels,
        asset_ids=assets,
        is_corr=bool(meta.get("is_corr", False)),
    )
