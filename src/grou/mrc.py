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
import io
import itertools
import json
import math
import re
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
    # one symmetric product per contiguous (m, d) block, as ``block.T @ block`` takes
    cov = np.swapaxes(pre, 1, 2) @ pre
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


# ISO-8601 stamps that numpy's datetime64 reads as datetime.fromisoformat does:
# date, then optional hour, minutes, seconds and fraction, no zone
_ISO_STAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:[T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{1,9})?)?)?)?"
)


def _iso_stamps(tokens: list[str]) -> np.ndarray | None:
    """Epoch seconds of a column of plain ISO-8601 stamps through ``datetime64[us]``, or None.

    None unless every stamp has the form of ``_ISO_STAMP`` and numpy reads
    it without a warning or an error, to a microsecond count that a float
    holds exactly (within about 285 years of 1970), so that each value is
    the one :func:`_parse_timestamp` gives.
    """
    if not all(map(_ISO_STAMP.fullmatch, tokens)):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            micros = np.array(tokens).astype("datetime64[us]").astype(np.int64)
    except (ValueError, Warning):
        return None
    if np.any(np.abs(micros) > 2**53):
        return None
    return micros / 1e6


def _parse_cells(rows: list[list[str]]) -> np.ndarray:
    """``(len(rows), width)`` numbers of equal-width rows; NaN where a cell does not parse.

    The stamps go through ``float``, then through :func:`_iso_stamps`, then
    cell by cell, and the prices through ``float`` or cell by cell.
    """
    stamps = [row[0] for row in rows]
    try:
        times = np.array(stamps, dtype=float)
    except ValueError:
        times = _iso_stamps(stamps)
        if times is None:
            times = np.array([_cell(_parse_timestamp, token) for token in stamps])
    try:
        quotes = np.array([row[1:] for row in rows], dtype=float)
    except ValueError:
        quotes = np.array([[_cell(float, token) for token in row[1:]] for row in rows])
    return np.column_stack([times, quotes])


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
# characters read per block: a block (completed to its line end) is what
# one reader parses at once, and bounds the text and cells held at once
_BLOCK_CHARS = 1 << 20
# characters that send a block to csv: the line ends of str.splitlines that
# file iteration keeps within a line, and the control characters numpy's
# reader strips around a number, where float rejects them
_SCREEN = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _fast_cells(block: str, width: int) -> tuple[np.ndarray | None, int]:
    """A block's cells read by numpy's C reader and its blank-line count; ``(None, 0)`` sends it to ``csv``.

    ``block`` is whole lines of the file after its header.  Without any
    character of ``_SCREEN``, ``str.splitlines`` splits it into file
    iteration's lines.  Their ``#`` lines are dropped as file iteration
    drops them, and their blank lines are dropped and counted, as ``csv``
    reads each as an empty record, a skipped row.  The result is used only
    where it is certain to equal ``csv``'s reading: one row of ``width``
    numbers per line.  The last line must close its record (a quoted cell
    may run on into the next block), and lines that a quoted cell joins into
    one row (over blank lines too) or a block of uniformly narrow rows shows
    as a wrong shape.
    """
    if any(char in block for char in _SCREEN):
        return None, 0
    lines = block.splitlines()
    blank = lines.count("")
    if blank or "#" in block:
        lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        return np.empty((0, width)), blank
    try:
        if len(next(csv.reader(lines[-1:], strict=True))) != width:
            return None, 0
        cells = np.loadtxt(
            lines, delimiter=",", dtype=float, ndmin=2, comments=None, quotechar='"'
        )
    except (ValueError, csv.Error):
        return None, 0
    return (cells, blank) if cells.shape == (len(lines), width) else (None, 0)


def _csv_cells(block: str, rest, width: int) -> tuple[np.ndarray, int]:
    """A block's cells read by ``csv`` record by record, and the count of its records of the wrong width.

    The records run over the block's file-iteration lines without its ``#``
    lines; a record that runs past the block reads on from ``rest``, the
    file's own lines.  The cells go through :func:`_parse_cells`.
    """
    lines = [line for line in io.StringIO(block, newline="") if not line.startswith("#")]
    reader = csv.reader(itertools.chain(lines, rest))
    records = []
    while reader.line_num < len(lines):
        records.append(next(reader))
    rows = [row for row in records if len(row) == width]
    return (_parse_cells(rows) if rows else np.empty((0, width))), len(records) - len(rows)


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
    ``trim_open_close``) a time outside the session.  Lines starting with
    ``#`` are dropped.  An empty result, or a time span too long to lay
    out on the grid, raises.

    The file is read in blocks of about ``_BLOCK_CHARS`` characters, each
    completed to its line end, and each block through one of two readers:
    numpy's C reader where it reads the block's lines as ``csv`` would
    (:func:`_fast_cells`), else ``csv`` record by record with the same
    grammar, stamps through ``float``, ``datetime64`` or
    ``datetime.fromisoformat`` (:func:`_csv_cells`).  So the result does not
    depend on which reader took a block.  A block that numpy's reader turns
    away pays for the failed attempt too.
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
        width = len(header)
        while block := fh.read(_BLOCK_CHARS):
            block += fh.readline()
            cells, wrong_width = _fast_cells(block, width)
            if cells is None:
                cells, wrong_width = _csv_cells(block, lines_in, width)
            skipped += wrong_width
            t = cells[:, 0]
            cells[:, 0] = np.where(np.abs(t) > 1e14, t / 1e9, t)  # epoch nanoseconds
            # a finite stamp, finite positive prices; whole-array passes, as
            # reductions along the short rows are slow
            ok = cells > 0
            ok[:, 0] = True
            ok &= np.isfinite(cells)
            good = np.ones(len(cells), dtype=bool)
            good[np.flatnonzero(~ok) // width] = False
            if filter_hours:
                second = _second_of_day(np.where(good, cells[:, 0], 0.0))
                good &= (60 * wall_lo <= second) & (second < 60 * wall_hi)
            n_good = int(good.sum())
            skipped += len(cells) - n_good
            kept.append(cells if n_good == len(cells) else cells[good])
    if not any(part.shape[0] for part in kept):
        raise IngestionError(f"{file}: no usable price rows")
    cells = np.concatenate(kept) if len(kept) > 1 else kept[0]
    if np.any(cells[1:, 0] < cells[:-1, 0]):
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
        if bins.size == n_bins and np.all(bins[1:] - bins[:-1] == 1):
            grid_prices = quotes  # one row in every bin
        else:
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
    Each window's start is formatted once and copied into its rows.
    """
    starts = np.asarray(rolling.window_starts, dtype=float)
    values = np.asarray(rolling.values, dtype=float)
    # one format string per window, filled from (start text, value) pairs in row order
    window_rows = "".join(f"%s,{label.replace('%', '%%')},%.17g\n" for label in rolling.pair_labels)
    cells = np.empty(values.shape + (2,), dtype=object)
    cells[..., 0] = np.array(["%.17g" % start for start in starts.tolist()], dtype=object)[:, None]
    cells[..., 1] = values
    with open(file, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# assets: {json.dumps(list(rolling.asset_ids))}\n")
        fh.write(f"# is_corr: {json.dumps(bool(rolling.is_corr))}\n")
        fh.write(f"{_EDGE_HEADER}\n")
        fh.write((window_rows * starts.size) % tuple(cells.ravel().tolist()))


_EDGE_HEADER = "window_start,pair,value"


def _edge_meta(file, lines) -> dict:
    """The ``# assets:`` and ``# is_corr:`` entries of an edge series' ``#`` lines; the last one wins."""
    meta = {}
    for ln in lines:
        if ln.startswith("#"):
            key, sep, text = ln[1:].strip().partition(": ")
            if sep and key in ("assets", "is_corr"):
                try:
                    meta[key] = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise IngestionError(f"{file}: malformed '# {key}:' header") from exc
    return meta


def _edge_cells(file, skiprows: int, buf: np.ndarray, n_rows: int):
    """The start and value columns of an edge series' rows, read by numpy's C reader from ``file``.

    ``buf`` holds the rows' UTF-8 bytes and ``n_rows`` their count.  None
    where the reader could read a cell apart from ``float``: it takes the
    control characters ``\\x1c``-``\\x1f`` for spaces, and rejects ``1_0``
    and non-ASCII digits.
    """
    if np.any((buf >= 0x1C) & (buf <= 0x1F)):
        return None
    try:
        cells = np.loadtxt(
            file, delimiter=",", usecols=(0, 2), comments=None, skiprows=skiprows, ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        return None
    return (cells[:, 0], cells[:, 1]) if cells.shape[0] == n_rows else None


def read_edge_series_csv(file) -> RollingMrc:
    """Inverse of :func:`write_edge_series_csv`.

    Without an ``# assets:`` header line (files written by older versions)
    the asset ids are recovered by splitting the pair labels on ``-``, and
    ``is_corr`` defaults to False.  Blank lines and ``#`` lines are skipped
    wherever they stand.

    The rows are checked as arrays over their bytes: two commas on every
    line, then each row's label (the bytes between them) against the pair
    order.  In a file of ``#`` lines, the header and plain rows, numpy's C
    reader parses the starts and values, unless a cell could read apart
    from ``float`` (see :func:`_edge_cells`).  A file with a blank or ``#``
    line among its rows, a row that starts with a space or a non-ASCII
    character, or spaces around its header, is split into lines in Python,
    and its cells go through ``float``.
    """
    with open(file, encoding="utf-8") as fh:
        text = fh.read()
    head, sep, body = ("\n" + text).partition(f"\n{_EDGE_HEADER}\n")
    lines = head.split("\n")[1:]
    body = body.removesuffix("\n")
    buf = np.frombuffer(body.encode(), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate([[0], ends + 1])
    plain = (
        sep and starts[-1] < buf.size and all(ln.startswith("#") for ln in lines)
        and not np.any((buf[starts] <= 32) | (buf[starts] == ord("#")) | (buf[starts] >= 128))
    )
    if not plain:
        lines = text.split("\n")
        rows = [ln for ln in lines if ln.strip() and not ln.startswith("#")]
    meta = _edge_meta(file, lines)
    if not plain:
        if not rows or rows[0].strip() != _EDGE_HEADER:
            raise IngestionError(f"{file}: expected '{_EDGE_HEADER}' header")
        body = "\n".join(rows[1:])
        buf = np.frombuffer(body.encode(), np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
    n_rows = ends.size + 1 if buf.size else 0
    # two commas on every line: the k-th pair of commas lies in the k-th line
    commas = np.flatnonzero(buf == ord(","))
    left, right = commas[0::2], commas[1::2]
    if commas.size != 2 * n_rows or np.any(left <= np.concatenate([[-1], ends])) or np.any(
        right >= np.concatenate([ends, [buf.size]])
    ):
        raise IngestionError(f"{file}: expected three fields per row")
    fields = None
    if "assets" in meta:
        assets = tuple(str(a) for a in meta["assets"])
        labels = _pair_labels(assets)
    else:
        fields = body.replace("\n", ",").split(",")
        labels = tuple(dict.fromkeys(fields[1::3]))
        assets = tuple(dict.fromkeys(a for lab in labels for a in lab.split("-")))
    P = len(labels)
    n_windows = n_rows // P if P else 0
    order_error = IngestionError(f"{file}: expected one row per pair, in pair order, for every window")
    if not n_windows or n_rows != P * n_windows:
        raise order_error
    # each row's label, the bytes between its commas, against the pair order
    encoded = [label.encode() for label in labels]
    widths = np.tile([len(e) for e in encoded], n_windows)
    if not np.array_equal(right - left - 1, widths):
        raise order_error
    offsets = np.cumsum(widths) - widths
    label_bytes = buf[np.arange(widths.sum()) + np.repeat(left + 1 - offsets, widths)]
    if label_bytes.tobytes() != b"".join(encoded) * n_windows:
        raise order_error
    columns = _edge_cells(file, len(lines) + 1, buf, n_rows) if plain else None
    if columns is None:
        fields = body.replace("\n", ",").split(",") if fields is None else fields
        columns = fields[0::3], fields[2::3]
    stamps = np.asarray(columns[0], dtype=float).reshape(n_windows, P)
    if not np.all(stamps == stamps[:, :1]):
        raise order_error
    return RollingMrc(
        window_starts=stamps[:, 0].copy(),
        values=np.ascontiguousarray(columns[1], dtype=float).reshape(n_windows, P),
        pair_labels=labels,
        asset_ids=assets,
        is_corr=bool(meta.get("is_corr", False)),
    )
