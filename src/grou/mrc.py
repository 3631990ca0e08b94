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
import json
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from ._parallel import parallel_map
from .errors import IngestionError
from .simulate import SampledPath, grid_from_times

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


def mrc(prices, cfg: MrcConfig = MrcConfig()) -> MrcResult:
    """Pre-averaged covariance (or correlation) of one block of prices."""
    if isinstance(prices, PriceMatrix):
        values, ids = prices.log_prices, prices.asset_ids
    else:
        values = np.asarray(prices, dtype=float)
        ids = tuple(f"a{j}" for j in range(values.shape[1]))
    n = values.shape[0]
    k = mrc_window_length(n, cfg)
    half = k // 2
    m = n - k + 1
    # centering by the first row cancels exactly inside each pre-averaged
    # difference and keeps the prefix sums well conditioned
    values = values - values[0]
    # unnormalized pre-averaged sums via prefix sums; exact on integer input
    prefix = np.vstack([np.zeros((1, values.shape[1])), np.cumsum(values, axis=0)])
    pre = prefix[k : k + m] - 2.0 * prefix[half : half + m] + prefix[0:m]
    gram = pre.T @ pre
    scale = (n - 1) / (n - k + 1) * 12.0 / k / (k * k)
    cov = gram * scale
    if cfg.is_corr:
        sd = np.sqrt(np.diag(cov))
        with np.errstate(divide="ignore", invalid="ignore"):
            cov = cov / np.outer(sd, sd)
        cov[~np.isfinite(cov)] = 0.0
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
        excess = (self.window_starts.size - 1) % ratio
        values = self.values[excess:]
        times = np.arange(values.shape[0]) * mesh_fine
        grid = grid_from_times(times, ratio=ratio)
        return SampledPath(grid=grid, values=values, labels=self.pair_labels)


def _window_starts(t0: float, t_end: float, window: float, step: float) -> list[float]:
    """Starts ``t0 + i*step`` of every window ``[start, start + window]`` within ``t_end``.

    Each start is computed from ``t0`` directly, so rounding does not build
    up over a long session the way repeated ``start += step`` would.
    """
    count = max(0, int(np.floor((t_end - window - t0) / step)) + 2)
    starts = t0 + step * np.arange(count)
    return starts[starts + window <= t_end].tolist()


def rolling_mrc(
    prices: PriceMatrix,
    cfg: MrcConfig,
    window: float,
    step: float | None = None,
    threads: int = 1,
) -> RollingMrc:
    """Apply the pre-averaged estimator over rolling time windows.

    Windows shorter than the minimum usable row count are skipped with a
    warning.  ``step`` defaults to ``window`` (non-overlapping).  Windows
    are independent, so ``threads > 1`` maps them onto a worker pool with
    order-stable results.
    """
    if step is None:
        step = window
    if not 0 < step <= window:
        raise ValueError("step must be positive and no longer than the window")
    # a window counts as covered up to one typical spacing past the last tick
    slack = float(np.median(np.diff(prices.times)))
    candidates = _window_starts(prices.times[0], prices.times[-1] + slack + 1e-9, window, step)

    def one(start):
        lo = np.searchsorted(prices.times, start, side="left")
        hi = np.searchsorted(prices.times, start + window, side="left")
        try:
            return mrc(prices.log_prices[lo:hi], cfg).pair_values
        except ValueError:
            return None

    results = parallel_map(one, candidates, threads)

    starts, rows, skipped = [], [], 0
    for start, values in zip(candidates, results):
        if values is None:
            skipped += 1
            warnings.warn(
                f"window starting at {start} has too few observations; skipped",
                stacklevel=2,
            )
            continue
        starts.append(start)
        rows.append(values)
    if not rows:
        raise IngestionError("no window produced a covariance estimate")
    return RollingMrc(
        window_starts=np.asarray(starts),
        values=np.asarray(rows),
        pair_labels=_pair_labels(prices.asset_ids),
        asset_ids=prices.asset_ids,
        is_corr=cfg.is_corr,
        skipped_windows=skipped,
    )


def _parse_timestamp(token: str) -> float:
    """Epoch seconds from ISO-8601, epoch seconds, or epoch nanoseconds."""
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        stamp = datetime.fromisoformat(token)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return stamp.timestamp()
    if abs(value) > 1e14:  # epoch nanoseconds
        return value / 1e9
    return value


def _wallclock_minutes(epoch_seconds: float) -> float:
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.hour * 60 + stamp.minute + stamp.second / 60.0


# regular session 09:30-16:00; trimming drops the first and last hour
_SESSION = (9 * 60 + 30, 16 * 60)
_TRIMMED = (10 * 60 + 30, 15 * 60)


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
    log-transformed.  Unparseable or non-positive rows are counted and
    skipped; an empty result raises.
    """
    wall_lo, wall_hi = _TRIMMED if trim_open_close else _SESSION
    filter_hours = market_hours or trim_open_close
    times, rows, skipped = [], [], 0
    with open(file, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{file}: empty file") from None
        if len(header) < 2 or header[0].lower() not in ("timestamp", "time"):
            raise IngestionError(
                f"{file}: expected header 'timestamp,<asset>,...', got {header!r}"
            )
        asset_ids = tuple(h.strip() for h in header[1:])
        for row in reader:
            if len(row) != len(header):
                skipped += 1
                continue
            try:
                t = _parse_timestamp(row[0])
                quotes = [float(x) for x in row[1:]]
            except (ValueError, TypeError):
                skipped += 1
                continue
            if any(not np.isfinite(q) or q <= 0 for q in quotes):
                skipped += 1
                continue
            if filter_hours:
                minute = _wallclock_minutes(t)
                if not wall_lo <= minute < wall_hi:
                    skipped += 1
                    continue
            times.append(t)
            rows.append(quotes)
    if not rows:
        raise IngestionError(f"{file}: no usable price rows")
    times = np.asarray(times)
    rows = np.asarray(rows)
    order = np.argsort(times, kind="stable")
    times, rows = times[order], rows[order]

    bins = np.floor((times - times[0]) / frequency).astype(int)
    n_bins = bins[-1] + 1
    grid_prices = np.full((n_bins, rows.shape[1]), np.nan)
    grid_prices[bins] = rows  # later rows overwrite: last observation wins
    # forward fill empty bins
    filled = grid_prices
    missing = np.isnan(filled[:, 0])
    if missing.any():
        idx = np.arange(n_bins)
        last = np.maximum.accumulate(np.where(~missing, idx, 0))
        filled = filled[last]
    if n_bins < 2:
        raise IngestionError(f"{file}: fewer than two usable frequency bins")
    grid_times = times[0] + frequency * np.arange(n_bins)
    return PriceMatrix(
        times=grid_times,
        log_prices=np.log(filled),
        asset_ids=asset_ids,
        skipped_rows=skipped,
    )


def write_edge_series_csv(rolling: RollingMrc, file, header_lines=()) -> None:
    """Long-format rows ``window_start,pair,value``.

    ``# assets: [...]`` (a JSON list) and ``# is_corr: true|false`` header
    lines carry what the pair labels cannot: asset ids may contain ``-``.
    """
    with open(file, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(f"# assets: {json.dumps(list(rolling.asset_ids))}\n")
        fh.write(f"# is_corr: {json.dumps(bool(rolling.is_corr))}\n")
        fh.write("window_start,pair,value\n")
        for t, row in zip(rolling.window_starts, rolling.values):
            for label, v in zip(rolling.pair_labels, row):
                fh.write(f"{t:.17g},{label},{v:.17g}\n")


def read_edge_series_csv(file) -> RollingMrc:
    """Inverse of :func:`write_edge_series_csv`.

    Without an ``# assets:`` header line (files written by older versions)
    the asset ids are recovered by splitting the pair labels on ``-``, and
    ``is_corr`` defaults to False.
    """
    meta: dict[str, object] = {}
    lines = []
    with open(file, encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("#"):
                key, sep, text = ln[1:].strip().partition(": ")
                if sep and key in ("assets", "is_corr"):
                    try:
                        meta[key] = json.loads(text)
                    except json.JSONDecodeError as exc:
                        raise IngestionError(f"{file}: malformed '# {key}:' header") from exc
            elif ln.strip():
                lines.append(ln.rstrip("\r\n"))
    if not lines or lines[0].strip() != "window_start,pair,value":
        raise IngestionError(f"{file}: expected 'window_start,pair,value' header")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(row) != 3 for row in rows):
        raise IngestionError(f"{file}: expected three fields per row")
    if "assets" in meta:
        assets = tuple(str(a) for a in meta["assets"])
        labels = _pair_labels(assets)
    else:
        labels = tuple(dict.fromkeys(row[1] for row in rows))
        assets = tuple(dict.fromkeys(a for lab in labels for a in lab.split("-")))
    P = len(labels)
    starts = [float(row[0]) for row in rows[::P]] if P else []
    if (
        not starts
        or len(rows) != P * len(starts)
        or any(row[1] != labels[k % P] for k, row in enumerate(rows))
        or any(float(row[0]) != starts[k // P] for k, row in enumerate(rows))
    ):
        raise IngestionError(f"{file}: expected one row per pair, in pair order, for every window")
    return RollingMrc(
        window_starts=np.asarray(starts),
        values=np.array([float(row[2]) for row in rows]).reshape(len(starts), P),
        pair_labels=labels,
        asset_ids=assets,
        is_corr=bool(meta.get("is_corr", False)),
    )
