"""Correctness oracles computed apart from the library.

Every function here rebuilds what it checks from first principles (the
estimator and pre-averaging formulas in the module docstrings of
``grou.estimate`` and ``grou.mrc``, the companion form, the Poisson law) and
uses only numpy and scipy.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

MODELS = ("NA", "AR", "VAR", "GNAR", "OU", "MCAR", "GROU")


# -- companion form and stationary law -----------------------------------------


def companion_transition(alpha, beta, weights):
    """Drift matrix [[0, I, ...], ..., [-Q_L, ..., -Q_1]] with Q_l = diag(alpha_l) + sum_r beta_lr W_r."""
    alpha = np.asarray(alpha, dtype=float)
    L, K = alpha.shape
    Q = []
    for lag in range(L):
        q = np.diag(alpha[lag])
        for r, b in enumerate(beta[lag], start=1):
            q = q + b * weights[r - 1]
        Q.append(q)
    T = np.zeros((L * K, L * K))
    for lag in range(L - 1):
        T[lag * K : (lag + 1) * K, (lag + 1) * K : (lag + 2) * K] = np.eye(K)
    for lag in range(L):
        T[(L - 1) * K :, lag * K : (lag + 1) * K] = -Q[L - 1 - lag]
    return T


def stationary_state_cov(T, noise_cov_rate):
    """Solve T G + G T' + E S E' = 0 with E routing the noise into the last block."""
    K = noise_cov_rate.shape[0]
    E = np.zeros((T.shape[0], K))
    E[-K:] = np.eye(K)
    G = solve_continuous_lyapunov(T, -E @ noise_cov_rate @ E.T)
    return 0.5 * (G + G.T)


def meansquare_spread(T, G, n_edges, t_end, n_grid=2001):
    """Gaussian-law standard deviation of a path's time-averaged squares, per edge.

    For a stationary Gaussian process with autocovariance c(h) the variance
    of (1/t) int_0^t x(s)^2 ds is (4/t^2) int_0^t (t-h) c(h)^2 dh.
    """
    hs = np.linspace(0.0, t_end, n_grid)
    step = expm((hs[1] - hs[0]) * T)
    prop = np.eye(T.shape[0])
    c = np.empty((n_grid, n_edges))
    for j in range(n_grid):
        c[j] = np.diag((prop @ G)[:n_edges, :n_edges])
        prop = step @ prop
    var = 4.0 / t_end**2 * np.trapezoid((t_end - hs)[:, None] * c**2, hs, axis=0)
    return np.sqrt(var)


# -- drift estimator -----------------------------------------------------------


def forward_differences(values, times, order):
    out = np.asarray(values, dtype=float)
    dts = np.diff(times)
    for _ in range(order):
        m = out.shape[0] - 1
        out = (out[1:] - out[:-1]) / dts[:m, None]
    return out


def drift_estimate(values, times, coarse_idx, shape, weights, brownian_cov, drift, beta_exp, ridge):
    """Thresholded discretized-likelihood drift estimate, one coarse interval at a time.

    Forward differences give the derivative states; the increment of the
    highest one over each usable coarse interval is drift-corrected and
    zeroed per component above ``spacing**beta_exp``; the Sigma-weighted
    normal equations ``(info + ridge I) theta = score`` are then solved.
    """
    lags, stages = shape
    values = np.asarray(values, dtype=float)
    K = values.shape[1]
    n_intervals = values.shape[0] - 1
    usable = np.asarray([i for i in coarse_idx if i <= n_intervals - lags])
    diffs = [forward_differences(values, times, j) for j in range(lags)]
    sigma_inv = np.linalg.inv(np.asarray(brownian_cov, dtype=float))
    p = lags * K + sum(stages)
    info = np.zeros((p, p))
    score = np.zeros(p)
    for a, b in zip(usable[:-1], usable[1:]):
        spacing = times[b] - times[a]
        inc = diffs[lags - 1][b] - diffs[lags - 1][a] - drift * spacing
        inc = np.where(np.abs(inc) <= spacing**beta_exp, inc, 0.0)
        H = np.zeros((p, K))
        row = 0
        for lag in range(1, lags + 1):
            x = diffs[lags - lag][a]
            for k in range(K):
                H[row + k, k] = x[k]
            row += K
            for r in range(1, stages[lag - 1] + 1):
                H[row] = weights[r - 1] @ x
                row += 1
        info += spacing * H @ sigma_inv @ H.T
        score -= H @ sigma_inv @ inc
    return np.linalg.solve(info + ridge * np.eye(p), score)


def check_drift_fit(theta_hat, theta_ref, rtol=1e-8):
    theta_hat, theta_ref = np.asarray(theta_hat), np.asarray(theta_ref)
    if theta_hat.shape != theta_ref.shape:
        return [f"drift fit has {theta_hat.size} parameters, oracle {theta_ref.size}"]
    gap = np.max(np.abs(theta_hat - theta_ref)) / max(np.max(np.abs(theta_ref)), 1e-300)
    if not np.isfinite(gap) or gap > rtol:
        return [f"drift fit differs from the recomputed estimator by {gap:.3g} (relative)"]
    return []


# -- simulated paths -----------------------------------------------------------


def check_poisson_count(count, expected, level=1e-6):
    """Two-sided Poisson test of an arrival count against rate x simulated time."""
    from scipy.stats import poisson  # slow to import; kept out of the timed set-up

    p = 2.0 * min(poisson.cdf(count, expected), poisson.sf(count - 1, expected))
    if p < level:
        return [f"{count} compound-Poisson arrivals against {expected:g} expected (p={p:.2g})"]
    return []


def check_arrival_times(arrivals, t_end):
    arrivals = np.asarray(arrivals)
    if arrivals.size and (arrivals.min() < 0 or arrivals.max() > t_end or np.any(np.diff(arrivals) < 0)):
        return ["arrival times are unsorted or outside the simulated interval"]
    return []


# The measured per-path spread of time-averaged squares was 0.8-1.5 times
# the Gaussian-law spread over 40 paths per regime (jumps fatten the tails),
# so the band takes the upper end.  A path of t=8 sees the slowest mode
# (relaxation time 5.8) for under two relaxation times, so one path's mean
# square has a relative spread near 1 and the mean of ten paths is skewed
# to the right; z=8 keeps a false alarm below 1e-6 per check.  The band is
# therefore a guard against divergence, not a test of a few percent.
SPREAD_INFLATION = 1.5
SPREAD_Z = 8.0


def check_pooled_variance(meansquares, stationary_var, spread):
    """Pooled per-edge mean square within z * spread / sqrt(n) of the stationary variance.

    ``meansquares`` holds one row per path: the time average of the squared
    edge values (the stationary mean is zero).  ``spread`` is the per-path
    Gaussian-law spread from :func:`meansquare_spread`.
    """
    ms = np.asarray(meansquares, dtype=float)
    n = ms.shape[0]
    pooled = ms.mean(axis=0)
    half = SPREAD_Z * SPREAD_INFLATION * np.asarray(spread) / math.sqrt(n)
    bad = ~(np.abs(pooled - stationary_var) <= half)
    if bad.any():
        return [
            f"pooled edge variance {pooled.round(4).tolist()} outside "
            f"{np.asarray(stationary_var).round(4).tolist()} +- {half.round(4).tolist()} over {n} paths"
        ]
    return []


# -- predictive study ----------------------------------------------------------


def read_study_table(file):
    with open(file, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return rows


def naive_rmse(values, n_train):
    """RMSE of carrying the last observation forward over rows ``n_train..``."""
    values = np.asarray(values, dtype=float)
    inc = values[n_train:] - values[n_train - 1 : -1]
    return math.sqrt(float(np.mean(inc**2)))


def check_study_table(rows, na_rmse_mean, rtol=1e-10):
    """Seven finite rows; NA at exactly 0.5 and with the recomputed RMSE."""
    fails = []
    names = [r.get("model") for r in rows]
    if tuple(names) != MODELS:
        return [f"study table rows {names}, expected {list(MODELS)}"]
    table = study_values(rows)
    if table is None:
        return ["non-numeric entry in the study table"]
    for model, vals in table.items():
        if not all(math.isfinite(v) for v in vals.values()):
            fails.append(f"non-finite entry in row {model}")
    na = table["NA"]
    if na["diracc_mean"] != 0.5:
        fails.append(f"NA directional accuracy {na['diracc_mean']!r} is not exactly 0.5")
    if not abs(na["rmse_mean"] - na_rmse_mean) <= rtol * na_rmse_mean:
        fails.append(f"NA RMSE {na['rmse_mean']!r} differs from recomputed {na_rmse_mean!r}")
    return fails


def study_values(rows):
    try:
        return {r["model"]: {k: float(v) for k, v in r.items() if k != "model"} for r in rows}
    except (TypeError, ValueError):
        return None


def check_pooled_study(tables, band=0.02):
    """Over all study calls of a run: every model's mean RMSE within 2% of NA's, GROU above 0.5.

    Each call averages the same number of paths, so the mean of the calls'
    means is the mean over every path of the run.
    """
    fails = []
    rmse = {m: float(np.mean([t[m]["rmse_mean"] for t in tables])) for m in MODELS}
    for model, value in rmse.items():
        if not abs(value / rmse["NA"] - 1.0) <= band:
            fails.append(f"{model} mean RMSE {value:.6g} not within 2% of NA's {rmse['NA']:.6g}")
    acc = float(np.mean([t["GROU"]["diracc_mean"] for t in tables]))
    if not acc > 0.5:
        fails.append(f"GROU mean directional accuracy {acc:.5f} is not above 0.5")
    return fails


# -- pre-averaged covariance ---------------------------------------------------


def naive_mrc(log_prices, delta=0.5, theta=1.0):
    """Pre-averaged covariance of one window by an explicit double loop."""
    y = np.asarray(log_prices, dtype=float)
    n, d = y.shape
    k = math.ceil((n - 1) ** delta * theta)
    k += k % 2
    half = k // 2
    m = n - k + 1
    acc = np.zeros((d, d))
    for i in range(m):
        u = np.zeros(d)
        for j in range(half):
            u += y[i + half + j] - y[i + j]
        u /= k
        acc += np.outer(u, u)
    return (n - 1) / (n - k + 1) * 12.0 / k * acc


def read_price_rows(file, row_ranges):
    """Log prices of the requested ``[lo, hi)`` data-row ranges of a price CSV."""
    owner = {i: r for r in row_ranges for i in range(*r)}
    out = {r: [] for r in row_ranges}
    with open(file) as fh:
        next(fh)
        for i, line in enumerate(fh):
            if i in owner:
                out[owner[i]].append([math.log(float(x)) for x in line.split(",")[1:]])
    return {r: np.asarray(v) for r, v in out.items()}


def read_edge_windows(file, starts):
    """Pair values of the requested window starts from a long edge-series CSV."""
    starts = set(float(s) for s in starts)
    rows: dict[float, dict[str, float]] = {}
    n_rows = 0
    with open(file) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("window_start"):
                continue
            n_rows += 1
            t, label, v = line.rstrip("\n").split(",")
            if float(t) in starts:
                rows.setdefault(float(t), {})[label] = float(v)
    return rows, n_rows


def check_mrc_windows(values_by_start, prices_by_start, asset_ids, rtol=1e-9):
    fails = []
    pairs = [(i, j) for i in range(len(asset_ids)) for j in range(i + 1, len(asset_ids))]
    for start, prices in prices_by_start.items():
        got = values_by_start.get(start)
        if got is None:
            fails.append(f"window {start:g} missing from the edge series")
            continue
        ref = naive_mrc(prices)
        scale = np.max(np.abs(ref))
        for i, j in pairs:
            label = f"{asset_ids[i]}-{asset_ids[j]}"
            if label not in got or not abs(got[label] - ref[i, j]) <= rtol * scale:
                fails.append(f"window {start:g} pair {label}: {got.get(label)!r} vs naive {ref[i, j]!r}")
                break
    return fails


def check_select_report(doc):
    """Seven-model held-out table, NA at exactly 0.5, grOU above 0.5."""
    table = doc.get("test_table") or []
    names = [row.get("model", "") for row in table]
    expected = list(MODELS[:-1])
    if len(table) != 7 or names[:-1] != expected or not names[-1].startswith("grOU("):
        return [f"select test table models {names}"]
    na, grou = table[0], table[-1]
    fails = []
    if na["dir_acc"] != 0.5:
        fails.append(f"NA directional accuracy {na['dir_acc']!r} is not exactly 0.5")
    if not grou["dir_acc"] > 0.5:
        fails.append(f"grOU directional accuracy {grou['dir_acc']!r} is not above 0.5")
    if not all(math.isfinite(row["rmse"]) for row in table):
        fails.append("non-finite RMSE in the select test table")
    return fails
