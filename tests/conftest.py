import csv
import math
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from scipy.linalg import expm

from grou._blas import openblas_controls
from grou.benchmarks import BenchmarkContext, directional_accuracy, fit_and_evaluate
from grou.estimate import _regressors, estimate_drift, estimate_triplet
from grou.forecast import rolling_forecast
from grou.graphs import random_er_graph, weight_matrices
from grou.errors import GrouError, IngestionError
from grou.model import GrouParams, build_companion, cov_integral, drift_integral, is_hurwitz
from grou.mrc import PriceMatrix
from grou.noise import SymmetricGammaJumps, psd_factor
from grou.selection import CandidateScore, _choose, _columns_for, bic


def draw_hurwitz_system(rng, max_edges=5, max_lags=3):
    """Random stable grOU system: rejection-sample over heuristic ranges.

    Returns (graph, weights, params, system).  Draws alpha with magnitudes
    decaying in the lag and small network coefficients, which lands in the
    stable region most of the time; non-Hurwitz draws are discarded.
    """
    for _ in range(200):
        n_vertices = int(rng.integers(3, 6))
        graph = random_er_graph(n_vertices, 0.7, rng_seed=rng)
        K = graph.n_edges
        if not 1 <= K <= max_edges:
            continue
        L = int(rng.integers(1, max_lags + 1))
        stages = [int(rng.integers(0, 3)) for _ in range(L)]
        weights = weight_matrices(graph, max(max(stages), 1))
        base = rng.uniform(2.0, 5.0, size=K)
        alpha = np.empty((L, K))
        beta = []
        for l in range(L):
            alpha[l] = base * rng.uniform(0.8, 1.2, size=K) / (3.0**l)
            beta.append(rng.uniform(-0.25, 0.25, size=stages[l]))
        params = GrouParams(alpha, tuple(beta))
        system = build_companion(params, weights)
        if is_hurwitz(system):
            return graph, weights, params, system
    raise RuntimeError("failed to draw a Hurwitz system")


def build_h_matrix(path, weights, shape):
    """Dense regressor stacks ``H_m`` over the usable coarse points, shape ``(M, p, K)``.

    For each coarse point this stacks, lag block by lag block, the K-by-K
    diagonal of the matching derivative (lag 1 pairs with the highest
    derivative, lag L with the raw values) followed by one row per
    neighborhood stage holding the weighted neighborhood aggregate.  Row
    order matches the flattened parameter vector.  The fits never form
    this tensor; it is the oracle for the structured statistics.
    """
    lags, stages = shape
    derivs, aggregates = _regressors(path, weights, shape)
    _, M, K = derivs.shape
    H = np.zeros((M, lags * K + aggregates.shape[0], K))
    cols = np.arange(K)
    row, q = 0, 0
    for l in range(lags):
        H[:, row + cols, cols] = derivs[l]
        row += K
        for _ in range(int(stages[l])):
            H[:, row, :] = aggregates[q]
            row, q = row + 1, q + 1
    return H


def mcar_h_matrix(path):
    """Dense regressor stacks for an unrestricted one-lag drift: ``H_m = I_K kron x_m``.

    The parameter vector is the row-major flattening of the K-by-K drift
    coefficient matrix, ``x_m`` the values at the m-th usable coarse point.
    """
    K = path.n_edges
    vals = _regressors(path, None, (1, (0,)))[0][0]
    H = np.zeros((vals.shape[0], K * K, K))
    for a in range(K):
        H[:, a * K : (a + 1) * K, a] = vals
    return H


def dense_statistics(H, increments, spacings, sigma_w):
    """Information matrix and score from the dense regressor stacks.

    ``H`` has shape ``(M, p, K)`` (``build_h_matrix`` or ``mcar_h_matrix``);
    each interval takes its own solve against the working covariance:
    ``info = sum_m dt_m H_m S H_m^T`` and ``score = -sum_m H_m S c_m``.
    """
    sigma_inv_H = np.linalg.solve(sigma_w, H.transpose(0, 2, 1)).transpose(0, 2, 1)
    info = np.tensordot(sigma_inv_H * spacings[:, None, None], H, axes=([0, 2], [0, 2]))
    score = -np.tensordot(sigma_inv_H, increments, axes=([0, 2], [0, 1]))
    return 0.5 * (info + info.T), score


def kronecker_lyapunov(transition, rhs):
    """Solve ``T X + X T^T = -rhs`` as one dense ``n^2``-by-``n^2`` linear system.

    ``vec(T X + X T^T) = (T kron I + I kron T) vec(X)`` for row-major
    ``vec``; the direct solve that ``grou.model.lyapunov_solve`` replaced
    with the Schur method, kept as its oracle.
    """
    n = transition.shape[0]
    eye = np.eye(n)
    coeff = np.kron(transition, eye) + np.kron(eye, transition)
    X = np.linalg.solve(coeff, -rhs.reshape(-1)).reshape(n, n)
    return 0.5 * (X + X.T)


def linear_scan(prop, first, shocks):
    """Every state of ``x_{i+1} = prop @ x_i + shocks[i]`` from ``x_0 = first``.

    Doubling scan: after the round with span ``s`` each row holds the sum of
    its last ``2s`` inputs, each propagated to that row, so ``log2(n)`` batched
    products replace the ``n``-step loop.  Returns shape ``(n + 1, dim)``.
    """
    out = np.vstack([first, shocks])
    power, span = prop, 1
    while span < out.shape[0]:
        out[span:] = out[span:] + out[:-span] @ power.T
        power, span = power @ power, 2 * span
    return out


def gamma_arrivals(jumps, times, K, rng):
    """Symmetric-Gamma increments and their arrival times, in the library's draw order.

    Two Gamma arrays of shape ``(n, K)`` (their difference is the increment
    of each step), then one uniform arrival time per step.  Returns
    ``(sizes, arrivals)``.
    """
    shape = np.repeat(jumps.shape * np.diff(times), K).reshape(-1, K)
    sizes = rng.gamma(shape, jumps.scale) - rng.gamma(shape, jumps.scale)
    return sizes, rng.uniform(times[:-1], times[1:])


def simulate_full_state(system, spec, times, x0, rng):
    """Full companion-state path and per-interval jump sums on a uniform grid.

    Takes the draws of ``grou.simulate`` in the same order from ``rng`` and
    uses its scheme: the exact conditional-Gaussian recursion, with each
    compound-Poisson jump propagated from its arrival time by its own
    ``expm``, and each step's symmetric-Gamma increment propagated from one
    uniform arrival time within the step through the eigendecomposition of
    the transition (vectorized over steps; for diagonalizable transitions).
    Fed the main stream of ``simulate_path`` and its initial state, the first
    block reproduces that path.  Returns ``(states, jump_sums)`` with shapes
    ``(n + 1, dim)`` and ``(n, K)``.
    """
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    h = dt[0]
    if not np.allclose(dt, h, rtol=1e-9, atol=0.0):
        raise ValueError("simulate_full_state needs a uniform grid")
    T, E = system.transition, system.noise_selector
    n, dim, K = dt.size, system.dim, system.n_edges
    prop, cov = cov_integral(T, E @ spec.brownian_cov @ E.T, h)
    shocks = rng.standard_normal((n, dim)) @ psd_factor(cov).T
    shocks += drift_integral(T, E @ spec.drift, h)
    jump_sums = np.zeros((n, K))
    jumps = spec.jumps
    if isinstance(jumps, SymmetricGammaJumps):
        jump_sums, arrivals = gamma_arrivals(jumps, times, K, rng)
        lam, vecs = np.linalg.eig(T)
        modes = np.linalg.solve(vecs, E @ jump_sums.T).T
        modes *= np.exp(np.outer(times[1:] - arrivals, lam))
        shocks += (modes @ vecs.T).real
    elif jumps is not None and jumps.rate > 0:
        counts = rng.poisson(jumps.rate * dt)
        sizes = rng.standard_normal((int(counts.sum()), K)) @ psd_factor(jumps.jump_cov).T
        pos = 0
        for i in np.nonzero(counts)[0]:
            arrivals = np.sort(rng.uniform(times[i], times[i + 1], size=counts[i]))
            for u, size in zip(arrivals, sizes[pos : pos + counts[i]]):
                shocks[i] += expm((times[i + 1] - u) * T) @ (E @ size)
            jump_sums[i] = sizes[pos : pos + counts[i]].sum(axis=0)
            pos += counts[i]
    return linear_scan(prop, x0, shocks), jump_sums


def stepwise_path(system, spec, times, x0, rng, steps=None):
    """Every companion state of the step-by-step simulation recursion.

    The plain loop that ``grou.simulate`` replaces with a doubling scan, kept
    as its oracle.  Takes the draws in the library's order: the Gaussian
    block, then for compound-Poisson noise the Poisson counts, the jump sizes
    and the arrival uniforms, and for symmetric-Gamma noise the two Gamma
    arrays and one arrival uniform per step.  Every regime takes the exact
    step ``expm(h T)``, and each jump or Gamma increment is propagated from
    its arrival time by its own ``expm``.  ``steps`` sets the spacing each
    step's operators are built from (default: the grid's own spacings); the
    arrival windows and Gamma shapes always follow ``times``.  Returns shape
    ``(n + 1, dim)``.
    """
    times = np.asarray(times, dtype=float)
    dt = np.diff(times)
    steps = dt if steps is None else np.asarray(steps, dtype=float)
    T, E = system.transition, system.noise_selector
    n, dim, K = dt.size, system.dim, system.n_edges
    states = np.empty((n + 1, dim))
    states[0] = x0
    rhs = E @ spec.brownian_cov @ E.T
    ops = {}
    for h in np.unique(steps):
        factor = psd_factor(cov_integral(T, rhs, h)[1])
        ops[h] = (expm(h * T), drift_integral(T, E @ spec.drift, h), factor)
    z = rng.standard_normal((n, dim))
    shocks = np.array([z[i] @ ops[h][2].T + ops[h][1] for i, h in enumerate(steps)])
    jumps = spec.jumps
    if isinstance(jumps, SymmetricGammaJumps):
        sizes, arrivals = gamma_arrivals(jumps, times, K, rng)
        for i in range(n):
            shocks[i] += expm((times[i + 1] - arrivals[i]) * T) @ (E @ sizes[i])
    elif jumps is not None and jumps.rate > 0:
        counts = rng.poisson(jumps.rate * dt)
        sizes = rng.standard_normal((int(counts.sum()), K)) @ psd_factor(jumps.jump_cov).T
        pos = 0
        for i in np.nonzero(counts)[0]:
            arrivals = np.sort(rng.uniform(times[i], times[i + 1], size=counts[i]))
            for u, size in zip(arrivals, sizes[pos : pos + counts[i]]):
                shocks[i] += expm((times[i + 1] - u) * T) @ (E @ size)
            pos += counts[i]
    for i, h in enumerate(steps):
        states[i + 1] = ops[h][0] @ states[i] + shocks[i]
    return states


def heldout_scores(path, weights, shape, n_train, triplet):
    """Held-out directional accuracy and fitted drift of one grOU shape, step by step.

    A drift fit on the first ``n_train`` points, rolling fine-mesh forecasts
    over the rest of the path, then the sign-match fraction: the scoring
    that ``grou.benchmarks.fit_and_evaluate`` folds into the model zoo's
    fit-and-evaluate route, kept as its oracle.  Returns ``(dir_acc, fit)``.
    """
    fitted = estimate_drift(path.section(0, n_train), weights, shape, triplet)
    idx = np.arange(n_train, path.n_points)
    preds = rolling_forecast(path, fitted, weights, idx, horizon="fine")
    return directional_accuracy(path.values[idx], preds, path.values[idx - 1]), fitted


def score_shape_loop(path, weights, shape, n_train, triplet, policy):
    """Held-out directional accuracy and information criterion of one grOU shape.

    One fit through ``grou.benchmarks.fit_and_evaluate``: the scoring that
    ``grou.selection`` runs as stacks, kept as its oracle.  ``triplet`` None
    estimates the noise from the training head.  Returns ``(dir_acc, bic)``.
    """
    context = BenchmarkContext(weights=weights, shape=shape, triplet=triplet, policy=policy)
    (model,), (report,) = fit_and_evaluate(path, n_train, context, kinds=("GROU",))
    return report.dir_acc, bic(model.detail)


def screen_loop(path, graphs, n_vertices, shape, n_train, policy=None):
    """Held-out directional accuracy of each candidate graph, one fit at a time.

    The per-candidate screen that ``grou.selection._screen`` replaces with
    batched array programs, kept as its oracle: each non-empty candidate's
    pair columns go through ``score_shape_loop``, the noise triplet estimated
    from the candidate's own training head.  Returns ``(accuracies,
    messages)``: accuracies by candidate index and the skip warnings of the
    joint search, in order.
    """
    accuracies, messages = {}, []
    for i, g in enumerate(graphs):
        if g.n_edges == 0:
            continue
        sub = path.select_columns(_columns_for(g, n_vertices))
        try:
            weights = weight_matrices(g, max(max(shape[1], default=0), 1))
            acc, _ = score_shape_loop(sub, weights, shape, n_train, None, policy)
        except (GrouError, np.linalg.LinAlgError) as exc:
            messages.append(f"candidate {i} skipped in screening: {exc}")
            continue
        accuracies[i] = acc
    return accuracies, messages


def select_loop(path, graphs, n_vertices, shapes, n_train, tolerance=1e-2, policy=None):
    """Shape selection of each candidate graph, one fit at a time.

    The per-graph ``select_model`` loop that ``grou.selection._finalists``
    replaces with stacks, kept as its oracle.  Each graph's pair columns get
    one noise triplet from the training head, then every shape goes through
    ``score_shape_loop``; among shapes within ``tolerance`` of the best
    accuracy the lowest information criterion wins.  Issues the joint
    search's skip warnings, in order among the fits' own warnings, and
    returns the ``(candidates, chosen)`` of each graph by index.
    """
    max_stage = max(max((max(rs, default=0) for _, rs in shapes)), 1)
    outcomes = {}
    for i, g in enumerate(graphs):
        sub = path.select_columns(_columns_for(g, n_vertices))
        weights = weight_matrices(g, max_stage)
        try:
            triplet = estimate_triplet(sub.section(0, n_train), policy)
        except GrouError as exc:
            warnings.warn(f"candidate {i} skipped in selection: {exc}")
            continue
        scores = []
        for shape in shapes:
            try:
                acc, crit = score_shape_loop(sub, weights, shape, n_train, triplet, policy)
            except (GrouError, np.linalg.LinAlgError) as exc:
                warnings.warn(f"shape {shape} skipped: {exc}")
                continue
            scores.append(CandidateScore(graph_ref=i, shape=shape, dir_acc=acc, bic=crit))
        if not scores:
            warnings.warn(f"candidate {i} skipped in selection: every candidate shape failed to fit")
            continue
        outcomes[i] = (tuple(scores), _choose(scores, tolerance))
    return outcomes


def _loop_timestamp(token):
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


def _loop_wallclock_minutes(epoch_seconds):
    stamp = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return stamp.hour * 60 + stamp.minute + stamp.second / 60.0


def ingest_prices_loop(file, frequency=1.0, market_hours=False, trim_open_close=False):
    """Price CSV to a :class:`PriceMatrix`, one row at a time.

    The per-row loop that ``grou.mrc.ingest_prices`` replaces with chunked
    array parsing, kept as its oracle.  Each row is checked in turn: field
    count, timestamp and price parse, finite timestamp, finite positive
    prices, then the wall-clock session through ``datetime.fromtimestamp``.
    The frequency grid is laid out as the library does.
    """
    wall_lo, wall_hi = (10 * 60 + 30, 15 * 60) if trim_open_close else (9 * 60 + 30, 16 * 60)
    filter_hours = market_hours or trim_open_close
    times, rows, skipped = [], [], 0
    with open(file, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{file}: empty file") from None
        if len(header) < 2 or header[0].lower() not in ("timestamp", "time"):
            raise IngestionError(f"{file}: expected header 'timestamp,<asset>,...', got {header!r}")
        asset_ids = tuple(h.strip() for h in header[1:])
        for row in reader:
            if len(row) != len(header):
                skipped += 1
                continue
            try:
                t = _loop_timestamp(row[0])
                quotes = [float(x) for x in row[1:]]
            except (ValueError, TypeError):
                skipped += 1
                continue
            if not math.isfinite(t):
                skipped += 1
                continue
            if any(not np.isfinite(q) or q <= 0 for q in quotes):
                skipped += 1
                continue
            if filter_hours:
                minute = _loop_wallclock_minutes(t)
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
    missing = np.isnan(grid_prices[:, 0])
    if missing.any():
        last = np.maximum.accumulate(np.where(~missing, np.arange(n_bins), 0))
        grid_prices = grid_prices[last]
    if n_bins < 2:
        raise IngestionError(f"{file}: fewer than two usable frequency bins")
    return PriceMatrix(
        times=times[0] + frequency * np.arange(n_bins),
        log_prices=np.log(grid_prices),
        asset_ids=asset_ids,
        skipped_rows=skipped,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def blas_counts(controls):
    return [get() for get, _ in controls]


def set_blas_threads(controls, count):
    for _, put in controls:
        put(count)


@pytest.fixture
def blas_at_two():
    """Every bundled OpenBLAS set to 2 threads for the test, then put back."""
    controls = openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS exposes a thread-count control")
    saved = blas_counts(controls)
    set_blas_threads(controls, 2)
    yield controls
    for (_, put), count in zip(controls, saved):
        put(count)


@pytest.fixture(scope="session", autouse=True)
def openblas_threads_unchanged():
    """Fail the session if any code leaves a bundled OpenBLAS at another thread count."""
    controls = openblas_controls()
    before = [get() for get, _ in controls]
    yield
    after = [get() for get, _ in controls]
    assert after == before, f"OpenBLAS thread counts changed during the session: {before} -> {after}"
