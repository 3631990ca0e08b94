import csv
import json
import math
import warnings
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, expm, solve_continuous_lyapunov

from grou._blas import one_blas_thread, openblas_controls
from grou.benchmarks import (
    _MCAR_RIDGE_SCALE,
    BenchmarkContext,
    FittedModel,
    directional_accuracy,
    evaluate,
    fit_benchmark,
)
from grou.estimate import _regressors, estimate_drift, estimate_mcar, estimate_triplet
from grou.forecast import one_step_map, rolling_forecast, system_from_fit
from grou.graphs import random_er_graph, weight_matrices
from grou.errors import GrouError, IngestionError
from grou.model import GrouParams, build_companion, cov_integral, is_hurwitz, spectral_abscissa
from grou.model import stationary_moments
from grou.mrc import PriceMatrix, RollingMrc
from grou.noise import (
    SymmetricGammaJumps,
    _gamma_differences,
    _poisson_arrivals,
    psd_factor,
    stream_rng,
)
from grou.selection import CandidateScore, _choose, _columns_for
from grou.simulate import (
    _BURN_IN_STEPS,
    BURN_IN_RELAXATION,
    _SCAN_ROWS,
    PathTruth,
    SampledPath,
    _add_jump_responses,
    _runs,
    _scan,
    make_uniform_grids,
)


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
    derivs, aggregates = _regressors(path.values, path.grid, weights, shape)
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
    vals = _regressors(path.values, path.grid, None, (1, (0,)))[0][0]
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


def propagator_two_exponentials(transition, vec, h):
    """``(expm(h*T), int_0^h expm(u*T) du @ vec)`` as two exponentials.

    ``expm(h*T)`` itself, then the last column of the exponential of the
    ``(n+1)`` block ``[[T, vec], [0, 0]]``, with ``h == 0`` answered without
    either: the route that ``grou.model.propagator`` folds into the block's
    one exponential, kept as its oracle.  Stacks ``(..., n, n)`` work.
    """
    n = transition.shape[-1]
    if h == 0.0:
        return np.broadcast_to(np.eye(n), transition.shape).copy(), np.zeros(np.shape(vec))
    block = np.zeros(transition.shape[:-2] + (n + 1, n + 1))
    block[..., :n, :n] = transition
    block[..., :n, n] = vec
    return expm(h * transition), expm(h * block)[..., :n, n]


def van_loan_two_exponentials(transition, rhs, vec, h):
    """``(prop, integral, drift)`` of ``grou.model.cov_integral`` as two exponentials.

    The propagator and ``int_0^h expm(u*T) rhs expm(u*T)^T du`` from the
    ``2n`` Van Loan block ``[[T, rhs], [0, -T^T]]`` (past the point where
    its ``-T^T`` block overflows, ``gamma - prop gamma prop^T`` with gamma
    the stationary solution), and the drift from
    :func:`propagator_two_exponentials`: the route that ``cov_integral``
    folds into one ``(2n+1)`` block, kept as its oracle.
    """
    n = transition.shape[0]
    drift = propagator_two_exponentials(transition, vec, h)[1]
    if h == 0.0:
        return np.eye(n), np.zeros((n, n)), drift
    real_parts = np.linalg.eigvals(transition).real
    if real_parts.max() < 0 and h * max(-real_parts.min(), 1.0) > 15.0:
        gamma = solve_continuous_lyapunov(transition, -rhs)
        gamma = 0.5 * (gamma + gamma.T)
        prop = expm(h * transition)
        integral = gamma - prop @ gamma @ prop.T
    else:
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = transition
        block[:n, n:] = rhs
        block[n:, n:] = -transition.T
        phi = expm(h * block)
        prop = phi[:n, :n]
        integral = phi[:n, n:] @ prop.T
    return prop, 0.5 * (integral + integral.T), drift


def linear_scan(prop, first, shocks):
    """Every state of ``x_{i+1} = prop @ x_i + shocks[i]`` from ``x_0 = first``.

    A two-level fold in linear work.  The ``n`` steps are cut into about
    ``sqrt(n)`` blocks of ``sqrt(n)`` rows; one loop steps every block at
    once from a zero start, a second carries the state from block to block,
    and each row then adds its block's start state propagated by
    ``prop^(j+1)``.  It is kept apart from ``grou.simulate._scan`` (four-row
    Toeplitz blocks, doubling rounds over the block ends) so that the
    reference simulator it serves shares no scan with the library it
    checks.  Returns shape ``(n + 1, dim)``.
    """
    n, dim = shocks.shape
    width = max(1, math.isqrt(n))
    n_blocks = -(-n // width)
    local = np.zeros((n_blocks * width, dim))
    local[:n] = shocks
    local = local.reshape(n_blocks, width, dim)
    for j in range(1, width):
        local[:, j] += local[:, j - 1] @ prop.T
    powers = [prop]
    for _ in range(width - 1):
        powers.append(prop @ powers[-1])
    starts = np.empty((n_blocks, dim))
    state = np.asarray(first, dtype=float)
    for k in range(n_blocks):
        starts[k] = state
        state = powers[-1] @ state + local[k, -1]
    local += (starts @ np.hstack([p.T for p in powers])).reshape(n_blocks, width, dim)
    return np.vstack([first, local.reshape(-1, dim)[:n]])


def gamma_differences_repeat(jumps, dt, K, rng):
    """``(n, K)`` symmetric Gamma-difference increments, one shape per element.

    Two ``rng.gamma`` arrays over the per-element shapes ``jumps.shape * dt``
    repeated ``K`` times, the first minus the second: the draws that
    ``grou.noise._gamma_differences`` takes with one scalar shape on equal
    spacings, kept as its oracle.
    """
    shape = np.repeat(jumps.shape * dt, K).reshape(dt.size, K)
    return rng.gamma(shape, jumps.scale) - rng.gamma(shape, jumps.scale)


def gamma_arrivals(jumps, times, K, rng):
    """Symmetric-Gamma increments and their arrival times, in the library's draw order.

    Two Gamma arrays of shape ``(n, K)`` (their difference is the increment
    of each step), then one uniform arrival time per step.  Returns
    ``(sizes, arrivals)``.
    """
    sizes = gamma_differences_repeat(jumps, np.diff(times), K, rng)
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
    prop, cov, drift = van_loan_two_exponentials(T, E @ spec.brownian_cov @ E.T, E @ spec.drift, h)
    shocks = rng.standard_normal((n, dim)) @ psd_factor(cov).T
    shocks += drift
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

    The plain loop that ``grou.simulate`` replaces with a scan (folded in
    blocks of four rows on long runs, doubling rounds on short ones), kept
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
        _, cov, drift = van_loan_two_exponentials(T, rhs, E @ spec.drift, h)
        ops[h] = (expm(h * T), drift, psd_factor(cov))
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


def state_path_loop(system, noise, times, x0, rng):
    """Companion states on ``times`` from ``x0``, every step operator built for the call.

    The route that ``grou.simulate`` replaces with one plan per set of
    paths (``_step_plan``) and shared anchor exponentials, kept as its
    oracle: one ``cov_integral`` per run of equal spacing, the library's
    scan and jump kernel, and the draws in the library's order.
    """
    dim, K = system.dim, system.n_edges
    T, E = system.transition, system.noise_selector
    dt = np.diff(times)
    runs = _runs(dt)
    states = np.empty((dt.size + 1, dim))
    shocks = states[1:]
    rng.standard_normal(out=shocks)
    rhs, rate = E @ noise.brownian_cov @ E.T, E @ noise.mean_rate
    tmp = np.empty((min(dt.size, _SCAN_ROWS), dim))
    props = []
    for start, stop in runs:
        prop, cov, drift = cov_integral(T, rhs, rate, dt[start])
        factor_t = psd_factor(cov).T
        for lo in range(start, stop, _SCAN_ROWS):
            block = shocks[lo : min(stop, lo + _SCAN_ROWS)]
            out = tmp[: block.shape[0]]
            np.matmul(block, factor_t, out=out)
            np.add(out, drift, out=block)
        props.append(prop)
    jumps = noise.jumps
    arr_t = arr_s = None
    if isinstance(jumps, SymmetricGammaJumps):
        sizes = _gamma_differences(jumps, dt, K, rng)
        owner = np.arange(dt.size)
        offsets = times[1:] - rng.uniform(times[:-1], times[1:])
        _add_jump_responses(T, E, owner, offsets, sizes, shocks)
    elif jumps is not None:
        owner, arr_t, arr_s = _poisson_arrivals(jumps, times, K, rng)
        _add_jump_responses(T, E, owner, times[owner + 1] - arr_t, arr_s, shocks)
    else:
        arr_t, arr_s = np.empty(0), np.empty((0, K))
    states[0] = x0
    for (start, stop), prop in zip(runs, props):
        _scan(states[start : stop + 1], prop)
    return states, arr_t, arr_s


def simulate_path_loop(system, noise, grid, init="stationary", rng_seed=0):
    """One simulated path, everything that does not depend on the seed computed for it.

    The route that ``grou.simulate.simulate_paths`` replaces with one plan
    per set of seeds, kept as its oracle: the stationary moments and their
    factor, a 64-step burn-in and ``state_path_loop`` for the path.
    """
    rng_init = stream_rng(rng_seed, 0)
    rng_main = stream_rng(rng_seed, 1)
    rng_burn = stream_rng(rng_seed, 2)
    dim, K = system.dim, system.n_edges
    with one_blas_thread():
        if isinstance(init, str):
            moments = stationary_moments(system, noise)
            x0 = moments.state_mean + psd_factor(moments.state_cov) @ rng_init.standard_normal(dim)
            relax = BURN_IN_RELAXATION / abs(spectral_abscissa(system))
            burn_times = np.linspace(0.0, relax, _BURN_IN_STEPS + 1)
            x0 = state_path_loop(system, noise, burn_times, x0, rng_burn)[0][-1].copy()
        else:
            x0 = np.asarray(init, dtype=float).reshape(-1)
        states, arr_t, arr_s = state_path_loop(system, noise, grid.fine, x0, rng_main)
    truth = PathTruth(noise=noise, init_state=x0, arrival_times=arr_t, arrival_sizes=arr_s)
    values = np.ascontiguousarray(states[:, :K])
    return SampledPath(grid=grid, values=values, truth=truth)


def continuous_fit_loop(kind, train, context):
    """The OU, MCAR or grOU model of ``train``, fitted on its own, one step after another.

    The per-kind route that ``grou.benchmarks`` replaces with one stack of
    paths and kinds, kept as its oracle: ``estimate_triplet`` when the
    context has no triplet, ``estimate_drift`` (OU: every stage count zero)
    or ``estimate_mcar`` at the study's ridge scale, ``system_from_fit`` and
    ``one_step_map`` at the fine mesh.  Returns a ``FittedModel`` whose
    ``fit_seconds`` is 0.
    """
    kind = kind.upper()
    triplet = context.triplet
    if triplet is None:
        triplet = estimate_triplet(train, context.policy)
    weights = context.weights if kind == "GROU" else None
    if kind == "MCAR":
        fitted = estimate_mcar(train, triplet, context.policy, ridge_scale=_MCAR_RIDGE_SCALE)
    else:
        lags = context.shape[0]
        shape = context.shape if kind == "GROU" else (lags, [0] * lags)
        fitted = estimate_drift(train, weights, shape, triplet, context.policy)
    system = system_from_fit(fitted, weights)
    const, gain = one_step_map(system, fitted.triplet_used.mean_rate, train.grid.mesh_fine)
    return FittedModel(kind=kind, const=const, gain=gain, fit_seconds=0.0, detail=fitted)


def fit_and_evaluate_loop(path, n_train, context, kinds):
    """Every kind fitted on its own, then ``evaluate``.

    The route that ``grou.benchmarks.fit_and_evaluate`` replaces with the
    stacked scorer of a Monte Carlo study, kept as its oracle: the triplet
    is estimated once from the training head when a continuous-time fit
    needs it, OU, MCAR and grOU go through ``continuous_fit_loop`` and the
    other kinds through ``fit_benchmark``.  Returns ``(models, reports)``.
    """
    train = path.section(0, n_train)
    with one_blas_thread():
        if context.triplet is None and {"OU", "MCAR", "GROU"}.intersection(k.upper() for k in kinds):
            context = replace(context, triplet=estimate_triplet(train, context.policy))
        models = [
            continuous_fit_loop(kind, train, context) if kind.upper() in ("OU", "MCAR", "GROU")
            else fit_benchmark(kind, train, context)
            for kind in kinds
        ]
        return models, evaluate(models, path, range(n_train, path.n_points))


def study_one_path_loop(config, system, path_index):
    """The reports of path ``path_index`` of a Monte Carlo study, simulated and scored on its own.

    The per-path loop that ``grou.benchmarks.monte_carlo_study`` replaces
    with stacks of paths, kept as its oracle.
    """
    path_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(path_index,))
    mesh = config.t_end / (config.n_obs - 1)
    grid = make_uniform_grids(config.t_end, mesh, config.ratio)
    path = simulate_path_loop(system, config.noise, grid, init="stationary", rng_seed=path_seed)
    if config.scenario == "correct":
        graph_fit, fit_path = config.graph, path
    else:
        _, edge = config.scenario
        graph_fit = config.graph.drop_edge(edge)
        fit_path = path.drop_columns([config.graph.edge_index(edge)])
    max_stage = max(max(config.shape[1], default=0), 1)
    ctx = BenchmarkContext(weights=weight_matrices(graph_fit, max_stage), shape=config.shape)
    observed = fit_path.section(0, config.n_obs)
    return fit_and_evaluate_loop(observed, config.n_obs - config.test_size, ctx, config.models)[1]


def study_figures_loop(config):
    """``rmse_*`` and ``diracc_*`` of each row of ``monte_carlo_study(config)``, path by path."""
    max_stage = max(max(config.shape[1], default=0), 1)
    system = build_companion(config.params, weight_matrices(config.graph, max_stage))
    all_reports = [study_one_path_loop(config, system, i) for i in range(config.n_paths)]
    rows = []
    for j, kind in enumerate(config.models):
        rmse = np.array([reports[j].rmse for reports in all_reports])
        dacc = np.array([reports[j].dir_acc for reports in all_reports])
        rows.append(
            {
                "model": kind,
                "rmse_mean": float(rmse.mean()),
                "rmse_sd": float(rmse.std(ddof=1)) if rmse.size > 1 else 0.0,
                "diracc_mean": float(dacc.mean()),
                "diracc_sd": float(dacc.std(ddof=1)) if dacc.size > 1 else 0.0,
            }
        )
    return rows


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

    One fit through ``fit_and_evaluate_loop``: the scoring that
    ``grou.selection`` runs as stacks, kept as its oracle.  ``triplet`` None
    estimates the noise from the training head.  Returns ``(dir_acc, bic)``.
    """
    context = BenchmarkContext(weights=weights, shape=shape, triplet=triplet, policy=policy)
    (model,), (report,) = fit_and_evaluate_loop(path, n_train, context, kinds=("GROU",))
    return report.dir_acc, model.detail.bic


def ridge_solve_loop(info, score, ridge=None):
    """Ridge-regularized drift solves of a stack of fits, one ``cho_factor`` at a time.

    The per-fit route that ``grou.estimate._solve_with_ridge`` replaces with
    one batched Cholesky solve per escalation round, kept as its oracle.
    ``ridge=None`` starts from ``1e-8`` times the mean diagonal and
    multiplies by ten, up to thirty tries, until ``info[g] + ridge * I``
    factorizes; a given ridge gets one try.  Returns ``(theta, ridges)``,
    NaN where a fit never factorized.
    """
    G, p = score.shape
    theta, ridges = np.full((G, p), np.nan), np.full(G, np.nan)
    for g in range(G):
        value = 1e-8 * max(np.trace(info[g]) / p, np.finfo(float).tiny) if ridge is None else ridge
        for _ in range(30 if ridge is None else 1):
            try:
                factor = cho_factor(info[g] + value * np.eye(p))
            except np.linalg.LinAlgError:
                value *= 10.0
                continue
            theta[g], ridges[g] = cho_solve(factor, score[g]), value
            break
    return theta, ridges


def screen_loop(path, graphs, n_vertices, shape, n_train, policy=None):
    """Held-out directional accuracy of each candidate graph, one fit at a time.

    The per-candidate screen that the joint search runs as
    ``grou.selection._screen``, kept as its oracle: each non-empty
    candidate's pair columns go through ``score_shape_loop``, the noise
    triplet estimated from the candidate's own training head.  Returns
    ``(accuracies, messages)``: accuracies by candidate index and the skip
    warnings of the joint search, in order.
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


def ols_benchmark_fits(train, weights):
    """AR and GNAR one-step maps from dense-design least squares.

    Per edge, lstsq on the ``[1, y_{t-1,k}]`` design; for GNAR, lstsq on the
    stacked ``(T-1)K``-by-``(K+1)`` design of own lags (column k on edge k's
    rows) and the stage-1 aggregate ``y_{t-1} W1^T`` in the last column.
    The routes ``grou.benchmarks`` replaces with closed-form and arrow-matrix
    sufficient statistics, kept as their oracle.  Returns ``{"AR": (const,
    gain), "GNAR": (const, gain)}``.
    """
    y = train.values
    T1, K = y.shape[0] - 1, train.n_edges
    const, gain = np.zeros(K), np.zeros((K, K))
    for k in range(K):
        design = np.column_stack([np.ones(T1), y[:-1, k]])
        (const[k], gain[k, k]), *_ = np.linalg.lstsq(design, y[1:, k], rcond=None)
    w1 = weights.stage(1)
    design = np.zeros((T1 * K, K + 1))
    for k in range(K):
        design[k::K, k] = y[:-1, k]
    design[:, K] = (y[:-1] @ w1.T).reshape(-1)
    coef, *_ = np.linalg.lstsq(design, y[1:].reshape(-1), rcond=None)
    return {"AR": (const, gain), "GNAR": (np.zeros(K), np.diag(coef[:K]) + coef[K] * w1)}


def sign_hits_untiled(previous, realized, gain, const, cols):
    """Held-out directional accuracy of a stack of one-step maps, all rows at once.

    ``previous`` and ``realized`` are the ``(T, N)`` held-out rows (previous
    values and signs of the realized moves); ``cols`` ``(G, K)`` picks each
    map's columns, gathered into ``(G, T, K)`` stacks before one sign
    comparison.  The route that ``grou.selection._sign_hits`` replaces with
    cache-sized tiles of the transposed rows, kept as its oracle.
    """
    def by_candidate(columns):
        return np.ascontiguousarray(np.moveaxis(columns[..., cols], -2, 0))

    prev = by_candidate(previous)
    with np.errstate(invalid="ignore"):
        moves = prev @ gain.transpose(0, 2, 1)
        moves += const[:, None, :]
        moves -= prev
    hits = np.count_nonzero(np.sign(moves) == by_candidate(realized), axis=(1, 2))
    return hits / prev[0].size


def write_edge_series_per_pair(rolling, file, header_lines=()):
    """Edge-series CSV with every cell formatted in place, the start once per row.

    The writer that ``grou.mrc.write_edge_series_csv`` replaces with one
    formatted start per window, kept as its oracle.
    """
    starts = np.asarray(rolling.window_starts, dtype=float)
    values = np.asarray(rolling.values, dtype=float)
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


def read_edge_series_split(file):
    """Edge-series CSV to a ``RollingMrc``, split into lines and fields in Python.

    The reader that ``grou.mrc.read_edge_series_csv`` replaces with array
    checks over the file's bytes and numpy's C reader, kept as its oracle:
    ``#`` lines carry the header entries wherever they stand, blank lines
    are skipped, every cell goes through ``float``.
    """
    with open(file, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    meta = {}
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
        labels = tuple(f"{a}-{b}" for i, a in enumerate(assets) for b in assets[i + 1 :])
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

    The per-row loop that ``grou.mrc.ingest_prices`` replaces with block-wise
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
