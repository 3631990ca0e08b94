import numpy as np
import pytest
from scipy.linalg import expm

from grou._parallel import openblas_controls
from grou.benchmarks import directional_accuracy
from grou.estimate import estimate_drift
from grou.forecast import rolling_forecast
from grou.graphs import random_er_graph, weight_matrices
from grou.model import GrouParams, build_companion, cov_integral, drift_integral, is_hurwitz
from grou.noise import SymmetricGammaJumps, psd_factor


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


def heldout_scores(path, weights, shape, n_train, triplet, policy=None, ridge=None):
    """Held-out directional accuracy and fitted drift of one grOU shape, step by step.

    A drift fit on the first ``n_train`` points, rolling fine-mesh forecasts
    over the rest of the path, then the sign-match fraction: the scoring
    that ``grou.benchmarks.fit_and_evaluate`` folds into the model zoo's
    fit-and-evaluate route, kept as its oracle.  Returns ``(dir_acc, fit)``.
    """
    fitted = estimate_drift(path.section(0, n_train), weights, shape, triplet, policy, ridge=ridge)
    idx = np.arange(n_train, path.n_points)
    preds = rolling_forecast(path, fitted, weights, idx, horizon="fine")
    return directional_accuracy(path.values[idx], preds, path.values[idx - 1]), fitted


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", autouse=True)
def openblas_threads_unchanged():
    """Fail the session if any code leaves a bundled OpenBLAS at another thread count."""
    controls = openblas_controls()
    before = [get() for get, _ in controls]
    yield
    after = [get() for get, _ in controls]
    assert after == before, f"OpenBLAS thread counts changed during the session: {before} -> {after}"
