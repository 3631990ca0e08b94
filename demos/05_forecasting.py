"""Forecasting: zero-initialized states and rolling one-step predictions.

Only the edge process is observed, so the forecast state puts the last
observation in the first block and zeros in the derivative blocks.  The
conditional mean is affine in the last observation, which makes rolling
evaluation a single matrix product.
"""

import numpy as np

from grou import (
    GrouParams,
    LevySpec,
    build_companion,
    conditional_moments,
    estimate_drift,
    init_state,
    make_uniform_grids,
    path_graph,
    rolling_forecast,
    simulate_path,
    weight_matrices,
)

graph = path_graph(3)
weights = weight_matrices(graph, 1)
params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
system = build_companion(params, weights)
noise = LevySpec(np.zeros(2), np.eye(2))

grid = make_uniform_grids(t_end=8.0, mesh_fine=1 / 128, ratio=16)
path = simulate_path(system, noise, grid, init="stationary", rng_seed=5)

# Point forecast with uncertainty from the last observation.
state = init_state(path, shape=(2, [1, 1]))
print("forecast origin state (derivative block zeroed):", np.round(state.x, 3))
for h in (0.05, 0.25, 1.0):
    mean, var = conditional_moments(system, noise, state.x, h)
    sd = np.sqrt(np.diag(var))
    print(f"h={h:4.2f}  mean {np.round(mean, 3)}  sd {np.round(sd, 3)}")

# Rolling one-step evaluation over the final stretch of the path, using a
# fitted model rather than the truth.
fit = estimate_drift(path, weights, (2, [1, 1]), noise)
eval_idx = range(path.n_points - 200, path.n_points)
preds = rolling_forecast(path, fit, weights, eval_idx, horizon="fine")
realized = path.values[list(eval_idx)]
previous = path.values[np.asarray(list(eval_idx)) - 1]
rmse = np.sqrt(np.mean((realized - preds) ** 2))
naive = np.sqrt(np.mean((realized - previous) ** 2))
hits = np.mean(np.sign(preds - previous) == np.sign(realized - previous))
print(f"\nrolling one-step RMSE {rmse:.4f} (naive carry-forward {naive:.4f})")
print(f"directional accuracy {hits:.3f}")
