"""Driving noise regimes and path simulation on two-scale grids.

Three noise families are supported: pure diffusion, compound Poisson with
common jump arrivals, and infinite-activity symmetric Gamma differences.
Paths are recorded on a fine observation grid carrying a coarser sub-grid
that the estimator later uses for its integral sums.
"""

import numpy as np

from grou import (
    CompoundPoissonJumps,
    GrouParams,
    LevySpec,
    SymmetricGammaJumps,
    build_companion,
    make_uniform_grids,
    path_graph,
    sample_increments,
    simulate_path,
    stationary_moments,
    weight_matrices,
)

regimes = {
    "diffusion": LevySpec(np.zeros(2), np.eye(2)),
    "compound Poisson": LevySpec(
        np.zeros(2), np.eye(2), CompoundPoissonJumps(rate=1.0, jump_cov=np.eye(2))
    ),
    "symmetric Gamma": LevySpec(np.zeros(2), np.eye(2), SymmetricGammaJumps(1.0, 1.0)),
}
for name, spec in regimes.items():
    mu, cov = spec.mean_rate, spec.covariance_rate
    print(f"{name:17s} mean rate {mu}  variance rate diag {np.diag(cov)}")

# Increments split into continuous and jump parts for simulated noise.
grid = np.linspace(0.0, 4.0, 65)
batch = sample_increments(regimes["compound Poisson"], grid, rng_seed=1)
print(f"\n{batch.arrival_times.size} jumps over [0, 4]; first times:",
      np.round(batch.arrival_times[:4], 3))
print("jump part is zero off the arrival intervals:",
      int((np.abs(batch.large_jump).sum(axis=1) > 0).sum()), "active intervals")

# Simulate a stationary two-edge path under jumps; the recursion between
# grid points is distribution-exact, with jumps placed at their arrival
# times.  The horizon spans several relaxation times of the slowest mode
# so the along-path variance is a meaningful ergodic average.
graph = path_graph(3)
weights = weight_matrices(graph, 1)
params = GrouParams(np.array([[4.0, 3.0], [2.0, 1.0]]), (np.array([1.0]), np.array([1.0])))
system = build_companion(params, weights)
two_scale = make_uniform_grids(t_end=60.0, mesh_fine=1 / 64, ratio=16)
print(f"\ngrid: {two_scale.fine.size} fine points, {two_scale.coarse.size} coarse, "
      f"meshes {two_scale.mesh_fine:.4f} / {two_scale.mesh_coarse:.2f}")

path = simulate_path(system, regimes["compound Poisson"], two_scale,
                     init="stationary", rng_seed=42)
m = stationary_moments(system, regimes["compound Poisson"])
print("sample variance along the path:", np.round(path.values.var(axis=0), 3))
print("stationary variance:           ", np.round(np.diag(m.variance), 3))
print(f"{path.truth.arrival_times.size} true jump times kept as metadata; first:",
      np.round(path.truth.arrival_times[:4], 2))
