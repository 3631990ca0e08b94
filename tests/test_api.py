"""Snapshot of the public API.

A change to what ``grou`` exports is an API change: it must edit
``PUBLIC_NAMES`` here and say so in the change log.
"""

import importlib
import pkgutil
import types

import pytest

import grou

PUBLIC_NAMES = {
    # benchmarks
    "MODEL_KINDS", "BenchmarkContext", "FittedModel", "MetricReport", "StudyConfig",
    "evaluate", "fit_benchmark", "monte_carlo_study", "predictive_study_config",
    # errors
    "ConfigurationError", "EstimationError", "GrouError", "IngestionError",
    "SingularityError", "StationarityError",
    # estimate
    "EstimationResult", "ThresholdPolicy", "estimate_drift", "estimate_mcar",
    "estimate_triplet", "finite_differences", "threshold_increments",
    # forecast
    "ForecastState", "init_state", "rolling_forecast",
    # graphs
    "EdgeGraph", "WeightMatrices", "complete_graph", "pair_order", "path_graph",
    "random_er_graph", "weight_matrices",
    # model
    "CompanionSystem", "GrouParams", "MomentSet", "build_companion", "companion_inverse",
    "conditional_moments", "is_hurwitz", "stationary_moments",
    # mrc
    "MrcConfig", "PriceMatrix", "RollingMrc", "ingest_prices", "mrc", "rolling_mrc",
    # noise
    "CompoundPoissonJumps", "IncrementBatch", "LevySpec", "SymmetricGammaJumps",
    "sample_increments", "stream_rng",
    # selection
    "SelectionOutcome", "joint_network_model_search", "select_model",
    # simulate
    "SampledPath", "TwoScaleGrid", "make_uniform_grids", "power_law_grids", "read_path_csv",
    "simulate_path", "simulate_paths", "write_path_csv",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules(grou.__path__))


def test_package_exports_the_listed_names():
    exported = {
        name for name, value in vars(grou).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"grou.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []
