"""Levy-driven graph Ornstein-Uhlenbeck (grOU) processes on network edges.

The package covers the full workflow around continuous-time network
autoregression on edge-indexed time series: graph neighborhoods and weight
matrices, companion state-space construction with stationary and
conditional moments, path simulation under three noise regimes, jump-robust
drift estimation on two-scale grids, forecasting, benchmark comparison
studies, model and network selection, and pre-averaged covariance
construction from high-frequency prices.
"""

__version__ = "0.1.0"

from .benchmarks import (
    MODEL_KINDS,
    BenchmarkContext,
    FittedModel,
    MetricReport,
    StudyConfig,
    evaluate,
    fit_benchmark,
    monte_carlo_study,
    predictive_study_config,
)
from .errors import (
    ConfigurationError,
    EstimationError,
    GrouError,
    IngestionError,
    SingularityError,
    StationarityError,
)
from .estimate import (
    EstimationResult,
    ThresholdPolicy,
    estimate_drift,
    estimate_mcar,
    estimate_triplet,
    finite_differences,
    threshold_increments,
)
from .forecast import ForecastState, init_state, rolling_forecast
from .graphs import (
    EdgeGraph,
    WeightMatrices,
    complete_graph,
    pair_order,
    path_graph,
    random_er_graph,
    weight_matrices,
)
from .model import (
    CompanionSystem,
    GrouParams,
    MomentSet,
    build_companion,
    companion_inverse,
    conditional_moments,
    is_hurwitz,
    stationary_moments,
)
from .mrc import MrcConfig, PriceMatrix, RollingMrc, ingest_prices, mrc, rolling_mrc
from .noise import (
    CompoundPoissonJumps,
    IncrementBatch,
    LevySpec,
    SymmetricGammaJumps,
    sample_increments,
    stream_rng,
)
from .selection import SelectionOutcome, joint_network_model_search, select_model
from .simulate import (
    SampledPath,
    TwoScaleGrid,
    make_uniform_grids,
    power_law_grids,
    read_path_csv,
    simulate_path,
    simulate_paths,
    write_path_csv,
)
