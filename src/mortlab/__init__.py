"""Multi-population mortality decomposition, recurrent factor forecasting,
and longevity tail-risk tooling."""

from .data import (
    ClusterDataset,
    MortalitySurface,
    build_surface,
    parse_hmd_file,
    read_cluster_csv,
    synthesize_cluster,
    synthetic_truth,
    write_cluster_csv,
)
from .forecast import (
    ForecastEnsemble,
    ForecastModel,
    HybridConfig,
    compute_mbc,
    ensemble_quantiles,
    fit_forecaster,
    forecast_deterministic,
    forecast_stochastic,
    historical_diff_sd,
)
from .lilee import (
    FactorPanel,
    LiLeeParams,
    fit_ar1,
    fit_lilee,
    fit_rwd,
    leading_singular_pair,
)
from .lifetable import e0_at, e0_paths, life_table, monotonicity_check, reconstruct_surface
from .lstm import NetworkParams, TrainConfig, forward, input_gradient, predict, train
from .risk import es, reverse_stress, scr, var
from .stationarity import adf_test, classify, kpss_test

__version__ = "0.1.0"
