"""Multi-population mortality decomposition, recurrent factor forecasting,
and longevity tail-risk tooling.

Importing the package loads only the modules every CLI stage runs.  The
`data` and `stationarity` names below resolve on first use (PEP 562), so
`from mortlab import synthetic_truth` works as before, while a stage that
never reads data files or tests stationarity never compiles those modules.
"""

import importlib

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

# name -> the submodule that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(("ClusterDataset", "MortalitySurface", "build_surface", "parse_hmd_file",
                     "read_cluster_csv", "synthesize_cluster", "synthetic_truth",
                     "write_cluster_csv"), "data"),
    **dict.fromkeys(("adf_test", "classify", "kpss_test"), "stationarity"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__version__ = "0.1.0"
