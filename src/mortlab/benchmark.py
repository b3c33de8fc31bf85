"""Out-of-sample benchmarking, ablations, and lookback sensitivity.

It holds the linear benchmark (a random walk with drift for the common
index and a zero-mean AR(1) per specific index, fitted by `lilee`), the
benchmark table, the design ablations and the lookback sweep.

The comparison protocol: factors are extracted once from the full
observation period and split once, by `windows.holdout`, into the history
(the level years up to `split_year`) and the validation years' levels; the
network's scaler rows and windows are split at the same boundary, each
difference carrying its later level's year.  Every forecaster is estimated
strictly on the training years, and each contender returns only its
(horizon, factors) level forecasts of the validation years.  The mean-bias
correction (the network's validation bias vector, one constant per factor)
is applied to BOTH sides: the network adds it in its scaled output space,
the linear benchmark receives the identical vector mapped to unscaled
difference units.  Both contenders therefore get the same constant
adjustment and the comparison isolates structural adaptability.

Forecasts are recursive: each model feeds its own predictions forward
over the validation years.  `validate` reports RMSE per country on the
specific-factor levels; the ablations and the lookback sweep score the
common factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSeriesError, InsufficientHistoryError
from .forecast import ForecastModel, HybridConfig, fit_forecaster, forecast_deterministic
from .lilee import FactorPanel, fit_ar1, fit_rwd
from .lstm import predict
from .windows import holdout, inverse_transform, transform


@dataclass(frozen=True)
class BenchmarkRow:
    country: str
    rmse_lilee: float
    rmse_hybrid: float

    @property
    def improvement_pct(self) -> float:
        return (self.rmse_lilee - self.rmse_hybrid) / self.rmse_lilee * 100.0


@dataclass(frozen=True)
class AblationResult:
    name: str
    rmse_kt: float
    degradation_pct: float


@dataclass(frozen=True)
class SweepResult:
    lookback: int
    rmse_kt: float | None
    n_train: int
    n_val: int
    skipped: bool = False
    note: str = ""


def rmse(forecast: np.ndarray, actual: np.ndarray) -> float:
    forecast = np.asarray(forecast, dtype=float)
    actual = np.asarray(actual, dtype=float)
    return float(np.sqrt(np.mean((forecast - actual) ** 2)))


def linear_benchmark_forecast(history: FactorPanel, horizon: int, bias: np.ndarray) -> np.ndarray:
    """Drift/AR(1) level forecasts, (horizon, factors), of the `horizon`
    years after the history's last.

    The drift and AR coefficients come from the history only.  `bias` is
    the shared mean-bias correction in unscaled difference units (the
    network's validation bias vector mapped through the scaler), added to
    every per-step difference so both contenders receive the identical
    adjustment.
    """
    train_vals = history.values
    n_factors = train_vals.shape[1]
    bias = np.asarray(bias, dtype=float)

    drift = fit_rwd(train_vals[:, 0]).drift
    phis = np.zeros(n_factors - 1)
    for i in range(n_factors - 1):
        try:
            phis[i] = fit_ar1(train_vals[:, 1 + i]).phi
        except DegenerateSeriesError:
            phis[i] = 0.0

    # K moves by its drift, each specific index decays by its phi, and
    # every factor takes its shared bias
    out = np.empty((horizon, n_factors))
    state = train_vals[-1]
    for h in range(horizon):
        out[h, 0] = state[0] + (drift + bias[0])
        out[h, 1:] = phis * state[1:] + bias[1:]
        state = out[h]
    return out


def validate(panel: FactorPanel, model: ForecastModel, split_year: int) -> list[BenchmarkRow]:
    """Per-country benchmark rows on the specific-factor levels, comparing
    the linear and hybrid forecasters.

    The network's bias vector, mapped to unscaled difference units, is the
    single shared correction applied to both forecast paths."""
    history, actual = holdout(panel, split_year)
    shared_bias = model.mbc * model.scaler.sd
    ll = linear_benchmark_forecast(history, len(actual), shared_bias)
    hy = forecast_deterministic(model, history, len(actual))
    return [
        BenchmarkRow(
            country=panel.labels[1 + i],
            rmse_lilee=rmse(ll[:, 1 + i], actual[:, 1 + i]),
            rmse_hybrid=rmse(hy[:, 1 + i], actual[:, 1 + i]),
        )
        for i in range(panel.n_factors - 1)
    ]


def _levels_forecast(model: ForecastModel, history: FactorPanel, horizon: int) -> np.ndarray:
    """The recursive forecast of a network trained on levels (the levels
    ablation's), (horizon, factors).  Such a network forecasts levels, so
    this loop, not `_advance`, steps it."""
    window = transform(model.scaler, history.values[-model.lookback :])
    out = np.empty((horizon, history.n_factors))
    for h in range(horizon):
        pred = predict(model.net, window[None])[0] + model.mbc
        out[h] = inverse_transform(model.scaler, pred)
        window = np.vstack([window[1:], pred])
    return out


def ablate(
    panel: FactorPanel, split_year: int, cfg: HybridConfig, *, baseline
) -> dict[str, AblationResult]:
    """Common-factor RMSE of the baseline, of the baseline without its
    mean-bias correction (no_mbc) and of a retrained levels network
    (no_differences), each with its degradation vs the baseline.

    `baseline` is `fit_forecaster(panel, split_year, cfg)`."""
    model = baseline[0]
    history, actual = holdout(panel, split_year)

    def rmse_kt(forecast, m: ForecastModel) -> float:
        return rmse(forecast(m, history, len(actual))[:, 0], actual[:, 0])

    base = rmse_kt(forecast_deterministic, model)
    variants = {
        "no_mbc": rmse_kt(forecast_deterministic, replace(model, mbc=np.zeros_like(model.mbc))),
        # retrained on levels with identical architecture and seeds; its bias
        # correction stays on, computed in the scaled level space
        "no_differences": rmse_kt(
            _levels_forecast, fit_forecaster(panel, split_year, cfg, differences=False)[0]),
    }
    return {
        "baseline": AblationResult("baseline", base, 0.0),
        **{name: AblationResult(name, r, (r - base) / base * 100.0)
           for name, r in variants.items()},
    }


def lookback_sweep(
    panel: FactorPanel,
    split_year: int,
    cfg: HybridConfig,
    lookbacks: tuple[int, ...],
    *,
    baseline,
) -> list[SweepResult]:
    """Retrain with identical seed policy per window length.

    `baseline` is `fit_forecaster(panel, split_year, cfg)`; the sweep
    reuses it for `cfg.lookback` instead of training the same model again."""
    history, actual = holdout(panel, split_year)
    results = []
    n_diffs = panel.values.shape[0] - 1
    for lb in lookbacks:
        try:
            fit = (baseline if lb == cfg.lookback
                   else fit_forecaster(panel, split_year, replace(cfg, lookback=lb)))
            model, _, _, (train_idx, val_idx) = fit
        except InsufficientHistoryError as exc:
            note = f"skipped: {exc} ({n_diffs} difference rows)"
            results.append(SweepResult(lb, None, 0, 0, skipped=True, note=note))
            continue
        rmse_kt = rmse(forecast_deterministic(model, history, len(actual))[:, 0], actual[:, 0])
        results.append(SweepResult(lb, rmse_kt, int(train_idx.size), int(val_idx.size)))
    return results
