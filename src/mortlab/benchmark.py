"""Out-of-sample benchmarking, ablations, and lookback sensitivity.

It holds the linear benchmark (a random walk with drift for the common
index and a zero-mean AR(1) per specific index, fitted by `lilee`), the
network's validation forecasts, the benchmark table, the design ablations
and the lookback sweep.

The comparison protocol: factors are extracted once from the full
observation period, every forecaster is estimated strictly on the training
years, and both produce level forecasts over the validation years.  The
mean-bias correction - the network's validation bias vector, one constant
per factor - is applied to BOTH sides: the network adds it in its scaled
output space, the linear benchmark receives the identical vector mapped to
unscaled difference units.  Both contenders therefore get the same
constant adjustment and the comparison isolates structural adaptability.

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
from .windows import inverse_transform, transform


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


def _split_panel(panel: FactorPanel, split_year: int):
    train_rows = panel.years <= split_year
    val_rows = panel.years > split_year
    if train_rows.sum() < 3 or val_rows.sum() < 1:
        raise InsufficientHistoryError("split leaves too little data on one side")
    return train_rows, val_rows


def linear_benchmark_forecast(
    panel: FactorPanel, split_year: int, bias: np.ndarray
) -> np.ndarray:
    """Drift/AR(1) level forecasts over the validation years.

    The drift and AR coefficients come from the training years only.
    `bias` is the shared mean-bias correction in unscaled difference units
    (the network's validation bias vector mapped through the scaler), added
    to every per-step difference so both contenders receive the identical
    adjustment.
    """
    train_rows, val_rows = _split_panel(panel, split_year)
    train_vals = panel.values[train_rows]
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
    out = np.empty((int(val_rows.sum()), n_factors))
    state = train_vals[-1]
    for h in range(out.shape[0]):
        out[h, 0] = state[0] + (drift + bias[0])
        out[h, 1:] = phis * state[1:] + bias[1:]
        state = out[h]
    return out


def hybrid_validation_forecast(
    model: ForecastModel, panel: FactorPanel, split_year: int
) -> np.ndarray:
    """Network level forecasts over the validation years, recursive from
    the training years."""
    train_rows, val_rows = _split_panel(panel, split_year)
    horizon = int(val_rows.sum())
    history = FactorPanel(
        years=panel.years[train_rows],
        values=panel.values[train_rows],
        labels=panel.labels,
    )
    return forecast_deterministic(model, history, horizon).values[-horizon:]


def validate(panel: FactorPanel, model: ForecastModel, split_year: int) -> list[BenchmarkRow]:
    """Per-country benchmark rows on the specific-factor levels, comparing
    the linear and hybrid forecasters.

    The network's bias vector, mapped to unscaled difference units, is the
    single shared correction applied to both forecast paths."""
    _, val_rows = _split_panel(panel, split_year)
    actual = panel.values[val_rows]
    shared_bias = model.mbc * model.scaler.sd
    ll = linear_benchmark_forecast(panel, split_year, shared_bias)
    hy = hybrid_validation_forecast(model, panel, split_year)
    return [
        BenchmarkRow(
            country=panel.labels[1 + i],
            rmse_lilee=rmse(ll[:, 1 + i], actual[:, 1 + i]),
            rmse_hybrid=rmse(hy[:, 1 + i], actual[:, 1 + i]),
        )
        for i in range(panel.n_factors - 1)
    ]


def _rmse_kt_recursive(model: ForecastModel, panel: FactorPanel, split_year: int) -> float:
    _, val_rows = _split_panel(panel, split_year)
    actual_k = panel.values[val_rows][:, 0]
    hy = hybrid_validation_forecast(model, panel, split_year)
    return rmse(hy[:, 0], actual_k)


def _levels_variant_rmse(panel: FactorPanel, split_year: int, cfg: HybridConfig) -> float:
    """Retrain on absolute levels instead of differences, identical
    architecture and seeds; bias correction stays on, computed in the
    scaled level space.  The network forecasts levels, so this loop, not
    `_advance`, steps it."""
    model = fit_forecaster(panel, split_year, cfg, differences=False)[0]
    train_rows, val_rows = _split_panel(panel, split_year)
    window = transform(model.scaler, panel.values[train_rows][-cfg.lookback :])
    out = np.empty((int(val_rows.sum()), panel.n_factors))
    for h in range(out.shape[0]):
        pred = predict(model.net, window[None])[0] + model.mbc
        out[h] = inverse_transform(model.scaler, pred)
        window = np.vstack([window[1:], pred])
    return rmse(out[:, 0], panel.values[val_rows][:, 0])


def ablate(
    panel: FactorPanel, split_year: int, cfg: HybridConfig, *, baseline
) -> dict[str, AblationResult]:
    """Common-factor RMSE of the baseline, of the baseline without its
    mean-bias correction (no_mbc) and of a retrained levels network
    (no_differences), each with its degradation vs the baseline.

    `baseline` is `fit_forecaster(panel, split_year, cfg)`."""
    model = baseline[0]
    base = _rmse_kt_recursive(model, panel, split_year)
    variants = {
        "no_mbc": _rmse_kt_recursive(replace(model, mbc=np.zeros_like(model.mbc)),
                                     panel, split_year),
        "no_differences": _levels_variant_rmse(panel, split_year, cfg),
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
        rmse_kt = _rmse_kt_recursive(model, panel, split_year)
        results.append(SweepResult(lb, rmse_kt, int(train_idx.size), int(val_idx.size)))
    return results
