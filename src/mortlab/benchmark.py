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

Forecasts are fully recursive by default (each model feeds its own
predictions forward); a teacher-forced one-step mode is available for
diagnostics.  Both modes share one step per forecaster, `_linear_step` and
`forecast._advance`, so their first validation year agrees bit for bit.
RMSE is reported per country on the specific-factor levels, or on the
common factor for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSeriesError, InsufficientHistoryError
from .forecast import ForecastModel, HybridConfig, _advance, fit_forecaster, forecast_deterministic
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
    panel: FactorPanel,
    split_year: int,
    bias: np.ndarray | None = None,
    mode: str = "recursive",
) -> np.ndarray:
    """Drift/AR(1) level forecasts over the validation years.

    The drift and AR coefficients come from the training years only.
    `bias` is the shared mean-bias correction in unscaled difference units
    (the network's validation bias vector mapped through the scaler), added
    to every per-step difference so both contenders receive the identical
    adjustment; None means zero.
    """
    train_rows, val_rows = _split_panel(panel, split_year)
    values = panel.values
    n_factors = values.shape[1]
    train_vals = values[train_rows]
    if bias is None:
        bias = np.zeros(n_factors)
    bias = np.asarray(bias, dtype=float)

    rwd = fit_rwd(train_vals[:, 0])
    phis = np.zeros(n_factors - 1)
    for i in range(n_factors - 1):
        try:
            phis[i] = fit_ar1(train_vals[:, 1 + i]).phi
        except DegenerateSeriesError:
            phis[i] = 0.0

    val_idx = np.flatnonzero(val_rows)
    if mode == "recursive":
        out = np.empty((val_idx.size, n_factors))
        state = train_vals[-1]
        for h in range(val_idx.size):
            out[h] = state = _linear_step(state, rwd.drift, phis, bias)
        return out
    if mode == "one_step":
        return _linear_step(values[val_idx - 1], rwd.drift, phis, bias)
    raise ValueError(f"unknown mode {mode!r}")


def _linear_step(prev: np.ndarray, drift: float, phis: np.ndarray, bias: np.ndarray):
    """One benchmark step from level rows `prev` (..., F): K moves by its
    drift, each specific index decays by its phi, and every factor takes
    its shared bias."""
    nxt = np.empty_like(prev)
    nxt[..., 0] = prev[..., 0] + (drift + bias[0])
    nxt[..., 1:] = phis * prev[..., 1:] + bias[1:]
    return nxt


def hybrid_validation_forecast(
    model: ForecastModel, panel: FactorPanel, split_year: int, mode: str = "recursive"
) -> np.ndarray:
    """Network level forecasts over the validation years.  One-step mode
    advances every validation year's true window in one `_advance` call."""
    train_rows, val_rows = _split_panel(panel, split_year)
    if mode == "recursive":
        horizon = int(val_rows.sum())
        history = FactorPanel(
            years=panel.years[train_rows],
            values=panel.values[train_rows],
            labels=panel.labels,
        )
        return forecast_deterministic(model, history, horizon).values[-horizon:]
    if mode == "one_step":
        need = model.lookback + 1
        # a C-order stack, like forecast_deterministic's windows: the product
        # bits follow the memory layout, so row 0 is the recursive row 0
        windows = np.array([panel.values[t - need : t] for t in np.flatnonzero(val_rows)])
        return _advance(model, windows, mask=None)
    raise ValueError(f"unknown mode {mode!r}")


def validate(
    panel: FactorPanel,
    model: ForecastModel,
    split_year: int,
    *,
    rmse_target: str = "specific_factors",
    mode: str = "recursive",
) -> list[BenchmarkRow]:
    """Benchmark rows comparing the linear and hybrid forecasters.

    The network's bias vector, mapped to unscaled difference units, is the
    single shared correction applied to both forecast paths."""
    _, val_rows = _split_panel(panel, split_year)
    actual = panel.values[val_rows]
    shared_bias = model.mbc * model.scaler.sd
    ll = linear_benchmark_forecast(panel, split_year, bias=shared_bias, mode=mode)
    hy = hybrid_validation_forecast(model, panel, split_year, mode=mode)

    if rmse_target == "specific_factors":
        return [
            BenchmarkRow(
                country=panel.labels[1 + i],
                rmse_lilee=rmse(ll[:, 1 + i], actual[:, 1 + i]),
                rmse_hybrid=rmse(hy[:, 1 + i], actual[:, 1 + i]),
            )
            for i in range(panel.n_factors - 1)
        ]
    if rmse_target == "common_factor":
        return [
            BenchmarkRow(
                country="K",
                rmse_lilee=rmse(ll[:, 0], actual[:, 0]),
                rmse_hybrid=rmse(hy[:, 0], actual[:, 0]),
            )
        ]
    raise ValueError(f"unknown rmse_target {rmse_target!r}")


def _rmse_kt_recursive(model: ForecastModel, panel: FactorPanel, split_year: int) -> float:
    _, val_rows = _split_panel(panel, split_year)
    actual_k = panel.values[val_rows][:, 0]
    hy = hybrid_validation_forecast(model, panel, split_year, mode="recursive")
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
    lookbacks: tuple[int, ...] = (5, 10, 15),
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
