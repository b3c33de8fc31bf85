"""Bias-corrected recursive forecasting with two uncertainty sources.

The trained network predicts scaled factor differences one step ahead.  A
constant mean-bias correction, estimated once on the validation windows in
the network's own output space, is added to every subsequent prediction.
Levels are rebuilt by integrating the corrected differences.

Stochastic projection draws, per path and per step, a fresh dropout mask
(model uncertainty) and a Gaussian level innovation calibrated to the
historical variability of the factor differences (process uncertainty).
Every path recurses on its own noisy history.  Paths get independent RNG
streams spawned from the run seed, so ensembles are reproducible and safe
to parallelize.

Contract: path p depends only on (seed, p), bit for bit, whatever
`n_paths` is, and the ensemble with zero dropout and zero sigma equals the
deterministic path bit for bit.  All paths advance together through one
batched network forward per step; the LSTM kernel multiplies row by row
(`lstm._rows`), so a row of the batch gets exactly the arithmetic of a
single window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionError, InsufficientHistoryError
from .lilee import FactorPanel
from .lstm import (
    NetworkParams,
    TrainConfig,
    TrainTrace,
    dropout_mask,
    forward,
    load_network,
    predict,
    save_network,
    train,
)
from .risk import sorted_quantiles
from .windows import (
    DiffPanel,
    ScalerParams,
    WindowedDataset,
    difference,
    fit_scaler,
    make_windows,
    split_windows,
    transform,
)

MODEL_SCHEMA = "mortlab/forecaster-v1"

DEFAULT_QUANTILES = (0.025, 0.10, 0.50, 0.90, 0.975)


@dataclass(frozen=True)
class ForecastModel:
    """Everything needed to forecast: network, scaler, bias vector, window."""

    net: NetworkParams
    scaler: ScalerParams
    mbc: np.ndarray
    lookback: int

    def __post_init__(self):
        object.__setattr__(self, "mbc", np.asarray(self.mbc, dtype=float))
        if self.mbc.shape != self.scaler.mean.shape:
            raise DimensionError("bias vector must match the feature count")
        if not np.all(np.isfinite(self.mbc)):
            raise DimensionError("bias vector must be finite")


@dataclass(frozen=True)
class ForecastEnsemble:
    """Stochastic factor paths; levels is (paths, horizon + 1, factors) with
    the shared origin level at horizon index 0."""

    levels: np.ndarray
    years: np.ndarray
    origin_year: int
    seed: int
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=float))
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.levels.ndim != 3 or self.levels.shape[1] != self.years.size:
            raise DimensionError("levels must be (paths, horizon + 1, factors)")
        if np.any(self.sigma < 0):
            raise DimensionError("sigma must be non-negative")

    @property
    def n_paths(self) -> int:
        return self.levels.shape[0]

    @property
    def horizon(self) -> int:
        return self.levels.shape[1] - 1


def compute_mbc(net: NetworkParams, X_val: np.ndarray, Y_val: np.ndarray) -> np.ndarray:
    """Mean of (target - deterministic prediction) over validation windows,
    in the network's scaled output space."""
    X_val = np.asarray(X_val, dtype=float)
    Y_val = np.asarray(Y_val, dtype=float)
    if X_val.shape[0] < 1:
        raise ValueError("need at least one validation sample")
    return (Y_val - predict(net, X_val)).mean(axis=0)


def fit_forecaster(
    panel: FactorPanel,
    split_year: int,
    lookback: int,
    *,
    hidden: tuple[int, int] = (32, 16),
    dropout_rate: float = 0.2,
    train_config: TrainConfig = TrainConfig(),
) -> tuple[ForecastModel, TrainTrace, WindowedDataset, tuple[np.ndarray, np.ndarray]]:
    """Difference, scale, window, train, and bias-correct in one call."""
    diff = difference(panel)
    scaler = fit_scaler(diff, split_year)
    scaled = DiffPanel(years=diff.years, V=transform(scaler, diff.V))
    windows = make_windows(scaled, lookback)
    train_idx, val_idx = split_windows(windows, split_year)
    if train_idx.size < 1 or val_idx.size < 1:
        raise InsufficientHistoryError(
            "the split leaves no training or no validation windows"
        )
    net, trace = train(
        windows.X[train_idx],
        windows.Y[train_idx],
        windows.X[val_idx],
        windows.Y[val_idx],
        train_config,
        hidden=hidden,
        dropout_rate=dropout_rate,
    )
    mbc = compute_mbc(net, windows.X[val_idx], windows.Y[val_idx])
    model = ForecastModel(net=net, scaler=scaler, mbc=mbc, lookback=lookback)
    return model, trace, windows, (train_idx, val_idx)


def _advance(model: ForecastModel, windows: np.ndarray, mask) -> np.ndarray:
    """One recursion step for a stack of level windows (n, L+1, F): scale
    the last L diffs, predict, bias-correct, inverse-scale, integrate.
    Shared by every forecasting mode so the degenerate stochastic ensemble
    is bit-identical to the deterministic path.  Returns (n, F)."""
    x = transform(model.scaler, np.diff(windows, axis=1))
    pred = forward(model.net, x, mask=mask) + model.mbc
    step = pred * model.scaler.sd + model.scaler.mean
    return windows[:, -1] + step


def forecast_deterministic(
    model: ForecastModel, history: FactorPanel, horizon: int
) -> FactorPanel:
    """Recursive central forecast; returns history plus `horizon` new rows.

    No dropout, no noise: repeated runs are bit-identical."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    need = model.lookback + 1
    if history.values.shape[0] < need:
        raise InsufficientHistoryError(f"need at least {need} level rows")
    if horizon == 0:
        return history
    levels = list(history.values)
    for _ in range(horizon):
        window = np.asarray(levels[-need:])[None]
        levels.append(_advance(model, window, mask=None)[0])
    years = np.arange(history.years[0], history.years[-1] + horizon + 1)
    return FactorPanel(years=years, values=np.asarray(levels), labels=history.labels)


def historical_diff_sd(panel: FactorPanel) -> np.ndarray:
    """Per-factor sample standard deviation of the first differences over
    the full observation period; calibrates the process noise."""
    return np.diff(panel.values, axis=0).std(axis=0, ddof=1)


def forecast_stochastic(
    model: ForecastModel,
    history: FactorPanel,
    horizon: int,
    *,
    n_paths: int = 1000,
    sigma: np.ndarray,
    seed: int = 0,
) -> ForecastEnsemble:
    """Stochastic ensemble combining dropout masks and process noise.

    Each of the `n_paths` paths evolves on its own history: per step a
    dropout-masked prediction plus the bias correction gives the factor
    increment, then a Normal(0, diag(sigma^2)) level innovation is added.
    A path with zero dropout and zero sigma reproduces the deterministic
    forecast exactly.  Per step, each path's own stream draws its mask and
    then its noise, as if the paths ran one after another.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (history.values.shape[1],):
        raise DimensionError("sigma must have one entry per factor")
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    need = model.lookback + 1
    if history.values.shape[0] < need:
        raise InsufficientHistoryError(f"need at least {need} level rows")

    use_noise = bool(np.any(sigma > 0))
    use_mask = model.net.dropout_rate > 0.0
    streams = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_paths)
    ]
    n_factors = history.values.shape[1]
    windows = np.repeat(history.values[None, -need:], n_paths, axis=0)
    uniforms = np.empty((n_paths, model.lookback, model.net.hidden[0]))
    normals = np.empty((n_paths, n_factors))
    out = np.empty((n_paths, horizon + 1, n_factors))
    out[:, 0, :] = history.values[-1]
    for h in range(1, horizon + 1):
        # each path's own stream: its mask draws first, then its noise
        for p, rng in enumerate(streams):
            if use_mask:
                rng.random(out=uniforms[p])
            if use_noise:
                rng.standard_normal(out=normals[p])
        mask = dropout_mask(model.net, uniforms) if use_mask else None
        nxt = _advance(model, windows, mask=mask)
        if use_noise:
            nxt += sigma * normals
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = nxt
        out[:, h, :] = nxt
    years = history.years[-1] + np.arange(horizon + 1)
    return ForecastEnsemble(
        levels=out,
        years=years,
        origin_year=int(history.years[-1]),
        seed=seed,
        sigma=sigma,
    )


def ensemble_quantiles(
    ensemble: ForecastEnsemble, levels: Sequence[float] = DEFAULT_QUANTILES
) -> np.ndarray:
    """Per-horizon, per-factor quantile bands, shaped (len(levels), H+1, F).

    Uses the same linear-interpolation rule as the risk measures."""
    if ensemble.n_paths < 2:
        raise ValueError("need at least 2 paths")
    return sorted_quantiles(np.sort(ensemble.levels, axis=0), levels)


def save_forecaster(model: ForecastModel, path: str | Path, net_path: str | Path) -> None:
    """Persist the bundle: scaler, bias vector and a pointer to the network
    weights file (written alongside)."""
    save_network(model.net, net_path)
    doc = {
        "schema": MODEL_SCHEMA,
        "network_file": str(Path(net_path).name),
        "lookback": model.lookback,
        "mbc": model.mbc.tolist(),
        "scaler": {
            "mean": model.scaler.mean.tolist(),
            "sd": model.scaler.sd.tolist(),
            "train_end_year": model.scaler.train_end_year,
        },
    }
    Path(path).write_text(json.dumps(doc))


def load_forecaster(path: str | Path) -> ForecastModel:
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc.get("schema") != MODEL_SCHEMA:
        raise DimensionError(
            f"unsupported forecaster schema {doc.get('schema')!r}; expected {MODEL_SCHEMA}"
        )
    net = load_network(path.parent / doc["network_file"])
    scaler = ScalerParams(
        mean=np.asarray(doc["scaler"]["mean"]),
        sd=np.asarray(doc["scaler"]["sd"]),
        train_end_year=int(doc["scaler"]["train_end_year"]),
    )
    return ForecastModel(
        net=net, scaler=scaler, mbc=np.asarray(doc["mbc"]), lookback=int(doc["lookback"])
    )
