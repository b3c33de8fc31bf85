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
deterministic path bit for bit.  Paths run in the blocks of
`lstm.row_blocks`, at most `BLOCK` paths each, on min(usable cores,
blocks) worker threads; a block's paths advance together through one
batched network forward per step, so the transient memory is bounded by
workers x `BLOCK` paths whatever `n_paths` is.  The LSTM kernel
multiplies row by row (`lstm._rows`) and all else is elementwise, so a row
gets exactly the arithmetic of a single window and any split into blocks
gives the same bits.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, InsufficientHistoryError
from .lilee import FactorPanel
from .lstm import (
    NetworkParams,
    TrainConfig,
    TrainTrace,
    forward,
    predict,
    row_blocks,
    train,
)
from .risk import sorted_quantiles
from .windows import (
    ScalerParams,
    WindowedDataset,
    inverse_transform,
    prepare_windows,
    transform,
)

MODEL_SCHEMA = "mortlab/forecaster-v1"

# paths per block, the unit of work and of transient memory.  256 paths
# halve the in-flight memory of 512 for time: 2,000 paths, horizon 30, on 2
# workers (medians of 8 alternated runs), 1.30 s at 256 against 1.21 s at 512
BLOCK = 256
# paths whose uniforms share one float scratch before they become a block's
# bool keep-pattern; the scratch is 8x the bytes of their part of the pattern:
# 41 KB a worker at lookback 10 and h1 32.  Each path's draw order does not
# depend on it
DRAW_CHUNK = 16


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
    the shared origin level at horizon index 0.  `blocks` and `workers` are
    the number of path blocks and of threads that ran it, which do not
    change a bit of `levels`."""

    levels: np.ndarray
    years: np.ndarray
    blocks: int = 1
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=float))
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        if self.levels.ndim != 3 or self.levels.shape[1] != self.years.size:
            raise DimensionError("levels must be (paths, horizon + 1, factors)")

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


@dataclass(frozen=True)
class HybridConfig:
    """Window length, architecture and training settings of the forecaster."""

    lookback: int = 10
    hidden: tuple[int, int] = (32, 16)
    dropout_rate: float = 0.2
    train: TrainConfig = field(default_factory=TrainConfig)


def fit_forecaster(
    panel: FactorPanel, split_year: int, cfg: HybridConfig, *, differences: bool = True
) -> tuple[ForecastModel, TrainTrace, WindowedDataset, tuple[np.ndarray, np.ndarray]]:
    """Difference, scale, window, train, and bias-correct in one call.

    `differences=False` trains on the levels instead, for the levels
    ablation; such a model predicts levels, which `_advance` does not."""
    scaler, windows, (train_idx, val_idx) = prepare_windows(
        panel, split_year, cfg.lookback, differences=differences
    )
    net, trace = train(
        windows.X[train_idx],
        windows.Y[train_idx],
        windows.X[val_idx],
        windows.Y[val_idx],
        cfg.train,
        hidden=cfg.hidden,
        dropout_rate=cfg.dropout_rate,
    )
    mbc = compute_mbc(net, windows.X[val_idx], windows.Y[val_idx])
    model = ForecastModel(net=net, scaler=scaler, mbc=mbc, lookback=cfg.lookback)
    return model, trace, windows, (train_idx, val_idx)


def _advance(model: ForecastModel, windows: np.ndarray, mask) -> np.ndarray:
    """One recursion step for a stack of level windows (n, L+1, F): scale
    the last L diffs, predict, bias-correct, inverse-scale, integrate.
    The only hybrid step: every forecasting mode goes through it, so the
    degenerate stochastic ensemble is bit-identical to the deterministic
    path.  Returns (n, F)."""
    x = transform(model.scaler, np.diff(windows, axis=1))
    pred = forward(model.net, x, mask=mask) + model.mbc
    return windows[:, -1] + inverse_transform(model.scaler, pred)


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
    then its noise, as if the paths ran one after another.  The paths are
    cut into the blocks of `row_blocks(n_paths, BLOCK)`, run by
    min(usable cores, blocks) worker threads, so the memory beyond `levels`
    is bounded by workers x BLOCK paths; the bits do not depend on the split.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (history.values.shape[1],):
        raise DimensionError("sigma must have one entry per factor")
    if np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    need = model.lookback + 1
    if history.values.shape[0] < need:
        raise InsufficientHistoryError(f"need at least {need} level rows")

    out = np.empty((n_paths, horizon + 1, history.values.shape[1]))
    out[:, 0, :] = history.values[-1]
    bounds = row_blocks(n_paths, BLOCK)
    workers = min(_cores(), len(bounds))
    run = functools.partial(_run_block, model, history, sigma, seed, out)
    # copies of the caller's context carry numpy's errstate into the workers
    ctxs = [contextvars.copy_context() for _ in bounds]
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(contextvars.Context.run, ctxs, [run] * len(bounds), *zip(*bounds)))
    years = history.years[-1] + np.arange(horizon + 1)
    return ForecastEnsemble(levels=out, years=years, blocks=len(bounds), workers=workers)


def _cores() -> int:
    """CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_block(model, history, sigma, seed, out, lo: int, hi: int) -> None:
    """Run paths [lo, hi) over the whole horizon into out[lo:hi], each on
    its own stream: SeedSequence(seed, spawn_key=(p,)) is exactly
    SeedSequence(seed).spawn(n_paths)[p], built here for the block alone.
    The block's dropout mask is held as the bool keep-pattern; the uniforms
    behind it pass through a float scratch of DRAW_CHUNK paths."""
    use_noise = bool(np.any(sigma > 0))
    use_mask = model.net.dropout_rate > 0.0
    streams = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p,)))
        for p in range(lo, hi)
    ]
    n = hi - lo
    windows = np.repeat(history.values[None, -(model.lookback + 1) :], n, axis=0)
    shape = (model.lookback, model.net.hidden[0])
    uniforms = np.empty((min(n, DRAW_CHUNK), *shape))
    mask = np.empty((n, *shape), dtype=bool) if use_mask else None
    normals = np.empty((n, history.values.shape[1]))
    for h in range(1, out.shape[1]):
        for c in range(0, n, DRAW_CHUNK):
            m = min(DRAW_CHUNK, n - c)
            # each path's own stream: its mask draws first, then its noise
            for k in range(m):
                if use_mask:
                    streams[c + k].random(out=uniforms[k])
                if use_noise:
                    streams[c + k].standard_normal(out=normals[c + k])
            if use_mask:
                np.less(uniforms[:m], model.net.keep_prob, out=mask[c : c + m])
        nxt = _advance(model, windows, mask=mask)
        if use_noise:
            nxt += sigma * normals
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = nxt
        out[lo:hi, h, :] = nxt


def ensemble_quantiles(ensemble: ForecastEnsemble, levels: Sequence[float]) -> np.ndarray:
    """Per-horizon, per-factor quantile bands, shaped (len(levels), H+1, F).

    Uses the risk measures' rule, sorting one horizon's (paths, F) at a time."""
    if ensemble.n_paths < 2:
        raise ValueError("need at least 2 paths")
    bands = np.empty((len(levels), *ensemble.levels.shape[1:]))
    for h in range(bands.shape[1]):
        bands[:, h] = sorted_quantiles(np.sort(ensemble.levels[:, h], axis=0), levels)
    return bands


def dump_forecaster(model: ForecastModel, network_file: str, **header) -> str:
    """The model.json text of the bundle: scaler, bias vector and the name
    of the network weights file (`lstm.dump_network`, written alongside).
    `header` keys (the CLI's config_hash) lead the bundle's JSON."""
    doc = {
        **header,
        "schema": MODEL_SCHEMA,
        "network_file": network_file,
        "lookback": model.lookback,
        "mbc": model.mbc.tolist(),
        "scaler": {
            "mean": model.scaler.mean.tolist(),
            "sd": model.scaler.sd.tolist(),
            "train_end_year": model.scaler.train_end_year,
        },
    }
    return json.dumps(doc)


def parse_forecaster(text: str | bytes, net: NetworkParams) -> ForecastModel:
    """The bundle of a model.json text (`dump_forecaster`) with the network
    read from its `network_file` (`lstm.parse_network`)."""
    doc = json.loads(text)
    if doc.get("schema") != MODEL_SCHEMA:
        raise DimensionError(
            f"unsupported forecaster schema {doc.get('schema')!r}; expected {MODEL_SCHEMA}"
        )
    scaler = ScalerParams(
        mean=np.asarray(doc["scaler"]["mean"]),
        sd=np.asarray(doc["scaler"]["sd"]),
        train_end_year=int(doc["scaler"]["train_end_year"]),
    )
    return ForecastModel(
        net=net, scaler=scaler, mbc=np.asarray(doc["mbc"]), lookback=int(doc["lookback"])
    )
