"""First differences, train-only standardization, and sliding windows.

The factor panel is differenced once (a velocity representation), scaled
to zero mean and unit variance using statistics fitted on training rows
only, and cut into overlapping windows of the last L scaled differences
with the following difference as the target.  A difference row carries the
year of its later level, so the split boundary is defined by target years.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InsufficientHistoryError, ScalingError
from .lilee import FactorPanel


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature mean and standard deviation fitted on training rows only."""

    mean: np.ndarray
    sd: np.ndarray
    train_end_year: int

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "sd", np.asarray(self.sd, dtype=float))
        if self.mean.shape != self.sd.shape or self.mean.ndim != 1:
            raise DimensionError("mean and sd must be matching vectors")
        if np.any(self.sd <= 0):
            raise ScalingError("scaler sd must be positive for every feature")


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding-window samples: X[s] holds rows s..s+L-1, Y[s] row s+L.

    sample_years carries the year of each target row, which defines the
    chronological train/validation split.
    """

    X: np.ndarray
    Y: np.ndarray
    sample_years: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))
        object.__setattr__(self, "Y", np.asarray(self.Y, dtype=float))
        object.__setattr__(self, "sample_years", np.asarray(self.sample_years, dtype=int))
        if self.X.ndim != 3 or self.Y.ndim != 2:
            raise DimensionError("X must be (samples, L, features), Y (samples, features)")
        if not (self.X.shape[0] == self.Y.shape[0] == self.sample_years.size):
            raise DimensionError("sample counts disagree")


def difference(panel: FactorPanel) -> FactorPanel:
    """First differences: row t is level[t] - level[t-1] and carries the
    year of level[t]."""
    if panel.years.size < 2:
        raise InsufficientHistoryError("need at least 2 level rows to difference")
    return replace(panel, years=panel.years[1:], values=np.diff(panel.values, axis=0))


def fit_scaler(panel: FactorPanel, train_end_year: int) -> ScalerParams:
    """Mean/sd (n-1 denominator) over rows with year <= train_end_year."""
    rows = panel.values[panel.years <= train_end_year]
    if rows.shape[0] < 2:
        raise InsufficientHistoryError("need at least 2 training rows to fit a scaler")
    sd = rows.std(axis=0, ddof=1)
    if np.any(sd == 0):
        bad = int(np.flatnonzero(sd == 0)[0])
        raise ScalingError(f"feature {bad} is constant on the training rows")
    return ScalerParams(mean=rows.mean(axis=0), sd=sd, train_end_year=train_end_year)


def transform(scaler: ScalerParams, V: np.ndarray) -> np.ndarray:
    """(V - mean) / sd as a new float array: the difference is the one
    result-sized allocation, divided in place, with the bits of the
    two-temporary form."""
    out = np.subtract(V, scaler.mean, dtype=float)
    out /= scaler.sd
    return out


def inverse_transform(scaler: ScalerParams, V: np.ndarray) -> np.ndarray:
    return np.asarray(V, dtype=float) * scaler.sd + scaler.mean


def make_windows(panel: FactorPanel, lookback: int) -> WindowedDataset:
    """Cut a (scaled) difference panel into chronological windows."""
    t = panel.values.shape[0]
    if lookback < 1:
        raise ValueError("lookback must be >= 1")
    if t <= lookback:
        raise InsufficientHistoryError(
            f"{t} difference rows cannot support lookback {lookback}"
        )
    n = t - lookback
    X = np.stack([panel.values[s : s + lookback] for s in range(n)])
    Y = panel.values[lookback:]
    return WindowedDataset(X=X, Y=Y.copy(), sample_years=panel.years[lookback:])


def split_windows(
    windows: WindowedDataset, train_end_year: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (train, validation) split by target year.  A window
    belongs to validation when its target falls after the boundary, even
    if its inputs reach back across it."""
    train = np.flatnonzero(windows.sample_years <= train_end_year)
    val = np.flatnonzero(windows.sample_years > train_end_year)
    return train, val


def prepare_windows(
    panel: FactorPanel,
    split_year: int,
    lookback: int,
    scaler: ScalerParams | None = None,
    *,
    differences: bool = True,
) -> tuple[ScalerParams, WindowedDataset, tuple[np.ndarray, np.ndarray]]:
    """Difference, scale, window and split a factor panel.

    The scaler is fitted on the training rows unless one is given (a
    trained model's).  `differences=False` windows the levels themselves,
    for the levels ablation.  Raises InsufficientHistoryError when the
    split leaves no training or no validation windows.  Returns (scaler,
    windows, (train indices, validation indices))."""
    rows = difference(panel) if differences else panel
    if scaler is None:
        scaler = fit_scaler(rows, split_year)
    windows = make_windows(replace(rows, values=transform(scaler, rows.values)), lookback)
    train_idx, val_idx = split_windows(windows, split_year)
    if train_idx.size < 1 or val_idx.size < 1:
        raise InsufficientHistoryError("the split leaves no training or no validation windows")
    return scaler, windows, (train_idx, val_idx)
