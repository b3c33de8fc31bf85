"""Tail-risk measures on life-expectancy samples and the reverse stress test.

Longevity risk lives in the upper tail: higher realized life expectancy is
the adverse outcome, so both measures read the right tail and the capital
requirement is the tail value in excess of the mean projection.  Quantiles
use linear interpolation at position (n-1) * level on the sorted sample;
the expected-shortfall tail is the ceil(n * (1 - level)) largest values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRiskError
from .lifetable import _e0_batch, reconstruct_surface
from .lilee import LiLeeParams

DEFAULT_SHOCK_GRID = (0.05, 0.10, 0.15, 0.20)


@dataclass(frozen=True)
class RiskReport:
    """Tail measures of a terminal life-expectancy distribution."""

    mean_e0: float
    var_99_5: float
    es_99_0: float
    scr_var: float
    scr_es: float


@dataclass(frozen=True)
class StressResult:
    delta_star: float
    sensitivity: float
    sensitivity_cv: float
    shock_grid: tuple[float, ...]
    e0_gains: tuple[float, ...]


def sorted_quantiles(a: np.ndarray, levels) -> np.ndarray:
    """Linear-interpolation quantiles along axis 0 of an array already
    sorted along it: position (n-1)*level.  Returns (len(levels), *rest)."""
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    out = np.empty((len(levels), *a.shape[1:]))
    for qi, level in enumerate(levels):
        if not 0.0 <= level <= 1.0:
            raise ValueError("quantile levels must lie in [0, 1]")
        pos = (n - 1) * level
        lo = int(np.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out[qi] = a[lo] + frac * (a[hi] - a[lo])
    return out


def quantile(sample: np.ndarray, level: float) -> float:
    """Linear-interpolation quantile: sort ascending, position (n-1)*level."""
    a = np.sort(np.asarray(sample, dtype=float).ravel())
    return float(sorted_quantiles(a, (level,))[0])


def _tail_mean(a: np.ndarray, level: float) -> float:
    """Expected shortfall of a sample already sorted ascending."""
    # tolerance absorbs float fuzz in n * (1 - level) near integers
    x = a.size * (1.0 - level)
    tail = int(np.ceil(x - 1e-9))
    if x < 1.0 - 1e-9 or tail < 1:
        raise DegenerateRiskError(f"expected-shortfall tail is empty: {a.size} values "
                                  f"* (1 - {level}) = {x:.3f} < 1")
    return float(a[-tail:].mean())


def scr(e0_terminal: np.ndarray) -> RiskReport:
    """Capital requirement: excess of the tail measures beyond the mean.
    The sample is sorted once, for both the VaR and the ES."""
    a = np.asarray(e0_terminal, dtype=float).ravel()
    mean = float(a.mean())
    a = np.sort(a)
    v = float(sorted_quantiles(a, (0.995,))[0])
    e = _tail_mean(a, 0.99)
    return RiskReport(
        mean_e0=mean, var_99_5=v, es_99_0=e, scr_var=v - mean, scr_es=e - mean
    )


def shock_sensitivities(
    m_baseline: np.ndarray, shock_grid: tuple[float, ...] = DEFAULT_SHOCK_GRID
) -> tuple[np.ndarray, np.ndarray]:
    """Life-expectancy gain per unit shock for each uniform rate reduction.

    Returns (gains, sensitivities) where gains[i] = e0((1-d)m) - e0(m) and
    sensitivities[i] = gains[i] / d for d = shock_grid[i].
    """
    m = np.asarray(m_baseline, dtype=float)
    deltas = np.asarray(shock_grid, dtype=float)
    if np.any(deltas <= 0) or np.any(deltas >= 1):
        raise ValueError("shocks must lie in (0, 1)")
    curves = np.vstack([m[None, :], (1.0 - deltas)[:, None] * m[None, :]])
    e0s = _e0_batch(curves)
    gains = e0s[1:] - e0s[0]
    return gains, gains / deltas


def delta_star_from(
    scr_es: float, sensitivities: np.ndarray
) -> tuple[float, float, float]:
    """Critical shock from a capital buffer and measured sensitivities.

    Returns (delta_star, mean sensitivity, coefficient of variation).  The
    mean sensitivity must be positive; the cv uses the sample standard
    deviation.
    """
    sens = np.asarray(sensitivities, dtype=float)
    mean = float(sens.mean())
    if mean <= 0 or np.any(sens <= 0):
        raise DegenerateRiskError("non-positive shock sensitivity")
    cv = float(sens.std(ddof=1) / mean) if sens.size > 1 else 0.0
    return scr_es / mean, mean, cv


def reverse_stress(
    params: LiLeeParams,
    mean_k_terminal: float,
    country: int | str,
    scr_es: float,
    shock_grid: tuple[float, ...] = DEFAULT_SHOCK_GRID,
) -> StressResult:
    """Uniform mortality-reduction shock that would consume the ES buffer.

    Reconstructs the baseline curve at the mean terminal common index,
    measures the e0 response over the shock grid, checks the response is
    effectively linear, and inverts: delta* = SCR_ES / mean sensitivity.
    """
    if scr_es <= 0:
        raise DegenerateRiskError(f"SCR must be positive, got {scr_es:.6f}")
    m = reconstruct_surface(params, country, mean_k_terminal)
    gains, sens = shock_sensitivities(m, shock_grid)
    delta_star, mean_sens, cv = delta_star_from(scr_es, sens)
    return StressResult(
        delta_star=delta_star,
        sensitivity=mean_sens,
        sensitivity_cv=cv,
        shock_grid=tuple(float(d) for d in shock_grid),
        e0_gains=tuple(float(g) for g in gains),
    )
