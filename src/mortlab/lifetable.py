"""Mortality-curve reconstruction and period life tables.

Projected common-factor levels map back to death rates through
m_x = exp(alpha_x + B_x * K); the country-specific term b_i * k_i is
deliberately omitted so long-horizon projections do not accumulate extra
integration drift from the specific indices.  The omission shows at the
origin: on the README quickstart config (seed 4242) `e0_origin_model` misses
`e0_origin_observed` by 0.64, 1.80 and 1.17 years for SYA, SYB and SYC
(ROADMAP item 9).  Life tables use the standard mid-period approximation
q = m / (1 + 0.5 m) on a closed table with terminal age 90.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .lilee import LiLeeParams

# rate curves per block in e0_paths: a (block, ages) matrix under 128 KiB,
# glibc's initial mmap threshold, so its temporaries reuse heap memory.  At
# 2048 every block faulted in fresh pages (e0_paths 50-90% slower) unless
# an earlier, larger free had raised the threshold.
E0_BLOCK = 128


@dataclass(frozen=True)
class LifeTable:
    ages: np.ndarray
    qx: np.ndarray
    px: np.ndarray
    lx: np.ndarray
    e0: float


@dataclass(frozen=True)
class MonotonicityResult:
    passed: bool
    first_violation_age: int | None

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def reconstruct_surface(
    params: LiLeeParams, country: int | str, k_value
) -> np.ndarray:
    """Death rates by age for one country at common-index level(s) `k_value`:
    (ages,) for a scalar, (*k.shape, ages) for an array, one curve per level."""
    i = params.country_index(country)
    return np.exp(params.alpha[i] + np.multiply.outer(k_value, params.B))


def _columns(m: np.ndarray):
    """q_x, p_x, l_x and e0 of a batch of (n, ages) rate curves: l_0 = 1,
    l_x the survivorship product, e0 the sum of l_x over the closed table
    minus the half-year mid-period adjustment."""
    if np.any(m < 0):
        raise DomainError("death rates must be non-negative")
    q = m / (1.0 + 0.5 * m)
    if np.any(q > 1.0):
        # q = m/(1+0.5m) crosses 1 when m > 2; the approximation has broken
        # down, so cap at certain death rather than emit probabilities > 1.
        warnings.warn(
            "death rate above 2 encountered; q_x clamped to 1", RuntimeWarning
        )
        q = np.minimum(q, 1.0)
    p = 1.0 - q
    lx = np.ones_like(p)
    np.cumprod(p[:, :-1], axis=1, out=lx[:, 1:])
    return q, p, lx, lx.sum(axis=1) - 0.5


def _e0_batch(m: np.ndarray) -> np.ndarray:
    """Life expectancy at birth for a batch of (n, ages) rate curves."""
    return _columns(m)[3]


def life_table(m: np.ndarray) -> LifeTable:
    """Build a period life table for one rate curve on ages 0..len(m)-1,
    by the batch rule of `_columns`."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 1:
        raise DimensionError("expected one rate curve")
    q, p, lx, e0 = (col[0] for col in _columns(m[None, :]))
    return LifeTable(ages=np.arange(m.size), qx=q, px=p, lx=lx, e0=float(e0))


def monotonicity_check(
    m: np.ndarray, age_range: tuple[int, int] = (30, 90)
) -> MonotonicityResult:
    """Check m_{x+1} >= m_x over the adult range (non-strict).

    The curve is indexed by age starting at 0.  Returns the first age where
    the rate drops, if any.
    """
    m = np.asarray(m, dtype=float)
    lo, hi = age_range
    if not 0 <= lo < hi < m.size + 1:
        raise ValueError("age_range outside the curve")
    for x in range(lo, min(hi, m.size - 1)):
        if m[x + 1] < m[x]:
            return MonotonicityResult(passed=False, first_violation_age=x)
    return MonotonicityResult(passed=True, first_violation_age=None)


def e0_at(params: LiLeeParams, country: int | str, k_value: float) -> float:
    """Life expectancy implied by one common-index level."""
    return float(_e0_batch(reconstruct_surface(params, country, k_value)[None, :])[0])


def e0_paths(
    ensemble, params: LiLeeParams, country: int | str, *, horizons=slice(None)
) -> np.ndarray:
    """Per-path, per-horizon life expectancy from an ensemble's K levels.

    Returns (paths, horizon); the anchor row at horizon 0 is excluded.
    `horizons` indexes that horizon axis, so only the selected curves are
    evaluated: an integer h gives that year as (paths,), bit for bit equal
    to `e0_paths(...)[:, h]` (-1 is the terminal year), so a caller that
    reads one horizon at a time never holds the (paths, horizon) matrix.
    Curves are evaluated E0_BLOCK at a time, so the rate matrix and its
    temporaries stay bounded whatever the ensemble size; each curve's e0
    depends on that curve alone.
    """
    k_vals = ensemble.levels[:, 1:, 0][:, horizons]
    k_flat = k_vals.ravel()
    out = np.empty(k_flat.size)
    for lo in range(0, k_flat.size, E0_BLOCK):
        k = k_flat[lo : lo + E0_BLOCK]
        out[lo : lo + k.size] = _e0_batch(reconstruct_surface(params, country, k))
    return out.reshape(k_vals.shape)
