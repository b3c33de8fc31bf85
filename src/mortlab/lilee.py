"""Two-step rank-1 decomposition of multi-population log mortality.

The model splits each country's log rates into a static age profile, a
common trend shared by the cluster, and a country-specific deviation:

    log_m[x, t, i] = alpha[i, x] + B[x] * K[t] + b[i, x] * k[i, t] + resid

Both factor pairs are extracted as leading singular pairs, taken from
LAPACK's SVD (`np.linalg.svd`), and renormalized to the usual Lee-Carter
convention (loadings sum to one, indices sum to zero).  The module also
fits the linear benchmark's two models, a random walk with drift for the
common index and a zero-mean AR(1) for the specific indices;
`benchmark.linear_benchmark_forecast` steps them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DegenerateSeriesError, DimensionError, NumericError, RankError

if TYPE_CHECKING:  # pragma: no cover
    from .data import ClusterDataset

PARAMS_SCHEMA = "mortlab/lilee-params-v1"
# the array fields of LiLeeParams, in params.json's order
_ARRAYS = ("ages", "years", "alpha", "B", "K", "b", "k")


@dataclass(frozen=True)
class LiLeeParams:
    """Fitted parameter set of the two-step decomposition.

    alpha has shape (N, A), B shape (A,), K shape (T,), b shape (N, A) and
    k shape (N, T), where N is the number of countries in configuration
    order, A the number of ages and T the number of years.  Every float
    array must be finite.
    """

    countries: tuple[str, ...]
    ages: np.ndarray
    years: np.ndarray
    alpha: np.ndarray
    B: np.ndarray
    K: np.ndarray
    b: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for name in _ARRAYS:
            dtype = int if name in ("ages", "years") else float
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n, a, t = len(self.countries), self.ages.size, self.years.size
        if self.alpha.shape != (n, a) or self.b.shape != (n, a):
            raise DimensionError("alpha/b must have shape (countries, ages)")
        if self.B.shape != (a,) or self.K.shape != (t,):
            raise DimensionError("B must be (ages,), K must be (years,)")
        if self.k.shape != (n, t):
            raise DimensionError("k must have shape (countries, years)")
        for name in ("alpha", "B", "K", "b", "k"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericError(f"non-finite values in {name}")

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    def country_index(self, country: int | str) -> int:
        if isinstance(country, str):
            try:
                return self.countries.index(country)
            except ValueError:
                raise KeyError(f"unknown country code {country!r}") from None
        if not 0 <= country < self.n_countries:
            raise KeyError(f"country index {country} out of range")
        return int(country)


@dataclass(frozen=True)
class FactorPanel:
    """Latent factor levels by year: column 0 is the common index K, column
    1 + i is country i's specific index k."""

    years: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2 or self.values.shape[0] != self.years.size:
            raise DimensionError("values must be (years, factors)")
        if len(self.labels) != self.values.shape[1]:
            raise DimensionError("one label per factor column required")
        if self.years.size > 1 and not np.all(np.diff(self.years) == 1):
            raise DimensionError("years must be contiguous")

    @classmethod
    def from_params(cls, params: LiLeeParams) -> "FactorPanel":
        values = np.column_stack([params.K, params.k.T])
        labels = ("K", *params.countries)
        return cls(years=params.years, values=values, labels=labels)

    @property
    def n_factors(self) -> int:
        return self.values.shape[1]


def leading_singular_pair(M: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Leading singular triple (u, s, v) of M from LAPACK's thin SVD.

    u and v are unit vectors, s > 0, and s * outer(u, v) is the best
    rank-1 approximation of M in Frobenius norm.  Sign convention:
    sum(u) >= 0.  Raises RankError on a zero matrix; LAPACK's own failure
    surfaces as np.linalg.LinAlgError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError("expected a 2-d matrix")
    if not np.any(M):
        raise RankError("matrix is identically zero")
    U, sig, Vt = np.linalg.svd(M, full_matrices=False)
    u, v = U[:, 0], Vt[0]
    if u.sum() < 0:
        u, v = -u, -v
    return u, float(sig[0]), v


def _normalized_pair(M: np.ndarray, zero_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-1 factors of M renormalized to sum(B) = 1, sum(K) = 0.

    Returns (B, K, alpha_shift).  The shift is the age vector absorbed into
    the static profile so that B @ K + shift reproduces the fitted rank-1
    term exactly.  A (near-)zero matrix yields uniform loadings and a zero
    index rather than an error, so constant-in-time surfaces stay fittable.
    """
    a, t = M.shape
    if np.linalg.norm(M) <= zero_tol:
        return np.full(a, 1.0 / a), np.zeros(t), np.zeros(a)
    u, s, v = leading_singular_pair(M)
    su = u.sum()
    if abs(su) < 1e-12:
        raise RankError("age loadings sum to zero; cannot renormalize")
    B = u / su
    K = s * su * v
    shift = B * K.mean()
    K = K - K.mean()
    return B, K, shift


def fit_lilee(data: "ClusterDataset") -> tuple[LiLeeParams, np.ndarray]:
    """Fit the two-step decomposition to a cluster of mortality surfaces.

    Step 1 takes the per-country time-mean as alpha, averages the centered
    log surfaces across countries and extracts the common pair (B, K).
    Step 2 extracts one specific pair (b, k) per country from what step 1
    leaves behind.  Returns the parameters and the residual cube with shape
    (countries, ages, years); alpha + B*K + b*k + residual reproduces the
    input log rates exactly.
    """
    surfaces = data.surfaces
    n = len(surfaces)
    Y = np.stack([s.log_m for s in surfaces])  # (N, A, T)
    _, a, t = Y.shape
    if t < 3:
        raise DimensionError("need at least 3 years to fit")
    if a < 2:
        raise DimensionError("need at least 2 ages to fit")

    alpha = Y.mean(axis=2)
    centered = Y - alpha[:, :, None]
    zero_tol = 1e-12 * max(1.0, float(np.linalg.norm(Y)))

    avg = centered.mean(axis=0)
    B, K, shift = _normalized_pair(avg, zero_tol)
    alpha = alpha + shift[None, :]

    resid1 = centered - shift[None, :, None] - np.outer(B, K)[None, :, :]
    b = np.empty((n, a))
    k = np.empty((n, t))
    for i in range(n):
        b[i], k[i], shift_i = _normalized_pair(resid1[i], zero_tol)
        alpha[i] += shift_i
        resid1[i] -= shift_i[:, None]
    resid = resid1 - b[:, :, None] * k[:, None, :]

    params = LiLeeParams(
        countries=tuple(s.country for s in surfaces),
        ages=surfaces[0].ages,
        years=surfaces[0].years,
        alpha=alpha,
        B=B,
        K=K,
        b=b,
        k=k,
    )
    return params, resid


class RwdParams(NamedTuple):
    drift: float
    sigma: float


class Ar1Params(NamedTuple):
    phi: float
    xi_sd: float


def fit_rwd(K: np.ndarray) -> RwdParams:
    """Random walk with drift: drift is the mean first difference, sigma the
    sample standard deviation (n-1 denominator) of the differences."""
    K = np.asarray(K, dtype=float)
    if K.size < 3:
        raise ValueError("need at least 3 observations")
    d = np.diff(K)
    return RwdParams(drift=float(d.mean()), sigma=float(d.std(ddof=1)))


def fit_ar1(k: np.ndarray) -> Ar1Params:
    """Zero-mean AR(1): phi is the no-intercept OLS slope of k_t on k_{t-1},
    xi_sd the residual standard deviation."""
    k = np.asarray(k, dtype=float)
    if k.size < 3:
        raise ValueError("need at least 3 observations")
    x, y = k[:-1], k[1:]
    sxx = float(x @ x)
    if sxx == 0.0:
        raise DegenerateSeriesError("lagged regressor has zero variance")
    phi = float(x @ y) / sxx
    resid = y - phi * x
    xi_sd = float(np.sqrt(resid @ resid / (resid.size - 1)))
    return Ar1Params(phi=phi, xi_sd=xi_sd)


def dump_params(params: LiLeeParams) -> str:
    """The params.json text of `params`."""
    doc = {"schema": PARAMS_SCHEMA, "countries": list(params.countries)}
    return json.dumps({**doc, **{name: getattr(params, name).tolist() for name in _ARRAYS}})


def parse_params(text: str | bytes) -> LiLeeParams:
    """The parameters of a params.json text (`dump_params`)."""
    doc = json.loads(text)
    if doc.get("schema") != PARAMS_SCHEMA:
        raise DimensionError(
            f"unsupported params schema {doc.get('schema')!r}; expected {PARAMS_SCHEMA}"
        )
    return LiLeeParams(countries=tuple(doc["countries"]),
                       **{name: np.asarray(doc[name]) for name in _ARRAYS})
