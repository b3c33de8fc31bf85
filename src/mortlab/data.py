"""Mortality data ingestion and synthetic cluster generation.

Handles the fixed-layout 1x1 text files distributed by national mortality
databases (header lines, then whitespace-separated Year / Age / Female /
Male / Total columns), validated central-death-rate surfaces on ages 0..90,
and an invertible synthetic generator used as the test oracle in place of
licensed data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DataGapError,
    DimensionError,
    DomainError,
    ExposureError,
    ParseError,
    StructureError,
)
from .lilee import LiLeeParams

# Floor added inside the log transform so cells with zero deaths stay finite.
EPS = 1e-10

# Columns of the cluster CSV (`write_cluster_csv`, `read_cluster_csv`).
CLUSTER_COLUMNS = ("country", "year", "age", "m")

# Open age group token in the source files; parsed, then dropped by truncation.
OPEN_AGE = 110


@dataclass(frozen=True)
class MortalitySurface:
    """Central death rates for one country on an (ages x years) grid.

    m holds the rates, log_m = ln(m + EPS).  Imputed cells (if any) are
    listed as (age, year) pairs in `imputed`.  Instances are immutable.
    """

    country: str
    ages: np.ndarray
    years: np.ndarray
    m: np.ndarray
    log_m: np.ndarray
    imputed: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "ages", np.asarray(self.ages, dtype=int))
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        object.__setattr__(self, "log_m", np.asarray(self.log_m, dtype=float))
        if self.m.shape != (self.ages.size, self.years.size):
            raise DimensionError("m must be shaped (ages, years)")
        if self.log_m.shape != self.m.shape:
            raise DimensionError("log_m must match m")
        if np.any(self.m < 0):
            raise DomainError("negative death rate")
        if not np.all(np.isfinite(self.log_m)):
            raise DomainError("non-finite log rate")
        if self.ages.size > 1 and not np.all(np.diff(self.ages) == 1):
            raise StructureError("ages must be contiguous")
        if self.years.size > 1 and not np.all(np.diff(self.years) == 1):
            raise StructureError("years must be contiguous")
        for arr in (self.ages, self.years, self.m, self.log_m):
            arr.setflags(write=False)


@dataclass(frozen=True)
class ClusterDataset:
    """An ordered collection of surfaces sharing one age/year grid.

    The order of `surfaces` is the configuration order and fixes the
    country index used for feature layout everywhere downstream.
    """

    surfaces: tuple[MortalitySurface, ...]

    def __post_init__(self):
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        if len(self.surfaces) < 2:
            raise DimensionError("a cluster needs at least 2 countries")
        first = self.surfaces[0]
        for s in self.surfaces[1:]:
            if not np.array_equal(s.ages, first.ages) or not np.array_equal(
                s.years, first.years
            ):
                raise DimensionError("all surfaces must share ages and years")

    @property
    def countries(self) -> tuple[str, ...]:
        return tuple(s.country for s in self.surfaces)

    @property
    def year_range(self) -> tuple[int, int]:
        years = self.surfaces[0].years
        return int(years[0]), int(years[-1])


def parse_hmd_file(
    text: str | Iterable[str], kind: str = "rates"
) -> list[tuple[int, int, float | None]]:
    """Parse a 1x1 fixed-layout mortality file into (year, age, total) rows.

    Only the Total (both sexes) column is kept.  The "110+" age token maps
    to age 110 and "." maps to None (missing).  Rows must arrive in
    non-decreasing year blocks with strictly increasing ages inside each
    block; anything else raises StructureError.  Malformed rows raise
    ParseError with their line number.
    """
    if kind not in ("deaths", "exposures", "rates"):
        raise ValueError(f"unknown file kind {kind!r}")
    lines = text.splitlines() if isinstance(text, str) else list(text)

    records: list[tuple[int, int, float | None]] = []
    in_body = False
    prev_year: int | None = None
    prev_age: int | None = None
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not in_body:
            if tokens[0] == "Year" and len(tokens) >= 2 and tokens[1] == "Age":
                in_body = True
            continue
        if len(tokens) != 5:
            raise ParseError(
                f"expected 5 columns (Year Age Female Male Total), got {len(tokens)}",
                line_no,
            )
        try:
            year = int(tokens[0])
        except ValueError:
            raise ParseError(f"bad year token {tokens[0]!r}", line_no) from None
        age = _parse_age(tokens[1], line_no)
        value = _parse_value(tokens[4], line_no)

        if prev_year is not None:
            if year < prev_year:
                raise StructureError(f"line {line_no}: year {year} after {prev_year}")
            if year == prev_year and prev_age is not None and age <= prev_age:
                raise StructureError(
                    f"line {line_no}: age {age} not increasing within year {year}"
                )
        prev_age = age
        prev_year = year
        records.append((year, age, value))

    if not in_body:
        raise ParseError("no 'Year Age ...' header found in input")
    return records


def _parse_age(token: str, line_no: int) -> int:
    if token == f"{OPEN_AGE}+":
        return OPEN_AGE
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad age token {token!r}", line_no) from None


def _parse_value(token: str, line_no: int) -> float | None:
    if token == ".":
        return None
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad value token {token!r}", line_no) from None


def build_surface(
    values: Sequence[tuple[int, int, float | None]],
    exposures: Sequence[tuple[int, int, float | None]] | None = None,
    *,
    country: str = "",
    year_range: tuple[int, int] | None = None,
    age_max: int = 90,
    impute_gaps: bool = False,
) -> MortalitySurface:
    """Assemble a validated surface from parsed records.

    With `exposures` given, `values` are death counts and m = D / E per
    cell; without, `values` are rates taken as-is.  Ages above `age_max`
    are dropped.  Missing cells raise DataGapError unless `impute_gaps`
    enables linear interpolation along years (imputed cells are recorded
    in the surface metadata).  Deaths against zero exposure raise
    ExposureError.
    """
    table = {(y, a): v for (y, a, v) in values if a <= age_max}
    if year_range is None:
        if not table:
            raise DataGapError("no usable records")
        all_years = sorted({y for (y, _a) in table})
        year_range = (all_years[0], all_years[-1])
    years = np.arange(year_range[0], year_range[1] + 1)
    ages = np.arange(0, age_max + 1)

    exp_table = None
    if exposures is not None:
        exp_table = {(y, a): v for (y, a, v) in exposures if a <= age_max}

    m = np.full((ages.size, years.size), np.nan)
    for ai, age in enumerate(ages):
        for yi, year in enumerate(years):
            key = (int(year), int(age))
            v = table.get(key)
            if exp_table is None:
                if v is not None:
                    m[ai, yi] = v
                continue
            e = exp_table.get(key)
            if v is None or e is None:
                continue
            if e == 0.0:
                if v > 0.0:
                    raise ExposureError(
                        f"{country or 'surface'}: deaths {v} with zero exposure "
                        f"at age {age}, year {year}"
                    )
                m[ai, yi] = 0.0
            else:
                m[ai, yi] = v / e

    imputed: list[tuple[int, int]] = []
    missing = np.isnan(m)
    if missing.any():
        if not impute_gaps:
            ai, yi = np.argwhere(missing)[0]
            raise DataGapError(
                f"{country or 'surface'}: missing cell at age {ages[ai]}, "
                f"year {years[yi]} (enable imputation or fix the data)"
            )
        for ai in range(ages.size):
            row_missing = missing[ai]
            if not row_missing.any():
                continue
            if row_missing.all():
                raise DataGapError(
                    f"{country or 'surface'}: age {ages[ai]} has no data at all"
                )
            known = ~row_missing
            m[ai, row_missing] = np.interp(
                years[row_missing], years[known], m[ai, known]
            )
            imputed.extend((int(ages[ai]), int(y)) for y in years[row_missing])

    if np.any(m < 0):
        raise DomainError(f"{country or 'surface'}: negative rate encountered")
    return MortalitySurface(
        country=country,
        ages=ages,
        years=years,
        m=m,
        log_m=np.log(m + EPS),
        imputed=tuple(imputed),
    )


def synthesize_cluster(
    truth: LiLeeParams, noise_sd: float, seed: int
) -> ClusterDataset:
    """Generate a cluster whose log rates follow the decomposition exactly.

    log_m = alpha + B*K + b*k + Gaussian(0, noise_sd^2), inverted to rates
    as m = exp(log_m) - EPS (floored at zero) so that rebuilding a surface
    from the rates reproduces log_m.  Deterministic under a fixed seed.
    """
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
    rng = np.random.default_rng(seed)
    surfaces = []
    common = np.outer(truth.B, truth.K)
    for i, code in enumerate(truth.countries):
        log_m = truth.alpha[i][:, None] + common + np.outer(truth.b[i], truth.k[i])
        if noise_sd > 0:
            log_m = log_m + rng.standard_normal(log_m.shape) * noise_sd
        m = np.maximum(np.exp(log_m) - EPS, 0.0)
        surfaces.append(
            MortalitySurface(
                country=code, ages=truth.ages, years=truth.years, m=m, log_m=np.log(m + EPS)
            )
        )
    return ClusterDataset(surfaces=tuple(surfaces))


def synthetic_truth(
    n_countries: int = 3,
    year_range: tuple[int, int] = (1956, 2020),
    seed: int = 0,
    *,
    age_max: int = 90,
    common_drift: float = -1.2,
    common_sigma: float = 0.35,
    specific: str = "stationary",
    specific_phi: float = 0.6,
    specific_sigma: float = 0.25,
    specific_drift: float = 0.0,
) -> LiLeeParams:
    """Build a plausible ground-truth parameter set for synthetic clusters.

    The common index is a random walk with drift.  Specific indices are
    "none" (all zero, rank-1 data), "stationary" (zero-mean AR(1) with
    `specific_phi`) or "unit_root" (random walks with alternating
    per-country drifts).  All indices are centered and loadings normalized
    to sum to one, matching the fitting convention.
    """
    if specific not in ("none", "stationary", "unit_root"):
        raise ValueError(f"unknown specific regime {specific!r}")
    rng = np.random.default_rng(seed)
    years = np.arange(year_range[0], year_range[1] + 1)
    ages = np.arange(0, age_max + 1)
    t, a = years.size, ages.size

    codes = tuple(f"SY{chr(ord('A') + i)}" for i in range(n_countries))

    alpha = np.empty((n_countries, a))
    for i in range(n_countries):
        level = -9.3 + rng.uniform(-0.15, 0.15)
        slope = 0.085 + rng.uniform(-0.004, 0.004)
        alpha[i] = level + slope * ages

    B = 1.25 - 0.5 * (ages / max(a - 1, 1))
    B = B / B.sum()

    K = _cumulative_index(t, rng, drift=common_drift, sigma=common_sigma)
    K = K - K.mean()

    b = np.empty((n_countries, a))
    k = np.zeros((n_countries, t))
    for i in range(n_countries):
        phase = rng.uniform(0.0, 1.0)
        prof = 1.0 + 0.5 * np.sin(np.pi * (ages / max(a - 1, 1) + phase))
        b[i] = prof / prof.sum()
        if specific == "stationary":
            series = np.empty(t)
            x = 0.0
            for j in range(t + 50):
                x = specific_phi * x + rng.normal(0.0, specific_sigma)
                if j >= 50:
                    series[j - 50] = x
            k[i] = series - series.mean()
        elif specific == "unit_root":
            sign = 1.0 if i % 2 == 0 else -1.0
            drift_i = sign * specific_drift * (1.0 + i / max(n_countries, 1))
            series = _cumulative_index(t, rng, drift=drift_i, sigma=specific_sigma)
            k[i] = series - series.mean()

    return LiLeeParams(
        countries=codes, ages=ages, years=years, alpha=alpha, B=B, K=K, b=b, k=k
    )


def _cumulative_index(
    t: int, rng: np.random.Generator, *, drift: float, sigma: float
) -> np.ndarray:
    """Random walk from 0 with drift and N(0, sigma^2) increments."""
    # the phase of a drift cycle this generator no longer offers; drawing it
    # still keeps every later draw, and so every synthetic cluster, bit-identical
    rng.uniform(0.0, 2.0 * np.pi)
    levels = np.zeros(t)
    for j in range(1, t):
        levels[j] = levels[j - 1] + drift + rng.normal(0.0, sigma)
    return levels


def write_cluster_csv(dataset: ClusterDataset, path: str | Path, header_lines: Sequence[str] = ()) -> None:
    """Serialize a cluster as CSV with columns country,year,age,m."""
    with Path(path).open("w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(CLUSTER_COLUMNS)
        writer.writerows(cluster_rows(dataset))


def cluster_rows(dataset: ClusterDataset) -> Iterator[list]:
    """The data rows of the cluster CSV, in `CLUSTER_COLUMNS` order."""
    for s in dataset.surfaces:
        for ai, age in enumerate(s.ages):
            for yi, year in enumerate(s.years):
                yield [s.country, int(year), int(age), repr(float(s.m[ai, yi]))]


def read_cluster_csv(
    path: str | Path,
    country_order: Sequence[str] | None = None,
    *,
    year_range: tuple[int, int] | None = None,
    age_max: int = 90,
) -> ClusterDataset:
    """Read a country,year,age,m CSV back into a cluster.

    `country_order` fixes the index order (configuration order); by default
    countries appear in file order.  Lines starting with '#' are ignored.
    """
    path = Path(path)
    by_country: dict[str, list[tuple[int, int, float]]] = {}
    order: list[str] = []
    with path.open() as fh:
        rows = (line for line in fh if not line.startswith("#"))
        reader = csv.reader(rows)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(CLUSTER_COLUMNS):
            raise ParseError(f"{path}: expected header country,year,age,m")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                code, year, age, rate = row[0], int(row[1]), int(row[2]), float(row[3])
            except (ValueError, IndexError):
                raise ParseError(f"{path}: bad row {row!r}", line_no) from None
            if code not in by_country:
                by_country[code] = []
                order.append(code)
            by_country[code].append((year, age, rate))

    codes = list(country_order) if country_order is not None else order
    surfaces = []
    for code in codes:
        if code not in by_country:
            raise DataGapError(f"{path}: no rows for country {code!r}")
        surfaces.append(
            build_surface(
                by_country[code], country=code, year_range=year_range, age_max=age_max
            )
        )
    return ClusterDataset(surfaces=tuple(surfaces))
