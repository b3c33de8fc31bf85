"""Mortality data ingestion and synthetic cluster generation.

Handles the fixed-layout 1x1 text files distributed by national mortality
databases (header lines, then whitespace-separated Year / Age / Female /
Male / Total columns), validated central-death-rate surfaces on ages 0..90,
and an invertible synthetic generator used as the test oracle in place of
licensed data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

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

# Columns of the cluster CSV, which `cluster_csv_chunks` formats and
# `read_cluster_csv` reads.
CLUSTER_COLUMNS = ("country", "year", "age", "m")
# Its rows as `read_cluster_csv` parses them.  The country field's width is
# paid on every row, and codes must be shorter than it: np.loadtxt cuts them.
CODE_WIDTH = 8
CLUSTER_ROW = np.dtype([("country", f"U{CODE_WIDTH}"), ("year", "i8"), ("age", "i8"), ("m", "f8")])

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
    imputed: tuple[tuple[int, int], ...] = field(default=())
    log_m: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ages", np.asarray(self.ages, dtype=int))
        object.__setattr__(self, "years", np.asarray(self.years, dtype=int))
        object.__setattr__(self, "m", np.asarray(self.m, dtype=float))
        if self.m.shape != (self.ages.size, self.years.size):
            raise DimensionError("m must be shaped (ages, years)")
        if np.any(self.m < 0):
            raise DomainError("negative death rate")
        object.__setattr__(self, "log_m", np.log(self.m + EPS))
        if not np.all(np.isfinite(self.log_m)):
            raise DomainError("non-finite death rate")
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
            raise StructureError("a cluster needs at least 2 countries")
        codes = self.countries
        if repeated := sorted({c for c in codes if codes.count(c) > 1}):
            raise StructureError(f"a cluster holds each country once; {', '.join(repeated)} "
                                 "appears more than once")
        first = self.surfaces[0]
        for s in self.surfaces[1:]:
            if not np.array_equal(s.ages, first.ages) or not np.array_equal(
                s.years, first.years
            ):
                raise StructureError("all surfaces must share ages and years")

    @property
    def countries(self) -> tuple[str, ...]:
        return tuple(s.country for s in self.surfaces)


def parse_hmd_file(text: str) -> list[tuple[int, int, float | None]]:
    """Parse a 1x1 fixed-layout mortality file into (year, age, total) rows.

    Only the Total (both sexes) column is kept.  The "110+" age token maps
    to age 110 and "." maps to None (missing).  Rows must arrive in
    non-decreasing year blocks with strictly increasing ages inside each
    block; anything else raises StructureError.  Malformed rows raise
    ParseError with their line number.
    """
    records: list[tuple[int, int, float | None]] = []
    in_body = False
    prev_year: int | None = None
    prev_age: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
            age = OPEN_AGE if tokens[1] == f"{OPEN_AGE}+" else int(tokens[1])
            value = None if tokens[4] == "." else float(tokens[4])
        except ValueError:
            raise ParseError(f"bad Year, Age or Total token in {raw.strip()!r}", line_no) from None

        if prev_year is not None:
            if year < prev_year:
                raise StructureError(f"line {line_no}: year {year} after {prev_year}")
            if year == prev_year and age <= prev_age:
                raise StructureError(
                    f"line {line_no}: age {age} not increasing within year {year}"
                )
        prev_year, prev_age = year, age
        records.append((year, age, value))

    if not in_body:
        raise ParseError("no 'Year Age ...' header found in input")
    return records


def build_surface(
    values,
    exposures=None,
    *,
    country: str = "",
    year_range: tuple[int, int] | None = None,
    age_max: int = 90,
    impute_gaps: bool = False,
) -> MortalitySurface:
    """Assemble a validated surface from (year, age, value) records.

    Records are an (n, 3) array or a sequence of triples, where a None or
    NaN value is a missing cell; they are scattered into the (ages x years)
    grid.  With `exposures` given, `values` are death counts and m = D / E
    per cell; without, `values` are rates taken as-is.  Ages above
    `age_max` and years outside `year_range` are dropped, and a cell given
    twice raises ParseError.  Missing cells raise DataGapError unless
    `impute_gaps` enables linear interpolation along years (imputed cells
    are recorded in the surface metadata).  Deaths against zero exposure
    raise ExposureError.
    """
    name = country or "surface"
    values = _records(values, age_max)
    if year_range is None:
        if not values.size:
            raise DataGapError("no usable records")
        year_range = (int(values[:, 0].min()), int(values[:, 0].max()))
    years = np.arange(year_range[0], year_range[1] + 1)
    ages = np.arange(0, age_max + 1)

    m = _grid(values, years, ages.size, name)
    if exposures is not None:
        e = _grid(_records(exposures, age_max), years, ages.size, name)
        bad = (e == 0.0) & (m > 0.0)
        if bad.any():
            ai, yi = np.argwhere(bad)[0]
            raise ExposureError(
                f"{name}: deaths {m[ai, yi]} with zero exposure "
                f"at age {ages[ai]}, year {years[yi]}"
            )
        # no deaths against zero exposure is a zero rate; a missing count stays missing
        m = np.divide(m, e, out=np.where(np.isnan(m), np.nan, 0.0), where=e != 0.0)

    imputed: list[tuple[int, int]] = []
    missing = np.isnan(m)
    if missing.any():
        if not impute_gaps:
            ai, yi = np.argwhere(missing)[0]
            raise DataGapError(
                f"{name}: missing cell at age {ages[ai]}, "
                f"year {years[yi]} (enable imputation or fix the data)"
            )
        for ai in range(ages.size):
            row_missing = missing[ai]
            if not row_missing.any():
                continue
            if row_missing.all():
                raise DataGapError(f"{name}: age {ages[ai]} has no data at all")
            known = ~row_missing
            m[ai, row_missing] = np.interp(
                years[row_missing], years[known], m[ai, known]
            )
            imputed.extend((int(ages[ai]), int(y)) for y in years[row_missing])

    if np.any(m < 0):
        raise DomainError(f"{name}: negative rate encountered")
    return MortalitySurface(
        country=country,
        ages=ages,
        years=years,
        m=m,
        imputed=tuple(imputed),
    )


def _records(records, age_max: int) -> np.ndarray:
    """The (year, age, value) records of ages 0..age_max, None as NaN."""
    records = np.asarray(records, dtype=float).reshape(-1, 3)
    return records[(records[:, 1] >= 0) & (records[:, 1] <= age_max)]


def _grid(records: np.ndarray, years: np.ndarray, n_ages: int, name: str) -> np.ndarray:
    """The records' values on the (ages x years) grid, NaN where none."""
    yi = records[:, 0].astype(np.int64) - years[0]
    inside = (yi >= 0) & (yi < years.size)
    cell = records[inside, 1].astype(np.int64) * years.size + yi[inside]
    twice = np.bincount(cell, minlength=n_ages * years.size) > 1
    if twice.any():
        ai, yi = divmod(int(np.argmax(twice)), years.size)
        raise ParseError(f"{name}: more than one record for age {ai}, year {years[yi]}")
    grid = np.full(n_ages * years.size, np.nan)
    grid[cell] = records[inside, 2]
    return grid.reshape(n_ages, years.size)


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
        surfaces.append(MortalitySurface(country=code, ages=truth.ages, years=truth.years, m=m))
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


def cluster_csv_chunks(dataset: ClusterDataset, header_lines: Sequence[str] = ()) -> Iterator[str]:
    """The cluster CSV's text: the `# ` header lines and the column row,
    then one chunk per country of rows in age-major, year-minor order.
    These are the bytes of csv.writer's excel dialect (CRLF line ends, a
    code quoted when it holds a comma, quote or line break) with
    repr(float) rates, so every rate reads back bit for bit."""
    yield "".join(f"# {line}\n" for line in header_lines) + ",".join(CLUSTER_COLUMNS) + "\r\n"
    first = dataset.surfaces[0]
    cells = [f",{year},{age}," for age in first.ages.tolist() for year in first.years.tolist()]
    for s in dataset.surfaces:
        code = s.country
        if any(c in code for c in ',"\r\n'):
            code = '"' + code.replace('"', '""') + '"'
        rates = s.m.ravel().tolist()
        yield "".join([f"{code}{cell}{rate!r}\r\n" for cell, rate in zip(cells, rates)])


def write_cluster_csv(dataset: ClusterDataset, path: str | Path, header_lines: Sequence[str] = ()) -> None:
    """Write a cluster as CSV with columns country,year,age,m."""
    with Path(path).open("w", newline="") as fh:
        fh.writelines(cluster_csv_chunks(dataset, header_lines))


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
    np.loadtxt parses the rows into `CLUSTER_ROW` records.  A malformed row
    raises ParseError with its line number; so, without one, do a country
    code of CODE_WIDTH or more characters and a (country, year, age) twice.
    """
    path = Path(path)
    line_no = 0

    def body():
        nonlocal line_no
        for line_no, line in enumerate(fh, 1):
            if not line.startswith("#"):
                yield line

    with path.open() as fh:
        lines = body()
        if [h.strip() for h in next(lines, "").split(",")] != list(CLUSTER_COLUMNS):
            raise ParseError(f"{path}: expected header country,year,age,m")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: refused below
                rows = np.loadtxt(lines, dtype=CLUSTER_ROW, delimiter=",", comments=None,
                                  quotechar='"', ndmin=1)
        except ValueError as exc:
            # np.loadtxt takes one line at a time, so the last one taken is the bad one
            raise ParseError(f"{path}: bad row: {exc}", line_no) from None
    codes = rows["country"]
    found = []  # the codes in order of first appearance, one pass over the rows each
    left = np.ones(codes.size, dtype=bool)  # rows whose code is not found yet
    while left.any():
        found.append(str(codes[left.argmax()]))
        left &= codes != found[-1]
    if long := [code for code in found if len(code) >= CODE_WIDTH]:
        raise ParseError(f"{path}: country code {long[0]!r}... is longer than "
                         f"{CODE_WIDTH - 1} characters")

    surfaces = []
    for code in found if country_order is None else country_order:
        own = rows[codes == code]
        if not own.size:
            raise DataGapError(f"{path}: no rows for country {code!r}")
        records = np.column_stack((own["year"], own["age"], own["m"]))
        surfaces.append(
            build_surface(records, country=code, year_range=year_range, age_max=age_max)
        )
    return ClusterDataset(surfaces=tuple(surfaces))
