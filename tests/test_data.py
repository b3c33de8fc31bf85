import csv
import io
from pathlib import Path

import numpy as np
import pytest

from mortlab.data import (
    EPS,
    ClusterDataset,
    MortalitySurface,
    build_surface,
    cluster_csv_chunks,
    parse_hmd_file,
    read_cluster_csv,
    synthesize_cluster,
    synthetic_truth,
    write_cluster_csv,
)
from mortlab.errors import (
    DataGapError,
    DomainError,
    ExposureError,
    ParseError,
    StructureError,
)
from mortlab.lilee import LiLeeParams

HMD_SAMPLE = """\
Testland, Death rates (period 1x1),\tLast modified: 01 Jan 2024

  Year          Age             Female            Male           Total
  1956           0              0.030000         0.040000        0.035000
  1956           1              0.002000         0.003000        0.002500
  1956         110+             0.900000         0.950000        0.925000
  1957           0              0.029000         0.039000        0.034000
  1957           1              0.001900         0.002900        0.002400
  1957         110+             0.890000         0.940000        0.915000
"""


class TestParse:
    def test_reads_total_column(self):
        rows = parse_hmd_file(
            "Year Age Female Male Total\n1956 64 0.020000 0.030000 0.025000"
        )
        assert rows == [(1956, 64, 0.025)]

    def test_open_age_token(self):
        rows = parse_hmd_file(HMD_SAMPLE)
        assert (1956, 110, 0.925) in rows

    def test_missing_marker(self):
        rows = parse_hmd_file("Year Age Female Male Total\n1956 3 . . .")
        assert rows == [(1956, 3, None)]

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_hmd_file("Year Age Female Male Total\n1956 0 1 2 3\n1956 oops 1 2 3")

    def test_non_monotone_age_block(self):
        text = "Year Age Female Male Total\n1956 5 1 2 3\n1956 4 1 2 3"
        with pytest.raises(StructureError):
            parse_hmd_file(text)

    def test_year_going_backwards(self):
        text = "Year Age Female Male Total\n1957 0 1 2 3\n1956 0 1 2 3"
        with pytest.raises(StructureError):
            parse_hmd_file(text)

    def test_no_header_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_hmd_file("just some text")


class TestBuildSurface:
    def test_deaths_over_exposures(self):
        deaths = [(2000, a, 25.0) for a in range(0, 91)]
        expo = [(2000, a, 1000.0) for a in range(0, 91)]
        surf = build_surface(deaths, expo, country="TST", year_range=(2000, 2000))
        assert surf.m[0, 0] == pytest.approx(0.025)
        assert surf.log_m[0, 0] == pytest.approx(np.log(0.025 + EPS))

    def test_zero_deaths_hits_log_floor(self):
        deaths = [(2000, a, 0.0) for a in range(0, 91)]
        expo = [(2000, a, 1000.0) for a in range(0, 91)]
        surf = build_surface(deaths, expo, country="TST")
        assert surf.m[0, 0] == 0.0
        assert surf.log_m[0, 0] == pytest.approx(np.log(1e-10))
        assert surf.log_m[0, 0] == pytest.approx(-23.0259, abs=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_surface_refuses_a_non_finite_rate(self, bad):
        with pytest.raises(DomainError, match="non-finite death rate"):
            MortalitySurface(country="TST", ages=[0, 1], years=[2000], m=[[0.01], [bad]])

    def test_age_truncation(self):
        rates = [(2000, a, 0.01) for a in range(0, 96)]
        surf = build_surface(rates, country="TST")
        assert surf.ages[-1] == 90
        assert surf.m.shape == (91, 1)

    def test_zero_exposure_with_deaths(self):
        deaths = [(2000, 0, 1.0)]
        expo = [(2000, 0, 0.0)]
        with pytest.raises(ExposureError):
            build_surface(deaths, expo, year_range=(2000, 2000), age_max=0)

    def test_missing_cell_rejected_by_default(self):
        rates = [(2000, a, 0.01) for a in range(0, 91) if a != 50]
        with pytest.raises(DataGapError, match="age 50"):
            build_surface(rates, country="TST")

    def test_duplicate_cell_refused(self):
        rates = [(2000, a, 0.01) for a in range(0, 91)] + [(2000, 7, 0.02)]
        with pytest.raises(ParseError, match="age 7, year 2000"):
            build_surface(rates, country="TST")

    def test_array_records_with_nan_as_missing(self):
        rates = np.array([(2000.0, a, 0.01) for a in range(0, 91)])
        surf = build_surface(rates, country="TST")
        assert np.array_equal(surf.m, np.full((91, 1), 0.01))
        rates[50, 2] = np.nan
        with pytest.raises(DataGapError, match="age 50"):
            build_surface(rates, country="TST")

    def test_missing_deaths_against_zero_exposure_stay_missing(self):
        deaths = [(2000, 0, None)]
        expo = [(2000, 0, 0.0)]
        with pytest.raises(DataGapError, match="age 0"):
            build_surface(deaths, expo, year_range=(2000, 2000), age_max=0)

    def test_missing_cell_interpolated_when_enabled(self):
        rates = [
            (y, a, 0.01 * (1 + yi))
            for yi, y in enumerate((2000, 2001, 2002))
            for a in range(0, 91)
            if not (a == 50 and y == 2001)
        ]
        surf = build_surface(rates, country="TST", impute_gaps=True)
        assert (50, 2001) in surf.imputed
        assert surf.m[50, 1] == pytest.approx(0.02)


class TestSynthesize:
    def test_same_seed_is_bit_identical(self, small_truth):
        a = synthesize_cluster(small_truth, noise_sd=0.05, seed=3)
        b = synthesize_cluster(small_truth, noise_sd=0.05, seed=3)
        for sa, sb in zip(a.surfaces, b.surfaces):
            assert np.array_equal(sa.m, sb.m)
            assert np.array_equal(sa.log_m, sb.log_m)

    def test_linear_common_index_gives_linear_log_rates(self):
        ages = np.arange(0, 91)
        years = np.arange(2000, 2020)
        t = years.size
        K = -1.0 * np.arange(t, dtype=float)
        K = K - K.mean()
        truth = LiLeeParams(
            countries=("AAA", "BBB"),
            ages=ages,
            years=years,
            alpha=np.tile(-5.0 + 0.05 * ages, (2, 1)),
            B=np.full(91, 1.0 / 91.0),
            K=K,
            b=np.zeros((2, 91)),
            k=np.zeros((2, t)),
        )
        cluster = synthesize_cluster(truth, noise_sd=0.0, seed=0)
        diffs = np.diff(cluster.surfaces[0].log_m, axis=1)
        assert np.allclose(diffs, -1.0 / 91.0, atol=1e-9)

    def test_round_trip_through_build_surface(self, rank1_cluster):
        for surf in rank1_cluster.surfaces:
            rates = [
                (int(y), int(a), float(surf.m[ai, yi]))
                for ai, a in enumerate(surf.ages)
                for yi, y in enumerate(surf.years)
            ]
            rebuilt = build_surface(
                rates, country=surf.country, year_range=(int(surf.years[0]), int(surf.years[-1]))
            )
            assert np.max(np.abs(rebuilt.log_m - surf.log_m)) <= 1e-12

    def test_exp_log_inverts_to_m(self, small_cluster):
        for surf in small_cluster.surfaces:
            back = np.exp(surf.log_m) - EPS
            pos = surf.m > 0
            rel = np.abs(back[pos] - surf.m[pos]) / surf.m[pos]
            assert rel.max() <= 1e-12


class TestCsvRoundTrip:
    def test_golden_bytes(self, tmp_path):
        """The formatter writes csv.writer's bytes with repr(float) rates
        (the writer it replaced, kept here as the reference), and the
        reader gets every rate back bit for bit."""
        rates = {
            "SYA": [[1e-05, 0.1], [5e-324, 1.0000000000000002]],
            "A,B": [[0.0, 2.5e-10], [0.123456789012345678, 3.0]],
            'Q"R': [[1e-300, 0.5], [7e-3, 1.0]],
        }
        cluster = ClusterDataset(surfaces=tuple(
            MortalitySurface(country=code, ages=[0, 1], years=[2019, 2020], m=m)
            for code, m in rates.items()
        ))
        buf = io.StringIO()
        buf.write("# config_hash=abc\n")
        writer = csv.writer(buf)
        writer.writerow(["country", "year", "age", "m"])
        writer.writerows(
            [s.country, int(year), int(age), repr(float(s.m[ai, yi]))]
            for s in cluster.surfaces
            for ai, age in enumerate(s.ages)
            for yi, year in enumerate(s.years)
        )
        text = "".join(cluster_csv_chunks(cluster, ["config_hash=abc"]))
        assert text == buf.getvalue()
        assert '"A,B",2019,0,0.0\r\n' in text and '"Q""R",2020,1,1.0\r\n' in text

        path = tmp_path / "cluster.csv"
        write_cluster_csv(cluster, path, header_lines=("config_hash=abc",))
        assert path.read_bytes() == text.encode()
        back = read_cluster_csv(path, age_max=1)
        assert back.countries == tuple(rates)
        for sa, sb in zip(back.surfaces, cluster.surfaces):
            assert sa.m.tobytes() == sb.m.tobytes()

    def test_write_then_read(self, tmp_path, small_cluster):
        path = tmp_path / "cluster.csv"
        write_cluster_csv(small_cluster, path, header_lines=("config_hash=abc",))
        back = read_cluster_csv(path, country_order=small_cluster.countries)
        assert back.countries == small_cluster.countries
        for sa, sb in zip(back.surfaces, small_cluster.surfaces):
            assert np.max(np.abs(sa.log_m - sb.log_m)) <= 1e-12
            assert np.array_equal(sa.m, sb.m)
            assert np.array_equal(sa.years, sb.years) and np.array_equal(sa.ages, sb.ages)

    def test_file_order_without_country_order(self, tmp_path, small_cluster):
        path = tmp_path / "cluster.csv"
        write_cluster_csv(small_cluster, path)
        assert read_cluster_csv(path).countries == small_cluster.countries

    def test_missing_country_in_order(self, tmp_path, small_cluster):
        path = tmp_path / "cluster.csv"
        write_cluster_csv(small_cluster, path)
        with pytest.raises(DataGapError):
            read_cluster_csv(path, country_order=("NOPE", "ALSO"))

    def test_unknown_code_among_known_ones(self, tmp_path, small_cluster):
        path = tmp_path / "cluster.csv"
        write_cluster_csv(small_cluster, path)
        with pytest.raises(DataGapError, match="'NOPE'"):
            read_cluster_csv(path, country_order=(*small_cluster.countries, "NOPE"))

    @staticmethod
    def edited(tmp_path, cluster, edit) -> Path:
        """The cluster's CSV (a comment line, the header, then data rows
        from line 3) with its list of lines passed through `edit`."""
        path = tmp_path / "cluster.csv"
        write_cluster_csv(cluster, path, header_lines=("config_hash=abc",))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
        return path

    @pytest.mark.parametrize("row", [
        "SYA,1956,x,0.01\n",
        "SYA,1956.0,0,0.01\n",
        "SYA,1956,0,\n",
        "SYA,1956,0\n",
        "SYA,1956,0,0.01,7\n",
        "SYA,1956,0,0.01 # a note\n",
        "  # indented, so not a comment\n",
    ], ids=["age-not-int", "year-not-int", "empty-rate", "three-cells", "five-cells",
            "trailing-hash", "indented-hash"])
    def test_malformed_row_names_its_line(self, tmp_path, small_cluster, row):
        path = self.edited(tmp_path, small_cluster, lambda ls: ls[:9] + [row] + ls[9:])
        with pytest.raises(ParseError) as exc:
            read_cluster_csv(path, country_order=small_cluster.countries)
        assert exc.value.line_no == 10

    def test_code_too_long(self, tmp_path, small_cluster):
        path = self.edited(tmp_path, small_cluster, lambda ls: ls + ["LONGCODE,1956,0,0.01\n"])
        with pytest.raises(ParseError, match="'LONGCODE'... is longer than 7 characters"):
            read_cluster_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda ls: ls[:1] + ls[2:],
        lambda ls: ls[:1] + ["country,year,age,rate\n"] + ls[2:],
        lambda ls: ls[:1] + ["year,country,age,m\n"] + ls[2:],
        lambda ls: ls[:1],
        lambda ls: [],
    ], ids=["no-header", "wrong-column", "reordered", "header-only-comment", "empty-file"])
    def test_missing_or_wrong_header(self, tmp_path, small_cluster, edit):
        path = self.edited(tmp_path, small_cluster, edit)
        with pytest.raises(ParseError, match="expected header"):
            read_cluster_csv(path)

    def test_only_lines_starting_with_hash_are_skipped(self, tmp_path, small_cluster):
        path = self.edited(
            tmp_path, small_cluster,
            lambda ls: ls[:2] + ["# between header and rows\n"] + ls[2:40] + ["#x\n"] + ls[40:],
        )
        back = read_cluster_csv(path, country_order=small_cluster.countries)
        for sa, sb in zip(back.surfaces, small_cluster.surfaces):
            assert np.array_equal(sa.m, sb.m)

    def test_missing_cell(self, tmp_path, small_cluster):
        path = self.edited(tmp_path, small_cluster, lambda ls: ls[:9] + ls[10:])
        with pytest.raises(DataGapError, match="missing cell"):
            read_cluster_csv(path, country_order=small_cluster.countries)

    def test_duplicate_row_refused(self, tmp_path, small_cluster):
        """A (country, year, age) given twice is refused, even with the same
        value; it is not overwritten by the later row."""
        path = self.edited(tmp_path, small_cluster, lambda ls: ls + [ls[9]])
        code, year, age, _ = path.read_text().splitlines()[-1].split(",")
        with pytest.raises(ParseError, match=f"{code}: more than one record for age {age}, year {year}"):
            read_cluster_csv(path, country_order=small_cluster.countries)


def test_cluster_requires_two_countries(small_cluster):
    from mortlab.data import ClusterDataset

    with pytest.raises(StructureError):
        ClusterDataset(surfaces=small_cluster.surfaces[:1])


def test_cluster_holds_each_country_once(small_cluster):
    from mortlab.data import ClusterDataset

    first, second = small_cluster.surfaces[:2]
    with pytest.raises(StructureError, match=f"{first.country} appears more than once"):
        ClusterDataset(surfaces=(first, first, second))


def test_cluster_requires_one_grid(small_cluster):
    from mortlab.data import ClusterDataset, MortalitySurface

    s = small_cluster.surfaces[1]
    short = MortalitySurface(s.country, s.ages, s.years[:-1], s.m[:, :-1])
    with pytest.raises(StructureError, match="share ages and years"):
        ClusterDataset(surfaces=(small_cluster.surfaces[0], short))
