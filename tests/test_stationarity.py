import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortlab.errors import DegenerateSeriesError, InsufficientHistoryError
from mortlab.stationarity import (
    adf_test,
    analyze,
    classify,
    default_adf_max_lag,
    kpss_test,
    mackinnon_p,
)


class TestAdf:
    def test_known_critical_values(self):
        # MacKinnon response surface should reproduce the asymptotic
        # constant-case critical values at the usual significance levels.
        assert mackinnon_p(-3.43) == pytest.approx(0.01, abs=2e-3)
        assert mackinnon_p(-2.86) == pytest.approx(0.05, abs=2e-3)
        assert mackinnon_p(-2.57) == pytest.approx(0.10, abs=2e-3)

    def test_clamps(self):
        assert mackinnon_p(-25.0) == 0.0
        assert mackinnon_p(5.0) == 1.0

    def test_deterministic_trend_fails_to_reject(self):
        stat, p = adf_test(np.arange(200, dtype=float))
        assert p > 0.05

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(150)
        s1, _ = adf_test(y)
        s2, _ = adf_test(y + 1e4)
        assert abs(s1 - s2) <= 1e-8

    def test_too_short_series(self):
        with pytest.raises(InsufficientHistoryError):
            adf_test(np.random.default_rng(0).standard_normal(12))

    def test_default_lag_rule(self):
        assert default_adf_max_lag(100) == 12
        assert default_adf_max_lag(200) == 14


class TestKpss:
    def test_white_noise_ceiling(self):
        rng = np.random.default_rng(13)
        hits = sum(kpss_test(rng.standard_normal(200))[1] == 0.10 for _ in range(200))
        assert hits >= 160

    def test_random_walk_floor(self):
        # quick smoke version of the 1,000-run study in the acceptance
        # suite; the true floor rate is ~0.905, threshold set ~3 sigma below
        rng = np.random.default_rng(14)
        hits = sum(
            kpss_test(np.cumsum(rng.standard_normal(200)))[1] == 0.01
            for _ in range(200)
        )
        assert hits >= 168

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            kpss_test(np.full(50, 3.0))

    def test_p_interpolation_interior(self):
        # statistic between the 10% and 5% table entries interpolates linearly
        rng = np.random.default_rng(15)
        for _ in range(50):
            y = rng.standard_normal(120)
            stat, p = kpss_test(y)
            assert 0.01 <= p <= 0.10
            if 0.347 < stat < 0.463:
                want = 0.10 + (stat - 0.347) / (0.463 - 0.347) * (0.05 - 0.10)
                assert p == pytest.approx(want, abs=1e-12)

    def test_short_series_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            kpss_test(np.arange(5, dtype=float))


class TestClassify:
    def test_paper_anchor_rows(self):
        assert classify(0.0000, 0.0889) == "Stationary"
        assert classify(0.9289, 0.0100) == "UnitRoot"
        assert classify(0.7661, 0.1000) == "Conflict-Inertial"
        assert classify(0.0424, 0.0165) == "Conflict-Persistent"

    def test_boundaries(self):
        # p exactly 0.05 counts as a fail for both tests
        assert classify(0.05, 0.05) == "UnitRoot"

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=300)
    def test_total_function(self, adf_p, kpss_p):
        assert classify(adf_p, kpss_p) in (
            "Stationary",
            "UnitRoot",
            "Conflict-Persistent",
            "Conflict-Inertial",
        )

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            classify(1.5, 0.5)
        with pytest.raises(ValueError):
            classify(float("nan"), 0.5)


def test_analyze_report_consistency():
    rng = np.random.default_rng(16)
    rep = analyze(rng.standard_normal(120))
    assert rep.verdict == classify(rep.adf_p, rep.kpss_p)
