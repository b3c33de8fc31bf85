import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mortlab.errors import InsufficientHistoryError, ScalingError
from mortlab.lilee import FactorPanel
from mortlab.windows import (
    ScalerParams,
    difference,
    fit_scaler,
    inverse_transform,
    make_windows,
    prepare_windows,
    split_windows,
    transform,
)


def panel_from(values, first_year=2000):
    values = np.asarray(values, dtype=float)
    years = first_year + np.arange(values.shape[0])
    labels = tuple(f"f{i}" for i in range(values.shape[1]))
    return FactorPanel(years=years, values=values, labels=labels)


class TestDifference:
    def test_simple(self):
        d = difference(panel_from([[5.0], [3.0], [4.0]]))
        assert np.array_equal(d.values, [[-2.0], [1.0]])
        assert np.array_equal(d.years, [2001, 2002])
        assert d.labels == ("f0",)

    def test_constant_panel(self):
        d = difference(panel_from(np.ones((6, 3))))
        assert np.all(d.values == 0.0)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            difference(panel_from([[1.0, 2.0]]))


class TestScaler:
    def test_hand_arithmetic(self):
        d = panel_from([[1.0], [3.0]], 2001)
        s = fit_scaler(d, train_end_year=2002)
        assert s.mean[0] == pytest.approx(2.0)
        assert s.sd[0] == pytest.approx(np.sqrt(2.0))

    def test_constant_training_rows_error(self):
        d = panel_from(np.ones((3, 2)), 2001)
        with pytest.raises(ScalingError):
            fit_scaler(d, train_end_year=2003)

    def test_anti_leakage(self):
        rng = np.random.default_rng(0)
        train = rng.standard_normal((10, 3))
        extra = rng.standard_normal((5, 3)) * 100 + 50
        d1 = panel_from(train, 2001)
        d2 = panel_from(np.vstack([train, extra]), 2001)
        s1 = fit_scaler(d1, train_end_year=2010)
        s2 = fit_scaler(d2, train_end_year=2010)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.sd, s2.sd)

    def test_scaled_train_rows_standardized(self):
        rng = np.random.default_rng(1)
        d = panel_from(rng.standard_normal((40, 4)) * 3 + 7, 2001)
        s = fit_scaler(d, train_end_year=2030)
        scaled = transform(s, d.values[d.years <= 2030])
        assert np.max(np.abs(scaled.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(scaled.std(axis=0, ddof=1) - 1.0)) <= 1e-10

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        d = panel_from(rng.standard_normal((12, 2)), 2001)
        s = fit_scaler(d, train_end_year=2012)
        assert np.max(np.abs(inverse_transform(s, transform(s, d.values)) - d.values)) <= 1e-12


class TestTransform:
    SCALER = ScalerParams(mean=np.array([0.3, -1.7, 2.0]), sd=np.array([0.7, 3.1, 1.3]),
                          train_end_year=2000)

    @pytest.mark.parametrize("kind", ["float", "int", "list"])
    def test_bits_of_subtract_then_divide(self, kind):
        rng = np.random.default_rng(3)
        V = {"float": rng.standard_normal((7, 5, 3)),
             "int": rng.integers(-50, 50, (7, 5, 3)),
             "list": rng.standard_normal((7, 3)).tolist()}[kind]
        want = (np.asarray(V, dtype=float) - self.SCALER.mean) / self.SCALER.sd
        got = transform(self.SCALER, V)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_returns_a_new_array(self):
        V = np.random.default_rng(4).standard_normal((6, 3))
        before = V.copy()
        got = transform(self.SCALER, V)
        assert got is not V and not np.shares_memory(got, V)
        assert np.array_equal(V, before)

    def test_allocates_one_result_sized_array(self):
        # 240 KB, under numpy's 256 KiB threshold for reusing a temporary:
        # the two-temporary form peaked at 2.28 x the result, this one at
        # 1.28 x (the rest is numpy's 64 KiB broadcast buffer)
        V = np.random.default_rng(5).standard_normal((1000, 10, 3))
        transform(self.SCALER, V)
        tracemalloc.start()
        try:
            got = transform(self.SCALER, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.nbytes, f"peak {peak / got.nbytes:.2f} x the result"


class TestWindows:
    def test_sample_count(self):
        d = panel_from(np.random.default_rng(3).standard_normal((12, 2)), 2001)
        w = make_windows(d, lookback=10)
        assert w.X.shape == (2, 10, 2)

    def test_single_sample_targets_last_row(self):
        d = panel_from(np.arange(16.0).reshape(8, 2), 2001)
        w = make_windows(d, lookback=7)
        assert w.X.shape[0] == 1
        assert np.array_equal(w.Y[0], d.values[-1])
        assert w.sample_years[0] == d.years[-1]

    def test_overlap_property(self):
        rng = np.random.default_rng(4)
        d = panel_from(rng.standard_normal((20, 3)), 2001)
        w = make_windows(d, lookback=5)
        for s in range(w.X.shape[0] - 1):
            assert np.array_equal(w.X[s][-1], w.X[s + 1][-2])

    def test_insufficient_history(self):
        d = panel_from(np.random.default_rng(5).standard_normal((5, 1)), 2001)
        with pytest.raises(InsufficientHistoryError):
            make_windows(d, lookback=5)

    def test_flatten_unflatten_lossless(self):
        rng = np.random.default_rng(6)
        d = panel_from(rng.standard_normal((15, 3)), 2001)
        w = make_windows(d, lookback=4)
        flat = w.X.reshape(w.X.shape[0], -1)
        back = flat.reshape(w.X.shape)
        assert np.array_equal(back, w.X)

    def test_split_by_target_year(self):
        d = panel_from(np.random.default_rng(7).standard_normal((20, 2)), 2001)
        w = make_windows(d, lookback=6)
        train, val = split_windows(w, train_end_year=2012)
        assert np.all(w.sample_years[train] <= 2012)
        assert np.all(w.sample_years[val] > 2012)
        assert train.size + val.size == w.X.shape[0]
        # chronological: no shuffling
        assert np.all(np.diff(w.sample_years) == 1)


class TestPrepareWindows:
    def test_equals_the_steps_one_by_one(self):
        p = panel_from(np.random.default_rng(4).normal(size=(30, 3)).cumsum(axis=0))
        diff = difference(p)
        scaler = fit_scaler(diff, 2020)
        want = make_windows(replace(diff, values=transform(scaler, diff.values)), 4)
        got_scaler, got, (tr, va) = prepare_windows(p, 2020, 4)
        assert np.array_equal(got_scaler.mean, scaler.mean)
        assert np.array_equal(got_scaler.sd, scaler.sd)
        assert np.array_equal(got.X, want.X) and np.array_equal(got.Y, want.Y)
        assert [a.tolist() for a in (tr, va)] == [a.tolist() for a in split_windows(want, 2020)]
        # a given scaler is used as is, not refitted
        assert prepare_windows(p, 2015, 4, scaler)[0] is scaler

    def test_levels_are_windowed_without_differencing(self):
        p = panel_from(np.random.default_rng(5).normal(size=(30, 2)))
        scaler, w, _ = prepare_windows(p, 2020, 3, differences=False)
        assert np.array_equal(w.Y[-1], transform(scaler, p.values[-1]))
        assert w.sample_years[-1] == p.years[-1]

    def test_empty_side_raises(self):
        p = panel_from(np.random.default_rng(6).normal(size=(20, 2)).cumsum(axis=0))
        with pytest.raises(InsufficientHistoryError):
            prepare_windows(p, 2019, 4)  # no validation targets after 2019
