from dataclasses import replace

import numpy as np
import pytest

from mortlab.benchmark import (
    AblationResult,
    BenchmarkRow,
    ablate,
    linear_benchmark_forecast,
    lookback_sweep,
    rmse,
    validate,
)
from mortlab.data import synthesize_cluster, synthetic_truth
from mortlab.forecast import HybridConfig, fit_forecaster
from mortlab.lilee import FactorPanel, fit_ar1, fit_lilee, fit_rwd
from mortlab.lstm import TrainConfig


def quick_cfg(seed=0, epochs=60):
    return HybridConfig(
        lookback=10,
        hidden=(8, 4),
        dropout_rate=0.2,
        train=TrainConfig(max_epochs=epochs, patience=15, seed=seed),
    )


class TestRmse:
    def test_hand_brute_force_toy(self):
        # 3-year toy: forecasts [1, 2, 3] vs actual [2, 2, 5]
        want = ((1 - 2) ** 2 + 0 + (3 - 5) ** 2) / 3
        assert rmse([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(np.sqrt(want))

    def test_zero_for_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


class TestBenchmarkRow:
    def test_improvement_formula_exact(self):
        row = BenchmarkRow(country="X", rmse_lilee=2.0, rmse_hybrid=1.5)
        assert row.improvement_pct == (2.0 - 1.5) / 2.0 * 100.0

    def test_identical_forecasters_zero(self):
        row = BenchmarkRow(country="X", rmse_lilee=1.234, rmse_hybrid=1.234)
        assert row.improvement_pct == 0.0

    def test_sign_flips_when_labels_swap(self):
        a = BenchmarkRow(country="X", rmse_lilee=2.0, rmse_hybrid=1.0)
        b = BenchmarkRow(country="X", rmse_lilee=1.0, rmse_hybrid=2.0)
        assert a.improvement_pct > 0 > b.improvement_pct


def noisy_panel():
    rng = np.random.default_rng(0)
    values = np.column_stack(
        [np.cumsum(rng.normal(-1, 0.1, 40)), rng.normal(0, 0.5, 40)]
    )
    return FactorPanel(years=1980 + np.arange(40), values=values, labels=("K", "C0"))


def phi_zero_panel():
    # k = [0,4,0,4,...] fits phi = 0 exactly on any even-length training slice
    t = 20
    k = np.tile([0.0, 4.0], t // 2)
    return FactorPanel(
        years=2000 + np.arange(t),
        values=np.column_stack([np.linspace(2, -2, t), k]),
        labels=("K", "C0"),
    )


class TestLinearBenchmark:
    def test_pure_drift_recursion(self):
        t = 30
        K = -1.0 * np.arange(t)
        k1 = np.zeros(t)
        k1[0] = 1.0  # non-degenerate AR fit, phi ~ 0
        panel = FactorPanel(
            years=1990 + np.arange(t),
            values=np.column_stack([K, k1]),
            labels=("K", "C0"),
        )
        out = linear_benchmark_forecast(panel, 2014, np.zeros(2))
        # drift on the training slice is exactly -1 per year
        train_K = K[: np.sum(panel.years <= 2014)]
        d = fit_rwd(train_K).drift
        start = train_K[-1]
        assert np.allclose(out[:, 0], start + d * np.arange(1, out.shape[0] + 1))

    def test_shared_bias_shifts_drift(self):
        panel = noisy_panel()
        base = linear_benchmark_forecast(panel, 2010, np.zeros(2))
        shifted = linear_benchmark_forecast(panel, 2010, np.array([0.5, 0.0]))
        steps = np.arange(1, base.shape[0] + 1)
        assert np.allclose(shifted[:, 0] - base[:, 0], 0.5 * steps)

    def test_phi_zero_forecasts_zero(self):
        # the specific forecast is zero no matter where the series ends
        panel = phi_zero_panel()
        assert fit_ar1(panel.values[panel.years <= 2013, 1]).phi == 0.0
        out = linear_benchmark_forecast(panel, 2013, np.zeros(2))
        assert np.all(out[:, 1] == 0.0)


class TestValidate:
    def test_rows_per_country(self, fitted_panel, trained_model):
        _, panel = fitted_panel
        model = trained_model[0]
        rows = validate(panel, model, 2011)
        assert [r.country for r in rows] == list(panel.labels[1:])
        for r in rows:
            assert r.rmse_lilee >= 0 and r.rmse_hybrid >= 0

    def test_unit_root_cluster_hybrid_wins(self):
        # single-seed smoke version of the 20-run acceptance study
        truth = synthetic_truth(
            n_countries=3, year_range=(1956, 2020), seed=3,
            specific="unit_root", specific_drift=0.35, specific_sigma=0.25,
            common_drift=-1.0, common_sigma=0.3,
        )
        cluster = synthesize_cluster(truth, noise_sd=0.01, seed=1003)
        params, _ = fit_lilee(cluster)
        panel = FactorPanel.from_params(params)
        cfg = HybridConfig(
            lookback=10, hidden=(32, 16), dropout_rate=0.2,
            train=TrainConfig(max_epochs=600, patience=15, seed=2003),
        )
        model = fit_forecaster(panel, 2011, cfg)[0]
        rows = validate(panel, model, 2011)
        assert np.mean([r.improvement_pct for r in rows]) > 0


class TestAblate:
    def test_baseline_zero_degradation(self, fitted_panel):
        _, panel = fitted_panel
        cfg = quick_cfg()
        out = ablate(panel, 2011, cfg, baseline=fit_forecaster(panel, 2011, cfg))
        assert out["baseline"].degradation_pct == 0.0

    def test_no_mbc_on_zero_bias_model_is_noop(self, fitted_panel):
        import dataclasses

        from mortlab.benchmark import _rmse_kt_recursive

        _, panel = fitted_panel
        model = fit_forecaster(panel, 2011, quick_cfg(seed=5))[0]
        zeroed = dataclasses.replace(model, mbc=np.zeros_like(model.mbc))
        base = _rmse_kt_recursive(zeroed, panel, 2011)
        again = _rmse_kt_recursive(
            dataclasses.replace(zeroed, mbc=np.zeros_like(model.mbc)), panel, 2011
        )
        assert base == again

    def test_variants_present(self, fitted_panel):
        _, panel = fitted_panel
        cfg = quick_cfg(seed=6)
        out = ablate(panel, 2011, cfg, baseline=fit_forecaster(panel, 2011, cfg))
        assert set(out) == {"baseline", "no_mbc", "no_differences"}
        for res in out.values():
            assert isinstance(res, AblationResult)
            assert res.rmse_kt >= 0


def sweep(panel, split_year, cfg, lookbacks):
    """lookback_sweep with the baseline `cfg` model trained here."""
    baseline = fit_forecaster(panel, split_year, cfg)
    return lookback_sweep(panel, split_year, cfg, lookbacks, baseline=baseline)


class TestLookbackSweep:
    def test_sample_counts_differ_by_delta_lookback(self, fitted_panel):
        _, panel = fitted_panel
        out = sweep(panel, 2011, quick_cfg(seed=7), lookbacks=(5, 10))
        by_l = {r.lookback: r for r in out}
        total_5 = by_l[5].n_train + by_l[5].n_val
        total_10 = by_l[10].n_train + by_l[10].n_val
        assert total_5 - total_10 == 5

    def test_insufficient_history_skipped_with_notice(self):
        rng = np.random.default_rng(1)
        values = np.column_stack(
            [np.cumsum(rng.normal(-1, 0.3, 16)), rng.normal(0, 0.3, 16)]
        )
        panel = FactorPanel(years=2000 + np.arange(16), values=values, labels=("K", "C0"))
        out = sweep(panel, 2012, replace(quick_cfg(seed=8), lookback=5), lookbacks=(5, 40))
        by_l = {r.lookback: r for r in out}
        assert by_l[40].skipped and "skipped" in by_l[40].note
        assert not by_l[5].skipped

    def test_reused_baseline_equals_retraining(self, fitted_panel):
        # each sweep reuses its baseline for one lookback and trains the other
        _, panel = fitted_panel
        at_10 = sweep(panel, 2011, quick_cfg(seed=10), lookbacks=(5, 10))
        at_5 = sweep(panel, 2011, replace(quick_cfg(seed=10), lookback=5), lookbacks=(5, 10))
        assert at_5 == at_10

    def test_deterministic_output(self, fitted_panel):
        _, panel = fitted_panel
        cfg = replace(quick_cfg(seed=9), lookback=5)
        a = sweep(panel, 2011, cfg, lookbacks=(5,))
        b = sweep(panel, 2011, cfg, lookbacks=(5,))
        assert a[0].rmse_kt == b[0].rmse_kt
