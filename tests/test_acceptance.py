"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 16 (real six-country data) is optional and skipped
unless MORTLAB_HMD_DIR points at a directory of <CODE>.Mx_1x1.txt files.

The criteria that judge trained forecasters share one set of fits: the
champion architecture on seeds 0-19 of each synthetic regime, built once
per regime on first use, and one scorecard row per fit (`fits` and
`scorecard` below).
"""

import dataclasses
import functools
import json
import os
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mortlab.benchmark import (
    ablate,
    hybrid_validation_forecast,
    linear_benchmark_forecast,
    rmse,
    validate,
)
from mortlab.cli import SYNTH_REGIMES
from mortlab.data import synthesize_cluster, synthetic_truth
from mortlab.explain import kernel_shap
from mortlab.forecast import (
    ForecastModel,
    HybridConfig,
    compute_mbc,
    ensemble_quantiles,
    fit_forecaster,
    forecast_deterministic,
    forecast_stochastic,
    historical_diff_sd,
)
from mortlab.lifetable import life_table, monotonicity_check
from mortlab.lilee import FactorPanel, LiLeeParams, fit_lilee, leading_singular_pair
from mortlab.lstm import TrainConfig, init_params, input_gradient, mse, predict, train
from mortlab.lstm import _backward, _infer
from mortlab.risk import delta_star_from, es, reverse_stress, var
from mortlab.stationarity import adf_test, kpss_test
from tests.test_lifetable import direct_e0_oracle, make_params
from tests.test_lilee import jacobi_svd
from tests.test_lstm import assert_close_grads, numeric_weight_grads


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] C{num:02d} {name}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def build_run(seed: int, regime: dict, *, n_countries=3, noise=0.01):
    truth = synthetic_truth(
        n_countries=n_countries, year_range=(1956, 2020), seed=seed, **regime
    )
    cluster = synthesize_cluster(truth, noise_sd=noise, seed=seed + 1000)
    params, _ = fit_lilee(cluster)
    return truth, cluster, params, FactorPanel.from_params(params)


class ChampionFit(NamedTuple):
    truth: LiLeeParams  # the synthetic truth the panel was drawn from
    panel: FactorPanel
    cfg: HybridConfig
    fit: tuple  # fit_forecaster's (model, trace, windows, split)


def _champion_fit(seed: int, regime: dict) -> ChampionFit:
    """The champion architecture on acceptance run `seed` of `regime`."""
    truth, _, _, panel = build_run(seed, regime)
    cfg = HybridConfig(
        lookback=10, hidden=(32, 16), dropout_rate=0.2,
        train=TrainConfig(max_epochs=600, patience=15, seed=seed + 2000),
    )
    return ChampionFit(truth, panel, cfg, fit_forecaster(panel, 2011, cfg))


@pytest.fixture(scope="module")
def fits():
    """`fits(regime)`: the champion fits of seeds 0-19 (C14's, fixed before
    any criterion looked at them) of `cli.SYNTH_REGIMES[regime]`, built on
    first use and then shared."""
    return functools.cache(
        lambda regime: [_champion_fit(seed, SYNTH_REGIMES[regime]) for seed in range(20)]
    )


def _network_off(model: ForecastModel) -> ForecastModel:
    """`model` with its head `Wh`, `bh` zeroed: each step then adds
    `scaler.mean + mbc * sd`, a random walk with the training drift plus the
    shared bias (the classical mortality-index forecast of Lee & Carter,
    1992)."""
    net = model.net.copy()
    net.Wh[...] = 0.0
    net.bh[...] = 0.0
    return dataclasses.replace(model, net=net)


def _gain(reference: float, contender: float) -> float:
    """Percent RMSE improvement of `contender` over `reference`."""
    return (reference - contender) / reference * 100.0


class Score(NamedTuple):
    """One fit's pooled specific-factor RMSEs over the validation years,
    its mean per-country improvement over Li-Lee and its kept epoch."""
    lilee: float
    hybrid: float
    network_off: float
    per_country: float
    best_epoch: int

    @property
    def pooled(self) -> float:  # hybrid over Li-Lee
        return _gain(self.lilee, self.hybrid)


def _score(run: ChampionFit) -> Score:
    panel, (model, trace, _, _) = run.panel, run.fit
    actual = panel.values[panel.years > 2011]
    ll = linear_benchmark_forecast(panel, 2011, bias=model.mbc * model.scaler.sd)
    hy = hybrid_validation_forecast(model, panel, 2011)
    off = hybrid_validation_forecast(_network_off(model), panel, 2011)
    rows = validate(panel, model, 2011)
    return Score(
        lilee=rmse(ll[:, 1:], actual[:, 1:]),
        hybrid=rmse(hy[:, 1:], actual[:, 1:]),
        network_off=rmse(off[:, 1:], actual[:, 1:]),
        per_country=float(np.mean([r.improvement_pct for r in rows])),
        best_epoch=trace.best_epoch,
    )


@pytest.fixture(scope="module")
def scorecard(fits):
    """`scorecard(regime)`: one `Score` per fit of `fits(regime)`, computed
    on first use."""
    return functools.cache(lambda regime: [_score(run) for run in fits(regime)])


def test_c01_lilee_recovery():
    t0 = time.time()
    truth = synthetic_truth(
        n_countries=3, year_range=(1981, 2020), seed=7, specific="none"
    )
    clean = synthesize_cluster(truth, noise_sd=0.0, seed=11)
    params, _ = fit_lilee(clean)
    frob = np.linalg.norm(np.outer(params.B, params.K) - np.outer(truth.B, truth.K))

    noisy = synthesize_cluster(truth, noise_sd=0.01, seed=12)
    _, resid = fit_lilee(noisy)
    recon_rmse = float(np.sqrt(np.mean(resid**2)))
    elapsed = time.time() - t0
    report(
        1, "lilee-recovery",
        frob <= 1e-8 and recon_rmse <= 0.02 and elapsed < 10.0,
        f"(frobenius {frob:.2e}, noisy rmse {recon_rmse:.4f}, {elapsed:.1f}s)",
    )


def test_c02_truncated_svd_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 61))
        n = int(rng.integers(2, 61))
        M = rng.standard_normal((m, n))
        u, s, v = leading_singular_pair(M)
        U, sig, V = jacobi_svd(M)
        best = sig[0] * np.outer(U[:, 0], V[:, 0])
        worst = max(worst, float(np.linalg.norm(s * np.outer(u, v) - best)))
    report(2, "svd-vs-jacobi", worst <= 1e-8, f"(worst frobenius gap {worst:.2e})")


def test_c03_stationarity_power_and_size():
    t0 = time.time()
    rng = np.random.default_rng(303)
    n, runs = 200, 1000
    adf_wn = adf_rw = kpss_wn = kpss_rw = 0
    for _ in range(runs):
        wn = rng.standard_normal(n)
        rw = np.cumsum(rng.standard_normal(n))
        adf_wn += adf_test(wn)[1] < 0.05
        adf_rw += adf_test(rw)[1] > 0.05
        kpss_wn += kpss_test(wn)[1] == 0.10
        kpss_rw += kpss_test(rw)[1] == 0.01
    elapsed = time.time() - t0
    ok = (
        adf_wn >= 0.90 * runs
        and adf_rw >= 0.90 * runs
        and kpss_wn >= 0.80 * runs
        and kpss_rw >= 0.90 * runs
        and elapsed < 60.0
    )
    report(
        3, "stationarity-power-size", ok,
        f"(ADF wn {adf_wn/runs:.1%} rw {adf_rw/runs:.1%}; "
        f"KPSS wn {kpss_wn/runs:.1%} rw {kpss_rw/runs:.1%}; {elapsed:.0f}s)",
    )


def _worst_rel(a, b):
    """Relative error where gradients are meaningfully sized; entries below
    1e-6 in both are checked absolutely by assert_close_grads instead
    (relative error is undefined at zero)."""
    scale = np.maximum(np.abs(a), np.abs(b))
    sized = scale > 1e-6
    if not sized.any():
        return 0.0
    return float(np.max(np.abs(a - b)[sized] / scale[sized]))


def test_c04_gradient_exactness():
    rng = np.random.default_rng(404)
    params = init_params(3, hidden=(4, 3), output_dim=2, dropout_rate=0.0, seed=44)
    X = rng.standard_normal((2, 5, 3))
    Y = rng.standard_normal((2, 2))
    pred, cache = _infer(params, X, None, np.matmul, keep=True)
    grads, _ = _backward(params, cache, 2.0 * (pred - Y) / X.shape[0])
    numeric = numeric_weight_grads(params, X, Y, None)
    worst = 0.0
    for key, _ in params.weight_items():
        a, b = grads[key], numeric[key]
        worst = max(worst, _worst_rel(a, b))
        assert_close_grads(a, b)
    for j in range(2):
        analytic = input_gradient(params, X[0], j)
        numeric_in = np.zeros_like(X[0])
        x = X[0].copy()
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + 1e-5
            up = predict(params, x[None])[0, j]
            x[idx] = orig - 1e-5
            down = predict(params, x[None])[0, j]
            x[idx] = orig
            numeric_in[idx] = (up - down) / 2e-5
        assert_close_grads(analytic, numeric_in)
        worst = max(worst, _worst_rel(analytic, numeric_in))
    report(4, "gradient-exactness", worst <= 1e-5, f"(worst rel err {worst:.2e})")


def test_c05_overfit_sanity():
    rng = np.random.default_rng(505)
    x = rng.standard_normal((1, 10, 4))
    y = rng.standard_normal((1, 4))
    params, trace = train(
        x, y, x, y,
        TrainConfig(max_epochs=2000, patience=2000, seed=55),
        hidden=(32, 16), dropout_rate=0.2,
    )
    final = mse(predict(params, x), y)
    report(
        5, "overfit-sanity",
        final < 1e-4 and trace.epochs_run <= 2000,
        f"(mse {final:.2e} after {trace.epochs_run} epochs)",
    )


def test_c06_mbc_algebra():
    rng = np.random.default_rng(606)
    net = init_params(4, hidden=(6, 3), output_dim=4, dropout_rate=0.0, seed=66)
    X = rng.standard_normal((9, 5, 4))
    Y = rng.standard_normal((9, 4))
    mbc = compute_mbc(net, X, Y)
    residual = float(np.max(np.abs((Y - (predict(net, X) + mbc)).mean(axis=0))))
    report(6, "mbc-algebra", residual <= 1e-10, f"(residual bias {residual:.2e})")


def test_c07_degenerate_ensemble(fits):
    run = fits("unit_root")[0]
    panel, model = run.panel, run.fit[0]
    det_net = model.net.copy()
    det_net.dropout_rate = 0.0
    det_model = dataclasses.replace(model, net=det_net)
    det = forecast_deterministic(det_model, panel, 30)
    ens = forecast_stochastic(
        det_model, panel, 30, n_paths=1000,
        sigma=np.zeros(panel.n_factors), seed=707,
    )
    ext = det.values[-30:]
    identical = all(np.array_equal(ens.levels[p, 1:], ext) for p in range(1000))
    report(7, "degenerate-ensemble", identical, "(1000 paths bit-identical)")


def test_c08_uncertainty_dominance(fits):
    run = fits("unit_root")[0]
    panel, model = run.panel, run.fit[0]
    sigma = historical_diff_sd(panel)
    full = forecast_stochastic(model, panel, 30, n_paths=1000, sigma=sigma, seed=808)
    drop = forecast_stochastic(
        model, panel, 30, n_paths=1000, sigma=np.zeros_like(sigma), seed=808
    )
    qf = ensemble_quantiles(full, (0.025, 0.975))
    qd = ensemble_quantiles(drop, (0.025, 0.975))
    width_full = qf[1, 30, 0] - qf[0, 30, 0]
    width_drop = qd[1, 30, 0] - qd[0, 30, 0]
    ratio = width_drop / width_full
    report(
        8, "uncertainty-dominance", ratio < 0.05,
        f"(dropout-only width {width_drop:.3f} vs full {width_full:.3f}, ratio {ratio:.4f})",
    )


def test_c09_life_table_oracle():
    m = np.full(91, 0.01)
    got = life_table(m).e0
    want = direct_e0_oracle(m)
    immortal = life_table(np.zeros(91)).e0
    report(
        9, "life-table-oracle",
        abs(got - want) <= 1e-10 and immortal == 90.5,
        f"(e0 {got:.6f} vs oracle {want:.6f}; zero-rate e0 {immortal})",
    )


def test_c10_var_es_oracles():
    sample = np.arange(1, 1001, dtype=float)
    v = var(sample, 0.995)
    e = es(sample, 0.99)
    report(
        10, "var-es-oracles",
        abs(v - 995.005) <= 1e-12 and abs(e - 995.5) <= 1e-12,
        f"(var {v!r}, es {e!r})",
    )


def test_c11_reverse_stress_linearity():
    # frontier-longevity Gompertz baselines (the regime the projections
    # inhabit); the shock response is near-linear there
    worst_cv = 0.0
    for a0, slope in ((6e-6, 0.102), (3e-6, 0.107), (1.5e-6, 0.112)):
        params = make_params([np.log(a0) + slope * np.arange(91)])
        res = reverse_stress(params, mean_k_terminal=-2.0, country=0, scr_es=1.0)
        worst_cv = max(worst_cv, res.sensitivity_cv)
    delta, _, _ = delta_star_from(1.0, np.full(4, 5.0))
    exact = delta == 0.20
    report(
        11, "reverse-stress-linearity",
        worst_cv < 0.01 and exact,
        f"(worst cv {worst_cv:.4%}, constructed delta* {delta})",
    )


def test_c12_shap_exactness():
    rng = np.random.default_rng(1212)
    L, F = 3, 4  # d = 12
    w = rng.standard_normal(L * F)

    def linear(W):
        return W.reshape(W.shape[0], -1) @ w

    x = rng.standard_normal((1, L, F))
    b = rng.standard_normal((1, L, F))
    rep = kernel_shap(linear, b, x, n_coalitions=2**12 - 2)
    want = w * (x.reshape(-1) - b.reshape(-1))
    exact_err = float(np.max(np.abs(rep.phi[0] - want)))

    L8, F8 = 2, 4  # d = 8
    w8 = rng.standard_normal(L8 * F8)

    def bent(W):
        flat = W.reshape(W.shape[0], -1)
        return np.tanh(flat @ w8) + 0.25 * flat[:, 0] * flat[:, 3]

    x8 = rng.standard_normal((2, L8, F8))
    b8 = rng.standard_normal((5, L8, F8))
    exact8 = kernel_shap(bent, b8, x8, n_coalitions=2**8 - 2)
    # a budget of 2^8 covers every proper coalition, so it enumerates too
    full8 = kernel_shap(bent, b8, x8, n_coalitions=2**8, seed=12)
    # 2^8 - 3 is the largest budget that samples; its gap is shown, not asserted
    sampled8 = kernel_shap(bent, b8, x8, n_coalitions=2**8 - 3, seed=12)
    scale = np.abs(exact8.phi).max()
    full_gap = float(np.max(np.abs(exact8.phi - full8.phi))) / scale
    sample_gap = float(np.max(np.abs(exact8.phi - sampled8.phi))) / scale
    report(
        12, "shap-exactness",
        exact_err <= 1e-8 and full_gap <= 0.05,
        f"(linear err {exact_err:.2e}, full-budget gap {full_gap:.2%}; "
        f"not asserted: sampled gap at {2**8 - 3} coalitions {sample_gap:.2%})",
    )


def test_c13_monotonicity_checker():
    gompertz = 1e-4 * np.exp(0.09 * np.arange(91))
    ok_pass = monotonicity_check(gompertz).passed
    bent = gompertz.copy()
    bent[61] = bent[60] * 0.8
    res = monotonicity_check(bent)
    report(
        13, "monotonicity-checker",
        ok_pass and not res.passed and res.first_violation_age == 60,
        f"(gompertz PASS, inversion FAIL at {res.first_violation_age})",
    )


def test_c14_regime_selectivity(scorecard):
    t0 = time.time()
    ur, st = scorecard("unit_root"), scorecard("stationary")
    wins_pooled = sum(s.pooled > 0 for s in ur)
    wins_country = sum(s.per_country > 0 for s in ur)
    stat_mean_pooled = float(np.mean([s.pooled for s in st]))
    stat_mean_country = float(np.mean([s.per_country for s in st]))
    elapsed = time.time() - t0
    ok = (
        wins_pooled >= 16
        and wins_country >= 16
        and abs(stat_mean_pooled) < 5.0
        and abs(stat_mean_country) < 5.0
        and elapsed < 900.0
    )
    report(
        14, "regime-selectivity", ok,
        f"(unit-root wins {wins_pooled}/20 pooled, {wins_country}/20 by-country; "
        f"near-stationary mean {stat_mean_pooled:+.2f}% pooled, "
        f"{stat_mean_country:+.2f}% by-country; {elapsed:.0f}s)",
    )


def test_c15_ablation_ordering(fits):
    holds = 0
    for run in fits("unit_root"):
        res = ablate(run.panel, 2011, run.cfg, baseline=run.fit)
        lv = res["no_differences"].degradation_pct
        nm = res["no_mbc"].degradation_pct
        if lv > nm > 0:
            holds += 1
    report(
        15, "ablation-ordering", holds >= 11,
        f"(levels > no-mbc > 0 in {holds}/20 runs)",
    )


HMD_DIR = os.environ.get("MORTLAB_HMD_DIR")
HMD_CODES = ("CHE", "SWE", "NOR", "DEUTW", "NLD", "JPN")


@pytest.mark.skipif(
    not HMD_DIR,
    reason="optional tier: set MORTLAB_HMD_DIR to a directory of <CODE>.Mx_1x1.txt files",
)
def test_c16_hmd_tier(tmp_path):
    from mortlab.cli import main

    data_dir = Path(HMD_DIR)
    countries = []
    for code in HMD_CODES:
        path = data_dir / f"{code}.Mx_1x1.txt"
        if not path.exists():
            pytest.skip(f"missing {path}")
        countries.append({"code": code, "rates": str(path)})
    cfg = {
        "seed": 20500,
        "out_dir": str(tmp_path / "run"),
        "data": {"countries": countries, "year_range": [1956, 2020], "age_max": 90},
        "split_year": 2011,
        "lookback": 10,
        "hidden": [32, 16],
        "dropout": 0.2,
        "train": {"learning_rate": 1e-3, "max_epochs": 500, "patience": 15},
        "forecast": {"horizon": 30, "n_paths": 1000, "quantiles": [0.025, 0.1, 0.5, 0.9, 0.975]},
        "focus_country": "CHE",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for stage in ("fit", "train", "forecast", "validate", "stress"):
        assert main([stage, "--config", str(cfg_path), "--quiet"]) == 0, stage

    out = tmp_path / "run"
    e0_rows = [
        line.split(",")
        for line in (out / "e0_summary.csv").read_text().splitlines()[2:]
    ]
    terminal = {row[0]: float(row[3]) for row in e0_rows}
    risk_rows = [
        line.split(",")
        for line in (out / "risk.csv").read_text().splitlines()[2:]
    ]
    scr_es = {row[0]: float(row[4]) for row in risk_rows}
    print("[acceptance] C16 reported Table-4 values (not asserted):")
    for code in HMD_CODES:
        print(f"    {code}: terminal e0 {terminal[code]:.2f}, SCR_ES {scr_es[code]:+.3f}")
    ok = all(82.0 <= terminal[c] <= 88.0 for c in HMD_CODES) and all(
        scr_es[c] > 0 for c in HMD_CODES
    )
    report(16, "hmd-tier", ok, "(e0 2050 in [82, 88], SCR_ES positive)")


def test_c17_network_off_contender(fits, scorecard):
    """Does the network earn its place?  Scores the hybrid and its
    network-off contender against Li-Lee and each other, per regime, and
    prints the table; it asserts only the contender's construction."""
    exact = True
    print("[acceptance] C17 pooled specific-factor RMSE gain, wins/20 and median:")
    for regime in ("unit_root", "stationary"):
        for run in fits(regime):
            model = run.fit[0]
            off = hybrid_validation_forecast(_network_off(model), run.panel, 2011)
            previous = np.vstack([run.panel.values[run.panel.years <= 2011][-1], off[:-1]])
            step = model.scaler.mean + model.mbc * model.scaler.sd
            exact &= np.array_equal(off, previous + step)
        cards = scorecard(regime)
        cells = []
        for name, gains in (
            ("hybrid vs Li-Lee", [s.pooled for s in cards]),
            ("network-off vs Li-Lee", [_gain(s.lilee, s.network_off) for s in cards]),
            ("hybrid vs network-off", [_gain(s.network_off, s.hybrid) for s in cards]),
        ):
            cells.append(f"{name} {sum(g > 0 for g in gains)}/20 {np.median(gains):+.1f}%")
        epoch_1 = sum(s.best_epoch == 1 for s in cards)
        print(f"    {regime}: {'; '.join(cells)}; epoch-1 fits {epoch_1}/20")
    report(
        17, "network-off-contender", exact,
        "(each network-off step adds scaler.mean + mbc*sd; the gains above are not asserted)",
    )
