import dataclasses
import json
import sys
import tracemalloc

import numpy as np
import pytest

from mortlab import forecast
from mortlab.errors import InsufficientHistoryError, NumericError
from mortlab.forecast import (
    ForecastModel,
    compute_mbc,
    dump_forecaster,
    ensemble_quantiles,
    forecast_deterministic,
    forecast_stochastic,
    historical_diff_sd,
    parse_forecaster,
)
from mortlab.lilee import FactorPanel
from mortlab.lstm import (
    draw_mask, dump_network, forward, init_params, parse_network, predict, row_blocks,
)
from mortlab.risk import quantile
from mortlab.windows import ScalerParams
from tests.test_lstm import zero_params


def make_panel(values, first_year=1990):
    values = np.asarray(values, dtype=float)
    return FactorPanel(
        years=first_year + np.arange(values.shape[0]),
        values=values,
        labels=tuple(f"f{i}" for i in range(values.shape[1])),
    )


def tail_model(n_features=4, lookback=10):
    """An untrained forecaster at tail-2k's shape: hidden (32, 16), dropout 0.2."""
    net = init_params(n_features, hidden=(32, 16), dropout_rate=0.2, seed=1)
    scaler = ScalerParams(mean=np.zeros(n_features), sd=np.ones(n_features),
                          train_end_year=2000)
    return ForecastModel(net=net, scaler=scaler, mbc=np.zeros(n_features), lookback=lookback)


def zero_model(n_features=3, lookback=4, mean=None, dropout=0.0):
    """Network that always predicts scaled zero."""
    net = zero_params(input_dim=n_features, hidden=(4, 3), output_dim=n_features)
    net.dropout_rate = dropout
    scaler = ScalerParams(
        mean=np.full(n_features, 0.5) if mean is None else np.asarray(mean, float),
        sd=np.full(n_features, 2.0),
        train_end_year=2005,
    )
    return ForecastModel(net=net, scaler=scaler, mbc=np.zeros(n_features), lookback=lookback)


class TestMbc:
    def test_exact_model_zero_bias(self):
        rng = np.random.default_rng(0)
        net = init_params(3, hidden=(4, 3), output_dim=3, dropout_rate=0.0, seed=1)
        X = rng.standard_normal((6, 5, 3))
        Y = predict(net, X)
        assert np.max(np.abs(compute_mbc(net, X, Y))) <= 1e-14

    def test_constant_offset_recovered(self):
        rng = np.random.default_rng(1)
        net = init_params(3, hidden=(4, 3), output_dim=3, dropout_rate=0.0, seed=2)
        X = rng.standard_normal((6, 5, 3))
        c = np.array([0.3, -0.7, 1.1])
        Y = predict(net, X) + c
        assert np.allclose(compute_mbc(net, X, Y), c, atol=1e-12)

    def test_recomputed_bias_after_applying_is_zero(self):
        rng = np.random.default_rng(3)
        net = init_params(3, hidden=(4, 3), output_dim=3, dropout_rate=0.0, seed=4)
        X = rng.standard_normal((7, 5, 3))
        Y = rng.standard_normal((7, 3))
        mbc = compute_mbc(net, X, Y)
        residual = compute_mbc(net, X, Y - mbc)
        assert np.max(np.abs(residual)) <= 1e-10


class TestDeterministic:
    def test_zero_network_advances_by_scaler_mean(self):
        model = zero_model(mean=[0.5, -0.25, 1.0])
        rng = np.random.default_rng(4)
        history = make_panel(rng.standard_normal((8, 3)))
        ext = forecast_deterministic(model, history, horizon=4)
        expect = history.values[-1] + np.outer(
            np.arange(1, 5), np.array([0.5, -0.25, 1.0])
        )
        assert np.allclose(ext, expect, atol=1e-12)

    def test_horizon_zero_returns_no_rows(self):
        model = zero_model()
        history = make_panel(np.random.default_rng(5).standard_normal((6, 3)))
        out = forecast_deterministic(model, history, horizon=0)
        assert out.shape == (0, 3)

    def test_repeated_runs_bit_identical(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        a = forecast_deterministic(model, panel, horizon=10)
        b = forecast_deterministic(model, panel, horizon=10)
        assert np.array_equal(a, b)

    def test_insufficient_history(self):
        model = zero_model(lookback=6)
        history = make_panel(np.random.default_rng(6).standard_normal((5, 3)))
        with pytest.raises(InsufficientHistoryError):
            forecast_deterministic(model, history, horizon=2)


class TestLayout:
    def test_row_bits_do_not_depend_on_the_callers_memory_layout(self):
        # a Fortran-order stack, or F-strided single windows, must give the
        # bits of the C-order stack through forward and through _advance
        # (with 7 inputs a strided row can take another product path)
        rng = np.random.default_rng(0)
        n_features, need = 7, 11
        net = init_params(n_features, hidden=(32, 16), output_dim=n_features,
                          dropout_rate=0.2, seed=1)
        scaler = ScalerParams(mean=0.1 * rng.standard_normal(n_features),
                              sd=rng.uniform(0.5, 2.0, n_features), train_end_year=2005)
        model = ForecastModel(net=net, scaler=scaler, mbc=0.01 * rng.standard_normal(n_features),
                              lookback=need - 1)
        values = np.cumsum(rng.standard_normal((60, n_features)), axis=0)
        ends = range(need, values.shape[0] + 1)
        stack = np.stack([values[t - need : t] for t in ends])
        want = forecast._advance(model, stack, mask=None)
        got = forecast._advance(model, np.asfortranarray(stack), mask=None)
        assert got.tobytes() == want.tobytes()
        f_values = np.asfortranarray(values)
        single = [forecast._advance(model, f_values[t - need : t][None], mask=None) for t in ends]
        assert np.concatenate(single).tobytes() == want.tobytes()
        x = (np.diff(stack, axis=1) - scaler.mean) / scaler.sd
        want_fwd = forward(net, x)
        assert forward(net, np.asfortranarray(x)).tobytes() == want_fwd.tobytes()
        assert forward(net, np.asfortranarray(x[3:4])).tobytes() == want_fwd[3].tobytes()


def per_path_oracle(model, history, horizon, n_paths, sigma, seed):
    """The ensemble as one path at a time, one single-window forward per
    step: the reference the batched recursion must reproduce bit for bit."""
    streams = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_paths)
    ]
    need = model.lookback + 1
    out = np.empty((n_paths, horizon + 1, history.values.shape[1]))
    out[:, 0, :] = history.values[-1]
    for p, rng in enumerate(streams):
        window = history.values[-need:].copy()
        for h in range(1, horizon + 1):
            mask = draw_mask(model.net, rng, 1, model.lookback)
            x = (np.diff(window, axis=0) - model.scaler.mean) / model.scaler.sd
            pred = forward(model.net, x[None], mask=mask)[0]
            nxt = window[-1] + ((pred + model.mbc) * model.scaler.sd + model.scaler.mean)
            if np.any(sigma > 0):
                nxt = nxt + rng.normal(0.0, sigma)
            window = np.vstack([window[1:], nxt])
            out[p, h, :] = nxt
    return out


class TestStochastic:
    def test_batched_equals_per_path_oracle_bitwise(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        assert model.net.dropout_rate > 0
        sigma = historical_diff_sd(panel)
        ens = forecast_stochastic(model, panel, horizon=6, n_paths=37, sigma=sigma, seed=8)
        want = per_path_oracle(model, panel, 6, 37, sigma, seed=8)
        assert ens.levels.tobytes() == want.tobytes()

    def test_path_depends_only_on_seed_and_index(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        sigma = historical_diff_sd(panel)
        small = forecast_stochastic(model, panel, horizon=5, n_paths=4, sigma=sigma, seed=2)
        large = forecast_stochastic(model, panel, horizon=5, n_paths=29, sigma=sigma, seed=2)
        assert small.levels.tobytes() == large.levels[:4].tobytes()

    def test_degenerate_ensemble_equals_deterministic_bitwise(
        self, trained_model, fitted_panel
    ):
        model = trained_model[0]
        _, panel = fitted_panel
        det_net = model.net.copy()
        det_net.dropout_rate = 0.0
        det_model = dataclasses.replace(model, net=det_net)
        horizon = 8
        det = forecast_deterministic(det_model, panel, horizon=horizon)
        ens = forecast_stochastic(
            det_model,
            panel,
            horizon=horizon,
            n_paths=50,
            sigma=np.zeros(panel.n_factors),
            seed=5,
        )
        for p in range(ens.n_paths):
            assert np.array_equal(ens.levels[p, 1:], det)

    @pytest.mark.parametrize("n_paths", [0, -2])
    def test_empty_ensemble_refused(self, n_paths):
        model = zero_model(n_features=2, lookback=3)
        history = make_panel(np.random.default_rng(2).standard_normal((6, 2)))
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            forecast_stochastic(model, history, horizon=2, n_paths=n_paths,
                                sigma=np.ones(2), seed=1)

    def test_anchor_row_is_origin(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        ens = forecast_stochastic(
            model, panel, horizon=3, n_paths=7,
            sigma=historical_diff_sd(panel), seed=11,
        )
        for p in range(7):
            assert np.array_equal(ens.levels[p, 0], panel.values[-1])

    def test_first_step_noise_calibration(self):
        model = zero_model(n_features=2, lookback=3)
        history = make_panel(np.random.default_rng(7).standard_normal((6, 2)))
        sigma = np.array([0.8, 1.6])
        ens = forecast_stochastic(
            model, history, horizon=1, n_paths=10_000, sigma=sigma, seed=9
        )
        increments = ens.levels[:, 1, :] - ens.levels[:, 0, :]
        got = increments.std(axis=0, ddof=1)
        assert np.all(np.abs(got - sigma) / sigma < 0.05)

    def test_ensemble_mean_near_deterministic_step(self):
        model = zero_model(n_features=2, lookback=3)
        history = make_panel(np.random.default_rng(8).standard_normal((6, 2)))
        sigma = np.array([0.5, 0.9])
        ens = forecast_stochastic(
            model, history, horizon=1, n_paths=10_000, sigma=sigma, seed=10
        )
        det = forecast_deterministic(model, history, horizon=1)[0]
        bound = 3.0 * sigma / np.sqrt(10_000)
        assert np.all(np.abs(ens.levels[:, 1, :].mean(axis=0) - det) <= bound)

    def test_seed_determinism(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        sigma = historical_diff_sd(panel)
        a = forecast_stochastic(model, panel, horizon=4, n_paths=20, sigma=sigma, seed=3)
        b = forecast_stochastic(model, panel, horizon=4, n_paths=20, sigma=sigma, seed=3)
        assert np.array_equal(a.levels, b.levels)
        c = forecast_stochastic(model, panel, horizon=4, n_paths=20, sigma=sigma, seed=4)
        assert not np.array_equal(a.levels, c.levels)

    def test_widening_bands(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        sigma = historical_diff_sd(panel)
        ens = forecast_stochastic(
            model, panel, horizon=12, n_paths=400, sigma=sigma, seed=6
        )
        sd_k = ens.levels[:, 1:, 0].std(axis=0)
        for h in range(sd_k.size - 1):
            assert sd_k[h + 1] >= sd_k[h] * 0.95


def forced_blocks(monkeypatch, blocks):
    """Split ensembles into blocks of at most ceil(n / blocks) rows."""
    monkeypatch.setattr(forecast, "row_blocks", lambda n, most: row_blocks(n, -(-n // blocks)))


class TestBlocks:
    def test_any_block_count_gives_the_same_bytes(
        self, trained_model, fitted_panel, monkeypatch
    ):
        # uneven blocks, more blocks than workers (7 on 4) and, on hosts with
        # fewer than 4 cores, more workers than cores
        monkeypatch.setattr(forecast.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        model = trained_model[0]
        _, panel = fitted_panel
        sigma = historical_diff_sd(panel)
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter between workers often
        try:
            for blocks in (1, 2, 3, 7):
                forced_blocks(monkeypatch, blocks)
                ens = forecast_stochastic(
                    model, panel, horizon=5, n_paths=301, sigma=sigma, seed=4
                )
                assert (ens.blocks, ens.workers) == (blocks, min(4, blocks))
                runs[blocks] = ens.levels.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert len(set(runs.values())) == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_worker_error_reaches_caller_with_its_type(self, monkeypatch):
        # the bias overflows the first step to inf; the next forward refuses it
        model = dataclasses.replace(zero_model(n_features=2, lookback=3), mbc=np.full(2, 1e308))
        history = make_panel(np.random.default_rng(3).standard_normal((6, 2)))
        forced_blocks(monkeypatch, 2)
        with pytest.raises(NumericError):
            forecast_stochastic(model, history, horizon=3, n_paths=4, sigma=np.ones(2), seed=1)
        # the caller's numpy error state holds inside the workers
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forecast_stochastic(model, history, horizon=3, n_paths=4, sigma=np.ones(2), seed=1)

    def test_row_blocks_split_at_block_boundary(self):
        assert row_blocks(forecast.BLOCK, forecast.BLOCK) == [(0, forecast.BLOCK)]
        half = (forecast.BLOCK + 1) // 2
        assert row_blocks(forecast.BLOCK + 1, forecast.BLOCK) == [
            (0, half), (half, forecast.BLOCK + 1)]

    def test_transient_memory_does_not_grow_with_n_paths(self, monkeypatch):
        # with 2 workers at most 2 blocks are alive at once, whatever n_paths
        monkeypatch.setattr(forecast.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        model = zero_model(n_features=2, lookback=3, dropout=0.2)
        history = make_panel(np.random.default_rng(5).standard_normal((6, 2)))

        def transient(n_paths):
            tracemalloc.start()
            try:
                ens = forecast_stochastic(
                    model, history, horizon=2, n_paths=n_paths, sigma=np.ones(2), seed=3
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ens.workers == 2
            return peak - ens.levels.nbytes

        small = transient(4 * forecast.BLOCK)
        large = transient(16 * forecast.BLOCK)
        assert large <= 1.25 * small, (small, large)


    def test_block_holds_the_mask_as_a_keep_pattern(self):
        """One 500-path block at lookback 10 and hidden (32, 16): the mask
        is a bool keep-pattern, 1 byte an entry, with one DRAW_CHUNK-path
        float scratch for its draws.  Held as pre-scaled float64 (8 bytes
        an entry, built from a bool temporary), the same block peaked at
        24.2 x the n * L * h1 entries; the keep-pattern takes 18.2 x."""
        n, lookback, n_features = 500, 10, 4
        model = tail_model(n_features, lookback)
        net = model.net
        history = make_panel(np.random.default_rng(0).standard_normal((15, n_features)).cumsum(0))
        out = np.empty((n, 4, n_features))

        def run():
            forecast._run_block(model, history, np.full(n_features, 0.1), 5, out, 0, n)

        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = n * lookback * net.hidden[0]
        assert peak < 20 * entries, f"a block peaked at {peak / entries:.1f} x n * L * h1 bytes"

    def test_tail_2k_ensemble_frees_dead_buffers(self, monkeypatch):
        """2,000 paths on 2 workers at tail-2k's shape.  The traced peak
        beyond `levels` was 5.85 MB in blocks of 512 paths; 3.11 MB in blocks
        of 256 while each forward step held its buffers to the step's end and
        a block drew through a 64-path float scratch; 2.48 MB with each buffer
        freed after its last read and a DRAW_CHUNK-path scratch."""
        monkeypatch.setattr(forecast.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        model = tail_model()
        history = make_panel(np.random.default_rng(0).standard_normal((15, 4)).cumsum(0))
        tracemalloc.start()
        try:
            ens = forecast_stochastic(model, history, horizon=12, n_paths=2000,
                                      sigma=np.full(4, 0.1), seed=1)
            peak = tracemalloc.get_traced_memory()[1] - ens.levels.nbytes
        finally:
            tracemalloc.stop()
        assert ens.workers == 2
        assert peak < 2.8e6, f"{peak / 1e6:.2f} MB beyond levels"


class TestQuantiles:
    def _flat_ensemble(self, paths):
        from mortlab.forecast import ForecastEnsemble

        paths = np.asarray(paths, dtype=float)
        levels = paths[:, None, None] * np.ones((1, 2, 1))
        return ForecastEnsemble(levels=levels, years=[2020, 2021])

    def test_identical_paths_collapse(self):
        ens = self._flat_ensemble(np.full(10, 3.25))
        q = ensemble_quantiles(ens, (0.025, 0.5, 0.975))
        assert np.all(q == 3.25)

    def test_median_interpolation(self):
        ens = self._flat_ensemble(np.arange(1, 1001))
        q = ensemble_quantiles(ens, (0.5,))
        assert q[0, 0, 0] == pytest.approx(500.5, abs=1e-12)

    def test_matches_risk_quantile_rule(self):
        rng = np.random.default_rng(11)
        paths = rng.standard_normal(173)
        ens = self._flat_ensemble(paths)
        for level in (0.025, 0.10, 0.50, 0.90, 0.975):
            got = ensemble_quantiles(ens, (level,))[0, 0, 0]
            assert got == pytest.approx(quantile(paths, level), abs=1e-12)

    def test_nested_bands(self, trained_model, fitted_panel):
        model = trained_model[0]
        _, panel = fitted_panel
        ens = forecast_stochastic(
            model, panel, horizon=6, n_paths=200,
            sigma=historical_diff_sd(panel), seed=12,
        )
        q = ensemble_quantiles(ens, (0.025, 0.10, 0.90, 0.975))
        assert np.all(q[0] <= q[1]) and np.all(q[1] <= q[2]) and np.all(q[2] <= q[3])


class TestHistoricalSd:
    def test_matches_manual(self):
        panel = make_panel(np.random.default_rng(12).standard_normal((20, 3)))
        sd = historical_diff_sd(panel)
        want = np.diff(panel.values, axis=0).std(axis=0, ddof=1)
        assert np.array_equal(sd, want)


class TestModelIO:
    def test_round_trip(self, trained_model):
        model = trained_model[0]
        text = dump_forecaster(model, "network.json")
        assert json.loads(text)["network_file"] == "network.json"
        back = parse_forecaster(text, parse_network(dump_network(model.net)))
        assert np.array_equal(back.mbc, model.mbc)
        assert np.array_equal(back.scaler.mean, model.scaler.mean)
        assert back.lookback == model.lookback
        for (k, a), (_, b) in zip(model.net.weight_items(), back.net.weight_items()):
            assert np.array_equal(a, b), k
