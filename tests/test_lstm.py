import tracemalloc

import numpy as np
import pytest

from mortlab.errors import DimensionError
from mortlab.lstm import (
    NetworkParams,
    TrainConfig,
    draw_mask,
    dump_network,
    forward,
    init_params,
    input_gradient,
    mse,
    parse_network,
    predict,
    train,
)
from mortlab.lstm import _backward, _cell, _infer  # white-box checks


def toy_params(seed=0, input_dim=3, hidden=(4, 3), output_dim=2, dropout=0.0):
    return init_params(
        input_dim, hidden=hidden, output_dim=output_dim, dropout_rate=dropout, seed=seed
    )


def zero_params(input_dim=3, hidden=(4, 3), output_dim=2, head_bias=0.0):
    h1, h2 = hidden
    return NetworkParams(
        W1=np.zeros((input_dim, 4 * h1)),
        U1=np.zeros((h1, 4 * h1)),
        b1=np.zeros(4 * h1),
        W2=np.zeros((h1, 4 * h2)),
        U2=np.zeros((h2, 4 * h2)),
        b2=np.zeros(4 * h2),
        Wh=np.zeros((h2, output_dim)),
        bh=np.full(output_dim, head_bias),
        dropout_rate=0.0,
    )


def numeric_weight_grads(params, X, Y, mask, step=1e-5):
    """Central finite differences of the training loss for every weight."""
    def loss():
        return mse(_infer(params, X, mask, np.matmul), Y)

    out = {}
    for key, arr in params.weight_items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss()
            arr[idx] = orig - step
            down = loss()
            arr[idx] = orig
            g[idx] = (up - down) / (2 * step)
        out[key] = g
    return out


def assert_close_grads(analytic, numeric, rel_tol=1e-5, abs_tol=1e-8):
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= abs_tol) | (diff <= rel_tol * scale)
    assert ok.all(), f"max rel err {np.max(diff / np.maximum(scale, 1e-300)):.2e}"


class TestForward:
    def test_zero_network_outputs_head_bias(self):
        params = zero_params(head_bias=0.7)
        x = np.random.default_rng(0).standard_normal((1, 5, 3))
        assert np.allclose(forward(params, x), 0.7)

    def test_dropout_zero_equals_deterministic_bitwise(self):
        params = toy_params(dropout=0.0)
        x = np.random.default_rng(1).standard_normal((1, 6, 3))
        det = forward(params, x)
        drop = forward(params, x, mask=draw_mask(params, np.random.default_rng(99), 1, 6))
        assert np.array_equal(det, drop)

    def test_fixed_seed_reproducible_dropout(self):
        params = toy_params(dropout=0.3)
        x = np.random.default_rng(2).standard_normal((1, 6, 3))

        def seeded(seed):
            return forward(params, x, mask=draw_mask(params, np.random.default_rng(seed), 1, 6))

        a, b, c = seeded(7), seeded(7), seeded(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_predict_matches_single(self):
        params = toy_params()
        X = np.random.default_rng(3).standard_normal((4, 5, 3))
        batch = predict(params, X)
        singles = np.concatenate([forward(params, X[i : i + 1]) for i in range(4)])
        assert np.allclose(batch, singles, atol=1e-12)

    def test_bad_shapes_rejected(self):
        params = toy_params()
        # a lone (steps, features) window is not a stack
        for bad in (np.zeros(3), np.zeros((5, 3)), np.zeros((2, 3, 3, 3)), np.zeros((2, 5, 2))):
            with pytest.raises(DimensionError):
                forward(params, bad)
        with pytest.raises(DimensionError):
            forward(params, np.zeros((2, 5, 3)), mask=np.ones((2, 4, 4)))

    def test_batch_with_masks_equals_single_calls_bitwise(self):
        params = toy_params(seed=4, hidden=(6, 5), dropout=0.3)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((9, 7, 3))
        masks = draw_mask(params, rng, 9, 7)
        batch = forward(params, X, mask=masks)
        for i in range(9):
            assert np.array_equal(batch[i], forward(params, X[i : i + 1], mask=masks[i : i + 1])[0])
        plain = forward(params, X)
        for i in range(9):
            assert np.array_equal(plain[i], forward(params, X[i : i + 1])[0])


class TestPredict:
    @pytest.mark.parametrize("hidden", [(32, 16), (4, 3)])
    def test_equals_training_forward_bitwise(self, hidden):
        params = init_params(7, hidden=hidden, seed=3)
        rng = np.random.default_rng(6)
        for n in (1, 2, 15, 2188):
            X = rng.standard_normal((n, 10, 7))
            pred, _cache = _infer(params, X, None, np.matmul, keep=True)
            assert np.array_equal(predict(params, X), pred), n

    def test_keeps_no_backward_caches(self):
        # the training forward's caches (keep=True) for this batch take about 50 MB
        params = init_params(7, hidden=(32, 16), seed=3)
        X = np.random.default_rng(7).standard_normal((2188, 10, 7))
        predict(params, X)
        tracemalloc.start()
        try:
            predict(params, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"predict peaked at {peak / 1e6:.1f} MB"


class TestGradients:
    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        params = toy_params(seed=11)
        X = rng.standard_normal((2, 4, 3))
        Y = rng.standard_normal((2, 2))
        pred, cache = _infer(params, X, None, np.matmul, keep=True)
        grads, _ = _backward(params, cache, 2.0 * (pred - Y) / X.shape[0])
        numeric = numeric_weight_grads(params, X, Y, None)
        for key, _ in params.weight_items():
            assert_close_grads(grads[key], numeric[key])

    def test_weight_gradients_with_fixed_dropout_mask(self):
        rng = np.random.default_rng(5)
        params = toy_params(seed=12, dropout=0.25)
        X = rng.standard_normal((2, 4, 3))
        Y = rng.standard_normal((2, 2))
        mask = draw_mask(params, np.random.default_rng(0), 2, 4)
        pred, cache = _infer(params, X, mask, np.matmul, keep=True)
        grads, _ = _backward(params, cache, 2.0 * (pred - Y) / X.shape[0])
        numeric = numeric_weight_grads(params, X, Y, mask)
        for key, _ in params.weight_items():
            assert_close_grads(grads[key], numeric[key])

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        params = toy_params(seed=13)
        x = rng.standard_normal((4, 3))
        for j in range(2):
            analytic = input_gradient(params, x, j)
            numeric = np.zeros_like(x)
            step = 1e-5
            for idx in np.ndindex(x.shape):
                orig = x[idx]
                x[idx] = orig + step
                up = forward(params, x[None])[0, j]
                x[idx] = orig - step
                down = forward(params, x[None])[0, j]
                x[idx] = orig
                numeric[idx] = (up - down) / (2 * step)
            assert_close_grads(analytic, numeric)

    def test_zero_weights_zero_input_gradient(self):
        params = zero_params(head_bias=1.0)
        x = np.random.default_rng(7).standard_normal((5, 3))
        assert np.array_equal(input_gradient(params, x, 0), np.zeros_like(x))

    def test_saturated_linear_network_constant_gradient(self):
        # open input/forget/output gates, tiny cell kernels: the map is
        # linear to O(eps^2), so the input gradient is sample-independent
        rng = np.random.default_rng(8)
        params = zero_params(input_dim=3, hidden=(4, 3), output_dim=2)
        big = 50.0
        for b, h in ((params.b1, 4), (params.b2, 3)):
            b[:h] = big          # input gate open
            b[h : 2 * h] = big   # forget gate open
            b[3 * h :] = big     # output gate open
        params.W1[:, 8:12] = rng.standard_normal((3, 4)) * 1e-4
        params.W2[:, 6:9] = rng.standard_normal((4, 3)) * 1e-4
        params.Wh[:] = rng.standard_normal((3, 2))
        grads = [
            input_gradient(params, rng.uniform(-1, 1, size=(5, 3)), 0)
            for _ in range(4)
        ]
        for g in grads[1:]:
            assert np.allclose(g, grads[0], rtol=1e-5, atol=1e-12)


class TestTraining:
    def test_overfit_single_sample(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 10, 4))
        y = rng.standard_normal((1, 4))
        cfg = TrainConfig(max_epochs=2000, patience=2000, seed=3)
        params, trace = train(x, y, x, y, cfg, hidden=(32, 16), dropout_rate=0.2)
        final = mse(predict(params, x), y)
        assert final < 1e-4
        assert trace.epochs_run <= 2000

    def test_patience_one_stops_after_two_epochs(self):
        # validation target opposite the training target: moving toward the
        # training label strictly worsens validation from the first step
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 5, 3))
        y = np.full((1, 3), 2.0)
        cfg = TrainConfig(max_epochs=100, patience=1, seed=4)
        params, trace = train(x, y, x, -y, cfg, hidden=(4, 3), dropout_rate=0.0)
        assert trace.epochs_run == 2
        assert trace.best_epoch == 1
        assert trace.stopped_early
        # returned weights are the epoch-1 snapshot: re-running one epoch
        # from the same seed reproduces them
        params2, trace2 = train(
            x, y, x, -y, TrainConfig(max_epochs=1, patience=1, seed=4),
            hidden=(4, 3), dropout_rate=0.0,
        )
        for (k, a), (_, b) in zip(params.weight_items(), params2.weight_items()):
            assert np.array_equal(a, b), k

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 6, 3))
        Y = rng.standard_normal((8, 3))
        cfg = TrainConfig(max_epochs=30, patience=30, seed=5)
        p1, _ = train(X[:6], Y[:6], X[6:], Y[6:], cfg, hidden=(8, 4))
        p2, _ = train(X[:6], Y[:6], X[6:], Y[6:], cfg, hidden=(8, 4))
        for (k, a), (_, b) in zip(p1.weight_items(), p2.weight_items()):
            assert np.array_equal(a, b), k

    def test_best_val_not_worse_than_initial(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((12, 6, 3))
        Y = 0.5 * X[:, -1, :] + 0.1 * rng.standard_normal((12, 3))
        cfg = TrainConfig(max_epochs=60, patience=60, seed=6)
        _, trace = train(X[:9], Y[:9], X[9:], Y[9:], cfg, hidden=(8, 4))
        assert trace.best_val_mse <= trace.initial_val_mse

    def test_inverted_dropout_preserves_mean_activation(self):
        params = toy_params(dropout=0.2)
        rng = np.random.default_rng(13)
        h_value = 0.8  # a fixed deterministic activation
        masks = draw_mask(params, rng, 100_000, 1)[:, 0, 0]
        masked_mean = float(np.mean(masks * h_value))
        assert abs(masked_mean - h_value) / h_value < 0.01


def sigmoid_cell(z, c, h):
    """The LSTM cell as it was written with a separate sigmoid."""
    def sigmoid(x):
        return 0.5 * (1.0 + np.tanh(0.5 * x))

    i = sigmoid(z[:, :h])
    f = sigmoid(z[:, h : 2 * h])
    g = np.tanh(z[:, 2 * h : 3 * h])
    o = sigmoid(z[:, 3 * h :])
    c *= f
    c += i * g
    return np.concatenate([i, f, g, o], axis=1), o * np.tanh(c)


class TestCell:
    @pytest.mark.parametrize("scale", [1.0, 10.0, 800.0])
    def test_in_place_cell_equals_sigmoid_cell_bitwise(self, scale):
        rng = np.random.default_rng(int(scale))
        h = 16
        z = rng.uniform(-scale, scale, (300, 4 * h))
        z[0] = np.linspace(-800.0, 800.0, 4 * h)
        c = rng.standard_normal((300, h))
        z[1], c[1] = -0.0, -0.0  # signed zeros must survive the g gate
        want_gates, want_h = sigmoid_cell(z.copy(), want_c := c.copy(), h)
        got_h = _cell(z, c, h)
        assert z.tobytes() == want_gates.tobytes()
        assert c.tobytes() == want_c.tobytes()
        assert got_h.tobytes() == want_h.tobytes()


class TestSerialization:
    def test_round_trip(self):
        params = toy_params(seed=15, dropout=0.2)
        back = parse_network(dump_network(params))
        for (k, a), (_, b) in zip(params.weight_items(), back.weight_items()):
            assert np.array_equal(a, b), k
        assert back.dropout_rate == params.dropout_rate

    def test_shape_validation(self):
        import json

        doc = json.loads(dump_network(toy_params(seed=16)))
        doc["shapes"]["W1"] = [99, 99]
        with pytest.raises(DimensionError):
            parse_network(json.dumps(doc))
