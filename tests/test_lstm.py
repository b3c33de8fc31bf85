import tracemalloc
import weakref

import numpy as np
import pytest

from mortlab import lstm
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
from mortlab.lstm import _backward, _cell, _infer, _layer_backward, _rows  # white-box checks


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


def shared_stack(k, n=5, steps=6, seed=0):
    """Random windows (n, steps, 3) whose first k steps are row 0's on every row."""
    X = np.random.default_rng(seed).standard_normal((n, steps, 3))
    X[:, :k] = X[0, :k]
    return X


class TestSharedPrefix:
    """`forward` runs layer 1 once over the leading steps all rows share."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 5, 6])
    def test_rows_equal_their_window_run_alone(self, k, masked):
        params = toy_params(seed=2, hidden=(6, 5), dropout=0.3)
        X = shared_stack(k)
        assert lstm._shared_steps(X) == k
        mask = draw_mask(params, np.random.default_rng(k), *X.shape[:2]) if masked else None
        batch = forward(params, X, mask=mask)
        for i in range(len(X)):
            alone = forward(params, X[i : i + 1], mask=None if mask is None else mask[i : i + 1])
            assert np.array_equal(batch[i], alone[0]), i

    def test_signed_zeros_are_not_shared(self):
        X = np.zeros((2, 4, 3))
        assert lstm._shared_steps(X) == 4
        X[1, 0, 0] = -0.0
        assert lstm._shared_steps(X) == 0

    def test_shared_steps_take_one_row_and_predict_never_shares(self, monkeypatch):
        params = toy_params(seed=3, hidden=(6, 5), dropout=0.3)
        X = shared_stack(3)
        rows, matmul = lstm._rows, np.matmul
        taken = []

        def recording(product):
            def run(a, W):
                taken.append((W, a.shape[0]))
                return product(a, W)
            return run

        monkeypatch.setattr(lstm, "_rows", recording(rows))
        forward(params, X, mask=draw_mask(params, np.random.default_rng(1), 5, 6))
        for W in (params.W1, params.U1):
            assert [m for w, m in taken if w is W] == [1, 1, 1, 5, 5, 5]
        assert {m for w, m in taken if w is not params.W1 and w is not params.U1} == {5}

        taken.clear()
        monkeypatch.setattr(np, "matmul", recording(matmul))
        predict(params, X)
        assert len(taken) == 4 * 6 + 1
        assert {m for _, m in taken} == {5}


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

    def test_holds_one_epoch_of_caches(self, monkeypatch):
        """Each epoch's training forward starts only after the previous
        epoch's caches and dropout mask are freed."""
        real, alive, calls = lstm._infer, [], []

        def watching_infer(*args, keep=False):
            if not keep:
                return real(*args)
            assert all(ref() is None for ref in alive), "an earlier epoch's cache is alive"
            pred, cache = real(*args, keep=True)
            _, *buffers, mask = cache
            alive[:] = [weakref.ref(a if a.base is None else a.base) for a in (*buffers, mask)]
            calls.append(1)
            return pred, cache

        monkeypatch.setattr(lstm, "_infer", watching_infer)
        rng = np.random.default_rng(13)
        X, Y = rng.standard_normal((12, 6, 3)), rng.standard_normal((12, 3))
        cfg = TrainConfig(max_epochs=5, patience=5, seed=6)
        train(X[:9], Y[:9], X[9:], Y[9:], cfg, hidden=(8, 4), dropout_rate=0.2)
        assert len(calls) == 5

    def test_backward_allocates_no_input_gradient(self, monkeypatch):
        """Only input_gradient reads the windows' gradient; train's backward
        leaves it uncomputed."""
        real, returned = lstm._backward, []

        def watching_backward(*args, **kwargs):
            grads, dX = real(*args, **kwargs)
            returned.append(dX)
            return grads, dX

        monkeypatch.setattr(lstm, "_backward", watching_backward)
        rng = np.random.default_rng(15)
        X, Y = rng.standard_normal((12, 6, 3)), rng.standard_normal((12, 3))
        cfg = TrainConfig(max_epochs=3, patience=3, seed=8)
        train(X[:9], Y[:9], X[9:], Y[9:], cfg, hidden=(8, 4), dropout_rate=0.2)
        assert len(returned) == 3 and all(dX is None for dX in returned)
        assert input_gradient(toy_params(), X[0], 0).shape == (6, 3)
        assert returned[-1].shape == (6, 1, 3)

    def test_records_gradient_norm_per_epoch(self):
        """Targets far from any initial output force clipped steps; small
        ones do not, and the trace keeps each epoch's norm either way."""
        rng = np.random.default_rng(14)
        X = rng.standard_normal((8, 5, 3))
        cfg = TrainConfig(max_epochs=4, patience=4, seed=7)
        for Y, clipped in ((np.full((8, 3), 100.0), True), (0.01 * X[:, -1, :], False)):
            _, trace = train(X[:6], Y[:6], X[6:], Y[6:], cfg, hidden=(4, 3), dropout_rate=0.0)
            assert len(trace.grad_norm) == trace.epochs_run == 4
            assert min(trace.grad_norm) > 0
            assert trace.clipped_epochs == sum(n > lstm.CLIP_NORM for n in trace.grad_norm)
            assert (trace.clipped_epochs > 0) == clipped

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
        kept = draw_mask(params, rng, 100_000, 1)[:, 0, 0]
        # a kept unit counts 1/keep, so the mean activation is preserved
        # when the kept share is keep
        assert abs(float(np.mean(kept)) / params.keep_prob - 1.0) < 0.01


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



def prescaled_forward(params, X, fmask, product):
    """The forward pass as it was written with the dropout mask pre-scaled
    to float, fmask = (u < keep) / keep: layer 2 reads h1 * fmask."""
    n, L, _ = X.shape
    h1, h2 = params.hidden
    h1_t, c1_t = np.zeros((n, h1)), np.zeros((n, h1))
    h2_t, c2_t = np.zeros((n, h2)), np.zeros((n, h2))
    for t in range(L):
        z1 = product(X[:, t, :], params.W1)
        z1 += product(h1_t, params.U1)
        z1 += params.b1
        h1_t = _cell(z1, c1_t, h1)
        z2 = product(h1_t * fmask[:, t, :], params.W2)
        z2 += product(h2_t, params.U2)
        z2 += params.b2
        h2_t = _cell(z2, c2_t, h2)
    return product(h2_t, params.Wh) + params.bh


def prescaled_weight_grads(params, cache, fmask, dpred):
    """The weight gradients as they were computed with the float mask:
    layer 2's backward reads the masked layer-1 outputs hs1 * fmask, and
    the gradient it passes down is multiplied by fmask afterwards."""
    X, hs1, cs1, gates1, hs2, cs2, gates2, _ = cache
    n, L, _ = X.shape
    fmask_t = np.moveaxis(fmask, 1, 0)
    grads = {"Wh": hs2[-1].T @ dpred, "bh": dpred.sum(axis=0)}
    dh2_seq = np.zeros((L, n, params.hidden[1]))
    dh2_seq[-1] = dpred @ params.Wh.T
    dh1_seq, grads["W2"], grads["U2"], grads["b2"] = _layer_backward(
        dh2_seq, hs1 * fmask_t, hs2, cs2, gates2, params.W2, params.U2, input_grad=True
    )
    dh1_seq *= fmask_t
    _, grads["W1"], grads["U1"], grads["b1"] = _layer_backward(
        dh1_seq, np.moveaxis(X, 1, 0), hs1, cs1, gates1, params.W1, params.U1
    )
    return grads


class TestKeepPattern:
    @pytest.mark.parametrize("dropout", [0.2, 0.5])
    def test_equals_prescaled_float_mask_bitwise(self, dropout):
        """The bool keep-pattern, scaled by 1/keep where it is used, gives
        the bits of the float mask (u < keep) / keep it replaced: forward
        rows, the training forward and every weight gradient."""
        params = init_params(7, hidden=(32, 16), dropout_rate=dropout, seed=3)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 10, 7))
        mask = draw_mask(params, np.random.default_rng(9), 40, 10)
        u = np.random.default_rng(9).random((40, 10, 32))  # the draws behind mask
        fmask = np.divide(u < params.keep_prob, params.keep_prob)
        assert mask.dtype == bool and np.array_equal(mask, fmask > 0)

        want_rows = prescaled_forward(params, X, fmask, _rows)
        assert forward(params, X, mask=mask).tobytes() == want_rows.tobytes()
        pred, cache = _infer(params, X, mask, np.matmul, keep=True)
        assert pred.tobytes() == prescaled_forward(params, X, fmask, np.matmul).tobytes()
        dpred = rng.standard_normal(pred.shape)
        grads, _ = _backward(params, cache, dpred)
        want = prescaled_weight_grads(params, cache, fmask, dpred)
        for key, _ in params.weight_items():
            assert grads[key].tobytes() == want[key].tobytes(), key

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
