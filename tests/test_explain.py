import tracemalloc

import numpy as np
import pytest

from mortlab import explain
from mortlab.errors import RankError
from mortlab.explain import (
    ShapReport,
    _kernel_coalitions,
    aggregate_country_influence,
    kernel_shap,
    temporal_saliency,
)
from tests.test_lstm import zero_params


def gate_open(bias_vec, h, gates=("i", "f", "o"), value=50.0):
    slots = {"i": 0, "f": 1, "g": 2, "o": 3}
    for name in gates:
        s = slots[name]
        bias_vec[s * h : (s + 1) * h] = value


def last_lag_network(input_dim=3, hidden=(4, 3), output_dim=2, seed=0):
    """Forget gates slammed shut: the cell holds only the final step."""
    rng = np.random.default_rng(seed)
    p = zero_params(input_dim=input_dim, hidden=hidden, output_dim=output_dim)
    h1, h2 = hidden
    gate_open(p.b1, h1, gates=("i", "o"))
    gate_open(p.b2, h2, gates=("i", "o"))
    p.b1[h1 : 2 * h1] = -50.0  # forget gate closed
    p.b2[h2 : 2 * h2] = -50.0
    p.W1[:, 2 * h1 : 3 * h1] = rng.standard_normal((input_dim, h1))
    p.W2[:, 2 * h2 : 3 * h2] = rng.standard_normal((h1, h2))
    p.Wh[:] = rng.standard_normal((h2, output_dim))
    return p


def lag_symmetric_network(input_dim=3, hidden=(4, 3), output_dim=2, seed=1):
    """Layer 1 accumulates per-step contributions (f = 1, no recurrence);
    layer 2 reads only the final state, so each lag enters the prediction
    through an unordered sum."""
    rng = np.random.default_rng(seed)
    p = zero_params(input_dim=input_dim, hidden=hidden, output_dim=output_dim)
    h1, h2 = hidden
    gate_open(p.b1, h1, gates=("i", "f", "o"))
    gate_open(p.b2, h2, gates=("i", "o"))
    p.b2[h2 : 2 * h2] = -50.0
    p.W1[:, 2 * h1 : 3 * h1] = rng.standard_normal((input_dim, h1)) * 1e-3
    p.W2[:, 2 * h2 : 3 * h2] = rng.standard_normal((h1, h2))
    p.Wh[:] = rng.standard_normal((h2, output_dim))
    return p


class TestSaliency:
    def test_last_lag_network_concentrates(self):
        net = last_lag_network()
        rng = np.random.default_rng(2)
        windows = rng.standard_normal((5, 6, 3))
        prof = temporal_saliency(net, windows, output_index=0)
        assert prof[-1] >= 99.0

    def test_symmetric_network_uniform_profile(self):
        net = lag_symmetric_network()
        # constant-in-time windows make every lag's local gradient identical
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((4, 1, 3))
        windows = np.repeat(rows, 6, axis=1)
        prof = temporal_saliency(net, windows, output_index=1)
        assert np.allclose(prof, 100.0 / 6.0, atol=1e-6)

    def test_sums_to_hundred(self, trained_model):
        model, _, windows, (train_idx, val_idx) = trained_model
        prof = temporal_saliency(model.net, windows.X[val_idx], output_index=0)
        assert prof.sum() == pytest.approx(100.0, abs=1e-9)
        assert np.all(prof >= 0)

    def test_invariant_under_sample_duplication(self):
        net = last_lag_network(seed=4)
        rng = np.random.default_rng(5)
        windows = rng.standard_normal((3, 5, 3))
        doubled = np.concatenate([windows, windows], axis=0)
        assert np.allclose(
            temporal_saliency(net, windows, 0),
            temporal_saliency(net, doubled, 0),
            atol=1e-12,
        )


def linear_model(weights):
    w = np.asarray(weights, dtype=float)

    def fn(W):
        flat = W.reshape(W.shape[0], -1)
        return flat @ w

    return fn


class TestKernelShap:
    def test_linear_model_exact(self):
        rng = np.random.default_rng(6)
        L, F = 3, 4  # d = 12
        w = rng.standard_normal(L * F)
        x = rng.standard_normal((1, L, F))
        b = rng.standard_normal((1, L, F))
        rep = kernel_shap(linear_model(w), b, x, n_coalitions=2**12 - 2)
        want = w * (x.reshape(-1) - b.reshape(-1))
        assert np.max(np.abs(rep.phi[0] - want)) <= 1e-8

    def test_constant_model_zero_phi(self):
        fn = lambda W: np.full(W.shape[0], 2.5)  # noqa: E731
        rng = np.random.default_rng(7)
        rep = kernel_shap(
            fn, rng.standard_normal((2, 2, 3)), rng.standard_normal((3, 2, 3)),
            n_coalitions=2**6 - 2,
        )
        assert np.max(np.abs(rep.phi)) <= 1e-10
        assert rep.base_value == pytest.approx(2.5)

    def test_symmetric_features_equal_phi(self):
        # two features with identical role and identical (x - b) offset
        def fn(W):
            flat = W.reshape(W.shape[0], -1)
            return flat[:, 0] * flat[:, 1] + flat[:, 0] + flat[:, 1]

        x = np.array([[[1.5, 1.5]]])
        b = np.array([[[0.5, 0.5]]])
        rep = kernel_shap(fn, b, x, n_coalitions=2**2 - 2)
        assert rep.phi[0, 0] == pytest.approx(rep.phi[0, 1], abs=1e-8)

    def test_local_accuracy_exact(self, trained_model):
        model, _, windows, (_, val_idx) = trained_model
        X = windows.X[val_idx][:2, :3, :]  # d = 3*4 = 12
        bg = windows.X[val_idx][:, :3, :]
        rep = kernel_shap(model.net, bg, X, output_index=0, n_coalitions=2**12 - 2)
        for t in range(X.shape[0]):
            assert rep.base_value + rep.phi[t].sum() == pytest.approx(
                rep.fx[t], abs=1e-6
            )

    def test_local_accuracy_sampled(self, trained_model):
        model, _, windows, (_, val_idx) = trained_model
        X = windows.X[val_idx][:2]
        bg = windows.X[val_idx]
        rep = kernel_shap(
            model.net, bg, X, output_index=0, n_coalitions=500, seed=8
        )
        for t in range(X.shape[0]):
            assert rep.base_value + rep.phi[t].sum() == pytest.approx(
                rep.fx[t], abs=1e-8
            )

    def test_sampled_with_full_budget_matches_exact(self):
        rng = np.random.default_rng(9)
        L, F = 2, 4  # d = 8
        def fn(W):
            flat = W.reshape(W.shape[0], -1)
            return np.tanh(flat @ rng_w) + 0.3 * flat[:, 0] * flat[:, 2]

        rng_w = rng.standard_normal(L * F)
        x = rng.standard_normal((2, L, F))
        b = rng.standard_normal((4, L, F))
        exact = kernel_shap(fn, b, x, n_coalitions=2**8 - 2)
        sampled = kernel_shap(fn, b, x, n_coalitions=2**8, seed=10)
        assert np.array_equal(sampled.phi, exact.phi)

    def test_multi_output_requires_index(self, trained_model):
        model, _, windows, (_, val_idx) = trained_model
        with pytest.raises(ValueError):
            kernel_shap(
                model.net, windows.X[val_idx], windows.X[val_idx][:1], n_coalitions=50,
            )

    def test_budget_below_d_minus_1_raises_before_evaluating(self):
        spy = RowSpy(12)
        x = np.random.default_rng(13).standard_normal((1, 3, 4))  # d = 12
        with pytest.raises(RankError, match="at least 11"):
            kernel_shap(spy, x, x, n_coalitions=10)
        assert spy.rows == []
        rep = kernel_shap(spy, x + 1.0, x, n_coalitions=11, seed=3)
        assert np.all(np.isfinite(rep.phi))
        assert spy.rows.count(11) == 1


def per_row_coalitions(d, n_coalitions, rng):
    """_kernel_coalitions as one permutation per row."""
    sizes = np.arange(1, d)
    size_p = (d - 1) / (sizes * (d - sizes))
    size_p = size_p / size_p.sum()
    drawn = rng.choice(sizes, size=n_coalitions, p=size_p)
    Z = np.zeros((n_coalitions, d))
    for row, s in enumerate(drawn):
        Z[row, rng.permutation(d)[:s]] = 1.0
    return Z


class TestCoalitions:
    @pytest.mark.parametrize(
        "d, n, seed", [(3, 4, 0), (5, 7, 1), (13, 100, 2), (30, 500, 3), (70, 2188, 4)]
    )
    def test_sampled_equals_per_row_loop_bitwise(self, d, n, seed):
        want_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        want = per_row_coalitions(d, n, want_rng)
        Z = _kernel_coalitions(d, n, got_rng)
        assert Z.dtype == want.dtype and np.array_equal(Z, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_sampled_draw_holds_one_block_beyond_z(self):
        # drawing every row's shuffle at once peaked at 2.17 x Z
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            Z = _kernel_coalitions(70, 20_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * Z.nbytes, f"the draw peaked at {peak / Z.nbytes:.2f} x Z"


class TestAggregate:
    def test_single_sample_unit_phi(self):
        rep = ShapReport(
            phi=np.ones((1, 6)), base_value=0.0, fx=np.zeros(1), lookback=2, n_features=3
        )
        assert np.allclose(aggregate_country_influence(rep), 1.0)

    def test_sign_alternation_uses_absolute(self):
        phi = np.array([[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]])
        rep = ShapReport(phi=phi, base_value=0.0, fx=np.zeros(1), lookback=2, n_features=3)
        assert np.allclose(aggregate_country_influence(rep), 1.0)

    def test_shape_and_layout(self):
        rng = np.random.default_rng(11)
        phi = rng.standard_normal((5, 8))
        rep = ShapReport(phi=phi, base_value=0.0, fx=np.zeros(5), lookback=4, n_features=2)
        scores = aggregate_country_influence(rep)
        assert scores.shape == (2,)
        want0 = np.abs(phi).reshape(5, 4, 2)[:, :, 0].mean()
        assert scores[0] == pytest.approx(want0)


class RowSpy:
    """A model whose rows do not interact (no matrix products), recording
    how many rows each call is handed."""

    def __init__(self, d, seed=0):
        self.w = np.random.default_rng(seed).standard_normal(d)
        self.rows = []

    def __call__(self, W):
        self.rows.append(W.shape[0])
        flat = W.reshape(W.shape[0], -1)
        return np.tanh((flat * self.w).sum(axis=1)) + 0.3 * flat[:, 0] * flat[:, -1]


def spy_shap(shape, **kwargs):
    """kernel_shap of a RowSpy on seeded windows of (lookback, features) =
    `shape`; returns the report and the spy."""
    rng = np.random.default_rng(31)
    spy = RowSpy(shape[0] * shape[1])
    x = rng.standard_normal((2, *shape))
    b = rng.standard_normal((5, *shape))
    return kernel_shap(spy, b, x, seed=4, **kwargs), spy


class TestCoalitionBlocks:
    """Coalitions reach the model in blocks of at most BLOCK rows, none of
    them a single row, and the attributions do not depend on the split."""

    def test_sampled_d70_default_budget(self):
        _, spy = spy_shap((10, 7))  # d = 70: 2188 coalitions
        blocks = [r for r in spy.rows if r > 1]
        assert max(spy.rows) <= explain.BLOCK
        assert sum(blocks) == 2 * (2 * 70 + 2048)
        assert len(blocks) == 2 * 9  # ceil(2188 / 256) per window

    def test_exact_at_the_limit(self):
        _, spy = spy_shap((4, 4), n_coalitions=2**16 - 2)  # d = 16: every coalition
        blocks = [r for r in spy.rows if r > 1]
        assert max(spy.rows) <= explain.BLOCK
        assert sum(blocks) == 2 * 2**16

    @pytest.mark.parametrize("shape, budget", [
        ((10, 7), None),
        ((10, 7), 2 * 256 + 1),
        ((5, 3), 3 * 256 - 1),
        ((3, 4), 2**12 - 2),
    ], ids=["sampled-d70-default", "sampled-2B+1", "sampled-3B-1", "exact-d12"])
    def test_equals_whole_batch_bitwise(self, monkeypatch, shape, budget):
        assert explain.BLOCK == 256
        blocked, spy = spy_shap(shape, n_coalitions=budget)
        assert spy.rows.count(1) == 1 + 2  # base value and f(x) per window only
        monkeypatch.setattr(explain, "BLOCK", 2**20)
        whole, whole_spy = spy_shap(shape, n_coalitions=budget)
        assert max(whole_spy.rows) > 256  # one batch per window
        assert len(spy.rows) > len(whole_spy.rows)
        assert np.array_equal(blocked.phi, whole.phi)
        assert np.array_equal(blocked.fx, whole.fx)
        assert blocked.base_value == whole.base_value
