"""Stacked LSTM with a dense head, trained by backpropagation through time.

Written directly on numpy in double precision: the factor panels are tiny,
training is full-batch, and exact input gradients are needed downstream for
saliency, so there is no reason to pull in a framework.

Conventions
-----------
* Sequences are (samples, steps, features); one window is a stack of one.
* Each LSTM layer holds an input kernel W (in, 4H), a recurrent kernel
  U (H, 4H) and a bias (4H,), with gates ordered [input, forget, cell, output]
  along the last axis.
* Dropout is inverted and applies to the first layer's output sequence
  only.  Its mask is a bool keep-pattern (True = kept, Bernoulli(keep)),
  drawn per step and unit; where it is used, a kept output is scaled by
  `mask / keep`, so a kept unit counts 1/keep and a dropped one 0.
* The training loss is the mean over samples of the squared error norm.

One forward loop (`_infer`) runs both layers step by step, with two
product rules.  `forward` multiplies row by row, so every row of a stack
has the bits of its window run alone; the stochastic ensemble relies on
that to run its paths in blocks on worker threads, whatever the split.
`predict`, `train` and `input_gradient` use plain 2-D products, so
validation losses, the mean-bias correction and attributions see the bits
training saw.  Only `train` and `input_gradient` ask the loop to keep the
caches that backpropagation (`_backward`) reads: the windows, the mask and
each step's gates, cell and hidden states.  Layer 2's masked inputs are
rebuilt from them step by step, and only `input_gradient` asks for the
windows' gradient, which `train` would discard.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, TrainingError

WEIGHTS_SCHEMA = "mortlab/network-v1"

_WEIGHT_KEYS = ("W1", "U1", "b1", "W2", "U2", "b2", "Wh", "bh")


@dataclass
class NetworkParams:
    """Weights of the two-layer LSTM plus dense head.

    dropout_rate applies after layer 1; 0 disables the mask entirely so a
    dropout forward pass is bit-identical to a deterministic one.
    """

    W1: np.ndarray
    U1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    U2: np.ndarray
    b2: np.ndarray
    Wh: np.ndarray
    bh: np.ndarray
    dropout_rate: float = 0.2

    def __post_init__(self):
        for key in _WEIGHT_KEYS:
            setattr(self, key, np.asarray(getattr(self, key), dtype=float))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        d, h4 = self.W1.shape
        h1 = h4 // 4
        if self.U1.shape != (h1, 4 * h1) or self.b1.shape != (4 * h1,):
            raise DimensionError("layer-1 shapes inconsistent")
        h2 = self.W2.shape[1] // 4
        if self.W2.shape != (h1, 4 * h2) or self.U2.shape != (h2, 4 * h2):
            raise DimensionError("layer-2 shapes inconsistent")
        if self.b2.shape != (4 * h2,):
            raise DimensionError("layer-2 bias shape inconsistent")
        if self.Wh.shape[0] != h2 or self.bh.shape != (self.Wh.shape[1],):
            raise DimensionError("head shapes inconsistent")
        for key in _WEIGHT_KEYS:
            if not np.all(np.isfinite(getattr(self, key))):
                raise NumericError(f"non-finite values in {key}")

    @property
    def input_dim(self) -> int:
        return self.W1.shape[0]

    @property
    def hidden(self) -> tuple[int, int]:
        return self.U1.shape[0], self.U2.shape[0]

    @property
    def keep_prob(self) -> float:
        """Probability that dropout keeps a layer-1 output."""
        return 1.0 - self.dropout_rate

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            **{k: getattr(self, k).copy() for k in _WEIGHT_KEYS},
            dropout_rate=self.dropout_rate,
        )

    def weight_items(self):
        return [(k, getattr(self, k)) for k in _WEIGHT_KEYS]


def init_params(
    input_dim: int,
    hidden: tuple[int, int] = (32, 16),
    output_dim: int | None = None,
    dropout_rate: float = 0.2,
    seed: int = 0,
) -> NetworkParams:
    """Xavier-uniform kernels, zero biases except the forget gate at 1.0."""
    rng = np.random.default_rng(seed)
    h1, h2 = hidden
    out = input_dim if output_dim is None else output_dim

    def xavier(n_in, n_out):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, size=(n_in, n_out))

    def bias(h):
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate
        return b

    return NetworkParams(
        W1=xavier(input_dim, 4 * h1),
        U1=xavier(h1, 4 * h1),
        b1=bias(h1),
        W2=xavier(h1, 4 * h2),
        U2=xavier(h2, 4 * h2),
        b2=bias(h2),
        Wh=xavier(h2, out),
        bh=np.zeros(out),
        dropout_rate=dropout_rate,
    )


@functools.lru_cache(maxsize=None)
def _gate_affine(h: int):
    """Read-only (scale, shift) over the gate columns [i, f, g, o]: z * scale,
    tanh, + shift, * scale is 0.5 * (1 + tanh(0.5 * x)) on i, f and o, op for
    op, and leaves tanh(g) as is (* 1.0 and + -0.0 change no bit).  Full-width
    passes beat per-gate slices, which cost one inner loop per row."""
    scale, shift = np.repeat((0.5, 0.5, 1.0, 0.5), h), np.repeat((1.0, 1.0, -0.0, 1.0), h)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _cell(z, c, h):
    """One LSTM step from the pre-activations z (n, 4h), in place: z becomes
    the gates [i, f, g, o], c the new cell state; returns the hidden state,
    tanh(c) scaled in place by the o-gate: one temporary, not two, and the
    bits of o * tanh(c), as IEEE multiplication commutes."""
    scale, shift = _gate_affine(h)
    z *= scale
    np.tanh(z, out=z)
    z += shift
    z *= scale
    c *= z[:, h : 2 * h]
    c += z[:, :h] * z[:, 2 * h : 3 * h]
    hidden = np.tanh(c)
    hidden *= z[:, 3 * h :]
    return hidden


def _layer_backward(dh_seq, xs, hs, cs, gates, W, U, mask=None, keep_prob=1.0,
                    input_grad=False):
    """BPTT through one layer.

    dh_seq is the gradient arriving at each step's hidden output, shaped
    (L, n, h); xs[t] is the layer's (n, in) input at step t, times
    mask[:, t] / keep_prob when a keep-pattern (n, L, in) is given.  Returns
    (dX, dW, dU, db), dX the (L, n, in) gradient of xs, or None without
    `input_grad`.
    """
    L, n, h = dh_seq.shape
    dX = np.empty((L, n, W.shape[0])) if input_grad else None
    dW = np.zeros_like(W)
    dU = np.zeros_like(U)
    db = np.zeros(4 * h)
    dh_carry = np.zeros((n, h))
    dc_carry = np.zeros((n, h))
    for t in range(L - 1, -1, -1):
        i = gates[t][:, :h]
        f = gates[t][:, h : 2 * h]
        g = gates[t][:, 2 * h : 3 * h]
        o = gates[t][:, 3 * h :]
        c_prev = cs[t - 1] if t > 0 else np.zeros((n, h))
        h_prev = hs[t - 1] if t > 0 else np.zeros((n, h))
        tc = np.tanh(cs[t])

        dh = dh_seq[t] + dh_carry
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        dz = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                dh * tc * o * (1.0 - o),
            ],
            axis=1,
        )
        scale = None if mask is None else mask[:, t] / keep_prob
        x = xs[t] if scale is None else xs[t] * scale
        dW += x.T @ dz
        dU += h_prev.T @ dz
        db += dz.sum(axis=0)
        if input_grad:
            dX[t] = dz @ W.T if scale is None else (dz @ W.T) * scale
        dh_carry = dz @ U.T
        dc_carry = dc * f
    return dX, dW, dU, db


def _backward(params: NetworkParams, cache, dpred: np.ndarray, input_grad: bool = False):
    """Gradients of a scalar loss with upstream dpred = dL/dprediction,
    from the cache of `_infer(..., keep=True)`.

    Returns (grads dict keyed like weight_items, dX), dX the (L, n, in)
    gradient of the windows with `input_grad` and None without."""
    X, hs1, cs1, gates1, hs2, cs2, gates2, mask = cache
    n, L, _ = X.shape
    h2 = params.U2.shape[0]

    grads = {}
    grads["Wh"] = hs2[-1].T @ dpred
    grads["bh"] = dpred.sum(axis=0)

    dh2_seq = np.zeros((L, n, h2))
    dh2_seq[-1] = dpred @ params.Wh.T
    # layer 2 read the masked layer-1 outputs, rebuilt step by step, so
    # dh1_seq arrives masked too
    dh1_seq, dW2, dU2, db2 = _layer_backward(
        dh2_seq, hs1, hs2, cs2, gates2, params.W2, params.U2, mask, params.keep_prob,
        input_grad=True,
    )
    grads["W2"], grads["U2"], grads["b2"] = dW2, dU2, db2

    dX, dW1, dU1, db1 = _layer_backward(
        dh1_seq, np.moveaxis(X, 1, 0), hs1, cs1, gates1, params.W1, params.U1,
        input_grad=input_grad,
    )
    grads["W1"], grads["U1"], grads["b1"] = dW1, dU1, db1
    return grads, dX


def _rows(a, W):
    """(n, k) @ (k, m) as n separate (1, k) @ (k, m) products.

    A 2-D product lets BLAS block across rows, which moves the last bits
    of a row with the batch size (the degenerate-ensemble test
    test_degenerate_ensemble_equals_deterministic_bitwise then fails); the
    stacked form gives every row the single-window arithmetic.
    """
    return (a[:, None, :] @ W)[:, 0]


def row_blocks(n: int, most: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the fewest contiguous, near-equal blocks of at
    most `most` rows covering rows [0, n).  Near-equal, so no block of a
    larger stack is a single row, whose plain product (gemv) may round
    differently from the same row in a matrix-matrix product (gemm)."""
    blocks = max(1, -(-n // most))
    return [(n * k // blocks, n * (k + 1) // blocks) for k in range(blocks)]


def _infer(params: NetworkParams, X: np.ndarray, mask: np.ndarray | None, product,
           keep: bool = False):
    """The forward pass over (n, L, in) windows, both layers step by step;
    mask (n, L, h1) is the layer-1 dropout keep-pattern (bool) or None.

    `product(a, W)` computes every matrix product: `_rows` makes row p
    bit-identical to window p run alone, `np.matmul` takes plain 2-D
    products.  Returns the predictions; with `keep`, returns (predictions,
    cache), the cache holding what `_backward` reads: the windows, each
    step's gates, cell and hidden states of both layers, all (L, n, .), and
    the mask, from which the backward rebuilds layer 2's masked inputs.

    A step holds each buffer only while something still reads it: layer
    1's pre-activations go once its cell has run (with `keep`, after its
    gates, cell and hidden state are written to the cache), layer 2's
    input once it has fed layer 2's product, and layer 2's
    pre-activations once its cell has run.
    """
    n, L, _ = X.shape
    h1, h2 = params.hidden
    h1_t, c1_t = np.zeros((n, h1)), np.zeros((n, h1))
    h2_t, c2_t = np.zeros((n, h2)), np.zeros((n, h2))
    if keep:
        gates1, cs1, hs1, gates2, cs2, hs2 = (
            np.empty((L, n, w)) for w in (4 * h1, h1, h1, 4 * h2, h2, h2))
    for t in range(L):
        z1 = product(X[:, t, :], params.W1)
        z1 += product(h1_t, params.U1)
        z1 += params.b1
        h1_t = _cell(z1, c1_t, h1)
        if keep:
            gates1[t], cs1[t], hs1[t] = z1, c1_t, h1_t
        del z1  # each buffer goes once its last reader has run
        if mask is None:
            h1_in = h1_t
        else:  # scaled in place: one (n, h1) temporary a step, not two
            h1_in = mask[:, t, :] / params.keep_prob
            h1_in *= h1_t
        z2 = product(h1_in, params.W2)
        del h1_in
        z2 += product(h2_t, params.U2)
        z2 += params.b2
        h2_t = _cell(z2, c2_t, h2)
        if keep:
            gates2[t], cs2[t], hs2[t] = z2, c2_t, h2_t
        del z2
    pred = product(h2_t, params.Wh) + params.bh
    if not keep:
        return pred
    return pred, (X, hs1, cs1, gates1, hs2, cs2, gates2, mask)


def draw_mask(
    params: NetworkParams, rng: np.random.Generator, n: int, steps: int
) -> np.ndarray | None:
    """Layer-1 dropout keep-pattern, bool (n, steps, h1) with True where a
    unit is kept (uniform draw < keep), or None when the rate is zero."""
    if params.dropout_rate == 0.0:
        return None
    return rng.random((n, steps, params.U1.shape[0])) < params.keep_prob


def forward(
    params: NetworkParams, x: np.ndarray, *, mask: np.ndarray | None = None
) -> np.ndarray:
    """Predict the next step from a stack of windows (n, steps, features),
    with an optional layer-1 dropout keep-pattern, bool (n, steps, h1) as
    `draw_mask` gives it; kept outputs are scaled by 1/keep.

    Deterministic without `mask`.  Each row of a stack gives the same bits
    as that window run alone, because every product is taken row by row on
    a C-order copy (a strided row may take another BLAS path); the
    stochastic ensemble relies on this.
    """
    X = np.ascontiguousarray(x, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.input_dim:
        raise DimensionError(
            f"forward expects (n, steps, {params.input_dim}) windows, got {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite input window")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (*X.shape[:2], params.hidden[0]):
            raise DimensionError(f"dropout mask shape {mask.shape} does not fit the windows")
    pred = _infer(params, X, mask, _rows)
    if not np.all(np.isfinite(pred)):
        raise NumericError("non-finite prediction")
    return pred


def predict(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Deterministic batched predictions for (samples, steps, features).

    Runs the forward loop with plain 2-D products and no caches, the bits
    of the training forward `_infer(..., np.matmul, keep=True)`.  A row's
    bits are not stable across batch sizes: one row goes through a
    matrix-vector product (gemv), more rows through a matrix-matrix
    product (gemm), which may round differently.  Use `forward` where a
    row must equal its window run alone.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise DimensionError("predict expects (samples, steps, features)")
    return _infer(params, X, None, np.matmul)


def input_gradient(
    params: NetworkParams, x: np.ndarray, output_index: int
) -> np.ndarray:
    """Exact gradient of one output component with respect to the window."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DimensionError("input_gradient expects a single window")
    pred, cache = _infer(params, x[None, :, :], None, np.matmul, keep=True)
    dpred = np.zeros_like(pred)
    dpred[0, output_index] = 1.0
    _, dX = _backward(params, cache, dpred, input_grad=True)
    return dX[:, 0]


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over samples of the squared error norm."""
    err = pred - target
    return float(np.mean(np.sum(err * err, axis=1)))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 500
    patience: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainTrace:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    initial_val_mse: float = float("nan")
    best_epoch: int = 0
    best_val_mse: float = float("inf")
    stopped_early: bool = False
    grad_norm: list[float] = field(default_factory=list)  # per epoch, before clipping

    @property
    def epochs_run(self) -> int:
        return len(self.train_mse)

    @property
    def clipped_epochs(self) -> int:  # epochs whose step _clip_global_norm scaled down
        return sum(norm > CLIP_NORM for norm in self.grad_norm)


class _Adam:
    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(a) for k, a in arrays}
        self.v = {k: np.zeros_like(a) for k, a in arrays}
        self.t = 0

    def step(self, params: NetworkParams, grads: dict):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for key, w in params.weight_items():
            g = grads[key]
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            w -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


CLIP_NORM = 5.0  # largest global gradient norm an Adam step takes


def _clip_global_norm(grads: dict) -> float:
    """Scale `grads` to global norm CLIP_NORM at most; returns the norm before."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for g in grads.values():
            g *= scale
    return total


def train(
    X_train: np.ndarray,
    Y_train: np.ndarray,
    X_val: np.ndarray,
    Y_val: np.ndarray,
    config: TrainConfig,
    *,
    hidden: tuple[int, int] = (32, 16),
    dropout_rate: float = 0.2,
) -> tuple[NetworkParams, TrainTrace]:
    """Full-batch Adam from `init_params` weights, each step's gradients
    clipped to global norm CLIP_NORM, with early stopping on the
    validation loss.

    Dropout is active on training forward passes, never on evaluation.
    Stops after `patience` epochs without a new best validation MSE and
    restores the best epoch's weights.  Deterministic under config.seed.
    """
    X_train = np.asarray(X_train, dtype=float)
    Y_train = np.asarray(Y_train, dtype=float)
    X_val = np.asarray(X_val, dtype=float)
    Y_val = np.asarray(Y_val, dtype=float)
    if X_train.shape[0] < 1 or X_val.shape[0] < 1:
        raise ValueError("need at least one training and one validation sample")

    init_seed, mask_seed = np.random.SeedSequence(config.seed).spawn(2)
    params = init_params(
        X_train.shape[2],
        hidden=hidden,
        output_dim=Y_train.shape[1],
        dropout_rate=dropout_rate,
        seed=init_seed,
    )
    mask_rng = np.random.default_rng(mask_seed)

    trace = TrainTrace()
    trace.initial_val_mse = mse(predict(params, X_val), Y_val)
    optimizer = _Adam(params.weight_items(), lr=config.learning_rate)
    best_params = params.copy()
    waiting = 0

    n, steps, _ = X_train.shape
    for epoch in range(1, config.max_epochs + 1):
        mask = draw_mask(params, mask_rng, n, steps)
        pred, cache = _infer(params, X_train, mask, np.matmul, keep=True)
        train_loss = mse(pred, Y_train)
        if not np.isfinite(train_loss):
            raise TrainingError("training loss diverged", epoch=epoch)
        dpred = 2.0 * (pred - Y_train) / n
        grads, _ = _backward(params, cache, dpred)
        # free this epoch's caches before the next epoch's draw and forward
        # allocate theirs, so only one epoch's set is ever alive
        del pred, cache, mask
        trace.grad_norm.append(_clip_global_norm(grads))
        optimizer.step(params, grads)

        val_loss = mse(predict(params, X_val), Y_val)
        trace.train_mse.append(train_loss)
        trace.val_mse.append(val_loss)

        if val_loss < trace.best_val_mse:
            trace.best_val_mse = val_loss
            trace.best_epoch = epoch
            best_params = params.copy()
            waiting = 0
        else:
            waiting += 1
            if waiting >= config.patience:
                trace.stopped_early = True
                break

    return best_params, trace


def dump_network(params: NetworkParams) -> str:
    """The network.json text of `params`."""
    doc = {
        "schema": WEIGHTS_SCHEMA,
        "dropout_rate": params.dropout_rate,
        "shapes": {k: list(getattr(params, k).shape) for k in _WEIGHT_KEYS},
        "weights": {k: getattr(params, k).tolist() for k in _WEIGHT_KEYS},
    }
    return json.dumps(doc)


def parse_network(text: str | bytes) -> NetworkParams:
    """The weights of a network.json text (`dump_network`), shape-checked."""
    doc = json.loads(text)
    if doc.get("schema") != WEIGHTS_SCHEMA:
        raise DimensionError(
            f"unsupported network schema {doc.get('schema')!r}; expected {WEIGHTS_SCHEMA}"
        )
    weights = {}
    for key in _WEIGHT_KEYS:
        arr = np.asarray(doc["weights"][key], dtype=float)
        want = tuple(doc["shapes"][key])
        if arr.shape != want:
            raise DimensionError(f"{key} shape {arr.shape} does not match metadata {want}")
        weights[key] = arr
    return NetworkParams(**weights, dropout_rate=float(doc["dropout_rate"]))
