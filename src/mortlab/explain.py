"""Attribution tools: temporal saliency and Shapley-value feature influence.

Temporal saliency averages exact absolute input gradients across features
and samples to isolate how much each lag of the window drives a chosen
output, normalized to percentages.

The Shapley explainer treats the flattened window (lag-major) as the
feature vector.  Missing features are replaced by the mean background
window, a single-reference simplification that keeps every coalition at
one model evaluation.  Coalitions are sampled from the Shapley kernel and
attributions solved by constrained least squares, so the efficiency
identity base + sum(phi) = f(x) holds by construction.  A budget covering
every proper coalition (2^d - 2 or more) runs exact enumeration with
factorial weights instead, since Kernel SHAP over all coalitions gives the
exact Shapley values (Lundberg & Lee 2017); its 2^d outputs cost less than
the n x d draw of that budget.

Both paths evaluate the coalitions in the blocks of
`lstm.row_blocks(n, BLOCK)`, so the model's working set is bounded
whatever the budget or 2^d is.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
import numpy as np

from .errors import DimensionError, RankError
from .lstm import NetworkParams, input_gradient, row_blocks

BLOCK = 256  # most coalition rows handed to the model at once


@dataclass(frozen=True)
class ShapReport:
    """Raw per-sample attributions (samples, lag*features) plus the shared
    base value and per-sample model outputs."""

    phi: np.ndarray
    base_value: float
    fx: np.ndarray
    lookback: int
    n_features: int


def temporal_saliency(
    model: NetworkParams, windows: np.ndarray, output_index: int = 0
) -> np.ndarray:
    """Percentage importance of each lag for one output component.

    Per sample, the exact gradient of the output with respect to the input
    window is taken, absolute values are averaged over features, then over
    samples, and the profile is normalized to sum to 100.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3:
        raise DimensionError("windows must be (samples, lookback, features)")
    per_lag = np.zeros(windows.shape[1])
    for x in windows:
        g = input_gradient(model, x, output_index)
        per_lag += np.abs(g).mean(axis=1)
    per_lag /= windows.shape[0]
    total = per_lag.sum()
    if total == 0.0:
        raise DimensionError("saliency is identically zero; cannot normalize")
    return 100.0 * per_lag / total


def kernel_shap(
    fn,
    background: np.ndarray,
    X_test: np.ndarray,
    *,
    n_coalitions: int | None = None,
    seed: int = 0,
) -> ShapReport:
    """Shapley attributions of one output over flattened input windows.

    `fn` maps (n, L, F) windows to (n,) outputs, one per window; for output
    j of a network, pass `lambda W: predict(net, W)[:, j]`.  The default
    budget is 2*d + 2048 coalitions.  A budget of 2^d - 2 or more gives the
    exact values by enumeration and draws nothing from the generator.  A
    smaller one is sampled and must be at least d - 1, or the least-squares
    system is always singular: RankError, raised before `fn` is evaluated.
    """
    background = np.asarray(background, dtype=float)
    X_test = np.asarray(X_test, dtype=float)
    if background.ndim != 3 or X_test.ndim != 3:
        raise DimensionError("background and test windows must be 3-d")
    if background.shape[0] < 1:
        raise ValueError("background must be non-empty")
    n_test, lookback, n_feat = X_test.shape
    d = lookback * n_feat
    if n_coalitions is None:
        n_coalitions = 2 * d + 2048
    exact = n_coalitions >= 2**d - 2
    if not exact and n_coalitions < d - 1:
        raise RankError(f"{n_coalitions} sampled coalitions cannot determine {d} "
                        f"attributions; the budget must be at least {d - 1}")

    b_flat = background.reshape(background.shape[0], d).mean(axis=0)
    base = float(fn(b_flat.reshape(1, lookback, n_feat))[0])
    phi = np.empty((n_test, d))
    fx = np.empty(n_test)
    rng = np.random.default_rng(seed)
    for t, x in enumerate(X_test):
        x_flat = x.reshape(d)
        fx[t] = float(fn(x.reshape(1, lookback, n_feat))[0])
        if exact:
            phi[t] = _exact_shapley(fn, x_flat, b_flat, lookback, n_feat)
        else:
            phi[t] = _kernel_wls(
                fn, x_flat, b_flat, lookback, n_feat, fx[t], base, n_coalitions, rng
            )
    return ShapReport(
        phi=phi, base_value=base, fx=fx, lookback=lookback, n_features=n_feat
    )


def _eval_masked(fn, n, mask_rows, x_flat, b_flat, lookback, n_feat):
    """Model outputs at `n` coalitions, `mask_rows(lo, hi)` giving the
    boolean masks of rows [lo, hi): present features from x, absent ones
    from the background mean, built and evaluated one block at a time."""
    out = np.empty(n)
    for lo, hi in row_blocks(n, BLOCK):
        points = np.where(mask_rows(lo, hi), x_flat, b_flat)
        out[lo:hi] = fn(points.reshape(hi - lo, lookback, n_feat))
    return out


def _exact_shapley(fn, x_flat, b_flat, lookback, n_feat):
    """Direct enumeration of all coalitions with factorial weights."""
    d = x_flat.size
    idx = np.arange(2**d, dtype=np.int64)
    bits = np.arange(d)
    fvals = _eval_masked(fn, idx.size, lambda lo, hi: (idx[lo:hi, None] >> bits) & 1 == 1,
                         x_flat, b_flat, lookback, n_feat)
    sizes = sum((idx >> j) & 1 for j in bits)
    fact = [math.factorial(i) for i in range(d + 1)]
    w_by_size = np.array(
        [fact[s] * fact[d - 1 - s] / fact[d] for s in range(d)]
    )
    phi = np.empty(d)
    for j in range(d):
        without = idx[(idx >> j) & 1 == 0]
        w = w_by_size[sizes[without]]
        phi[j] = float(np.sum(w * (fvals[without | (1 << j)] - fvals[without])))
    return phi


def _kernel_coalitions(d, n_coalitions, rng):
    """`n_coalitions` proper coalitions (never empty or full) as 0/1 rows:
    sizes drawn from the Shapley-kernel distribution, subsets uniformly."""
    sizes = np.arange(1, d)
    size_p = (d - 1) / (sizes * (d - sizes))
    size_p = size_p / size_p.sum()
    drawn = rng.choice(sizes, size=n_coalitions, p=size_p)
    # one shuffle per row, drawn in row order exactly as a per-row
    # rng.permutation(d) would, BLOCK rows at a time so only Z grows with
    # the budget; row r's first drawn[r] entries join it
    Z = np.zeros((n_coalitions, d))
    for lo in range(0, n_coalitions, BLOCK):
        block = drawn[lo:lo + BLOCK, None]
        perms = rng.permuted(np.tile(np.arange(d), (block.shape[0], 1)), axis=1)
        np.put_along_axis(Z[lo:lo + BLOCK], perms, np.arange(d) < block, axis=1)
    return Z


def _kernel_wls(fn, x_flat, b_flat, lookback, n_feat, fx, base, n_coalitions, rng):
    d = x_flat.size
    Z = _kernel_coalitions(d, n_coalitions, rng)
    fvals = _eval_masked(fn, Z.shape[0], lambda lo, hi: Z[lo:hi] != 0.0,
                         x_flat, b_flat, lookback, n_feat)
    y = fvals - base

    # eliminate the efficiency constraint sum(phi) = fx - base via the last
    # feature; the full and empty coalitions reduce to zero rows under this
    # substitution, which is why they never need to be sampled
    y_adj = y - Z[:, -1] * (fx - base)
    # Zt = Z[:, :-1] - Z[:, [-1]], written C-ordered over Z's own buffer one
    # block at a time (a block's output ends before the next block's rows
    # begin), so no second n x d array is ever alive; the strided view
    # Z[:, :-1] would move the bits of rhs at d <= 4
    Zt = Z.reshape(-1)[: n_coalitions * (d - 1)].reshape(n_coalitions, d - 1)
    for lo in range(0, n_coalitions, BLOCK):
        Zt[lo:lo + BLOCK] = Z[lo:lo + BLOCK, :-1] - Z[lo:lo + BLOCK, [-1]]
    # the sampled kernel weights are all one, so least squares is unweighted
    A = Zt.T @ Zt
    rhs = Zt.T @ y_adj
    try:
        rest = np.linalg.solve(A, rhs)
        if not np.all(np.isfinite(rest)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        warnings.warn(
            "singular Shapley WLS system; falling back to ridge 1e-8",
            RuntimeWarning,
        )
        rest = np.linalg.solve(A + 1e-8 * np.eye(d - 1), rhs)
    phi = np.empty(d)
    phi[:-1] = rest
    phi[-1] = (fx - base) - rest.sum()
    return phi


def aggregate_country_influence(report: ShapReport) -> np.ndarray:
    """One influence score per factor: mean over samples and lags of the
    absolute attributions."""
    reshaped = np.abs(report.phi).reshape(
        report.phi.shape[0], report.lookback, report.n_features
    )
    return reshaped.mean(axis=(0, 1))
