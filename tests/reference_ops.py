"""Reference ops for the tests: the primitive tape ops the model was once composed of, and whole-array decoder ops.

matmul, spmm, relu, concat_cols, gram, sub, add and scale are the ops that
rgae.autodiff's graph_conv, gram and lincomb replace, kept as they were, with
the copying hand-over rule _accumulate that add and concat_cols used. The
whole-array sigmoid, gram and balanced_bce do in one pass what the row-blocked
ops do block by block. use_reference_ops swaps all of them in for the package
ops, so a test can compare outputs and gradients byte for byte.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

import rgae.autodiff as ad
from rgae import graph as _graph
from rgae.autodiff import Tensor, _same_tape
from rgae.errors import ShapeMismatch
from rgae.graph import NormalizedAdjacency, SparseAdjacency


def _accumulate(self, g) -> None:
    """The copying hand-over rule: the gradient starts from zeros and adds a copy of every contribution.

    The zeros take their shape from the contribution, since a node's value may be released (the decoder's gram).
    """
    if self.grad is None:
        self.grad = np.zeros_like(g)
    self.grad += g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    value = a.value @ b.value

    def pull(g):
        a._take(g @ b.value.T)
        b._take(a.value.T @ g)

    return tape._record(value, pull)


def spmm(norm: NormalizedAdjacency, b: Tensor) -> Tensor:
    """Sparse-dense product with the sparse operand held constant."""
    if b.shape[0] != norm.n:
        raise ShapeMismatch(f"dense operand must have {norm.n} rows, got {b.shape[0]}")
    value = _graph.spmm(norm, b.value)

    def pull(g):
        # the normalized matrix is symmetric, so its transpose product reuses spmm
        b._take(_graph.spmm(norm, g))

    return b.tape._record(value, pull)


def relu(a: Tensor) -> Tensor:
    value = np.maximum(a.value, 0.0)

    def pull(g):
        a._take(g * (a.value > 0.0))

    return a.tape._record(value, pull)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"cannot concatenate {a.shape} with {b.shape}")
    value = np.concatenate([a.value, b.value], axis=1)
    split = a.shape[1]

    def pull(g):
        _accumulate(a, g[:, :split])
        _accumulate(b, g[:, split:])

    return tape._record(value, pull)


def gram(a: Tensor) -> Tensor:
    value = a.value @ a.value.T

    def pull(g):
        # g += g.T in place by row bands; band b reads and writes only row b and column b from i on
        for b in ad._row_blocks(g.shape):
            i = b.start
            t = g[b, i:] + g[i:, b].T
            g[b, i:] = t
            g[i:, b] = t.T
        a._take(g @ a.value)

    return a.tape._record(value, pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot subtract {b.shape} from {a.shape}")
    value = a.value - b.value

    def pull(g):
        a._take(g)
        b._take(-g)

    return tape._record(value, pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot add {a.shape} and {b.shape}")
    value = a.value + b.value

    def pull(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return tape._record(value, pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    value = c * a.value

    def pull(g):
        a._take(c * g)

    return a.tape._record(value, pull)


def encode(norm: NormalizedAdjacency, weights: list) -> Tensor:
    """One encoder stack as spmm, matmul and relu nodes."""
    h = relu(spmm(norm, weights[0]))
    for w in weights[1:]:
        h = relu(matmul(spmm(norm, h), w))
    return h


def whole_array_sigmoid_values(x):
    """The whole-array logistic that the blocked sigmoid forward must repeat entry for entry."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denom, out=e)


def whole_array_sigmoid(a):
    """sigmoid as one whole-array pass each way, accumulating a copy of its gradient."""
    value = whole_array_sigmoid_values(a.value)

    def pull(g):
        _accumulate(a, g * value * (1.0 - value))

    return a.tape._record(value, pull)


def whole_array_gram(a):
    """gram of one operand with its pull through the fresh symmetric array (g + g.T)."""
    value = a.value @ a.value.T

    def pull(g):
        _accumulate(a, (g + g.T) @ a.value)

    return a.tape._record(value, pull)


def whole_array_balanced_bce(probs, adj: SparseAdjacency):
    """balanced_bce with whole-array np.clip, a gradient built from full-size masks, and a copy accumulated."""
    n = adj.n
    diag = np.arange(n, dtype=np.int64)
    t_idx = (np.concatenate([adj.rows, diag]), np.concatenate([adj.col_indices, diag]))
    positives = adj.nnz + n
    pos_weight = (n * n - positives) / positives
    log1m = np.clip(probs.value, ad.CLAMP_EPS, 1.0 - ad.CLAMP_EPS)
    p_t = log1m[t_idx]
    np.log1p(np.negative(log1m, out=log1m), out=log1m)
    total = -(pos_weight * np.sum(np.log(p_t)) + np.sum(log1m) - np.sum(log1m[t_idx]))

    def pull(g):
        dp = np.clip(probs.value, ad.CLAMP_EPS, 1.0 - ad.CLAMP_EPS)
        np.divide(1.0, np.subtract(1.0, dp, out=dp), out=dp)
        dp[t_idx] = -pos_weight / p_t
        dp *= g[0, 0]
        dp *= (probs.value > ad.CLAMP_EPS) & (probs.value < 1.0 - ad.CLAMP_EPS)
        _accumulate(probs, dp)

    return probs.tape._record(np.array([[total]]), pull)


def graph_conv(norm, h, w=None):
    """rgae.autodiff.graph_conv as the relu of an spmm node, with a matmul node in between when w is given."""
    x = spmm(norm, h)
    return relu(x if w is None else matmul(x, w))


def joined_gram(a, b):
    """rgae.autodiff.gram as whole_array_gram of a concat_cols node."""
    return whole_array_gram(concat_cols(a, b))


def lincomb(terms, coeffs):
    """rgae.autodiff.lincomb as a left fold of add over scale nodes."""
    return reduce(add, [scale(t, c) for t, c in zip(terms, coeffs, strict=True)])


def use_reference_ops(monkeypatch):
    """Swap the package ops for the reference compositions and make every pull accumulate a copy."""
    monkeypatch.setattr(ad, "graph_conv", graph_conv)
    monkeypatch.setattr(ad, "gram", joined_gram)
    monkeypatch.setattr(ad, "lincomb", lincomb)
    monkeypatch.setattr(ad, "sigmoid", whole_array_sigmoid)
    monkeypatch.setattr(ad, "balanced_bce", whole_array_balanced_bce)
    monkeypatch.setattr(ad.Tensor, "_take", _accumulate)
