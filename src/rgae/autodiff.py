"""The tape of one training pass, its weight leaves and one 1x1 loss, and the decoder's three steps.

model.run_model records every weight as a leaf, then the total loss with a
pull that is the model's backward, written out. backward() fills each leaf's
gradient with zeros and runs the pull once, which adds each leaf's gradient
into it in place.

The decoder's steps, gram, sigmoid and balanced_bce, take and return nodes
that no tape records and work in row blocks on one n-by-n buffer: the Gram
matrix, then the probabilities, then the gradient with respect to the
logits, which the loss's one sweep leaves behind (model.reconstruction_loss
takes it). Their per-entry arithmetic and whole-array sums are those of the
decoder recorded op by op, so results match it bit for bit, for logits of at
least 0: the encoders end in a relu, so their outputs and inner products are
nonnegative.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalOverflow, ShapeMismatch, TapeError
from .graph import SparseAdjacency

CLAMP_EPS = 1e-12
# rows per block of the decoder's sweeps: 2^15 entries, a quarter MiB of float64, at n = 1000
_BLOCK_ROWS = 32


class Tensor:
    """A dense matrix value and a gradient slot, which backward() fills on a tape's leaves."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


class Tape:
    """The weight leaves of one pass and its 1x1 loss; len() counts both."""

    def __init__(self):
        self._leaves: list[Tensor] = []
        self._loss = None
        self._pull = None

    def __len__(self) -> int:
        return len(self._leaves) + (self._loss is not None)

    def leaf(self, value) -> Tensor:
        value = np.array(value, dtype=np.float64, copy=True)
        if value.ndim != 2:
            raise ShapeMismatch(f"tape values must be 2-D, got shape {value.shape}")
        if not np.all(np.isfinite(value)):
            raise NumericalOverflow("non-finite value entering the tape")
        node = Tensor(value)
        self._leaves.append(node)
        return node

    def loss(self, total: float, pull) -> Tensor:
        """Record the 1x1 loss; pull() adds d(loss)/d(leaf) into each leaf's gradient."""
        if self._loss is not None:
            raise TapeError("a tape records one loss")
        self._loss, self._pull = Tensor(np.array([[total]])), pull
        return self._loss

    def backward(self, root: Tensor) -> None:
        """Fill every leaf's gradient with d(root)/d(leaf); root must be this tape's loss."""
        if self._loss is None or root is not self._loss:
            raise TapeError("backward runs from the loss this tape recorded")
        for node in self._leaves:
            node.grad = np.zeros_like(node.value)
        self._pull()


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: e = exp(-|x|) <= 1, then max(e, x >= 0) / (1 + e), i.e. e/(1+e) where x < 0."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denom, out=e)


def gram(a: Tensor, b: Tensor, out=None) -> Tensor:
    """Z Z^T for Z = [a | b], the columns of the two operands joined, in a node off the tape; out may hold it.

    numpy computes z @ z.T as a symmetric rank-k update and mirrors one triangle, so the value is exactly symmetric.
    sigmoid, which reads it block by block, checks that it is finite.
    """
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeMismatch(f"cannot join the columns of {a.value.shape} and {b.value.shape}")
    z = np.concatenate([a.value, b.value], axis=1)
    return Tensor(np.matmul(z, z.T, out=out))


def sigmoid(x: Tensor) -> Tensor:
    """x, with the logistic 1 / (1 + exp(-x)) of its logits written over them; the logits must be at least 0.

    For x >= 0, -0.0 included, this is _sigmoid_values bit for bit, and the probabilities lie in [1/2, 1].
    A block holding NaN or +inf, whose max is then not finite, raises NumericalOverflow before it is overwritten.
    """
    for r in range(0, len(x.value), _BLOCK_ROWS):
        blk = x.value[r : r + _BLOCK_ROWS]
        if not np.isfinite(blk.max()):
            raise NumericalOverflow("non-finite Gram matrix")
        np.exp(np.negative(blk, out=blk), out=blk)
        blk += 1.0
        np.divide(1.0, blk, out=blk)
    return x


def balanced_bce(probs: Tensor, adj: SparseAdjacency, out=None) -> Tensor:
    """The 1x1 entrywise log-loss against the binarized adjacency with a unit diagonal, in a node off the tape.

    The target positions T are the stored entries plus the diagonal; they are
    weighted by (n^2 - |T|) / |T|, the ratio of zero to nonzero target entries.
    Probabilities are clamped to at most 1 - CLAMP_EPS before the logs; where
    the clamp is active the gradient is zero. They must be at least 1/2, as
    sigmoid's are, so no lower clamp is needed.

    The one sweep also overwrites probs.value with 2 dL/dx, twice the
    gradient with respect to the logits. That gradient g is exactly symmetric,
    so 2g is g + g^T and the gradient with respect to Z of gram's Z Z^T is
    probs.value @ Z. out may hold the n x n log terms, kept whole for one sum.
    """
    n = adj.n
    p = probs.value
    if p.shape != (n, n):
        raise ShapeMismatch(f"reconstruction must be ({n}, {n}), got {p.shape}")
    diag = np.arange(n, dtype=np.int64)
    positives = adj.nnz + n
    pos_weight = (n * n - positives) / positives
    top = 1.0 - CLAMP_EPS
    # the clamped probabilities at the stored entries in CSR order, then at the diagonal
    p_t = np.empty(positives)
    logs = np.empty_like(p) if out is None else out
    for r0 in range(0, n, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n)
        pb = p[r0:r1]
        s, d_t = slice(adj.row_offsets[r0], adj.row_offsets[r1]), slice(adj.nnz + r0, adj.nnz + r1)
        stored, own = (adj.rows[s] - r0, adj.col_indices[s]), (diag[: r1 - r0], diag[r0:r1])
        c = np.minimum(pb, top, out=logs[r0:r1])
        p_t[s], p_t[d_t] = c[stored], c[own]
        d = np.subtract(1.0, c)
        np.divide(1.0, d, out=d)
        np.log1p(np.negative(c, out=c), out=c)
        d[stored], d[own] = -pos_weight / p_t[s], -pos_weight / p_t[d_t]
        if pb.max() >= top:
            np.multiply(d, 0.0, out=d, where=pb >= top)
        d *= pb
        d *= 1.0 - pb
        np.multiply(d, 2.0, out=pb)
    t_idx = (np.concatenate([adj.rows, diag]), np.concatenate([adj.col_indices, diag]))
    return Tensor(np.array([[-(pos_weight * np.sum(np.log(p_t)) + np.sum(logs) - np.sum(logs[t_idx]))]]))
