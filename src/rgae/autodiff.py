"""Minimal reverse-mode tape over dense float64 matrices, and the decoder's three steps off the tape.

model.run_model records the weight leaves and one 1x1 loss node whose pull
is the model's written-out backward. backward() walks the tape once in strict
reverse insertion order, so two identical passes give bit-identical results.
Tensor._take is the one hand-over rule: a pull may overwrite the gradient
buffer it is passed, and hands each operand an array no other operand holds.
Leaves start from zeros, so leaf gradients equal those of copying every
contribution.

The decoder's steps, gram, sigmoid and balanced_bce, pass nodes off the tape
and work in row blocks on one n-by-n buffer: the Gram matrix, then the
probabilities, then the gradient with respect to the logits, which the
loss's one sweep leaves behind (model.reconstruction_loss takes it). Their
per-entry arithmetic and whole-array sums are those of the decoder recorded
op by op, so results match it bit for bit, for logits of at least 0: the
encoders end in a relu, so their outputs and inner products are nonnegative.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import NonScalarRoot, NumericalOverflow, ShapeMismatch
from .graph import SparseAdjacency

CLAMP_EPS = 1e-12
# rows per block of the decoder's sweeps: 2^15 entries, a quarter MiB of float64, at n = 1000
_BLOCK_ROWS = 32


class Tensor:
    """One node: a dense matrix value, a gradient slot, and the tape that recorded it, kept alive (None off the tape).

    After backward() the slot holds a gradient on every leaf and None on every interior node.
    """

    __slots__ = ("value", "grad", "tape", "_pull", "__weakref__")

    def __init__(self, value, tape=None, pull=None):
        self.value = value
        self.grad = None
        self.tape = tape
        self._pull = pull

    def _take(self, g) -> None:
        """Add an array of this node's shape that no other node holds: the first one becomes the gradient."""
        self.grad = g if self.grad is None else np.add(self.grad, g, out=self.grad)

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Append-only record of weakly held nodes, operands before their consumers; len() counts dropped ones too."""

    def __init__(self):
        self._nodes: list[weakref.ref] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def leaf(self, value) -> Tensor:
        value = np.array(value, dtype=np.float64, copy=True)
        if value.ndim != 2:
            raise ShapeMismatch(f"tape values must be 2-D, got shape {value.shape}")
        return self._record(value, None)

    def _record(self, value, pull) -> Tensor:
        if not np.all(np.isfinite(value)):
            raise NumericalOverflow("non-finite value entering the tape")
        node = Tensor(value, self, pull)
        self._nodes.append(weakref.ref(node))
        return node

    def backward(self, root: Tensor) -> None:
        """Fill every leaf's gradient with d(root)/d(leaf); root must be 1x1.

        An interior node's gradient is its first contribution, dropped after its pull.
        """
        if root.tape is not self:
            raise ShapeMismatch("root was recorded on a different tape")
        if root.shape != (1, 1):
            raise NonScalarRoot(f"backward needs a 1x1 root, got {root.shape}")
        nodes = [node for node in (ref() for ref in self._nodes) if node is not None]
        for node in nodes:
            node.grad = np.zeros_like(node.value) if node._pull is None else None
        root._take(np.ones((1, 1)))
        for node in reversed(nodes):
            if node._pull is not None and node.grad is not None:
                node._pull(node.grad)
                node.grad = None


def scalar(t: Tensor) -> float:
    if t.shape != (1, 1):
        raise NonScalarRoot(f"expected a 1x1 node, got {t.shape}")
    return float(t.value[0, 0])


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
    """
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"cannot join the columns of {a.shape} and {b.shape}")
    z = np.concatenate([a.value, b.value], axis=1)
    value = np.matmul(z, z.T, out=out)
    if not np.all(np.isfinite(value)):
        raise NumericalOverflow("non-finite Gram matrix")
    return Tensor(value)


def sigmoid(x: Tensor) -> Tensor:
    """x, with the logistic 1 / (1 + exp(-x)) of its logits written over them; the logits must be at least 0.

    For x >= 0, -0.0 included, this is _sigmoid_values bit for bit, and the probabilities lie in [1/2, 1].
    """
    for r in range(0, x.shape[0], _BLOCK_ROWS):
        blk = x.value[r : r + _BLOCK_ROWS]
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
        np.multiply(d, 0.0, out=d, where=pb >= top)
        d *= pb
        d *= 1.0 - pb
        np.multiply(d, 2.0, out=pb)
    t_idx = (np.concatenate([adj.rows, diag]), np.concatenate([adj.col_indices, diag]))
    return Tensor(np.array([[-(pos_weight * np.sum(np.log(p_t)) + np.sum(logs) - np.sum(logs[t_idx]))]]))
