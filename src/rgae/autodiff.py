"""Minimal reverse-mode tape over dense float64 matrices.

Every operation computes its value eagerly, checks it is finite, and records
a closure that routes the incoming gradient to its operands. backward() walks
the tape once in strict reverse insertion order, so gradient accumulation is
deterministic and two identical passes give bit-identical results.

A node's gradient buffer is its own: backward() passes it to the node's pull
and then drops it, so the pull may overwrite it, and a pull hands an array it
built or its own buffer to an operand with _take. add and concat_cols share
one array among operands and copy it with _accumulate. Leaves start from
zeros, so leaf gradients are unchanged; only an interior gradient may keep a
-0.0 where a copy into zeros would give +0.0. sigmoid, balanced_bce and the
gram pull walk n-by-n arrays in row blocks with the per-entry arithmetic and
whole-array sums of whole-array code, so results match it bit for bit.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import graph as _graph
from .errors import NonScalarRoot, NumericalOverflow, ReleasedTape, ShapeMismatch
from .graph import NormalizedAdjacency, SparseAdjacency

CLAMP_EPS = 1e-12
# entries per row block of a decoder op: 512 KiB of float64 stays in L2 (65 rows at n = 1000)
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(shape) -> list:
    """Row slices covering an array of this shape, each of at most _BLOCK_ELEMENTS entries or one row."""
    step = max(1, _BLOCK_ELEMENTS // max(1, shape[1]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


class Tensor:
    """One tape node: a dense matrix value, a gradient slot, and a weak reference to its tape.

    After backward() the slot holds a gradient on every leaf and None on every interior node.
    """

    __slots__ = ("value", "grad", "_tape", "index", "_pull")

    def __init__(self, value, tape, index, pull):
        self.value = value
        self.grad = None
        self._tape = weakref.ref(tape)
        self.index = index
        self._pull = pull

    @property
    def tape(self) -> "Tape":
        """The recording tape; every op and backward() raise ReleasedTape once it is gone."""
        tape = self._tape()
        if tape is None:
            raise ReleasedTape("the tape that recorded this node has been released")
        return tape

    def _accumulate(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def _take(self, g) -> None:
        """_accumulate for an array of this node's shape that nothing else holds: the first one becomes the gradient."""
        self.grad = g if self.grad is None else np.add(self.grad, g, out=self.grad)

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Append-only operation record, sole owner of its nodes; operands precede their consumers."""

    def __init__(self):
        self._nodes: list[Tensor] = []

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
        node = Tensor(value, self, len(self._nodes), pull)
        self._nodes.append(node)
        return node

    def backward(self, root: Tensor) -> None:
        """Fill every leaf's gradient with d(root)/d(leaf); root must be 1x1.

        An interior node's gradient comes from its first contribution and is dropped after its pull.
        """
        if root.tape is not self:
            raise ShapeMismatch("root was recorded on a different tape")
        if root.shape != (1, 1):
            raise NonScalarRoot(f"backward needs a 1x1 root, got {root.shape}")
        for node in self._nodes:
            node.grad = np.zeros_like(node.value) if node._pull is None else None
        root._accumulate(np.ones((1, 1)))
        for node in reversed(self._nodes[: root.index + 1]):
            if node._pull is not None and node.grad is not None:
                node._pull(node.grad)
                node.grad = None


def scalar(t: Tensor) -> float:
    if t.shape != (1, 1):
        raise NonScalarRoot(f"expected a 1x1 node, got {t.shape}")
    return float(t.value[0, 0])


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ShapeMismatch("operands were recorded on different tapes")
    return tape


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


def _sigmoid_values(x: np.ndarray, out=None) -> np.ndarray:
    """Overflow-free logistic: e = exp(-|x|) <= 1, then max(e, x >= 0) / (1 + e), i.e. e/(1+e) where x < 0."""
    e = np.abs(x, out=out)
    np.exp(np.negative(e, out=e), out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denom, out=e)


def sigmoid(a: Tensor) -> Tensor:
    value = np.empty_like(a.value)
    blocks = _row_blocks(value.shape)
    for b in blocks:
        _sigmoid_values(a.value[b], out=value[b])

    def pull(g):
        for b in blocks:
            gb = g[b]
            gb *= value[b]
            gb *= 1.0 - value[b]
        a._take(g)

    return a.tape._record(value, pull)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"cannot concatenate {a.shape} with {b.shape}")
    value = np.concatenate([a.value, b.value], axis=1)
    split = a.shape[1]

    def pull(g):
        a._accumulate(g[:, :split])
        b._accumulate(g[:, split:])

    return tape._record(value, pull)


def gram(a: Tensor) -> Tensor:
    value = a.value @ a.value.T

    def pull(g):
        # g += g.T in place by row bands; band b reads and writes only row b and column b from i on
        for b in _row_blocks(g.shape):
            i = b.start
            t = g[b, i:] + g[i:, b].T
            g[b, i:] = t
            g[i:, b] = t.T
        a._take(g @ a.value)

    return a.tape._record(value, pull)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner product, returned as a column vector."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"row_dot needs equal shapes, got {a.shape} and {b.shape}")
    value = np.sum(a.value * b.value, axis=1, keepdims=True)

    def pull(g):
        a._take(g * b.value)
        b._take(g * a.value)

    return tape._record(value, pull)


def sq_frobenius(a: Tensor) -> Tensor:
    value = np.array([[np.sum(a.value * a.value)]])

    def pull(g):
        a._take((2.0 * g[0, 0]) * a.value)

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
        a._accumulate(g)
        b._accumulate(g)

    return tape._record(value, pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    value = c * a.value

    def pull(g):
        a._take(c * g)

    return a.tape._record(value, pull)


def _clamp(x, out=None):
    """x limited to [CLAMP_EPS, 1 - CLAMP_EPS], entry for entry as np.clip but without its wrapper cost per block."""
    return np.minimum(np.maximum(x, CLAMP_EPS, out=out), 1.0 - CLAMP_EPS, out=out)


def balanced_bce(probs: Tensor, adj: SparseAdjacency) -> Tensor:
    """Entrywise log-loss against the binarized adjacency with a unit diagonal.

    The target positions T are the stored entries plus the diagonal; they are
    weighted by (n^2 - |T|) / |T|, the ratio of zero to nonzero target entries.
    Probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before the logs;
    where the clamp is active the gradient is zero.
    """
    n = adj.n
    if probs.shape != (n, n):
        raise ShapeMismatch(f"reconstruction must be ({n}, {n}), got {probs.shape}")
    diag = np.arange(n, dtype=np.int64)
    t_idx = (np.concatenate([adj.rows, diag]), np.concatenate([adj.col_indices, diag]))
    positives = adj.nnz + n
    pos_weight = (n * n - positives) / positives
    p = probs.value
    p_t = _clamp(p[t_idx])
    blocks = _row_blocks(p.shape)
    log1m = np.empty_like(p)
    for b in blocks:
        blk = _clamp(p[b], out=log1m[b])
        np.log1p(np.negative(blk, out=blk), out=blk)
    total = -(pos_weight * np.sum(np.log(p_t)) + np.sum(log1m) - np.sum(log1m[t_idx]))

    # the pull redoes the clamp and the mask so that no n x n array outlives the forward pass
    def pull(g):
        on_target = -pos_weight / p_t
        dp = np.empty_like(p)
        for b in blocks:
            r0, r1 = b.start, min(b.stop, n)
            blk = _clamp(p[b], out=dp[b])
            np.divide(1.0, np.subtract(1.0, blk, out=blk), out=blk)
            # the block's stored entries in CSR order, then its diagonal, as in t_idx
            s = slice(adj.row_offsets[r0], adj.row_offsets[r1])
            blk[adj.rows[s] - r0, adj.col_indices[s]] = on_target[s]
            blk[diag[: r1 - r0], diag[r0:r1]] = on_target[adj.nnz + r0 : adj.nnz + r1]
            blk *= g[0, 0]
            blk *= (p[b] > CLAMP_EPS) & (p[b] < 1.0 - CLAMP_EPS)
        probs._take(dp)

    return probs.tape._record(np.array([[total]]), pull)
