"""Minimal reverse-mode tape over dense float64 matrices.

Every operation computes its value eagerly, checks it is finite, and records
a closure that routes the incoming gradient to its operands. backward() walks
the tape once in strict reverse insertion order, so gradient accumulation is
deterministic and two identical passes give bit-identical results.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import graph as _graph
from .errors import NonScalarRoot, NumericalOverflow, ReleasedTape, ShapeMismatch
from .graph import NormalizedAdjacency, SparseAdjacency

CLAMP_EPS = 1e-12


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

        An interior node's gradient is allocated at its first accumulation, dropped after its pull.
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
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    return tape._record(value, pull)


def spmm(norm: NormalizedAdjacency, b: Tensor) -> Tensor:
    """Sparse-dense product with the sparse operand held constant."""
    if b.shape[0] != norm.n:
        raise ShapeMismatch(f"dense operand must have {norm.n} rows, got {b.shape[0]}")
    value = _graph.spmm(norm, b.value)

    def pull(g):
        # the normalized matrix is symmetric, so its transpose product reuses spmm
        b._accumulate(_graph.spmm(norm, g))

    return b.tape._record(value, pull)


def relu(a: Tensor) -> Tensor:
    value = np.maximum(a.value, 0.0)

    def pull(g):
        a._accumulate(g * (a.value > 0.0))

    return a.tape._record(value, pull)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: e = exp(-|x|) <= 1, then max(e, x >= 0) / (1 + e), i.e. e/(1+e) where x < 0."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denom, out=e)


def sigmoid(a: Tensor) -> Tensor:
    value = _sigmoid_values(a.value)

    def pull(g):
        a._accumulate(g * value * (1.0 - value))

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
        a._accumulate((g + g.T) @ a.value)

    return a.tape._record(value, pull)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner product, returned as a column vector."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"row_dot needs equal shapes, got {a.shape} and {b.shape}")
    value = np.sum(a.value * b.value, axis=1, keepdims=True)

    def pull(g):
        a._accumulate(g * b.value)
        b._accumulate(g * a.value)

    return tape._record(value, pull)


def sq_frobenius(a: Tensor) -> Tensor:
    value = np.array([[np.sum(a.value * a.value)]])

    def pull(g):
        a._accumulate((2.0 * g[0, 0]) * a.value)

    return a.tape._record(value, pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot subtract {b.shape} from {a.shape}")
    value = a.value - b.value

    def pull(g):
        a._accumulate(g)
        b._accumulate(-g)

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
        a._accumulate(c * g)

    return a.tape._record(value, pull)


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
    log1m = np.clip(probs.value, CLAMP_EPS, 1.0 - CLAMP_EPS)
    p_t = log1m[t_idx]
    np.log1p(np.negative(log1m, out=log1m), out=log1m)
    total = -(pos_weight * np.sum(np.log(p_t)) + np.sum(log1m) - np.sum(log1m[t_idx]))

    # the pull redoes the clip and the mask so that no n x n array outlives the forward pass
    def pull(g):
        dp = np.clip(probs.value, CLAMP_EPS, 1.0 - CLAMP_EPS)
        np.divide(1.0, np.subtract(1.0, dp, out=dp), out=dp)
        dp[t_idx] = -pos_weight / p_t
        dp *= g[0, 0]
        dp *= (probs.value > CLAMP_EPS) & (probs.value < 1.0 - CLAMP_EPS)
        probs._accumulate(dp)

    return probs.tape._record(np.array([[total]]), pull)
