"""Minimal reverse-mode tape over dense float64 matrices.

Every operation computes its value eagerly, checks it is finite, and records
a closure that routes the incoming gradient to its operands. backward() walks
the tape once in strict reverse insertion order, so gradient accumulation is
deterministic and two identical passes give bit-identical results.
"""

from __future__ import annotations

import numpy as np

from . import graph as _graph
from .errors import NonScalarRoot, NumericalOverflow, ShapeMismatch
from .graph import NormalizedAdjacency, SparseAdjacency

CLAMP_EPS = 1e-12


class Tensor:
    """One tape node: a dense matrix value plus a gradient slot filled by backward()."""

    __slots__ = ("value", "grad", "tape", "index", "_pull")

    def __init__(self, value, tape, index, pull):
        self.value = value
        self.grad = None
        self.tape = tape
        self.index = index
        self._pull = pull

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Append-only operation record; operands always precede their consumers."""

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
        """Fill every node's gradient with d(root)/d(node); root must be 1x1."""
        if root.tape is not self:
            raise ShapeMismatch("root was recorded on a different tape")
        if root.shape != (1, 1):
            raise NonScalarRoot(f"backward needs a 1x1 root, got {root.shape}")
        for node in self._nodes:
            node.grad = np.zeros_like(node.value)
        root.grad[0, 0] = 1.0
        for node in reversed(self._nodes[: root.index + 1]):
            if node._pull is not None:
                node._pull(node.grad)


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
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
    value = a.value @ b.value

    def pull(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    return tape._record(value, pull)


def spmm(norm: NormalizedAdjacency, b: Tensor) -> Tensor:
    """Sparse-dense product with the sparse operand held constant."""
    if b.rows != norm.n:
        raise ShapeMismatch(f"dense operand must have {norm.n} rows, got {b.rows}")
    value = _graph.spmm(norm, b.value)

    def pull(g):
        # the normalized matrix is symmetric, so its transpose product reuses spmm
        b.grad += _graph.spmm(norm, g)

    return b.tape._record(value, pull)


def relu(a: Tensor) -> Tensor:
    value = np.maximum(a.value, 0.0)

    def pull(g):
        a.grad += g * (a.value > 0.0)

    return a.tape._record(value, pull)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    value = _sigmoid_values(a.value)

    def pull(g):
        a.grad += g * value * (1.0 - value)

    return a.tape._record(value, pull)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.rows != b.rows:
        raise ShapeMismatch(f"cannot concatenate {a.shape} with {b.shape}")
    value = np.concatenate([a.value, b.value], axis=1)
    split = a.cols

    def pull(g):
        a.grad += g[:, :split]
        b.grad += g[:, split:]

    return tape._record(value, pull)


def gram(a: Tensor) -> Tensor:
    value = a.value @ a.value.T

    def pull(g):
        a.grad += (g + g.T) @ a.value

    return a.tape._record(value, pull)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner product, returned as a column vector."""
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"row_dot needs equal shapes, got {a.shape} and {b.shape}")
    value = np.sum(a.value * b.value, axis=1, keepdims=True)

    def pull(g):
        a.grad += g * b.value
        b.grad += g * a.value

    return tape._record(value, pull)


def sq_frobenius(a: Tensor) -> Tensor:
    value = np.array([[np.sum(a.value * a.value)]])

    def pull(g):
        a.grad += (2.0 * g[0, 0]) * a.value

    return a.tape._record(value, pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot subtract {b.shape} from {a.shape}")
    value = a.value - b.value

    def pull(g):
        a.grad += g
        b.grad -= g

    return tape._record(value, pull)


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot add {a.shape} and {b.shape}")
    value = a.value + b.value

    def pull(g):
        a.grad += g
        b.grad += g

    return tape._record(value, pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    value = c * a.value

    def pull(g):
        a.grad += c * g

    return a.tape._record(value, pull)


def balanced_bce(probs: Tensor, target: SparseAdjacency, pos_weight: float) -> Tensor:
    """Entrywise log-loss against the binarized adjacency, nonzero entries weighted by pos_weight.

    The target has a unit diagonal. Probabilities are clamped to
    [CLAMP_EPS, 1 - CLAMP_EPS] before the logs; where the clamp is active
    the gradient is zero.
    """
    n = target.n
    if probs.shape != (n, n):
        raise ShapeMismatch(f"reconstruction must be ({n}, {n}), got {probs.shape}")
    pos_weight = float(pos_weight)
    t = target.reconstruction_target()
    p = np.clip(probs.value, CLAMP_EPS, 1.0 - CLAMP_EPS)
    total = -(pos_weight * np.sum(t * np.log(p)) + np.sum((1.0 - t) * np.log1p(-p)))
    inside = (probs.value > CLAMP_EPS) & (probs.value < 1.0 - CLAMP_EPS)

    def pull(g):
        dp = (1.0 - t) / (1.0 - p) - (pos_weight * t) / p
        probs.grad += g[0, 0] * dp * inside

    return probs.tape._record(np.array([[total]]), pull)
