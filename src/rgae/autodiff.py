"""Minimal reverse-mode tape over dense float64 matrices, with the three ops of the decoder and its loss.

The ops are gram (of two joined encoder outputs), sigmoid and balanced_bce.
Each computes its value eagerly, checks it is finite, and records a closure
that routes the incoming gradient to its operands. backward() walks the tape
once in strict reverse insertion order, so two identical passes give
bit-identical results. The encoders and regularizers are not recorded op by
op: model.run_model records the weight leaves and one 1x1 loss node whose
pull is the model's written-out backward.

Tensor._take is the one hand-over rule. A node's gradient buffer is its own:
backward() passes it to the node's pull and then drops it, so the pull may
overwrite it, and a pull hands each operand an array no other operand holds.
Leaves start from zeros, so leaf gradients equal those of copying every
contribution; only an interior gradient may keep a -0.0 where a copy into
zeros would give +0.0. sigmoid, balanced_bce and the gram pull walk n-by-n
arrays in row blocks with the per-entry arithmetic and whole-array sums of
whole-array code, so results match it bit for bit. Each view's decoder runs
forward and backward on a private tape (model.reconstruction_loss) that dies
with it, so at most two n-by-n arrays live at once, whatever the view count.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import NonScalarRoot, NumericalOverflow, ShapeMismatch
from .graph import SparseAdjacency

CLAMP_EPS = 1e-12
# entries per row block of a decoder op: 512 KiB of float64 stays in L2 (65 rows at n = 1000)
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(shape) -> list:
    """Row slices covering an array of this shape, each of at most _BLOCK_ELEMENTS entries or one row."""
    step = max(1, _BLOCK_ELEMENTS // max(1, shape[1]))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


class Tensor:
    """One tape node: a dense matrix value, a gradient slot, and the tape that recorded it, kept alive.

    After backward() the slot holds a gradient on every leaf and None on every interior node.
    """

    __slots__ = ("value", "grad", "tape", "_pull", "__weakref__")

    def __init__(self, value, tape, pull):
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
        """Fill every leaf's gradient with d(root)/d(leaf); root must be 1x1."""
        if root.tape is not self:
            raise ShapeMismatch("root was recorded on a different tape")
        if root.shape != (1, 1):
            raise NonScalarRoot(f"backward needs a 1x1 root, got {root.shape}")
        self._backprop(root)

    def _backprop(self, root: Tensor) -> None:
        """backward() unchecked: an interior node's gradient is its first contribution, dropped after its pull."""
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


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ShapeMismatch("operands were recorded on different tapes")
    return tape


def gram(a: Tensor, b: Tensor) -> Tensor:
    """Z Z^T for Z = [a | b], the columns of the two operands joined."""
    tape = _same_tape(a, b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"cannot join the columns of {a.shape} and {b.shape}")
    z = np.concatenate([a.value, b.value], axis=1)
    split = a.shape[1]
    value = z @ z.T

    def pull(g):
        # g += g.T in place by row bands; band r reads and writes only row r and column r from i on
        for r in _row_blocks(g.shape):
            i = r.start
            t = g[r, i:] + g[i:, r].T
            g[r, i:] = t
            g[i:, r] = t.T
        gz = g @ z
        a._take(gz[:, :split])
        b._take(gz[:, split:])

    return tape._record(value, pull)


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
