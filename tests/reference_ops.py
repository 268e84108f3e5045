"""Reference compositions for the tests: the model recorded op by op on one tape, the tape, and the ops under it.

Tape and Tensor are the general reverse-mode engine that rgae.autodiff once
was: weakly held nodes that each keep their tape alive, one hand-over rule
(Tensor._take), and one walk in strict reverse insertion order. rgae's own
tape records only weight leaves and one loss, so the op-by-op reference
records on this one. graph_conv, lincomb, row_dot and sq_frobenius are the
tape ops that rgae.model's encoders and regularizers were once recorded as;
run_model, refresh_lambda and embed compose them as the model did, with each
view's decoder and loss recorded on the same tape as the tape ops
joined_gram, whole_array_sigmoid and whole_array_balanced_bce. Those three
are the decoder that rgae.autodiff's one sweep per view replaced:
whole-array passes each way, with the probability clamp on both sides, that
take logits of either sign. Below them, matmul, spmm, relu, concat_cols,
sub, add and scale are the primitive ops that graph_conv, the joined gram
and lincomb replaced, kept as they were, with the copying hand-over rule
_accumulate that add and concat_cols used. use_reference_ops swaps all of
them in, so a test can compare outputs and gradients with the package byte
for byte.
"""

from __future__ import annotations

import sys
import weakref
from functools import reduce

import numpy as np

import rgae.autodiff as ad
import rgae.trainer as trainer
from rgae import graph as _graph
from rgae.errors import DegenerateWeights, NumericalOverflow, ShapeMismatch, TapeError
from rgae.graph import NormalizedAdjacency, SparseAdjacency
from rgae.model import EmbeddingSet, ModelOutput, _view_powers, aggregate, bind_params

# ---------------------------------------------------------------------------
# the tape
# ---------------------------------------------------------------------------


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
            raise TapeError(f"backward needs a 1x1 root, got {root.shape}")
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
        raise TapeError(f"expected a 1x1 node, got {t.shape}")
    return float(t.value[0, 0])


def _same_tape(*tensors) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ShapeMismatch("operands were recorded on different tapes")
    return tape

# ---------------------------------------------------------------------------
# the encoder and regularizer ops, and the model composed of them on one tape
# ---------------------------------------------------------------------------


def graph_conv(norm: NormalizedAdjacency, h: Tensor, w: Tensor | None = None) -> Tensor:
    """One encoder layer, relu(spmm(norm, h) @ w), or relu(spmm(norm, h)) for a first layer on identity features.

    The pre-activation is checked too, so an overflow that relu would turn into 0 still raises.
    """
    tape = h.tape if w is None else _same_tape(h, w)
    if h.shape[0] != norm.n:
        raise ShapeMismatch(f"dense operand must have {norm.n} rows, got {h.shape[0]}")
    if w is not None and h.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"cannot multiply {h.shape} by {w.shape}")
    x = _graph.spmm(norm, h.value)
    pre = x if w is None else x @ w.value
    if not np.all(np.isfinite(pre)):
        raise NumericalOverflow("non-finite pre-activation entering the tape")
    value = np.maximum(pre, 0.0)

    def pull(g):
        g = g * (value > 0.0)
        if w is not None:
            w._take(x.T @ g)
            g = g @ w.value.T
        # the normalized matrix is symmetric, so its transpose product reuses spmm
        h._take(_graph.spmm(norm, g))

    return tape._record(value, pull)


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


def lincomb(terms, coeffs) -> Tensor:
    """The sum of coeffs[i] * terms[i] from left to right; weights 1 and -1 are exact, so (1, -1) gives a - b."""
    terms, coeffs = list(terms), [float(c) for c in coeffs]
    tape = _same_tape(*terms)
    if len(coeffs) != len(terms):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(terms)} terms")
    if any(t.shape != terms[0].shape for t in terms):
        raise ShapeMismatch(f"cannot add shapes {[t.shape for t in terms]}")
    value = coeffs[0] * terms[0].value
    for c, t in zip(coeffs[1:], terms[1:]):
        value += c * t.value

    def pull(g):
        for c, t in zip(coeffs, terms):
            t._take(c * g)

    return tape._record(value, pull)


def encode(norm: NormalizedAdjacency, weights: list) -> Tensor:
    """One encoder stack as graph_conv nodes."""
    h = graph_conv(norm, weights[0])
    for w in weights[1:]:
        h = graph_conv(norm, h, w)
    return h


def encode_views(net, bound):
    """(shared, private) encoder output nodes, recorded view by view."""
    shared, private = [], []
    for view, stack in zip(net.views, bound.private):
        shared.append(encode(view.normalized(), bound.shared))
        private.append(encode(view.normalized(), stack))
    return shared, private


def consistent_embedding(shared, lam, gamma):
    w = _view_powers(lam, gamma, len(shared))
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeights("view weights vanished under the exponent")
    return lincomb(shared, w / total)


def disagreements(shared, y_con):
    return [sq_frobenius(lincomb([y_con, t], (1, -1))) for t in shared]


def decode(ys: Tensor, yp: Tensor) -> Tensor:
    """rgae.model.decode on the tape."""
    return whole_array_sigmoid(joined_gram(ys, yp))


def run_model(net, params, alpha, beta, gamma, tape, use_sim=True, use_dif=True, shared=None) -> ModelOutput:
    """rgae.model.run_model as one tape node per op, each view's decoder and loss recorded after its encoders.

    It encodes every stack afresh: shared layers passed in are not read.
    """
    bound = bind_params(tape, params)
    shared, private = encode_views(net, bound)
    rec = [whole_array_balanced_bce(decode(ys, yp), view) for ys, yp, view in zip(shared, private, net.views)]
    y_con = consistent_embedding(shared, params.lam, gamma)
    sim = lincomb(disagreements(shared, y_con), _view_powers(params.lam, gamma, len(shared)))
    dif = [sq_frobenius(row_dot(ys, yp)) for ys, yp in zip(shared, private)]
    terms, coeffs = list(rec), [1.0] * len(rec)
    if use_sim:
        terms, coeffs = terms + [sim], coeffs + [alpha]
    if use_dif:
        terms, coeffs = terms + [lincomb(dif, [1.0] * len(dif))], coeffs + [beta]
    return ModelOutput(
        loss=lincomb(terms, coeffs),
        rec=[scalar(r) for r in rec],
        sim=scalar(sim),
        dif=[scalar(d) for d in dif],
        shared=[t.value for t in shared],
        private=[t.value for t in private],
        consistent=y_con.value,
        params=bound,
    )


def refresh_lambda(net, params, gamma) -> tuple:
    """rgae.trainer._refresh_lambda on tape nodes; it hands on no encoder layers, so the next forward encodes afresh."""
    tape = Tape()
    nodes = [tape.leaf(w) for w in params.shared]
    outs = [encode(view.normalized(), nodes) for view in net.views]
    y_con = consistent_embedding(outs, params.lam, gamma)
    return trainer.update_lambda([scalar(d) for d in disagreements(outs, y_con)], gamma), None


def embed(net, params, gamma, shared=None) -> EmbeddingSet:
    """rgae.model.embed on tape nodes, encoding every stack afresh."""
    shared, private = encode_views(net, bind_params(Tape(), params))
    es = EmbeddingSet([t.value for t in shared], [t.value for t in private],
                      consistent_embedding(shared, params.lam, gamma).value)
    es.final = aggregate(es)
    return es


# ---------------------------------------------------------------------------
# the primitive ops and the decoder's tape ops
# ---------------------------------------------------------------------------


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


def whole_array_sigmoid_values(x):
    """The whole-array logistic that rgae.autodiff.sigmoid must repeat entry for entry on logits of at least 0."""
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


def primitive_graph_conv(norm, h, w=None):
    """graph_conv as the relu of an spmm node, with a matmul node in between when w is given."""
    x = spmm(norm, h)
    return relu(x if w is None else matmul(x, w))


def joined_gram(a, b):
    """rgae.autodiff.gram as whole_array_gram of a concat_cols node."""
    return whole_array_gram(concat_cols(a, b))


def primitive_lincomb(terms, coeffs):
    """lincomb as a left fold of add over scale nodes."""
    return reduce(add, [scale(t, c) for t, c in zip(terms, coeffs, strict=True)])


def use_reference_ops(monkeypatch):
    """Train through this module's tape composition of primitive and whole-array ops, every pull accumulating a copy."""
    this = sys.modules[__name__]
    monkeypatch.setattr(this, "graph_conv", primitive_graph_conv)
    monkeypatch.setattr(this, "lincomb", primitive_lincomb)
    monkeypatch.setattr(Tensor, "_take", _accumulate)
    monkeypatch.setattr(trainer, "Tape", Tape)
    monkeypatch.setattr(trainer, "run_model", run_model)
    monkeypatch.setattr(trainer, "_refresh_lambda", refresh_lambda)
    monkeypatch.setattr(trainer, "embed", embed)
