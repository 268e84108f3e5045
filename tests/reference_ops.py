"""The reference for the tests: the model recorded op by op on one tape, with one gradient rule.

rgae's own tape records only weight leaves and one loss, whose pull is the
model's backward written out. Here every op is a node on a plain list that
backward replays in reverse, and a gradient arrives by one rule: it starts
from zeros and adds a copy of every contribution (Tensor.accumulate).
graph_conv, lincomb, row_dot and sq_frobenius are the ops rgae.model's
encoders and regularizers were once recorded as. joined_gram,
whole_array_sigmoid and whole_array_balanced_bce are the decoder that
rgae.autodiff's one sweep per view replaced: whole-array passes each way,
with the probability clamp on both sides, that take logits of either sign.
run_model, refresh_lambda and embed compose them as the model did, so a test
can compare rgae's loss, gradients, view weights and embeddings with them
byte for byte; use_reference_ops swaps the compositions into rgae.trainer
for whole trainings.
"""

from __future__ import annotations

import numpy as np

import rgae.autodiff as ad
import rgae.trainer as trainer
from rgae import graph as _graph
from rgae.errors import DegenerateWeights, ShapeMismatch
from rgae.graph import NormalizedAdjacency, SparseAdjacency
from rgae.model import EmbeddingSet, ModelOutput, _view_powers, aggregate, bind_params

# ---------------------------------------------------------------------------
# the tape
# ---------------------------------------------------------------------------


class Tensor:
    """One node: a dense matrix value, a gradient slot, its pull (None on a leaf) and the tape that recorded it."""

    __slots__ = ("value", "grad", "pull", "tape")

    def __init__(self, value, tape, pull=None):
        self.value = value
        self.grad = None
        self.pull = pull
        self.tape = tape

    def accumulate(self, g) -> None:
        """The one gradient rule: the gradient starts from zeros and adds a copy of every contribution."""
        if self.grad is None:
            self.grad = np.zeros_like(g)
        self.grad += g


class Tape:
    """The nodes in the order they were recorded, operands before their consumers."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def leaf(self, value) -> Tensor:
        return self.record(np.array(value, dtype=np.float64))

    def record(self, value, pull=None) -> Tensor:
        node = Tensor(value, self, pull)
        self.nodes.append(node)
        return node

    def backward(self, root: Tensor) -> None:
        """Fill every leaf's gradient with d(root)/d(leaf) for a 1x1 root; leaves start from zeros."""
        for node in self.nodes:
            node.grad = np.zeros_like(node.value) if node.pull is None else None
        root.grad = np.ones((1, 1))
        for node in reversed(self.nodes):
            if node.pull is not None and node.grad is not None:
                node.pull(node.grad)


def scalar(t: Tensor) -> float:
    return t.value.item()

# ---------------------------------------------------------------------------
# the ops
# ---------------------------------------------------------------------------


def graph_conv(norm: NormalizedAdjacency, h: Tensor, w: Tensor | None = None) -> Tensor:
    """One encoder layer, relu(spmm(norm, h) @ w), or relu(spmm(norm, h)) for a first layer on identity features."""
    x = _graph.spmm(norm, h.value)
    value = np.maximum(x if w is None else x @ w.value, 0.0)

    def pull(g):
        g = g * (value > 0.0)
        if w is not None:
            w.accumulate(x.T @ g)
            g = g @ w.value.T
        # the normalized matrix is symmetric, so its transpose product reuses spmm
        h.accumulate(_graph.spmm(norm, g))

    return h.tape.record(value, pull)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner product, returned as a column vector."""
    value = np.sum(a.value * b.value, axis=1, keepdims=True)

    def pull(g):
        a.accumulate(g * b.value)
        b.accumulate(g * a.value)

    return a.tape.record(value, pull)


def sq_frobenius(a: Tensor) -> Tensor:
    value = np.array([[np.sum(a.value * a.value)]])

    def pull(g):
        a.accumulate((2.0 * g[0, 0]) * a.value)

    return a.tape.record(value, pull)


def lincomb(terms, coeffs) -> Tensor:
    """The sum of coeffs[i] * terms[i] from left to right; weights 1 and -1 are exact, so (1, -1) gives a - b."""
    terms, coeffs = list(terms), [float(c) for c in coeffs]
    if len(coeffs) != len(terms):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(terms)} terms")
    if any(t.value.shape != terms[0].value.shape for t in terms):
        raise ShapeMismatch(f"cannot add shapes {[t.value.shape for t in terms]}")
    value = coeffs[0] * terms[0].value
    for c, t in zip(coeffs[1:], terms[1:]):
        value += c * t.value

    def pull(g):
        for c, t in zip(coeffs, terms):
            t.accumulate(c * g)

    return terms[0].tape.record(value, pull)


def joined_gram(a: Tensor, b: Tensor) -> Tensor:
    """rgae.autodiff.gram, Z Z^T for Z = [a | b], with its pull through the fresh symmetric array (g + g.T)."""
    z = np.concatenate([a.value, b.value], axis=1)
    split = a.value.shape[1]

    def pull(g):
        gz = (g + g.T) @ z
        a.accumulate(gz[:, :split])
        b.accumulate(gz[:, split:])

    return a.tape.record(z @ z.T, pull)


def whole_array_sigmoid_values(x):
    """The whole-array logistic that rgae.autodiff.sigmoid must repeat entry for entry on logits of at least 0."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denom, out=e)


def whole_array_sigmoid(a: Tensor) -> Tensor:
    """sigmoid as one whole-array pass each way."""
    value = whole_array_sigmoid_values(a.value)

    def pull(g):
        a.accumulate(g * value * (1.0 - value))

    return a.tape.record(value, pull)


def whole_array_balanced_bce(probs: Tensor, adj: SparseAdjacency) -> Tensor:
    """balanced_bce with whole-array np.clip and a gradient built from full-size masks."""
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
        probs.accumulate(dp)

    return probs.tape.record(np.array([[total]]), pull)


def decode(ys: Tensor, yp: Tensor) -> Tensor:
    """rgae.model.decode on the tape."""
    return whole_array_sigmoid(joined_gram(ys, yp))

# ---------------------------------------------------------------------------
# the model composed of the ops
# ---------------------------------------------------------------------------


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


def use_reference_ops(monkeypatch):
    """Train through this module's compositions: every forward, backward, view-weight refresh and embedding."""
    monkeypatch.setattr(trainer, "Tape", Tape)
    monkeypatch.setattr(trainer, "run_model", run_model)
    monkeypatch.setattr(trainer, "_refresh_lambda", refresh_lambda)
    monkeypatch.setattr(trainer, "embed", embed)
