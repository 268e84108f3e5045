"""Shared and private graph encoder stacks, inner-product decoder, the training losses and their backward."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from . import graph as _graph
from .autodiff import Tape, Tensor
from .errors import ConfigError, DegenerateWeights, InvalidGamma, NegativeEmbedding, NumericalOverflow, ShapeMismatch
from .graph import MultiViewNetwork, NormalizedAdjacency, SparseAdjacency


def check_gamma(gamma: float) -> None:
    if not 0 < gamma < np.inf or gamma == 1:
        raise InvalidGamma(f"gamma must be finite, positive and different from 1, got {gamma}")


def embed_dim(total_dim: int, n_views: int) -> int:
    """Width of one embedding block when the budget splits over the consistent block plus one per view."""
    d = total_dim // (n_views + 1)
    if d < 1:
        raise ConfigError(f"dimension {total_dim} leaves no room for {n_views + 1} blocks")
    return d


def _glorot_stack(rng, n, sizes) -> list:
    stack = []
    fan_in = n
    for size in sizes:
        limit = np.sqrt(6.0 / (fan_in + size))
        stack.append(rng.uniform(-limit, limit, size=(fan_in, size)))
        fan_in = size
    return stack


@dataclass(eq=False)
class RgaeParams:
    """Trainable state: one private weight stack per view, one stack shared by all views, view weights.

    The weights are arrays, or tape leaves once bind_params has recorded them for a backward pass.
    """

    private: list
    shared: list
    lam: np.ndarray

    @classmethod
    def init(cls, n: int, sizes: tuple, n_views: int, seed: int = 0) -> "RgaeParams":
        """Seeded uniform init scaled by fan sizes; shared stack drawn first, then each view's stack.

        sizes are the output widths of the encoder layers; the last is the embedding block width.
        """
        if len(sizes) < 1 or min(sizes) < 1:
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        rng = np.random.default_rng(seed)
        shared = _glorot_stack(rng, n, sizes)
        private = [_glorot_stack(rng, n, sizes) for _ in range(n_views)]
        lam = np.full(n_views, 1.0 / n_views)
        return cls(private=private, shared=shared, lam=lam)

    @property
    def n_views(self) -> int:
        return len(self.private)

    def weights(self) -> list:
        """Flat weight list: shared layers first, then each view's private layers."""
        flat = list(self.shared)
        for stack in self.private:
            flat.extend(stack)
        return flat

    def gradients(self) -> list:
        """Gradients of bound weights after backward(), in weights() order."""
        return [node.grad for node in self.weights()]


def bind_params(tape: Tape, params: RgaeParams) -> RgaeParams:
    """The same structure with every weight recorded as a tape leaf, shared stack first."""
    shared = [tape.leaf(w) for w in params.shared]
    private = [[tape.leaf(w) for w in stack] for stack in params.private]
    return RgaeParams(private=private, shared=shared, lam=params.lam.copy())


def _finite(value, what: str):
    """value, after checking that it is finite; the NumericalOverflow names what it is."""
    if not np.all(np.isfinite(value)):
        raise NumericalOverflow(f"non-finite value in {what}")
    return value


def encode(norm: NormalizedAdjacency, weights: list, scope: str) -> list:
    """One encoder stack's layers as (x, h) pairs, x = spmm(norm, input) and h = relu(x @ w); the last h is its output.

    Identity input features fold the first layer into its weight matrix: x = spmm(norm, w) and h = relu(x).
    Each pre-activation is checked, so an overflow that relu would turn into 0 still raises, naming scope and layer.
    """
    x = _graph.spmm(norm, weights[0])
    layers = [(x, np.maximum(_finite(x, f"{scope} layer 0"), 0.0))]
    for depth, w in enumerate(weights[1:], 1):
        x = _graph.spmm(norm, layers[-1][1])
        if x.shape[1] != w.shape[0]:
            raise ShapeMismatch(f"{scope} layer {depth}: cannot multiply {x.shape} by {w.shape}")
        layers.append((x, np.maximum(_finite(x @ w, f"{scope} layer {depth}"), 0.0)))
    return layers


def _encode_backward(norm: NormalizedAdjacency, layers: list, leaves: list, g) -> None:
    """Add into each weight leaf's gradient of one stack, top layer first, from the gradient g at the stack's output."""
    for depth in reversed(range(len(layers))):
        x, h = layers[depth]
        g = g * (h > 0.0)
        if depth == 0:
            leaves[0].grad += _graph.spmm(norm, g)
        else:
            leaves[depth].grad += x.T @ g
            # the normalized matrix is symmetric, so its transpose product reuses spmm
            g = _graph.spmm(norm, g @ leaves[depth].value.T)


def outputs(stacks: list) -> list:
    """The output of each encoder stack, the h of its top layer."""
    return [layers[-1][1] for layers in stacks]


def encode_views(net: MultiViewNetwork, params: RgaeParams, shared: list | None = None):
    """(shared, private): each view's shared and private encoder layers, computed view by view; shared may be given."""
    if params.n_views != len(net.views):
        raise ShapeMismatch(f"{params.n_views} private stacks for {len(net.views)} views")
    fresh, private = [], []
    for i, (view, stack) in enumerate(zip(net.views, params.private)):
        if shared is None:
            fresh.append(encode(view.normalized(), params.shared, f"view {i} shared"))
        private.append(encode(view.normalized(), stack, f"view {i} private"))
    return fresh if shared is None else shared, private


def decode(ys: Tensor, yp: Tensor, out=None) -> Tensor:
    """Inner-product decoder: reconstruction probabilities from one view's joined encoder outputs, in out if given."""
    return ad.sigmoid(ad.gram(ys, yp, out=out))


def reconstruction_loss(ys, yp, view: SparseAdjacency, out=None) -> tuple:
    """(loss, d loss / d ys, d loss / d yp) of balanced_bce(decode(ys, yp), view) for two nonnegative encoder outputs.

    out may hold the decoder's two n x n arrays, for the Gram matrix, where the sweep leaves the gradient of the
    logits made symmetric, and for the log terms; run_model shares one pair across its views.
    """
    z = np.concatenate([ys, yp], axis=1)
    if not z.min() >= 0.0:
        _finite(z, "the decoder's operands")
        raise NegativeEmbedding("the decoder's operands have a negative entry; it needs logits of at least 0")
    grads, logs = (None, None) if out is None else out
    probs = decode(Tensor(ys), Tensor(yp), out=grads)
    loss = ad.balanced_bce(probs, view, out=logs)
    gz = probs.value @ z
    return float(loss.value[0, 0]), gz[:, : ys.shape[1]], gz[:, ys.shape[1] :]


def _view_powers(lam, gamma: float, n_views: int) -> np.ndarray:
    """lam**gamma, after checking gamma and that there is one weight per view."""
    check_gamma(gamma)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (n_views,):
        raise ShapeMismatch(f"need one weight per view, got {lam.shape} for {n_views} views")
    return lam**gamma


def consistent_embedding(shared: list, lam, gamma: float) -> np.ndarray:
    """Weighted mean of the shared outputs with weights lam**gamma, normalized.

    This is the exact minimizer of the similarity loss for fixed view weights.
    """
    w = _view_powers(lam, gamma, len(shared))
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeights("view weights vanished under the exponent")
    return _finite(reduce(np.add, (c * ys for c, ys in zip(w / total, shared))), "the consistent embedding")


def disagreements(shared: list, y_con) -> list:
    """Per view, the squared distance b_i of its shared output to the consistent embedding.

    similarity_loss weights these; the closed-form view-weight update reads them.
    """
    return [_finite(float(np.sum(g * g)), f"disagreement {i}") for i, g in enumerate(y_con - ys for ys in shared)]


def similarity_loss(shared: list, y_con, lam, gamma: float) -> float:
    """Sum over views of lam_i**gamma times the squared distance to the consistent embedding."""
    terms = zip(_view_powers(lam, gamma, len(shared)), disagreements(shared, y_con))
    return _finite(float(reduce(np.add, (w * b for w, b in terms))), "the similarity loss")


def difference_loss(shared_view, private_view) -> float:
    """Squared norm of the row-wise inner products; zero exactly when every row pair is orthogonal."""
    if shared_view.shape != private_view.shape:
        raise ShapeMismatch(f"shared and private outputs differ in shape: {shared_view.shape}, {private_view.shape}")
    r = np.sum(shared_view * private_view, axis=1, keepdims=True)
    return float(np.sum(r * r))


@dataclass(eq=False)
class ModelOutput:
    """One full forward pass: the recorded 1x1 loss, its parts, the encoder outputs and the bound weights."""

    loss: Tensor
    rec: list
    sim: float
    dif: list
    shared: list
    private: list
    consistent: np.ndarray
    params: RgaeParams


def run_model(
    net: MultiViewNetwork,
    params: RgaeParams,
    alpha: float,
    beta: float,
    gamma: float,
    tape: Tape,
    use_sim: bool = True,
    use_dif: bool = True,
    shared: list | None = None,
) -> ModelOutput:
    """Forward all views and record the joint training loss on the tape as one 1x1 node over the weight leaves.

    The node's pull is the model's backward, written out. The regularizer values are always computed so they
    can be reported; the ablation flags only control whether they enter the total and its gradient. shared may
    pass in the shared encoder layers of params, as encode_views takes them.
    """
    if alpha < 0 or beta < 0:
        raise ConfigError("loss weights must be nonnegative")
    shared, private = encode_views(net, params, shared)
    ys, yp = outputs(shared), outputs(private)
    rec, rec_grads = [], []
    # the decoder's two n x n arrays, shared by the views in turn
    decoder = (np.empty((net.n, net.n)), np.empty((net.n, net.n)))
    for i, view in enumerate(net.views):
        try:
            loss, g_ys, g_yp = reconstruction_loss(ys[i], yp[i], view, decoder)
        except (NumericalOverflow, NegativeEmbedding) as exc:
            raise type(exc)(f"view {i} decoder: {exc}") from exc
        rec.append(loss)
        rec_grads.append((g_ys, g_yp))
    y_con = consistent_embedding(ys, params.lam, gamma)
    sim = similarity_loss(ys, y_con, params.lam, gamma)
    dif = [_finite(difference_loss(a, b), f"difference {i}") for i, (a, b) in enumerate(zip(ys, yp))]
    # summed as ((rec_0 + rec_1 + ...) + alpha * sim) + beta * (dif_0 + dif_1 + ...), the order outputs depend on;
    # each sum starts from its first term, so a lone -0.0 stays -0.0
    terms = rec + ([alpha * sim] if use_sim else []) + ([beta * reduce(np.add, dif)] if use_dif else [])
    total = _finite(float(reduce(np.add, terms)), "the total loss")
    w = _view_powers(params.lam, gamma, len(ys))
    coef = w / w.sum()
    bound = bind_params(tape, params)

    def pull():
        # each shared output's gradient adds, in this order, its difference term, minus its disagreement
        # term, its share of the consistent embedding's gradient and its decoder's gradient
        if use_sim:
            d_gap = [(2.0 * (wi * alpha)) * (y_con - t) for wi, t in zip(w, ys)]
            d_con = reduce(np.add, d_gap[::-1])
        for i in reversed(range(len(ys))):
            to_shared, to_private = [], []
            if use_dif:
                d_row = (2.0 * beta) * np.sum(ys[i] * yp[i], axis=1, keepdims=True)
                to_shared.append(d_row * yp[i])
                to_private.append(d_row * ys[i])
            if use_sim:
                to_shared += [-d_gap[i], coef[i] * d_con]
            to_shared.append(rec_grads[i][0])
            to_private.append(rec_grads[i][1])
            # the shared leaves thus add their per-view terms from the last view to the first
            norm = net.views[i].normalized()
            _encode_backward(norm, private[i], bound.private[i], reduce(np.add, to_private))
            _encode_backward(norm, shared[i], bound.shared, reduce(np.add, to_shared))

    return ModelOutput(
        loss=tape.loss(total, pull),
        rec=rec,
        sim=sim,
        dif=dif,
        shared=ys,
        private=yp,
        consistent=y_con,
        params=bound,
    )


@dataclass(eq=False)
class EmbeddingSet:
    """Per-view shared and private embeddings, their consistent combination, and the concatenation."""

    shared: list
    private: list
    consistent: np.ndarray
    final: np.ndarray | None = None


def aggregate(embeds: EmbeddingSet) -> np.ndarray:
    """Column-wise concatenation: consistent block first, then each view's private block."""
    blocks = [embeds.consistent] + list(embeds.private)
    if len({b.shape for b in blocks}) != 1:
        raise ShapeMismatch("embedding blocks must share one shape")
    return np.concatenate(blocks, axis=1)


def embed(net: MultiViewNetwork, params: RgaeParams, gamma: float, shared: list | None = None) -> EmbeddingSet:
    """The embeddings of run_model's encoder outputs, without a decoder or a loss; shared as run_model takes it."""
    shared, private = (outputs(stacks) for stacks in encode_views(net, params, shared))
    es = EmbeddingSet(shared, private, consistent_embedding(shared, params.lam, gamma))
    es.final = aggregate(es)
    return es
