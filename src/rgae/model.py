"""Shared and private graph encoder stacks, inner-product decoder, and the training losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, DegenerateWeights, InvalidGamma, ShapeMismatch
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

    The weights are arrays, or tape leaves once bind_params has recorded them for a forward pass.
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


def encode(norm: NormalizedAdjacency, weights: list) -> Tensor:
    """Run one encoder stack; identity input features fold the first layer into its weight matrix."""
    h = ad.graph_conv(norm, weights[0])
    for w in weights[1:]:
        h = ad.graph_conv(norm, h, w)
    return h


def encode_views(net: MultiViewNetwork, bound: RgaeParams):
    """(shared, private): each view's shared and private encoder outputs, recorded view by view."""
    if bound.n_views != len(net.views):
        raise ShapeMismatch(f"{bound.n_views} private stacks for {len(net.views)} views")
    shared, private = [], []
    for view, stack in zip(net.views, bound.private):
        shared.append(encode(view.normalized(), bound.shared))
        private.append(encode(view.normalized(), stack))
    return shared, private


def decode(ys: Tensor, yp: Tensor) -> Tensor:
    """Inner-product decoder: reconstruction probabilities from one view's joined encoder outputs."""
    logits = ad.gram(ys, yp)
    probs = ad.sigmoid(logits)
    logits.value = None  # no pull reads it
    return probs


def reconstruction_loss(ys: Tensor, yp: Tensor, view: SparseAdjacency) -> Tensor:
    """balanced_bce(decode(ys, yp), view) as one node that keeps the 1x1 loss and two n x d operand gradients.

    The decoder runs forward and backward on a private tape over copies of ys and yp, so its n x n arrays die here.
    """
    tape = ad._same_tape(ys, yp)
    inner = Tape()
    a, b = inner.leaf(ys.value), inner.leaf(yp.value)
    loss = ad.balanced_bce(decode(a, b), view)
    inner._backprop(loss)
    ga, gb = a.grad, b.grad

    def pull(g):
        ys._take(g[0, 0] * ga)  # a fresh product, so a repeated backward never hands out ga itself
        yp._take(g[0, 0] * gb)

    return tape._record(loss.value, pull)


def _view_powers(lam, gamma: float, n_views: int) -> np.ndarray:
    """lam**gamma, after checking gamma and that there is one weight per view."""
    check_gamma(gamma)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (n_views,):
        raise ShapeMismatch(f"need one weight per view, got {lam.shape} for {n_views} views")
    return lam**gamma


def consistent_embedding(shared: list, lam, gamma: float) -> Tensor:
    """Weighted mean of the shared outputs with weights lam**gamma, normalized.

    This is the exact minimizer of the similarity loss for fixed view weights.
    """
    w = _view_powers(lam, gamma, len(shared))
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeights("view weights vanished under the exponent")
    return ad.lincomb(shared, w / total)


def disagreements(shared: list, y_con: Tensor) -> list:
    """Per view, the squared distance b_i of its shared output to the consistent embedding.

    similarity_loss weights these nodes; the closed-form view-weight update reads their values.
    """
    return [ad.sq_frobenius(ad.lincomb([y_con, t], (1, -1))) for t in shared]


def similarity_loss(shared: list, y_con: Tensor, lam, gamma: float) -> Tensor:
    """Sum over views of lam_i**gamma times the squared distance to the consistent embedding."""
    return ad.lincomb(disagreements(shared, y_con), _view_powers(lam, gamma, len(shared)))


def difference_loss(shared_view: Tensor, private_view: Tensor) -> Tensor:
    """Squared norm of the row-wise inner products; zero exactly when every row pair is orthogonal."""
    return ad.sq_frobenius(ad.row_dot(shared_view, private_view))


@dataclass(eq=False)
class ModelOutput:
    """Everything recorded by one full forward pass."""

    loss: Tensor
    rec: list
    sim: Tensor
    dif: list
    shared: list
    private: list
    consistent: Tensor
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
) -> ModelOutput:
    """Forward all views and assemble the joint training loss on the tape.

    The regularizer values are always computed so they can be reported; the
    ablation flags only control whether they enter the total.
    """
    if alpha < 0 or beta < 0:
        raise ConfigError("loss weights must be nonnegative")
    bound = bind_params(tape, params)
    shared_out, private_out = encode_views(net, bound)
    rec = [reconstruction_loss(ys, yp, view) for ys, yp, view in zip(shared_out, private_out, net.views)]
    y_con = consistent_embedding(shared_out, params.lam, gamma)
    sim = similarity_loss(shared_out, y_con, params.lam, gamma)
    dif = [difference_loss(ys, yp) for ys, yp in zip(shared_out, private_out)]
    # summed as ((rec_0 + rec_1 + ...) + alpha * sim) + beta * (dif_0 + dif_1 + ...), the order outputs depend on
    terms, coeffs = list(rec), [1.0] * len(rec)
    if use_sim:
        terms, coeffs = terms + [sim], coeffs + [alpha]
    if use_dif:
        terms, coeffs = terms + [ad.lincomb(dif, [1.0] * len(dif))], coeffs + [beta]
    loss = ad.lincomb(terms, coeffs)
    return ModelOutput(
        loss=loss,
        rec=rec,
        sim=sim,
        dif=dif,
        shared=shared_out,
        private=private_out,
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


def embed(net: MultiViewNetwork, params: RgaeParams, gamma: float) -> EmbeddingSet:
    """The embeddings of run_model's encoder outputs, without running a decoder or a loss."""
    shared, private = encode_views(net, bind_params(Tape(), params))
    y_con = consistent_embedding(shared, params.lam, gamma)
    es = EmbeddingSet([t.value for t in shared], [t.value for t in private], y_con.value)
    es.final = aggregate(es)
    return es
