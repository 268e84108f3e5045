"""Shared and private graph encoder stacks, inner-product decoder, and the training losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, DegenerateWeights, InvalidGamma, ShapeMismatch
from .graph import MultiViewNetwork, NormalizedAdjacency, balance_weight


def check_gamma(gamma: float) -> None:
    if gamma <= 0 or gamma == 1:
        raise InvalidGamma(f"gamma must be positive and different from 1, got {gamma}")


def embed_dim(total_dim: int, n_views: int) -> int:
    """Width of one embedding block when the budget splits over the consistent block plus one per view."""
    d = total_dim // (n_views + 1)
    if d < 1:
        raise ConfigError(f"dimension {total_dim} leaves no room for {n_views + 1} blocks")
    return d


@dataclass(frozen=True)
class LayerSpec:
    """Output widths of the encoder layers; the last entry is the embedding block width."""

    sizes: tuple

    def __post_init__(self):
        if len(self.sizes) < 1 or any(int(s) < 1 for s in self.sizes):
            raise ConfigError(f"layer sizes must be positive, got {self.sizes}")

    @property
    def depth(self) -> int:
        return len(self.sizes)

    @property
    def out_dim(self) -> int:
        return int(self.sizes[-1])


def _glorot_stack(rng, n, layers: LayerSpec) -> list:
    stack = []
    fan_in = n
    for size in layers.sizes:
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
    def init(cls, n: int, layers: LayerSpec, n_views: int, seed: int = 0) -> "RgaeParams":
        """Seeded uniform init scaled by fan sizes; shared stack drawn first, then each view's stack."""
        rng = np.random.default_rng(seed)
        shared = _glorot_stack(rng, n, layers)
        private = [_glorot_stack(rng, n, layers) for _ in range(n_views)]
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
    h = ad.relu(ad.spmm(norm, weights[0]))
    for w in weights[1:]:
        h = ad.relu(ad.matmul(ad.spmm(norm, h), w))
    return h


def forward_view(norm: NormalizedAdjacency, params: RgaeParams, view: int):
    """Both encoder stacks for one view plus the decoded reconstruction probabilities."""
    ys = encode(norm, params.shared)
    yp = encode(norm, params.private[view])
    joint = ad.concat_cols(ys, yp)
    a_hat = ad.sigmoid(ad.gram(joint))
    return ys, yp, a_hat


def consistent_embedding(shared: list, lam, gamma: float) -> Tensor:
    """Weighted mean of the shared outputs with weights lam**gamma, normalized.

    This is the exact minimizer of the similarity loss for fixed view weights.
    """
    check_gamma(gamma)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (len(shared),):
        raise ShapeMismatch(f"need one weight per view, got {lam.shape} for {len(shared)} views")
    w = lam**gamma
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateWeights("view weights vanished under the exponent")
    coef = w / total
    acc = ad.scale(shared[0], coef[0])
    for c, t in zip(coef[1:], shared[1:]):
        acc = ad.add(acc, ad.scale(t, c))
    return acc


def similarity_loss(shared: list, y_con: Tensor, lam, gamma: float) -> Tensor:
    """Sum over views of lam_i**gamma times the squared distance to the consistent embedding."""
    check_gamma(gamma)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (len(shared),):
        raise ShapeMismatch(f"need one weight per view, got {lam.shape} for {len(shared)} views")
    w = lam**gamma
    total = None
    for wi, t in zip(w, shared):
        term = ad.scale(ad.sq_frobenius(ad.sub(y_con, t)), wi)
        total = term if total is None else ad.add(total, term)
    return total


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
    a_hat: list
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
    if params.n_views != len(net.views):
        raise ShapeMismatch(f"{params.n_views} private stacks for {len(net.views)} views")
    bound = bind_params(tape, params)
    shared_out, private_out, a_hats, rec = [], [], [], []
    for i, view in enumerate(net.views):
        ys, yp, a_hat = forward_view(view.normalized(), bound, i)
        shared_out.append(ys)
        private_out.append(yp)
        a_hats.append(a_hat)
        rec.append(ad.balanced_bce(a_hat, view, balance_weight(view)))
    y_con = consistent_embedding(shared_out, params.lam, gamma)
    sim = similarity_loss(shared_out, y_con, params.lam, gamma)
    dif = [difference_loss(ys, yp) for ys, yp in zip(shared_out, private_out)]
    loss = rec[0]
    for r in rec[1:]:
        loss = ad.add(loss, r)
    if use_sim:
        loss = ad.add(loss, ad.scale(sim, alpha))
    if use_dif:
        dif_total = dif[0]
        for d in dif[1:]:
            dif_total = ad.add(dif_total, d)
        loss = ad.add(loss, ad.scale(dif_total, beta))
    return ModelOutput(
        loss=loss,
        rec=rec,
        sim=sim,
        dif=dif,
        shared=shared_out,
        private=private_out,
        consistent=y_con,
        a_hat=a_hats,
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


def embedding_set(out: ModelOutput) -> EmbeddingSet:
    es = EmbeddingSet(
        shared=[t.value.copy() for t in out.shared],
        private=[t.value.copy() for t in out.private],
        consistent=out.consistent.value.copy(),
    )
    es.final = aggregate(es)
    return es
