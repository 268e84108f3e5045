"""Training loop: Adam steps on the tape gradients plus the closed-form view-weight update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .errors import ConfigError, NumericalOverflow, ShapeMismatch, require_int, require_ints
from .graph import MultiViewNetwork
from .model import (
    RgaeParams,
    check_gamma,
    consistent_embedding,
    disagreements,
    embed,
    embed_dim,
    encode,
    outputs,
    run_model,
)

LAMBDA_FLOOR = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs.

    dim is the total embedding width; each view's private block and the
    consistent block get dim // (views + 1) columns. layer_sizes lists the
    hidden widths only, the block width is appended automatically. Stopping:
    the run ends after max_epochs, or earlier once the relative change of the
    total loss stays below tol for patience consecutive epochs (patience may
    be math.inf). The view weights are refreshed every lambda_update_every
    epochs, after the gradient step, from freshly computed shared outputs.
    Construction checks every field.
    """

    dim: int = 32
    layer_sizes: tuple = (32,)
    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 5.0
    lr: float = 0.01
    max_epochs: int = 500
    patience: float = 20
    tol: float = 1e-5
    seed: int = 0
    use_sim: bool = True
    use_dif: bool = True
    lambda_update_every: int = 1
    verbose: bool = False

    def __post_init__(self):
        for name, low in (("dim", 1), ("max_epochs", 0), ("seed", 0), ("lambda_update_every", 1)):
            require_int(name, getattr(self, name), low)
        require_ints("layer sizes", self.layer_sizes, 1)
        for name in ("alpha", "beta", "gamma", "lr", "tol"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be nonnegative")
        check_gamma(self.gamma)
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not (self.patience >= 1):
            raise ConfigError("patience must be at least 1 (math.inf allowed)")
        if self.tol < 0:
            raise ConfigError("tol must be nonnegative")


@dataclass
class AdamState:
    """First and second moment buffers plus the step counter."""

    m: list
    v: list
    step: int = 0

    @classmethod
    def for_params(cls, arrays) -> "AdamState":
        return cls(m=[np.zeros_like(a) for a in arrays], v=[np.zeros_like(a) for a in arrays])


def adam_step(params: list, grads: list, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the arrays in place; advances the state."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("parameter, gradient, and state lists must align")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / correct1
        v_hat = state.v[i] / correct2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def update_lambda(b, gamma: float) -> np.ndarray:
    """Closed-form simplex update of the view weights from the per-view disagreements b.

    Computed in log space so extreme exponents 1 / (1 - gamma) cannot
    overflow. Large gamma spreads the weights toward uniform; gamma just
    above 1 concentrates all weight on the view with the smallest b.
    """
    check_gamma(gamma)
    b = np.maximum(np.asarray(b, dtype=np.float64), LAMBDA_FLOOR)
    with np.errstate(over="ignore", divide="ignore"):
        log_w = np.log(gamma * b)
    # where gamma * b leaves the float range, the sum of the logs keeps the same weights finite
    log_w = (log_w if np.all(np.isfinite(log_w)) else np.log(gamma) + np.log(b)) / (1.0 - gamma)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


HISTORY_HEADER = "epoch\trec\tsim\tdif\ttotal\tlambda"


@dataclass(frozen=True)
class EpochStats:
    """One loss-history entry; lam is the weight vector in force after this epoch."""

    epoch: int
    rec: float
    sim: float
    dif: float
    total: float
    lam: tuple

    def line(self) -> str:
        """One history.tsv row under HISTORY_HEADER."""
        lam = ",".join(f"{x:.17g}" for x in self.lam)
        return (
            f"{self.epoch}\t{self.rec:.17g}\t{self.sim:.17g}\t"
            f"{self.dif:.17g}\t{self.total:.17g}\t{lam}"
        )


def _refresh_lambda(net: MultiViewNetwork, params: RgaeParams, gamma: float) -> tuple:
    """(new view weights, the shared encoder layers of each view they were computed from)."""
    shared = [encode(view.normalized(), params.shared, f"view {i} shared") for i, view in enumerate(net.views)]
    outs = outputs(shared)
    return update_lambda(disagreements(outs, consistent_embedding(outs, params.lam, gamma)), gamma), shared


def _run_epoch(net, params, state: AdamState, cfg: TrainConfig, epoch: int, shared=None) -> tuple:
    """(stats, refreshed shared layers or None) of one epoch's passes, Adam step and scheduled view-weight refresh.

    shared may pass in the current weights' shared layers, as run_model takes them. The tape dies on return.
    """
    tape = Tape()
    fresh = None
    try:
        out = run_model(
            net, params, cfg.alpha, cfg.beta, cfg.gamma, tape,
            use_sim=cfg.use_sim, use_dif=cfg.use_dif, shared=shared,
        )
        tape.backward(out.loss)
        adam_step(params.weights(), out.params.gradients(), state, cfg.lr)
        if (epoch + 1) % cfg.lambda_update_every == 0:
            params.lam, fresh = _refresh_lambda(net, params, cfg.gamma)
    except NumericalOverflow as exc:
        raise NumericalOverflow(f"epoch {epoch}: {exc}") from exc
    return EpochStats(
        epoch=epoch,
        rec=sum(out.rec),
        sim=out.sim,
        dif=sum(out.dif),
        total=float(out.loss.value[0, 0]),
        lam=tuple(float(x) for x in params.lam),
    ), fresh


def train(net: MultiViewNetwork, cfg: TrainConfig):
    """Optimize the model on one network.

    Returns (params, embeddings, history). Each epoch runs a full forward
    and backward pass, one Adam step, and on schedule the view-weight
    refresh. The returned embeddings come from a final encoder pass with the
    trained parameters. A refresh encodes the shared stacks of the weights
    it follows; the next forward, or the final pass, reuses those layers.
    """
    n_views = len(net.views)
    d = embed_dim(cfg.dim, n_views)
    params = RgaeParams.init(net.n, (*cfg.layer_sizes, d), n_views, seed=cfg.seed)
    state = AdamState.for_params(params.weights())
    history: list[EpochStats] = []
    prev_total = None
    streak = 0
    shared = None
    for epoch in range(cfg.max_epochs):
        stats, shared = _run_epoch(net, params, state, cfg, epoch, shared)
        history.append(stats)
        if cfg.verbose:
            print(stats.line())
        if prev_total is not None:
            rel_change = abs(stats.total - prev_total) / max(abs(prev_total), 1e-12)
            streak = streak + 1 if rel_change < cfg.tol else 0
        prev_total = stats.total
        if streak >= cfg.patience:
            break
    try:
        embeds = embed(net, params, cfg.gamma, shared)
    except NumericalOverflow as exc:
        raise NumericalOverflow(f"final forward: {exc}") from exc
    return params, embeds, history
