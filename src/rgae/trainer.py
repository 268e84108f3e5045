"""Training loop: Adam steps on the tape gradients plus the closed-form view-weight update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, scalar
from .errors import ConfigError, NumericalOverflow, ShapeMismatch
from .graph import MultiViewNetwork
from .model import (
    LayerSpec,
    RgaeParams,
    check_gamma,
    consistent_embedding,
    embed_dim,
    embedding_set,
    encode,
    run_model,
)

LAMBDA_FLOOR = 1e-12


@dataclass
class TrainConfig:
    """Everything one training run needs.

    dim is the total embedding width; each view's private block and the
    consistent block get dim // (views + 1) columns. layer_sizes lists the
    hidden widths only, the block width is appended automatically. Stopping:
    the run ends after max_epochs, or earlier once the relative change of the
    total loss stays below tol for patience consecutive epochs (patience may
    be math.inf). The view weights are refreshed every lambda_update_every
    epochs, after the gradient step, from freshly computed shared outputs.
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

    def validate(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be nonnegative")
        check_gamma(self.gamma)
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be nonnegative")
        if not (self.patience >= 1):
            raise ConfigError("patience must be at least 1 (math.inf allowed)")
        if self.tol < 0:
            raise ConfigError("tol must be nonnegative")
        if self.lambda_update_every < 1:
            raise ConfigError("lambda_update_every must be at least 1")
        if self.dim < 1:
            raise ConfigError("dim must be positive")


@dataclass
class AdamState:
    """First and second moment buffers plus the step counter."""

    m: list
    v: list
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    correct1 = 1.0 - state.beta1**t
    correct2 = 1.0 - state.beta2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / correct1
        v_hat = state.v[i] / correct2
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


def update_lambda(b, gamma: float) -> np.ndarray:
    """Closed-form simplex update of the view weights from the per-view disagreements b.

    Computed in log space so extreme exponents 1 / (1 - gamma) cannot
    overflow. Large gamma spreads the weights toward uniform; gamma just
    above 1 concentrates all weight on the view with the smallest b.
    """
    check_gamma(gamma)
    b = np.maximum(np.asarray(b, dtype=np.float64), LAMBDA_FLOOR)
    log_w = np.log(gamma * b) / (1.0 - gamma)
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


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
        lam = ",".join(f"{x:.17g}" for x in self.lam)
        return (
            f"{self.epoch}\t{self.rec:.17g}\t{self.sim:.17g}\t"
            f"{self.dif:.17g}\t{self.total:.17g}\t{lam}"
        )


def _refresh_lambda(net: MultiViewNetwork, params: RgaeParams, gamma: float) -> np.ndarray:
    tape = Tape()
    shared_nodes = [tape.leaf(w) for w in params.shared]
    outs = [encode(view.normalized(), shared_nodes) for view in net.views]
    y_con = consistent_embedding(outs, params.lam, gamma)
    b = np.array([np.sum((y_con.value - o.value) ** 2) for o in outs])
    return update_lambda(b, gamma)


def train(net: MultiViewNetwork, cfg: TrainConfig):
    """Optimize the model on one network.

    Returns (params, embeddings, history). Each epoch runs a full forward
    and backward pass, one Adam step, and on schedule the view-weight
    refresh. The returned embeddings come from a final forward pass with the
    trained parameters.
    """
    cfg.validate()
    n_views = len(net.views)
    d = embed_dim(cfg.dim, n_views)
    layers = LayerSpec(tuple(int(s) for s in cfg.layer_sizes) + (d,))
    params = RgaeParams.init(net.n, layers, n_views, seed=cfg.seed)
    state = AdamState.for_params(params.weights())
    history: list[EpochStats] = []
    prev_total = None
    streak = 0
    for epoch in range(cfg.max_epochs):
        tape = Tape()
        try:
            out = run_model(
                net, params, cfg.alpha, cfg.beta, cfg.gamma, tape,
                use_sim=cfg.use_sim, use_dif=cfg.use_dif,
            )
            tape.backward(out.loss)
            adam_step(params.weights(), out.params.gradients(), state, cfg.lr)
            if (epoch + 1) % cfg.lambda_update_every == 0:
                params.lam = _refresh_lambda(net, params, cfg.gamma)
        except NumericalOverflow as exc:
            raise NumericalOverflow(f"epoch {epoch}: {exc}") from exc
        stats = EpochStats(
            epoch=epoch,
            rec=sum(scalar(r) for r in out.rec),
            sim=scalar(out.sim),
            dif=sum(scalar(d_) for d_ in out.dif),
            total=scalar(out.loss),
            lam=tuple(float(x) for x in params.lam),
        )
        history.append(stats)
        if cfg.verbose:
            print(stats.line())
        if prev_total is not None:
            rel_change = abs(stats.total - prev_total) / max(abs(prev_total), 1e-12)
            streak = streak + 1 if rel_change < cfg.tol else 0
        prev_total = stats.total
        if streak >= cfg.patience:
            break
    final_tape = Tape()
    try:
        out = run_model(
            net, params, cfg.alpha, cfg.beta, cfg.gamma, final_tape,
            use_sim=cfg.use_sim, use_dif=cfg.use_dif,
        )
    except NumericalOverflow as exc:
        raise NumericalOverflow(f"final forward: {exc}") from exc
    return params, embedding_set(out), history
