"""Reference values for the output checks, computed without rgae's tape, CSR kernels, optimizer or scorers.

Training is replayed with dense matrices: the joint loss, its gradient
written out by hand, Adam and the closed-form view-weight refresh.
Classification and link prediction are rescored with a separately written
logistic fit, micro-F1, ROC-AUC and average precision. Splits, sampled
negatives and the fit's constants still come from rgae, because they define
the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rgae import evaluate
from rgae.evaluate import SplitSpec

CLAMP = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LAMBDA_FLOOR = 1e-12


def _expit(x):
    return np.exp(-np.logaddexp(0.0, -x))


def _init_stacks(n, sizes, n_views, seed):
    """Glorot-uniform stacks drawn from one generator: the shared stack first, then each view's."""
    rng = np.random.default_rng(seed)

    def stack():
        out, fan_in = [], n
        for size in sizes:
            limit = np.sqrt(6.0 / (fan_in + size))
            out.append(rng.uniform(-limit, limit, size=(fan_in, size)))
            fan_in = size
        return out

    shared = stack()
    return shared, [stack() for _ in range(n_views)]


def _dense_view(view):
    """(normalized adjacency with self-loops, binary target with unit diagonal, positive weight)."""
    n = view.n
    adj = view.to_dense()
    eye = np.eye(n)
    looped = adj + eye
    inv_sqrt = 1.0 / np.sqrt(looped.sum(axis=1))
    target = ((adj > 0) | (eye > 0)).astype(np.float64)
    positives = target.sum()
    return inv_sqrt[:, None] * looped * inv_sqrt[None, :], target, (n * n - positives) / positives


def _encode(a_hat, weights):
    """One encoder stack on identity features; also returns each layer's (input, pre-activation)."""
    h, layers = None, []
    for depth, w in enumerate(weights):
        x = a_hat if depth == 0 else a_hat @ h
        pre = x @ w
        h = np.maximum(pre, 0.0)
        layers.append((x, pre))
    return h, layers


def _encode_grads(a_hat, weights, layers, dh):
    """Weight gradients of one stack given the gradient at its output."""
    grads = [None] * len(weights)
    for depth in reversed(range(len(weights))):
        x, pre = layers[depth]
        da = dh * (pre > 0.0)
        grads[depth] = x.T @ da
        if depth:
            dh = a_hat.T @ (da @ weights[depth].T)
    return grads


def _loss_and_grads(views, shared, private, lam, cfg):
    """Joint RGAE loss (reconstruction + alpha*similarity + beta*difference) and its weight gradients."""
    a_sim = cfg.alpha * cfg.use_sim
    a_dif = cfg.beta * cfg.use_dif
    total = 0.0
    ys_all, dys_all, encoded = [], [], []
    for a_hat, target, pos_weight in views:
        ys, ys_layers = _encode(a_hat, shared)
        yp, yp_layers = _encode(a_hat, private[len(encoded)])
        z = np.hstack([ys, yp])
        raw = _expit(z @ z.T)
        p = np.clip(raw, CLAMP, 1.0 - CLAMP)
        total -= pos_weight * np.sum(target * np.log(p)) + np.sum((1.0 - target) * np.log1p(-p))
        # d loss / d logits; zero where the clamp is active
        inside = (raw > CLAMP) & (raw < 1.0 - CLAMP)
        ds = np.where(inside, (1.0 - target) * raw - pos_weight * target * (1.0 - raw), 0.0)
        dz = 2.0 * ds @ z
        width = ys.shape[1]
        row = np.sum(ys * yp, axis=1, keepdims=True)
        total += a_dif * np.sum(row**2)
        ys_all.append(ys)
        dys_all.append(dz[:, :width] + a_dif * 2.0 * row * yp)
        encoded.append((ys_layers, yp_layers, dz[:, width:] + a_dif * 2.0 * row * ys))
    w = lam**cfg.gamma
    coef = w / w.sum()
    y_con = sum(c * ys for c, ys in zip(coef, ys_all))
    gaps = [y_con - ys for ys in ys_all]
    total += a_sim * sum(wi * np.sum(g**2) for wi, g in zip(w, gaps))
    pulled = sum(2.0 * wi * g for wi, g in zip(w, gaps))
    grad_shared = [np.zeros_like(x) for x in shared]
    grad_private = []
    for i, ((a_hat, _, _), (ys_layers, yp_layers, dyp)) in enumerate(zip(views, encoded)):
        dys = dys_all[i] + a_sim * (coef[i] * pulled - 2.0 * w[i] * gaps[i])
        for acc, g in zip(grad_shared, _encode_grads(a_hat, shared, ys_layers, dys)):
            acc += g
        grad_private.append(_encode_grads(a_hat, private[i], yp_layers, dyp))
    return total, grad_shared, grad_private


def _refresh_lambda(views, shared, lam, gamma):
    """Closed-form view weights from each view's squared distance to the consistent embedding."""
    outs = [_encode(a_hat, shared)[0] for a_hat, _, _ in views]
    w = lam**gamma
    y_con = sum(c * ys for c, ys in zip(w / w.sum(), outs))
    b = np.maximum([np.sum((y_con - ys) ** 2) for ys in outs], LAMBDA_FLOOR)
    log_w = np.log(gamma * b) / (1.0 - gamma)
    new = np.exp(log_w - log_w.max())
    return new / new.sum()


@dataclass
class Replay:
    """What a dense replay of training gives: the initial weights and their gradients,
    the total loss of every epoch, and the view weights after the last epoch."""

    shared: list
    private: list
    gradients: list
    totals: list
    lam: np.ndarray


def replay_training(net, cfg) -> Replay:
    """Replay `cfg.max_epochs` full-batch epochs with dense matrices.

    Each epoch evaluates the loss and its gradient, takes one bias-corrected
    Adam step and refreshes the view weights, as training with patience off
    and a refresh every epoch does. Gradients are kept for the first epoch,
    in the order shared stack, then each view's stack.
    """
    if cfg.lambda_update_every != 1 or cfg.patience != float("inf"):
        raise ValueError("the replay covers a refresh every epoch and no early stop")
    n_views = len(net.views)
    sizes = tuple(int(s) for s in cfg.layer_sizes) + (cfg.dim // (n_views + 1),)
    depth = len(sizes)
    shared, private = _init_stacks(net.n, sizes, n_views, cfg.seed)
    lam = np.full(n_views, 1.0 / n_views)
    views = [_dense_view(v) for v in net.views]
    params = shared + [w for stack in private for w in stack]
    m = [np.zeros_like(x) for x in params]
    v = [np.zeros_like(x) for x in params]
    out = Replay(shared=shared, private=private, gradients=[], totals=[], lam=lam)
    for step in range(1, cfg.max_epochs + 1):
        total, grad_shared, grad_private = _loss_and_grads(views, shared, private, lam, cfg)
        grads = grad_shared + [g for stack in grad_private for g in stack]
        out.totals.append(total)
        if step == 1:
            out.gradients = grads
        for k, g in enumerate(grads):
            m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m[k] / (1.0 - ADAM_BETA1**step)
            v_hat = v[k] / (1.0 - ADAM_BETA2**step)
            params[k] = params[k] - cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        shared = params[:depth]
        private = [params[depth * (i + 1) : depth * (i + 2)] for i in range(n_views)]
        lam = _refresh_lambda(views, shared, lam, cfg.gamma)
    out.lam = lam
    return out


def _fit(x, y):
    """Full-batch gradient-descent logistic regression with an unpenalized intercept."""
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    step = 1.0 / (np.linalg.norm(xb, 2) ** 2 / (4.0 * n) + evaluate.L2_PENALTY)
    penalty = np.append(np.ones(d), 0.0)
    w = np.zeros(d + 1)
    for _ in range(evaluate.FIT_ITERATIONS):
        w = w - step * (xb.T @ (_expit(xb @ w) - y) / n + evaluate.L2_PENALTY * penalty * w)
    return w


def _predict(x, w):
    return np.hstack([x, np.ones((x.shape[0], 1))]) @ w


def micro_f1(features, labels, ratio, seed) -> float:
    """Single-label one-vs-rest classification on a stratified split; micro-F1 is then accuracy."""
    y = np.array([next(iter(s)) for s in labels])
    train, test = evaluate.make_split(len(y), SplitSpec(ratio, seed, stratified=True), labels=y)
    classes = sorted(set(y[train]))
    scores = np.stack(
        [_predict(features[test], _fit(features[train], (y[train] == c).astype(float))) for c in classes],
        axis=1,
    )
    predicted = np.array(classes)[np.argmax(scores, axis=1)]
    return float(np.mean(predicted == y[test]))


def _auc(scores, truth):
    """Share of positive-negative pairs ranked correctly, ties counting one half."""
    neg = np.sort(scores[truth == 0])
    pos = scores[truth == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below + 0.5 * tied).sum() / (pos.size * neg.size))


def _average_precision(scores, truth):
    order = np.argsort(-scores, kind="stable")
    hits = truth[order]
    precision = np.cumsum(hits) / np.arange(1, hits.size + 1)
    return float(np.sum(precision * hits) / hits.sum())


def link_prediction(net, embeddings, view_index, seed, ratio=0.5):
    """(ROC-AUC, AP, problems) for one seed; problems lists ways the sampled task breaks its contract."""
    task = evaluate.build_linkpred_task(net, view_index, seed)
    adj = net.views[view_index].to_dense()
    iu, ju = np.nonzero(np.triu(adj, k=1))
    problems = []
    if not np.array_equal(task.positives, np.stack([iu, ju], axis=1)):
        problems.append("positives are not the view's edges")
    neg = task.negatives
    if np.any(adj[neg[:, 0], neg[:, 1]] != 0) or np.any(neg[:, 0] >= neg[:, 1]):
        problems.append("a negative pair is an edge or not ordered u < v")
    if np.unique(neg[:, 0] * net.n + neg[:, 1]).size != len(neg):
        problems.append("negative pairs repeat")
    pairs = np.concatenate([task.positives, neg])
    truth = np.concatenate([np.ones(len(task.positives)), np.zeros(len(neg))])
    u, v = embeddings[pairs[:, 0]], embeddings[pairs[:, 1]]
    norms = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    cosine = np.divide(np.sum(u * v, axis=1), norms, out=np.zeros(len(pairs)), where=norms > 0)[:, None]
    train, test = evaluate.make_split(len(truth), SplitSpec(ratio, seed, stratified=True), labels=truth)
    scores = _expit(_predict(cosine[test], _fit(cosine[train], truth[train])))
    return _auc(scores, truth[test]), _average_precision(scores, truth[test]), problems
