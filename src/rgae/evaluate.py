"""Downstream tasks: one-vs-rest logistic classification and cosine-ranked link prediction.

The classifier is a deterministic full-batch gradient-descent logistic regression, so repeated
runs with the same seed reproduce every metric exactly. Reported numbers average over repeated
splits driven by seeds, the usual protocol; items without a label are in no split and are not scored.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import _sigmoid_values
from .errors import ConfigError, DegenerateClass, InsufficientNodes, LengthMismatch, ZeroVector, require_int
from .graph import MultiViewNetwork, SparseAdjacency, edge_pair_codes, label_set

L2_PENALTY = 1e-4
FIT_ITERATIONS = 500


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction, RNG seed, and whether per-class proportions are preserved."""

    train_ratio: float
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must be in (0, 1), got {self.train_ratio}")
        require_int("seed", self.seed, 0)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def make_split(n: int, spec: SplitSpec, labels=None):
    """Deterministic train/test indices; stratified mode keeps each class within one node of its ratio."""
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        if labels is None:
            raise ConfigError("a stratified split needs labels")
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise LengthMismatch(f"{labels.shape[0]} labels for {n} nodes")
        parts = []
        for cls in np.unique(labels):
            idx = rng.permutation(np.flatnonzero(labels == cls))
            parts.append(idx[: _round_half_up(idx.size * spec.train_ratio)])
        train = np.sort(np.concatenate(parts))
    else:
        perm = rng.permutation(n)
        train = np.sort(perm[: _round_half_up(n * spec.train_ratio)])
    mask = np.zeros(n, dtype=bool)
    mask[train] = True
    test = np.flatnonzero(~mask)
    if train.size == 0 or test.size == 0:
        raise InsufficientNodes(f"ratio {spec.train_ratio} leaves an empty side for n={n}")
    return train, test


def sample_negatives(view: SparseAdjacency, count: int, seed: int) -> np.ndarray:
    """Uniformly sample distinct non-adjacent pairs u < v, in O(edges + count) time and memory.

    The draw picks sorted ranks among the non-edges in row-major pair order, which the view maps to pairs.
    """
    if count < 1:
        raise ConfigError("need a positive number of negatives")
    require_int("seed", seed, 0)
    free = view.n * (view.n - 1) // 2 - view.num_edges
    if free < count:
        raise InsufficientNodes(f"only {free} non-edges available, need {count}")
    return view.non_edges(np.sort(np.random.default_rng(seed).choice(free, size=count, replace=False)))


@dataclass(eq=False)
class LinkPredTask:
    """Held-out positive pairs of one view plus an equal number of sampled non-edges."""

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        if self.positives.shape != self.negatives.shape:
            raise LengthMismatch("positives and negatives must have equal counts")


def _view_positives(view: SparseAdjacency) -> np.ndarray:
    """The view's edges as pairs u < v in code order: the positives of every link task on the view."""
    codes = edge_pair_codes(view)
    return np.stack([codes // view.n, codes % view.n], axis=1)


def build_linkpred_task(net: MultiViewNetwork, target_view: int, seed: int) -> LinkPredTask:
    view = net.view(target_view)
    positives = _view_positives(view)
    return LinkPredTask(positives=positives, negatives=sample_negatives(view, positives.shape[0], seed))


def cosine_features(embeddings, pairs) -> np.ndarray:
    """Cosine similarity per node pair from one norm per embedding row; zero-norm rows give feature 0 with a warning."""
    # in C order each row's norm sums as a gathered copy of the row would; Fortran order sums differently
    y = np.ascontiguousarray(embeddings, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    u, v = pairs[:, 0], pairs[:, 1]
    dots = np.sum(y.take(u, axis=0) * y.take(v, axis=0), axis=1)
    row_norms = np.linalg.norm(y, axis=1)
    norms = row_norms.take(u) * row_norms.take(v)
    ok = norms > 0
    if not np.all(ok):
        warnings.warn("zero-norm embedding rows; cosine features set to 0", ZeroVector)
    return np.divide(dots, norms, out=np.zeros(dots.shape[0]), where=ok)


def _embedding_rows(embeddings, n: int) -> np.ndarray:
    """Float64 embeddings with one finite row per item, a 1-D input as one column; typed errors otherwise."""
    y = np.asarray(embeddings, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if y.ndim != 2:
        raise ConfigError(f"embeddings must be one row per item, got shape {y.shape}")
    if y.shape[0] != n:
        raise LengthMismatch(f"{y.shape[0]} embedding rows for {n} items")
    bad = ~np.all(np.isfinite(y), axis=1)
    if np.any(bad):
        raise ConfigError(f"embedding row {int(np.argmax(bad))} is not finite")
    return y


def _fit_binary_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent, curvature-bounded step, unpenalized intercept; a 2-D y is one fit per column.

    Leading axes of x and y are independent fits, each with its own step.
    """
    n, d = x.shape[-2:]
    xb = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    w = np.zeros(x.shape[:-2] + (d + 1,) + y.shape[x.ndim - 1 :])
    decay = np.full(w.shape[x.ndim - 2 :], L2_PENALTY)
    decay[d] = 0.0
    lipschitz = np.linalg.norm(xb, 2, axis=(-2, -1)) ** 2 / (4.0 * n) + L2_PENALTY
    step = np.reshape(1.0 / lipschitz, lipschitz.shape + (1,) * decay.ndim)
    for _ in range(FIT_ITERATIONS):
        grad = xb.mT @ (_sigmoid_values(xb @ w) - y) / n + decay * w
        w = w - step * grad
    return w


def _comparable(a, b) -> bool:
    try:
        sorted((a, b))
    except TypeError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """Sorted class names and a boolean item-by-class matrix; the one label shape classification uses."""

    classes: list
    y: np.ndarray

    @classmethod
    def of(cls, labels) -> "LabelMatrix":
        """One row per item, read by graph.label_set: a set, list or tuple of labels, or one bare label."""
        sets = [label_set(item) for item in labels]
        names = set().union(*sets)
        try:
            classes = sorted(names)
        except TypeError:
            a, b = next((a, b) for a in names for b in names if not _comparable(a, b))
            raise ConfigError(f"labels {a!r} and {b!r} cannot be ordered against each other") from None
        if not classes:
            raise ConfigError("no item has a label")
        column = {c: j for j, c in enumerate(classes)}
        y = np.zeros((len(sets), len(classes)), dtype=bool)
        y[[i for i, s in enumerate(sets) for _ in s], [column[c] for s in sets for c in s]] = True
        return cls(classes, y)

    @property
    def multilabel(self) -> bool:
        return bool(np.any(self.y.sum(axis=1) > 1))


@dataclass(eq=False)
class OvrClassifier:
    """One-vs-rest logistic weights with an intercept column per class; leading axes are independent fits."""

    weights: np.ndarray
    trained: np.ndarray
    multilabel: bool

    def predict(self, x) -> np.ndarray:
        """Boolean row-by-class matrix: the one-hot argmax class, or every class scoring above 0.5 when multilabel."""
        x = np.asarray(x, dtype=np.float64)
        scores = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1) @ self.weights.mT
        scores = np.where(self.trained[..., None, :], scores, -np.inf)
        if self.multilabel:
            return scores > 0.0
        if not np.all(np.any(self.trained, axis=-1)):
            raise ConfigError("no class had training examples")
        return np.argmax(scores, axis=-1)[..., None] == np.arange(scores.shape[-1])


def logistic_ovr_train(features, labels: LabelMatrix, train_idx) -> OvrClassifier:
    """Fit one-vs-rest logistic classifiers on the rows train_idx, or on each row of a 2-D train_idx.

    Classes with no positive training example are skipped with a
    DegenerateClass warning and never predicted.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if labels.y.shape[0] != x.shape[0]:
        raise LengthMismatch(f"{labels.y.shape[0]} labels for {x.shape[0]} feature rows")
    splits = np.reshape(train_idx, (-1, np.shape(train_idx)[-1]))
    y = labels.y[splits]
    trained = y.any(axis=1)
    for ci in np.nonzero(~trained)[1]:
        warnings.warn(f"class {labels.classes[ci]!r} has no training examples; skipped", DegenerateClass)
    weights = np.zeros(trained.shape + (x.shape[1] + 1,))
    # one stacked descent per distinct mask keeps each split's column count, hence its BLAS blocking and bits
    for mask in np.unique(trained[trained.any(axis=1)], axis=0):
        group = np.flatnonzero(np.all(trained == mask, axis=1))
        weights[np.ix_(group, mask)] = _fit_binary_logistic(x[splits[group]], y[group][..., mask].astype(float)).mT
    weights, trained = (a.reshape(np.shape(train_idx)[:-1] + a.shape[1:]) for a in (weights, trained))
    return OvrClassifier(weights=weights, trained=trained, multilabel=labels.multilabel)


def micro_macro_f1(pred, truth):
    """Micro and macro F1 of two boolean item-by-class matrices.

    Micro aggregates true/false positives and false negatives globally.
    Macro averages per-class F1 over the classes present in the truth;
    a class with no true positive but some error scores 0.
    """
    if pred.shape != truth.shape:
        raise LengthMismatch(f"{pred.shape} predictions for {truth.shape} truths")
    tp, fp, fn = (pred & truth).sum(axis=0), (pred & ~truth).sum(axis=0), (~pred & truth).sum(axis=0)
    denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2.0 * tp.sum() / denom) if denom else 1.0
    used = truth.any(axis=0)
    if not np.any(used):
        return micro, 1.0
    return micro, float(np.mean(2.0 * tp[used] / (2 * tp + fp + fn)[used]))


def _scored_labels(scores, labels):
    """Float64 scores and boolean labels of one shape; a ConfigError for any label other than 0 or 1."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise LengthMismatch(f"{s.shape} scores for {y.shape} labels")
    positive = y == 1
    other = ~positive & (y != 0)
    if np.any(other):
        raise ConfigError(f"labels must be 0 or 1, got {y[other][0]}")
    return s, positive


def roc_auc(scores, labels) -> float:
    """Share of positive-negative pairs the scores order correctly; tied pairs count one half."""
    s, positive = _scored_labels(scores, labels)
    pos, neg = np.sort(s[positive]), np.sort(s[~positive])
    if pos.size == 0 or neg.size == 0:
        raise ConfigError("AUC needs both positive and negative examples")
    # sorted keys search the negatives in memory order; each term is a multiple of 0.5, so every partial sum is exact
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below + 0.5 * tied).sum() / (pos.size * neg.size))


def average_precision(scores, labels) -> float:
    """Mean of the precision at each positive, scanning by descending score; tied scores go in index order."""
    s, positive = _scored_labels(scores, labels)
    n_pos = np.count_nonzero(positive)
    if n_pos == 0:
        raise ConfigError("average precision needs at least one positive")
    order = np.argsort(-s)
    ranked = s.take(order)
    # an unstable sort gives the one descending order when the scores are distinct; ties need the stable sort
    if not np.all(ranked[:-1] > ranked[1:]):
        order = np.argsort(-s, kind="stable")
    hits = positive[order]
    precision = np.cumsum(hits) / np.arange(1, s.size + 1)
    return float(np.sum(precision * hits) / n_pos)


def link_predict(positive_cosines, negative_cosines, split: SplitSpec):
    """ROC-AUC and AP of the held-out pairs ranked by cosine times the sign of the training side's cov(cosine, label).

    The pairs are the positives then the negatives, scored by their cosines; the split is drawn over that order.
    A logistic fit on the cosine ranks alike: its slope has that sign, or stays 0 when the covariance is 0.
    """
    feats = np.concatenate([positive_cosines, negative_cosines])
    y = np.concatenate([np.ones(len(positive_cosines)), np.zeros(len(negative_cosines))])
    strat = y if split.stratified else None
    train_idx, test_idx = make_split(len(y), split, labels=strat)
    x_train, y_train = feats[train_idx], y[train_idx]
    scores = np.sign(np.mean((x_train - x_train.mean()) * (y_train - y_train.mean()))) * feats[test_idx]
    return roc_auc(scores, y[test_idx]), average_precision(scores, y[test_idx])


def _report_rows(task, ratio, seeds, results, metrics) -> list:
    """(task, ratio, seed, metric, value) rows: each seed's results in metric order, then each metric's mean."""
    rows = [(task, ratio, str(s), m, v) for s, vals in zip(seeds, results) for m, v in zip(metrics, vals)]
    for k, m in enumerate(metrics):
        rows.append((task, ratio, "mean", m, float(np.mean([vals[k] for vals in results]))))
    return rows


def _require_seeds(seeds) -> None:
    if len(seeds) == 0:
        raise ConfigError("need at least one split seed")
    if any(seed < 0 for seed in seeds):
        raise ConfigError(f"split seeds must be nonnegative, got {list(seeds)}")


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def classification_report(features, labels, ratios=(0.1, 0.3, 0.5), seeds=tuple(range(10))):
    """Micro and macro F1 per ratio and seed plus their means, as (task, ratio, seed, metric, value) rows.

    Splits leave unlabeled items out and are stratified by class unless the data is multi-label.
    The splits are drawn here; each distinct ratio is then fitted and scored as one job, on at most one thread per CPU.
    """
    _require_seeds(seeds)
    labels = LabelMatrix.of(labels)
    x = _embedding_rows(features, labels.y.shape[0])
    labeled = np.flatnonzero(labels.y.any(axis=1))
    strat = not labels.multilabel
    strat_index = labels.y[labeled].argmax(axis=1) if strat else None
    drawn = {}
    for ratio in dict.fromkeys(ratios):
        splits = [make_split(labeled.size, SplitSpec(ratio, seed, strat), labels=strat_index) for seed in seeds]
        drawn[ratio] = [labeled[np.stack(side)] for side in zip(*splits)]

    def scored(train_idx, test_idx):
        pred = logistic_ovr_train(x, labels, train_idx).predict(x[test_idx])
        return [micro_macro_f1(p, labels.y[t]) for p, t in zip(pred, test_idx)]

    # numpy releases the GIL inside the descents, so the ratios' fits overlap; the largest ratio's runs longest
    rows = []
    with ThreadPoolExecutor(max(1, min(len(drawn), _cpus()))) as pool:
        jobs = {ratio: pool.submit(scored, *drawn[ratio]) for ratio in sorted(drawn, reverse=True)}
        for ratio in ratios:
            rows += _report_rows("classification", ratio, seeds, jobs[ratio].result(), ("micro_f1", "macro_f1"))
    return rows


def link_prediction_report(net, embeddings, target_view, ratio=0.5, seeds=tuple(range(10))):
    """ROC-AUC and average precision per seed plus their means, same row layout as classification.

    The view's edges and their cosines are computed once per report; each seed draws and scores only its negatives.
    """
    _require_seeds(seeds)
    view = net.view(target_view)
    y = _embedding_rows(embeddings, net.n)
    positives = _view_positives(view)
    positive_cosines = cosine_features(y, positives)
    results = []
    for seed in seeds:
        negatives = sample_negatives(view, positives.shape[0], seed)
        split = SplitSpec(train_ratio=ratio, seed=seed, stratified=True)
        results.append(link_predict(positive_cosines, cosine_features(y, negatives), split))
    return _report_rows("link_prediction", ratio, seeds, results, ("roc_auc", "average_precision"))
