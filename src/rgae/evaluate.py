"""Downstream tasks: one-vs-rest logistic classification and cosine-feature link prediction.

The classifier is a deterministic full-batch gradient-descent logistic
regression, so repeated runs with the same seed reproduce every metric
exactly. Reported numbers follow the usual protocol of averaging over
repeated splits driven by seeds.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .autodiff import _sigmoid_values
from .errors import ConfigError, DegenerateClass, InsufficientNodes, LengthMismatch, ZeroVector
from .graph import MultiViewNetwork, SparseAdjacency, edge_pair_codes

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
    """Uniformly sample distinct unordered non-adjacent pairs of the view."""
    if count < 1:
        raise ConfigError("need a positive number of negatives")
    n = view.n
    iu, ju = np.triu_indices(n, k=1)
    codes = iu.astype(np.int64) * n + ju
    non_edges = np.setdiff1d(codes, edge_pair_codes(view), assume_unique=True)
    if non_edges.size < count:
        raise InsufficientNodes(f"only {non_edges.size} non-edges available, need {count}")
    rng = np.random.default_rng(seed)
    chosen = non_edges[np.sort(rng.choice(non_edges.size, size=count, replace=False))]
    return np.stack([chosen // n, chosen % n], axis=1)


@dataclass(eq=False)
class LinkPredTask:
    """Held-out positive pairs of one view plus an equal number of sampled non-edges."""

    target_view: int
    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        if self.positives.shape != self.negatives.shape:
            raise LengthMismatch("positives and negatives must have equal counts")


def build_linkpred_task(net: MultiViewNetwork, target_view: int, seed: int) -> LinkPredTask:
    if not 0 <= target_view < len(net.views):
        raise ConfigError(f"no view {target_view} in a network with {len(net.views)} views")
    view = net.views[target_view]
    codes = edge_pair_codes(view)
    positives = np.stack([codes // net.n, codes % net.n], axis=1)
    negatives = sample_negatives(view, positives.shape[0], seed)
    return LinkPredTask(target_view=target_view, positives=positives, negatives=negatives)


def cosine_features(embeddings, pairs) -> np.ndarray:
    """Cosine similarity per node pair; zero-norm rows give feature 0 with a warning."""
    y = np.asarray(embeddings, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    u = y[pairs[:, 0]]
    v = y[pairs[:, 1]]
    dots = np.sum(u * v, axis=1)
    norms = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    ok = norms > 0
    if not np.all(ok):
        warnings.warn("zero-norm embedding rows; cosine features set to 0", ZeroVector)
    out = np.zeros(dots.shape[0])
    out[ok] = dots[ok] / norms[ok]
    return out


def _fit_binary_logistic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent with a curvature-bounded step; intercept unpenalized."""
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    w = np.zeros(d + 1)
    lipschitz = np.linalg.norm(xb, 2) ** 2 / (4.0 * n) + L2_PENALTY
    step = 1.0 / lipschitz
    penalty = np.ones(d + 1)
    penalty[-1] = 0.0
    for _ in range(FIT_ITERATIONS):
        p = _sigmoid_values(xb @ w)
        grad = xb.T @ (p - y) / n + L2_PENALTY * penalty * w
        w = w - step * grad
    return w


def as_label_sets(labels) -> list:
    """Normalize labels to one set per item; bare scalars become singletons."""
    out = []
    for item in labels:
        if isinstance(item, (set, frozenset, list, tuple)):
            out.append(set(item))
        else:
            out.append({item})
    return out


def is_multilabel(label_sets) -> bool:
    return any(len(s) != 1 for s in label_sets)


@dataclass(eq=False)
class OvrClassifier:
    """One-vs-rest logistic weights with an intercept column per class."""

    classes: list
    weights: np.ndarray
    trained: np.ndarray
    multilabel: bool

    def decision_scores(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        scores = xb @ self.weights.T
        scores[:, ~self.trained] = -np.inf
        return scores

    def predict(self, x) -> list:
        """Label sets per row: the argmax class, or every class scoring above 0.5 when multilabel."""
        scores = self.decision_scores(x)
        if self.multilabel:
            return [{self.classes[c] for c in np.flatnonzero(row > 0.0)} for row in scores]
        if not np.any(self.trained):
            raise ConfigError("no class had training examples")
        return [{self.classes[int(b)]} for b in np.argmax(scores, axis=1)]


def logistic_ovr_train(features, labels, split: SplitSpec) -> OvrClassifier:
    """Fit one-vs-rest logistic classifiers on the train side of the split.

    Classes with no positive training example are skipped with a
    DegenerateClass warning and never predicted.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    sets = as_label_sets(labels)
    if len(sets) != x.shape[0]:
        raise LengthMismatch(f"{len(sets)} labels for {x.shape[0]} feature rows")
    multilabel = is_multilabel(sets)
    if split.stratified and multilabel:
        raise ConfigError("stratified splits are only defined for single-label data")
    strat = [next(iter(s)) for s in sets] if split.stratified else None
    train_idx, _ = make_split(x.shape[0], split, labels=strat)
    classes = sorted({c for s in sets for c in s})
    weights = np.zeros((len(classes), x.shape[1] + 1))
    trained = np.zeros(len(classes), dtype=bool)
    x_train = x[train_idx]
    for ci, cls in enumerate(classes):
        y = np.array([1.0 if cls in sets[i] else 0.0 for i in train_idx])
        if y.sum() == 0:
            warnings.warn(f"class {cls!r} has no training examples; skipped", DegenerateClass)
            continue
        weights[ci] = _fit_binary_logistic(x_train, y)
        trained[ci] = True
    return OvrClassifier(classes=classes, weights=weights, trained=trained, multilabel=multilabel)


def micro_macro_f1(pred, truth):
    """Micro and macro F1 over label sets.

    Micro aggregates true/false positives and false negatives globally.
    Macro averages per-class F1 over the classes present in the truth;
    a class with no true positive but some error scores 0.
    """
    p = as_label_sets(pred)
    t = as_label_sets(truth)
    if len(p) != len(t):
        raise LengthMismatch(f"{len(p)} predictions for {len(t)} truths")
    tp = defaultdict(int)
    fp = defaultdict(int)
    fn = defaultdict(int)
    for ps, ts in zip(p, t):
        for c in ps & ts:
            tp[c] += 1
        for c in ps - ts:
            fp[c] += 1
        for c in ts - ps:
            fn[c] += 1
    all_classes = set(tp) | set(fp) | set(fn)
    tp_sum = sum(tp[c] for c in all_classes)
    denom = 2 * tp_sum + sum(fp[c] for c in all_classes) + sum(fn[c] for c in all_classes)
    micro = 2.0 * tp_sum / denom if denom else 1.0
    truth_classes = sorted({c for s in t for c in s})
    if not truth_classes:
        return micro, 1.0
    per_class = []
    for c in truth_classes:
        d = 2 * tp[c] + fp[c] + fn[c]
        per_class.append(2.0 * tp[c] / d if d else 0.0)
    return micro, float(np.mean(per_class))


def roc_auc(scores, labels) -> float:
    """Rank-statistic AUC; tied scores contribute one half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise LengthMismatch(f"{s.shape} scores for {y.shape} labels")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigError("AUC needs both positive and negative examples")
    order = np.argsort(s, kind="mergesort")
    _, inverse, counts = np.unique(s[order], return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg_rank_sorted = (starts + ends + 1) / 2.0
    ranks = np.empty(s.size)
    ranks[order] = avg_rank_sorted[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Mean of the precision at each positive, scanning by descending score (stable tie order)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape:
        raise LengthMismatch(f"{s.shape} scores for {y.shape} labels")
    n_pos = y.sum()
    if n_pos == 0:
        raise ConfigError("average precision needs at least one positive")
    order = np.lexsort((np.arange(s.size), -s))
    hits = y[order]
    precision = np.cumsum(hits) / np.arange(1, s.size + 1)
    return float(np.sum(precision * hits) / n_pos)


def link_predict(embeddings, task: LinkPredTask, split: SplitSpec):
    """Train a logistic classifier on cosine features of the pairs and score the held-out side."""
    pairs = np.concatenate([task.positives, task.negatives])
    y = np.concatenate([np.ones(len(task.positives)), np.zeros(len(task.negatives))])
    feats = cosine_features(embeddings, pairs)[:, None]
    strat = y if split.stratified else None
    train_idx, test_idx = make_split(len(y), split, labels=strat)
    w = _fit_binary_logistic(feats[train_idx], y[train_idx])
    xb = np.hstack([feats[test_idx], np.ones((test_idx.size, 1))])
    scores = _sigmoid_values(xb @ w)
    return roc_auc(scores, y[test_idx]), average_precision(scores, y[test_idx])


def classification_report(features, labels, ratios=(0.1, 0.3, 0.5), seeds=tuple(range(10)), stratified=True):
    """Micro and macro F1 per ratio and seed plus their means, as (task, ratio, seed, metric, value) rows."""
    x = np.asarray(features, dtype=np.float64)
    sets = as_label_sets(labels)
    multilabel = is_multilabel(sets)
    strat = stratified and not multilabel
    strat_labels = [next(iter(s)) for s in sets] if strat else None
    rows = []
    for ratio in ratios:
        micros, macros = [], []
        for seed in seeds:
            spec = SplitSpec(train_ratio=ratio, seed=seed, stratified=strat)
            clf = logistic_ovr_train(x, labels, spec)
            _, test_idx = make_split(x.shape[0], spec, labels=strat_labels)
            pred = clf.predict(x[test_idx])
            micro, macro = micro_macro_f1(pred, [sets[i] for i in test_idx])
            rows.append(("classification", ratio, str(seed), "micro_f1", micro))
            rows.append(("classification", ratio, str(seed), "macro_f1", macro))
            micros.append(micro)
            macros.append(macro)
        rows.append(("classification", ratio, "mean", "micro_f1", float(np.mean(micros))))
        rows.append(("classification", ratio, "mean", "macro_f1", float(np.mean(macros))))
    return rows


def link_prediction_report(net, embeddings, target_view, ratio=0.5, seeds=tuple(range(10))):
    """ROC-AUC and average precision per seed plus their means, same row layout as classification."""
    rows = []
    aucs, aps = [], []
    for seed in seeds:
        task = build_linkpred_task(net, target_view, seed)
        spec = SplitSpec(train_ratio=ratio, seed=seed, stratified=True)
        auc, ap = link_predict(embeddings, task, spec)
        rows.append(("link_prediction", ratio, str(seed), "roc_auc", auc))
        rows.append(("link_prediction", ratio, str(seed), "average_precision", ap))
        aucs.append(auc)
        aps.append(ap)
    rows.append(("link_prediction", ratio, "mean", "roc_auc", float(np.mean(aucs))))
    rows.append(("link_prediction", ratio, "mean", "average_precision", float(np.mean(aps))))
    return rows
