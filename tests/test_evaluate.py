import os
import sys
import threading
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rgae.autodiff as autodiff
import rgae.evaluate as evaluate
import rgae.graph as graph
from rgae.autodiff import _sigmoid_values
from rgae.errors import (
    ConfigError,
    DegenerateClass,
    InsufficientNodes,
    LengthMismatch,
    ZeroVector,
)
from rgae.evaluate import (
    LabelMatrix,
    LinkPredTask,
    SplitSpec,
    _fit_binary_logistic,
    average_precision,
    build_linkpred_task,
    classification_report,
    cosine_features,
    link_prediction_report,
    link_predict,
    logistic_ovr_train,
    make_split,
    micro_macro_f1,
    roc_auc,
    sample_negatives,
)
from rgae.graph import MultiViewNetwork, SparseAdjacency, edge_pair_codes
from rgae.synth import SynthConfig, generate


class TestMakeSplit:
    def test_sizes_disjoint_cover(self):
        train, test = make_split(10, SplitSpec(0.5, seed=0))
        assert train.size == 5 and test.size == 5
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))

    def test_stratified_proportions(self):
        labels = np.array(["a"] * 6 + ["b"] * 4)
        train, _ = make_split(10, SplitSpec(0.5, seed=1, stratified=True), labels=labels)
        assert np.sum(labels[train] == "a") == 3
        assert np.sum(labels[train] == "b") == 2

    def test_deterministic_under_seed(self):
        s = SplitSpec(0.3, seed=7)
        t1, _ = make_split(20, s)
        t2, _ = make_split(20, s)
        assert np.array_equal(t1, t2)
        t3, _ = make_split(20, SplitSpec(0.3, seed=8))
        assert not np.array_equal(t1, t3)

    def test_empty_side_rejected(self):
        with pytest.raises(InsufficientNodes):
            make_split(10, SplitSpec(0.96, seed=0))

    def test_bad_ratio(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.0)
        with pytest.raises(ConfigError):
            SplitSpec(1.0)

    def test_negative_seed_raises_config_error(self):
        # numpy's untyped ValueError came out of make_split
        with pytest.raises(ConfigError, match="^seed must be an integer of at least 0, got -1$"):
            make_split(10, SplitSpec(0.5, -1))

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 ended in a TypeError at the first split and True was accepted as seed 1
        with pytest.raises(ConfigError, match="^seed must be an integer"):
            SplitSpec(0.5, seed)
        assert SplitSpec(0.5, np.int64(1)) == SplitSpec(0.5, 1)


class TestSampleNegatives:
    def test_negatives_are_non_edges(self):
        adj = SparseAdjacency.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        neg = sample_negatives(adj, 5, seed=0)
        dense = adj.to_dense()
        for u, v in neg:
            assert u < v
            assert dense[u, v] == 0

    def test_near_complete_graph_errors(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        complete = SparseAdjacency.from_edges(4, edges)
        with pytest.raises(InsufficientNodes):
            sample_negatives(complete, 1, seed=0)

    def test_deterministic(self):
        adj = SparseAdjacency.from_edges(8, [(0, 1), (1, 2)])
        assert np.array_equal(sample_negatives(adj, 6, seed=3), sample_negatives(adj, 6, seed=3))

    def test_negative_seed_raises_config_error(self):
        adj = SparseAdjacency.from_edges(8, [(0, 1), (1, 2)])
        with pytest.raises(ConfigError, match="^seed must be an integer of at least 0, got -3$"):
            sample_negatives(adj, 5, -3)

    def test_cached_table_draws_as_a_fresh_one(self, monkeypatch):
        net = _three_view_net(300, seed=2)
        rest = net.without_view(0)
        assert rest.view(1) is net.view(2)
        builds, codes = [], graph.edge_pair_codes
        monkeypatch.setattr(graph, "edge_pair_codes", lambda adj: builds.append(adj) or codes(adj))
        for view in (net.view(1), net.view(2), rest.view(1)):
            for seed in (0, 1, 7, 2**32 - 1):
                drawn = sample_negatives(view, view.num_edges, seed)
                fresh = SparseAdjacency(view.n, view.row_offsets, view.col_indices, view.values)
                assert np.array_equal(drawn, sample_negatives(fresh, view.num_edges, seed))
                assert np.array_equal(drawn, _reference_negatives(view, view.num_edges, seed))
        # each view builds its table once and reuses it, reached through without_view too
        assert builds.count(net.view(1)) == 1 and builds.count(net.view(2)) == 1

    def test_task_invariants(self):
        adj = SparseAdjacency.from_edges(8, [(0, 1), (1, 2), (5, 6)])
        from rgae.graph import MultiViewNetwork

        net = MultiViewNetwork(8, [adj, SparseAdjacency.from_edges(8, [(0, 2)])])
        task = build_linkpred_task(net, 0, seed=1)
        assert task.positives.shape == task.negatives.shape
        pos = {tuple(p) for p in task.positives}
        neg = {tuple(p) for p in task.negatives}
        assert not pos & neg

    @given(
        n=st.integers(2, 40),
        density=st.floats(0.0, 1.0),
        graph_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_enumerate_then_choice(self, n, density, graph_seed, seed, data):
        view = _random_view(n, density, graph_seed)
        free = n * (n - 1) // 2 - view.num_edges
        assume(free >= 1)
        count = data.draw(st.integers(1, free))
        assert np.array_equal(sample_negatives(view, count, seed), _reference_negatives(view, count, seed))

    @pytest.mark.parametrize("n, density", [(2, 0.0), (3, 0.5), (40, 0.0), (40, 0.9), (60, 0.2)])
    def test_every_non_edge_drawn(self, n, density):
        view = _random_view(n, density, graph_seed=n)
        free = n * (n - 1) // 2 - view.num_edges
        for seed in (0, 11):
            assert np.array_equal(sample_negatives(view, free, seed), _reference_negatives(view, free, seed))
        with pytest.raises(InsufficientNodes, match=f"^only {free} non-edges available, need {free + 1}$"):
            sample_negatives(view, free + 1, seed=0)

    def test_memory_stays_below_all_pairs(self):
        # about 15 neighbours per node, the benchmark graphs' density
        n = 2000
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, n, size=(15 * n // 2, 2))
        view = SparseAdjacency.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
        tracemalloc.start()
        try:
            negatives = sample_negatives(view, view.num_edges, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert negatives.shape == (view.num_edges, 2)
        assert peak < n * n


def _random_view(n, density, graph_seed) -> SparseAdjacency:
    iu, ju = np.triu_indices(n, k=1)
    pick = np.random.default_rng(graph_seed).random(iu.size) < density
    return SparseAdjacency.from_edges(n, np.stack([iu[pick], ju[pick]], axis=1))


def _three_view_net(n, seed):
    """Three planted communities in three views, about 15 neighbours per node like the benchmark graphs."""
    sizes = (n - 2 * (n // 3), n // 3, n // 3)
    return generate(SynthConfig(n=n, communities=sizes, views=3, p_in=24 / n, p_out=6 / n, seed=seed))


def _reference_negatives(view, count, seed):
    """Enumerate the codes of every non-edge, then draw sorted positions among them: the O(n^2) composition."""
    iu, ju = np.triu_indices(view.n, k=1)
    codes = iu.astype(np.int64) * view.n + ju
    non_edges = np.setdiff1d(codes, edge_pair_codes(view), assume_unique=True)
    if non_edges.size < count:
        raise InsufficientNodes(f"only {non_edges.size} non-edges available, need {count}")
    rng = np.random.default_rng(seed)
    chosen = non_edges[np.sort(rng.choice(non_edges.size, size=count, replace=False))]
    return np.stack([chosen // view.n, chosen % view.n], axis=1)


class TestLogisticOvr:
    def test_separable_one_dimensional(self):
        x = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        train, test = make_split(20, SplitSpec(0.5, seed=0, stratified=True), labels=y)
        labels = LabelMatrix.of(y)
        clf = logistic_ovr_train(x, labels, train)
        pred = clf.predict(x[test])
        micro, macro = micro_macro_f1(pred, labels.y[test])
        assert micro == 1.0 and macro == 1.0

    def test_identical_features_predict_majority(self):
        x = np.zeros((10, 2))
        y = np.array([0] * 7 + [1] * 3)
        train, _ = make_split(10, SplitSpec(0.5, seed=0, stratified=True), labels=y)
        labels = LabelMatrix.of(y)
        clf = logistic_ovr_train(x, labels, train)
        pred = clf.predict(x)
        assert labels.classes == [0, 1]
        assert pred.dtype == bool and pred.shape == (10, 2)
        assert np.all(pred[:, 0]) and not np.any(pred[:, 1])

    def test_gaussian_blobs(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        x = np.concatenate([c + 0.1 * rng.normal(size=(30, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 30)
        train, test = make_split(90, SplitSpec(0.5, seed=0, stratified=True), labels=y)
        labels = LabelMatrix.of(y)
        clf = logistic_ovr_train(x, labels, train)
        pred = clf.predict(x[test])
        micro, _ = micro_macro_f1(pred, labels.y[test])
        assert micro > 0.95

    def test_degenerate_class_warned_and_skipped(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = LabelMatrix.of([{"a"}, {"a"}, {"a"}, {"b"}])
        # seed chosen so the single "b" example lands in the test side
        train, _ = make_split(4, SplitSpec(0.5, seed=1))
        with pytest.warns(DegenerateClass, match="'b'"):
            clf = logistic_ovr_train(x, labels, train)
        b = labels.classes.index("b")
        assert not clf.trained[b]
        assert not np.any(clf.predict(x)[:, b])

    def test_multilabel_thresholding(self):
        rng = np.random.default_rng(1)
        n = 40
        x = rng.normal(size=(n, 2))
        sets = []
        for row in x:
            s = set()
            if row[0] > 0:
                s.add("r")
            if row[1] > 0:
                s.add("u")
            sets.append(s)
        labels = LabelMatrix.of(sets)
        train, _ = make_split(n, SplitSpec(0.5, seed=0))
        clf = logistic_ovr_train(x, labels, train)
        assert labels.multilabel and clf.multilabel
        pred = clf.predict(x)
        micro, _ = micro_macro_f1(pred, labels.y)
        assert micro > 0.9

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            logistic_ovr_train(np.zeros((3, 2)), LabelMatrix.of([0, 1]), np.array([0]))


class TestLabelMatrix:
    def test_sets_scalars_and_sequences(self):
        labels = LabelMatrix.of([{"b", "a"}, "c", ("a",), [], frozenset({"c"})])
        assert labels.classes == ["a", "b", "c"]
        assert labels.y.dtype == bool
        assert labels.y.tolist() == [
            [True, True, False],
            [False, False, True],
            [True, False, False],
            [False, False, False],
            [False, False, True],
        ]
        assert labels.multilabel

    @pytest.mark.parametrize("labels", [[set(), set(), set()], [(), []], []])
    def test_no_label_at_all_rejected(self, labels):
        with pytest.raises(ConfigError, match="^no item has a label$"):
            LabelMatrix.of(labels)

    @pytest.mark.parametrize("labels", [["10", 7, {"a"}], [{"x", 1}, "y"], [(2.5, None)]],
                             ids=["string-int-set", "mixed-set", "float-none"])
    def test_labels_that_cannot_be_ordered_are_named(self, labels):
        with pytest.raises(ConfigError, match="^labels .+ and .+ cannot be ordered against each other$") as info:
            LabelMatrix.of(labels)
        names = set().union(*(x if isinstance(x, (set, list, tuple)) else {x} for x in labels))
        named = [name for name in names if f"{name!r} " in str(info.value)]
        assert len(named) == 2 and type(named[0]) is not type(named[1])

    def test_string_labels_keep_their_order(self):
        assert LabelMatrix.of(["10", "9", {"a", "B"}, "b"]).classes == ["10", "9", "B", "a", "b"]

    def test_single_label_integers(self):
        labels = LabelMatrix.of(np.array([2, 0, 10, 2]))
        assert labels.classes == [0, 2, 10]
        assert not labels.multilabel
        assert labels.y.argmax(axis=1).tolist() == [1, 0, 2, 1]


def _ovr_case(kind):
    """Features, labels and split: single-label with one class only on the test side, or multilabel."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 3))
    spec = SplitSpec(0.5, seed=4)
    if kind == "multilabel":
        labels = [{c for c, v in zip("rus", row) if v > 0} for row in x]
        return x, labels, spec
    labels = ["abc"[int(np.argmax(row))] for row in x]
    _, test = make_split(40, spec)
    labels[test[0]] = "lone"
    return x, labels, spec


class TestBatchedOvr:
    @pytest.mark.parametrize("kind", ["degenerate", "multilabel"])
    def test_matches_per_class_fits(self, kind):
        x, labels, spec = _ovr_case(kind)
        train, _ = make_split(40, spec)
        matrix = LabelMatrix.of(labels)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clf = logistic_ovr_train(x, matrix, train)
        degenerate = [w for w in caught if issubclass(w.category, DegenerateClass)]
        assert len(degenerate) == (kind == "degenerate")
        sets = [lab if isinstance(lab, set) else {lab} for lab in labels]
        for ci, cls in enumerate(matrix.classes):
            y = np.array([1.0 if cls in sets[i] else 0.0 for i in train])
            if y.sum() == 0:
                assert cls == "lone" and not clf.trained[ci]
                assert not np.any(clf.weights[ci])
                continue
            ref = _fit_binary_logistic(x[train], y)
            assert clf.trained[ci]
            assert np.max(np.abs(clf.weights[ci] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_column_matrix_is_the_vector_fit(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = (x[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(np.float64)
        assert np.array_equal(_fit_binary_logistic(x, y[:, None])[:, 0], _fit_binary_logistic(x, y))


def _reference_fit(x, y):
    """The two-dimensional fit as it was written before fits were stacked: the reference for its bits."""
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    w = np.zeros((d + 1,) + y.shape[1:])
    step = 1.0 / (np.linalg.norm(xb, 2) ** 2 / (4.0 * n) + evaluate.L2_PENALTY)
    decay = np.full_like(w, evaluate.L2_PENALTY)
    decay[d] = 0.0
    for _ in range(evaluate.FIT_ITERATIONS):
        w = w - step * (xb.T @ (_sigmoid_values(xb @ w) - y) / n + decay * w)
    return w


def _per_seed_predict(x, labels, train, test):
    """One split's fit and prediction as composed before seeds were stacked."""
    y = labels.y[train]
    trained = y.any(axis=0)
    weights = np.zeros((y.shape[1], x.shape[1] + 1))
    weights[trained] = _fit_binary_logistic(x[train], y[:, trained].astype(np.float64)).T
    scores = np.hstack([x[test], np.ones((test.size, 1))]) @ weights.T
    scores[:, ~trained] = -np.inf
    if labels.multilabel:
        return trained, weights, scores > 0.0
    return trained, weights, np.argmax(scores, axis=1)[:, None] == np.arange(scores.shape[1])


def _per_seed_report(x, labels, ratios, seeds):
    """classification_report with one fit per ratio and seed: the reference for the stacked report."""
    matrix = LabelMatrix.of(labels)
    strat = not matrix.multilabel
    rows = []
    for ratio in ratios:
        results = []
        for seed in seeds:
            spec = SplitSpec(train_ratio=ratio, seed=seed, stratified=strat)
            train, test = make_split(x.shape[0], spec, labels=matrix.y.argmax(axis=1) if strat else None)
            results.append(micro_macro_f1(_per_seed_predict(x, matrix, train, test)[2], matrix.y[test]))
        rows += evaluate._report_rows("classification", ratio, seeds, results, ("micro_f1", "macro_f1"))
    return rows


def _stacked_case(kind):
    """Every item labeled: five classes, plus a single-item class, or plus a rare second label on six items."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(160, 12)) + np.repeat(np.eye(5, 12), 32, axis=0)
    labels = [int(c) for c in np.repeat(np.arange(5), 32)]
    if kind == "degenerate":
        labels[7] = 9
    elif kind == "multilabel":
        # "r" sits on 6 items, so at ratio .1 some seeds' training sides miss it
        labels = [{c} | ({"r"} if i % 27 == 3 else set()) for i, c in enumerate("abcde"[c] for c in labels)]
    return x, labels


class TestStackedSeeds:
    RATIOS, SEEDS = (0.1, 0.3, 0.5), tuple(range(10))

    @pytest.mark.parametrize("kind", ["single", "degenerate", "multilabel"])
    def test_weights_and_predictions_match_per_seed_fits(self, kind):
        x, raw = _stacked_case(kind)
        labels = LabelMatrix.of(raw)
        strat_index = None if labels.multilabel else labels.y.argmax(axis=1)
        groups = []
        for ratio in self.RATIOS:
            specs = [SplitSpec(ratio, seed=s, stratified=strat_index is not None) for s in self.SEEDS]
            train, test = (np.stack(side) for side in zip(*[make_split(160, sp, strat_index) for sp in specs]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateClass)
                clf = logistic_ovr_train(x, labels, train)
                pred = clf.predict(x[test])
                for k in range(len(self.SEEDS)):
                    trained, weights, ref_pred = _per_seed_predict(x, labels, train[k], test[k])
                    assert np.array_equal(clf.trained[k], trained)
                    assert np.array_equal(clf.weights[k], weights)
                    assert np.array_equal(pred[k], ref_pred)
            groups.append(len(np.unique(clf.trained, axis=0)))
        # multilabel splits differ in their trained classes within one stack, so several descents run
        assert (max(groups) > 1) == (kind == "multilabel")

    @pytest.mark.parametrize("kind", ["single", "degenerate", "multilabel"])
    def test_report_rows_match_per_seed_report(self, kind):
        x, labels = _stacked_case(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClass)
            assert classification_report(x, labels, self.RATIOS, self.SEEDS) == _per_seed_report(
                x, labels, self.RATIOS, self.SEEDS
            )

    def test_one_warning_per_split_and_untrained_class(self):
        x, labels = _stacked_case("degenerate")
        train = np.stack([make_split(160, SplitSpec(0.1, seed=s))[0] for s in range(4)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clf = logistic_ovr_train(x, LabelMatrix.of(labels), train)
        assert len([w for w in caught if issubclass(w.category, DegenerateClass)]) == (~clf.trained).sum()

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_unstacked_fits_keep_their_bits(self, shape):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 6))
        y = (rng.normal(size=(50,) + shape) + x[:, :1] > 0).astype(np.float64)
        assert np.array_equal(_fit_binary_logistic(x, y), _reference_fit(x, y))

    def test_one_logistic_call_per_step_on_a_stack_over_the_block_budget(self, monkeypatch):
        # the decoder walks row blocks; the logistic itself runs each descent step's stack in one call, here more
        # entries than a decoder block holds at n = 1000
        calls = []
        monkeypatch.setattr(evaluate, "_sigmoid_values", lambda z: calls.append(z.size) or _sigmoid_values(z))
        monkeypatch.setattr(evaluate, "FIT_ITERATIONS", 3)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 200, 5))
        y = (rng.random((4, 200, 100)) < 0.5).astype(np.float64)
        _fit_binary_logistic(x, y)
        assert calls == [4 * 200 * 100] * 3 and calls[0] > autodiff._BLOCK_ROWS * 1000


def _reference_f1(pred, truth):
    """Micro and macro F1 over label sets, counted with dicts: the per-row set composition."""
    tp = defaultdict(int)
    fp = defaultdict(int)
    fn = defaultdict(int)
    for ps, ts in zip(pred, truth):
        for c in ps & ts:
            tp[c] += 1
        for c in ps - ts:
            fp[c] += 1
        for c in ts - ps:
            fn[c] += 1
    tp_sum = sum(tp.values())
    denom = 2 * tp_sum + sum(fp.values()) + sum(fn.values())
    micro = 2.0 * tp_sum / denom if denom else 1.0
    truth_classes = sorted({c for s in truth for c in s})
    if not truth_classes:
        return micro, 1.0
    per_class = []
    for c in truth_classes:
        d = 2 * tp[c] + fp[c] + fn[c]
        per_class.append(2.0 * tp[c] / d if d else 0.0)
    return micro, float(np.mean(per_class))


def _onehot(indices, k):
    return np.eye(k, dtype=bool)[indices]


def _label_sets(matrix):
    return [set(np.flatnonzero(row).tolist()) for row in matrix]


class TestMicroMacroF1:
    def test_perfect(self):
        micro, macro = micro_macro_f1(_onehot([0, 1], 2), _onehot([0, 1], 2))
        assert micro == 1.0 and macro == 1.0

    def test_hand_counts(self):
        micro, macro = micro_macro_f1(_onehot([0, 0], 2), _onehot([0, 1], 2))
        assert micro == pytest.approx(0.5)
        assert macro == pytest.approx((2 / 3 + 0.0) / 2)

    def test_all_wrong(self):
        micro, macro = micro_macro_f1(_onehot([1, 0], 2), _onehot([0, 1], 2))
        assert micro == 0.0 and macro == 0.0

    def test_micro_equals_accuracy_for_multiclass(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        micro, _ = micro_macro_f1(_onehot(pred, 4), _onehot(truth, 4))
        assert micro == pytest.approx(np.mean(pred == truth))

    def test_class_missing_from_truth_excluded_from_macro(self):
        # columns a, b, c: the prediction invents class c; macro averages only over a and b
        micro, macro = micro_macro_f1(_onehot([0, 2], 3), _onehot([0, 1], 3))
        assert macro == pytest.approx((1.0 + 0.0) / 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            micro_macro_f1(_onehot([0], 2), _onehot([0, 1], 2))

    @example((np.zeros((3, 2), bool), np.zeros((3, 2), bool)))
    @example((_onehot([2, 0, 2], 3), _onehot([0, 0, 1], 3) & [[True], [False], [True]]))
    @given(
        st.integers(0, 12).flatmap(
            lambda rows: st.integers(0, 5).flatmap(
                lambda cols: st.tuples(
                    hnp.arrays(bool, (rows, cols)),
                    hnp.arrays(bool, (rows, cols)),
                )
            )
        )
    )
    def test_matches_set_counts(self, pair):
        # random matrices cover empty rows, classes only in pred and all-false columns
        pred, truth = pair
        assert micro_macro_f1(pred, truth) == _reference_f1(_label_sets(pred), _label_sets(truth))


class TestRankMetrics:
    def test_perfectly_separated(self):
        scores = np.array([0.9, 0.9, 0.1, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert roc_auc(scores, labels) == 1.0
        assert average_precision(scores, labels) == 1.0

    def test_constant_scores_give_half(self):
        scores = np.full(10, 0.4)
        labels = np.array([1] * 5 + [0] * 5)
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_hand_ranking(self):
        scores = np.array([0.8, 0.6, 0.4, 0.2])
        labels = np.array([1, 0, 1, 0])
        assert roc_auc(scores, labels) == pytest.approx(0.75)
        assert average_precision(scores, labels) == pytest.approx(5 / 6)

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base)
        assert roc_auc(3 * scores - 7, labels) == pytest.approx(base)

    def test_random_scores_ap_near_half(self):
        values = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scores = rng.random(1000)
            labels = np.array([1] * 500 + [0] * 500)
            values.append(average_precision(scores, labels))
        assert abs(np.mean(values) - 0.5) < 0.1

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("metric", [roc_auc, average_precision])
    @pytest.mark.parametrize("labels", [[1, 2, 0], [1, 0.5, 0], [1, -1, 0], [1, np.nan, 0]])
    def test_labels_other_than_0_or_1_rejected(self, metric, labels):
        # average_precision([0.9, 0.1], [2, 0]) was 2.0 and roc_auc counted 0.5 as a negative
        with pytest.raises(ConfigError, match="^labels must be 0 or 1, got "):
            metric(np.array([0.9, 0.5, 0.1]), np.array(labels))

    @pytest.mark.parametrize("metric", [roc_auc, average_precision])
    def test_boolean_labels_allowed(self, metric):
        scores = np.array([0.9, 0.5, 0.1, 0.3])
        assert metric(scores, np.array([True, False, True, False])) == metric(scores, np.array([1, 0, 1, 0]))

    @given(size=st.integers(2, 500), tied=st.booleans(), data=st.data())
    def test_match_the_references(self, size, tied, data):
        if tied:
            s = np.array(data.draw(st.lists(st.sampled_from(TIE_SCORES), min_size=size, max_size=size)))
        else:
            s = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=size)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        assume(0 < labels.sum() < labels.size)
        assert roc_auc(s, labels) == reference_roc_auc(s, labels)
        assert average_precision(s, labels) == reference_average_precision(s, labels)

    @given(
        scores=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1e-20, 0.25, 0.5, 3.0]), min_size=2, max_size=60),
        data=st.data(),
    )
    def test_auc_equals_average_rank_statistic(self, scores, data):
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))))
        assume(0 < labels.sum() < labels.size)
        s = np.array(scores)
        order = np.argsort(s, kind="mergesort")
        _, inverse, counts = np.unique(s[order], return_inverse=True, return_counts=True)
        ends = np.cumsum(counts)
        ranks = np.empty(s.size)
        ranks[order] = ((ends - counts + ends + 1) / 2.0)[inverse]
        n_pos = int(labels.sum())
        u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
        assert roc_auc(s, labels) == u / (n_pos * (s.size - n_pos))


# signed zeros that tie, a tiny and a huge value: ties and extremes for the rank metrics
TIE_SCORES = (-1.0, -0.0, 0.0, 1e-300, 0.25, 3.0, 1e300)


def reference_roc_auc(scores, labels) -> float:
    """Unsorted positive scores searched in the sorted negatives: the reference for the sorted-key AUC."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos, neg = s[y == 1], np.sort(s[y != 1])
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below + 0.5 * tied).sum() / (pos.size * neg.size))


def reference_average_precision(scores, labels) -> float:
    """Descending scores with ties in index order by a two-key lexsort: the reference for the AP ordering."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    order = np.lexsort((np.arange(s.size), -s))
    hits = y[order]
    precision = np.cumsum(hits) / np.arange(1, s.size + 1)
    return float(np.sum(precision * hits) / y.sum())


def gathered_cosine_features(embeddings, pairs) -> np.ndarray:
    """Two row norms over gathered copies of every pair's rows: the reference for the per-node norms."""
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


def task_link_predict(embeddings, task, split):
    """Score one whole task from the embeddings, cosines of all its pairs in one call: the reference scoring."""
    pairs = np.concatenate([task.positives, task.negatives])
    y = np.concatenate([np.ones(len(task.positives)), np.zeros(len(task.negatives))])
    feats = gathered_cosine_features(embeddings, pairs)
    strat = y if split.stratified else None
    train_idx, test_idx = make_split(len(y), split, labels=strat)
    x_train, y_train = feats[train_idx], y[train_idx]
    scores = np.sign(np.mean((x_train - x_train.mean()) * (y_train - y_train.mean()))) * feats[test_idx]
    return roc_auc(scores, y[test_idx]), average_precision(scores, y[test_idx])


def per_seed_link_report(net, embeddings, target_view, ratio=0.5, seeds=tuple(range(10))):
    """Rebuild each seed's whole task, positives included, and score it from the embeddings: the reference report."""
    view = net.view(target_view)
    codes = edge_pair_codes(view)
    results = []
    for seed in seeds:
        positives = np.stack([codes // net.n, codes % net.n], axis=1)
        task = LinkPredTask(positives, sample_negatives(view, positives.shape[0], seed))
        results.append(task_link_predict(embeddings, task, SplitSpec(train_ratio=ratio, seed=seed, stratified=True)))
    return evaluate._report_rows("link_prediction", ratio, seeds, results, ("roc_auc", "average_precision"))


def task_cosines(embeddings, task):
    return cosine_features(embeddings, task.positives), cosine_features(embeddings, task.negatives)


def _wide_range_rows(rng, n, d):
    """Rows of both signs scaled from 1e-150 to 1e150, entries within a row spread over six decades."""
    return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-150, 151, size=(n, 1)) * 10.0 ** rng.uniform(-3, 3, (n, d))


class TestCosineFeatures:
    def test_values(self):
        y = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        pairs = np.array([[0, 1], [0, 2]])
        feats = cosine_features(y, pairs)
        assert feats[0] == pytest.approx(0.0)
        assert feats[1] == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector_warns(self):
        y = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(ZeroVector):
            feats = cosine_features(y, np.array([[0, 1]]))
        assert feats[0] == 0.0

    @pytest.mark.filterwarnings("ignore::rgae.errors.ZeroVector")
    @pytest.mark.parametrize(
        "layout", ["rows", "zero rows", "d=1", "fortran", "column slice", "d=300", "negative indices"]
    )
    def test_matches_gathered_norms(self, layout):
        rng = np.random.default_rng(12)
        y = _wide_range_rows(rng, 80, 300 if layout == "d=300" else 9)
        if layout == "zero rows":
            y[::7] = 0.0
        elif layout == "d=1":
            y = y[:, :1]
        elif layout == "fortran":
            y = np.asfortranarray(y)
        elif layout == "column slice":
            y = y[:, 1::2]
        pairs = rng.integers(0, 80, size=(500, 2)) - (80 if layout == "negative indices" else 0)
        assert cosine_features(y, pairs).tobytes() == gathered_cosine_features(y, pairs).tobytes()


class TestLinkPredict:
    def test_separable_embeddings(self):
        # two tight clusters: intra-cluster pairs are positives
        rng = np.random.default_rng(4)
        y = np.concatenate([
            np.array([1.0, 0.1]) + 0.01 * rng.normal(size=(10, 2)),
            np.array([0.1, 1.0]) + 0.01 * rng.normal(size=(10, 2)),
        ])
        pos = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        neg = [(i, 10 + j) for i in range(10) for j in range(5)][: len(pos)]
        task = LinkPredTask(np.array(pos), np.array(neg))
        auc, ap = link_predict(*task_cosines(y, task), SplitSpec(0.5, seed=0, stratified=True))
        assert auc > 0.95 and ap > 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(12, 3))
        pos = np.array([(0, 1), (2, 3), (4, 5), (6, 7)])
        neg = np.array([(0, 2), (1, 3), (5, 8), (9, 10)])
        task = LinkPredTask(pos, neg)
        spec = SplitSpec(0.5, seed=2, stratified=True)
        assert link_predict(*task_cosines(y, task), spec) == link_predict(*task_cosines(y, task), spec)
        assert link_predict(*task_cosines(y, task), spec) == task_link_predict(y, task, spec)

    def test_unstratified_split_ignores_the_labels(self):
        # the reference draws with make_split(n, spec) and no labels when the spec is not stratified
        task, y = TestRankScoringMatchesFit._case(6)
        for seed in range(3):
            plain, strat = SplitSpec(0.5, seed=seed), SplitSpec(0.5, seed=seed, stratified=True)
            assert link_predict(*task_cosines(y, task), plain) == task_link_predict(y, task, plain)
            assert link_predict(*task_cosines(y, task), plain) != link_predict(*task_cosines(y, task), strat)


def _fit_link_predict(embeddings, task, split):
    """Link prediction scored by a logistic fit on the cosine feature: the reference for the rank scoring."""
    pairs = np.concatenate([task.positives, task.negatives])
    y = np.concatenate([np.ones(len(task.positives)), np.zeros(len(task.negatives))])
    feats = cosine_features(embeddings, pairs)[:, None]
    strat = y if split.stratified else None
    train_idx, test_idx = make_split(len(y), split, labels=strat)
    w = _fit_binary_logistic(feats[train_idx], y[train_idx])
    xb = np.hstack([feats[test_idx], np.ones((test_idx.size, 1))])
    scores = _sigmoid_values(xb @ w)
    return roc_auc(scores, y[test_idx]), average_precision(scores, y[test_idx])


class TestRankScoringMatchesFit:
    @staticmethod
    def _case(seed):
        """A 60-node view over three communities and embeddings that carry them, with noise."""
        rng = np.random.default_rng(seed)
        community = np.repeat(np.arange(3), 20)
        iu, ju = np.triu_indices(60, k=1)
        pick = rng.random(iu.size) < np.where(community[iu] == community[ju], 0.3, 0.03)
        view = SparseAdjacency.from_edges(60, np.stack([iu[pick], ju[pick]], axis=1))
        net = MultiViewNetwork(n=60, views=[view, view])
        y = np.eye(3)[community] + 0.8 * rng.normal(size=(60, 3))
        return build_linkpred_task(net, 0, seed), y

    @staticmethod
    def _assert_same(y, task):
        for seed in range(5):
            spec = SplitSpec(0.5, seed=seed, stratified=True)
            assert link_predict(*task_cosines(y, task), spec) == _fit_link_predict(y, task, spec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_informative_embeddings(self, seed):
        task, y = self._case(seed)
        self._assert_same(y, task)

    def test_swapped_labels_negative_covariance(self):
        task, y = self._case(3)
        swapped = LinkPredTask(task.negatives, task.positives)
        auc, _ = link_predict(*task_cosines(y, swapped), SplitSpec(0.5, seed=0, stratified=True))
        assert auc > 0.5
        self._assert_same(y, swapped)

    def test_equal_rows_zero_covariance(self):
        task, y = self._case(4)
        equal = np.ones_like(y)
        assert link_predict(*task_cosines(equal, task), SplitSpec(0.5, seed=0, stratified=True))[0] == 0.5
        self._assert_same(equal, task)

    def test_zero_norm_rows(self):
        task, y = self._case(5)
        y[::4] = 0.0
        with pytest.warns(ZeroVector):
            self._assert_same(y, task)


class TestReports:
    def test_classification_report_layout(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=(12, 2)), 4 + rng.normal(size=(12, 2))])
        labels = [0] * 12 + [1] * 12
        rows = classification_report(x, labels, ratios=(0.5,), seeds=(0, 1))
        assert len(rows) == 6
        means = [r for r in rows if r[2] == "mean"]
        assert {m for _, _, _, m, _ in means} == {"micro_f1", "macro_f1"}
        per_seed = [v for _, _, s, m, v in rows if s != "mean" and m == "micro_f1"]
        mean_value = [v for _, _, s, m, v in rows if s == "mean" and m == "micro_f1"][0]
        assert mean_value == pytest.approx(np.mean(per_seed))

    def test_classification_report_draws_each_split_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=(12, 2)), 4 + rng.normal(size=(12, 2))])
        labels = [0] * 12 + [1] * 12
        splits, fits = [], []
        split, fit = evaluate.make_split, evaluate.logistic_ovr_train

        def counted_split(n, spec, **kwargs):
            splits.append((spec, split(n, spec, **kwargs)))
            return splits[-1][1]

        def recorded_fit(features, labels, train_idx):
            fits.append((train_idx, labels))
            return fit(features, labels, train_idx)

        monkeypatch.setattr(evaluate, "make_split", counted_split)
        monkeypatch.setattr(evaluate, "logistic_ovr_train", recorded_fit)
        ratios, seeds = (0.3, 0.5), (0, 1, 2)
        rows = classification_report(x, labels, ratios=ratios, seeds=seeds)
        # each split is drawn once, in ratio-then-seed order
        assert [(spec.train_ratio, spec.seed) for spec, _ in splits] == [(r, s) for r in ratios for s in seeds]
        drawn = defaultdict(list)
        for spec, (train, _) in splits:
            drawn[spec.train_ratio].append(train)
        # one stacked fit per ratio, in any order: a fit's ratio is the one whose seed-0 split is its row 0
        fitted = [next(r for r, trains in drawn.items() if np.array_equal(train[0], trains[0])) for train, _ in fits]
        assert sorted(fitted) == sorted(ratios)
        # row k of a fit is the split drawn for seed k
        for (train, _), ratio in zip(fits, fitted):
            assert train.shape[0] == len(seeds)
            assert all(np.array_equal(row, t) for row, t in zip(train, drawn[ratio]))
        matrix = fits[0][1]
        assert isinstance(matrix, LabelMatrix) and matrix.classes == [0, 1]
        assert all(labels is matrix for _, labels in fits)
        monkeypatch.undo()
        assert rows == classification_report(x, labels, ratios=ratios, seeds=seeds)

    @staticmethod
    def _three_blobs():
        # class 2 has one item: at ratios .1 and .3 it rounds to no training example, so every such split warns
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(size=(20, 3)), 3 + rng.normal(size=(21, 3))])
        return x, [0] * 20 + [1] * 20 + [2]

    def test_classification_report_runs_at_most_one_fit_per_cpu(self, monkeypatch):
        x, labels = self._three_blobs()
        ratios, seeds = (0.1, 0.3, 0.5), (0, 1, 2)
        fit, turn = evaluate.logistic_ovr_train, threading.Condition()
        state = {}

        def spied_fit(*args):
            with turn:
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
                turn.notify_all()
                # the first fits wait for each other, so the report's full width is reached if it is allowed
                turn.wait_for(lambda: state["peak"] >= state["width"], timeout=5)
            try:
                return fit(*args)
            finally:
                with turn:
                    state["in_flight"] -= 1

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClass)
            serial = [row for r in ratios for row in classification_report(x, labels, ratios=(r,), seeds=seeds)]
            monkeypatch.setattr(evaluate, "logistic_ovr_train", spied_fit)
            for cpus in (1, 2):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                state.update(in_flight=0, peak=0, width=min(len(ratios), cpus))
                rows = classification_report(x, labels, ratios=ratios, seeds=seeds)
                assert state["peak"] == state["width"]
                assert repr(rows) == repr(serial)
            # no ratio, no job: a pool of zero workers would raise
            assert classification_report(x, labels, ratios=(), seeds=seeds) == []

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, cpus in ((4, 4), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert evaluate._cpus() == cpus

    def test_classification_report_passes_on_errors_and_warnings_from_its_jobs(self, monkeypatch):
        x, labels = self._three_blobs()
        # more ratios and workers than cores, and the interpreter switching threads often
        ratios, seeds = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5), (0, 1, 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(len(ratios))), raising=False)
        runs, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for report_ratios in [(r,) for r in ratios] + [ratios]:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rows = classification_report(x, labels, ratios=report_ratios, seeds=seeds)
                runs.append((rows, [w for w in caught if issubclass(w.category, DegenerateClass)]))
        finally:
            sys.setswitchinterval(interval)
        # one warning per split below ratio .5, whether the ratios run alone or side by side
        assert len(runs[-1][1]) == (len(ratios) - 1) * len(seeds) == sum(len(caught) for _, caught in runs[:-1])
        assert repr(runs[-1][0]) == repr(sum((rows for rows, _ in runs[:-1]), []))
        error, fit = ConfigError("no class had training examples"), evaluate.logistic_ovr_train

        def failing_fit(features, labels, train_idx):
            # the fit of ratio .1, the only one with fewer than 10 training items, fails; it is submitted last
            if train_idx.shape[1] < 10:
                raise error
            return fit(features, labels, train_idx)

        monkeypatch.setattr(evaluate, "logistic_ovr_train", failing_fit)
        with warnings.catch_warnings(), pytest.raises(ConfigError) as raised:
            warnings.simplefilter("ignore", DegenerateClass)
            classification_report(x, labels, ratios=(0.1, 0.3, 0.5), seeds=seeds)
        assert raised.value is error

    @pytest.mark.parametrize("seeds", [(-1,), (0, -3)])
    def test_reports_reject_negative_seeds(self, seeds):
        view = SparseAdjacency.from_edges(6, [(0, 1), (2, 3)])
        net = MultiViewNetwork(n=6, views=[view, view])
        y = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(ConfigError, match="nonnegative"):
            classification_report(y, [0, 1] * 3, ratios=(0.5,), seeds=seeds)
        with pytest.raises(ConfigError, match="nonnegative"):
            link_prediction_report(net, y, 1, seeds=seeds)

    def test_classification_report_needs_a_label(self):
        # unlabeled items once scored a perfect micro and macro F1
        x = np.random.default_rng(0).normal(size=(8, 2))
        with pytest.raises(ConfigError, match="no item has a label"):
            classification_report(x, [set()] * 8, ratios=(0.5,), seeds=(0,))

    def test_unlabeled_items_are_left_out(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=(20, 2)), 4 + rng.normal(size=(20, 2))])
        labels = [{0}] * 20 + [{1}] * 20
        for i in range(0, 40, 4):
            labels[i] = set()
        assert not LabelMatrix.of(labels).multilabel
        fitted, fit = [], evaluate.logistic_ovr_train
        monkeypatch.setattr(evaluate, "logistic_ovr_train", lambda f, m, idx: fitted.append(idx) or fit(f, m, idx))
        rows = classification_report(x, labels, ratios=(0.3, 0.5), seeds=(0, 1, 2))
        # unlabeled items once made the data multilabel: mean micro F1 was then 0.726/0.781 at ratios .3/.5
        assert {v for *_, v in rows} == {1.0}
        assert not np.any(np.isin(np.concatenate(fitted, axis=None), np.arange(0, 40, 4)))

    def test_classification_report_needs_a_seed(self):
        x = np.random.default_rng(0).normal(size=(8, 2))
        with pytest.raises(ConfigError):
            classification_report(x, [0, 1] * 4, ratios=(0.5,), seeds=())

    def test_link_prediction_report_negatives_match_sample_negatives(self, monkeypatch):
        rng = np.random.default_rng(8)
        n = 30
        iu, ju = np.triu_indices(n, k=1)
        pick = rng.random(iu.size) < 0.15
        view = SparseAdjacency.from_edges(n, np.stack([iu[pick], ju[pick]], axis=1))
        net = MultiViewNetwork(n=n, views=[view, view])
        y = rng.normal(size=(n, 4))
        draws, scored, cosined = [], [], []
        sample, cosine = evaluate.sample_negatives, evaluate.cosine_features

        def recorded_sample(*args):
            draws.append((args, sample(*args)))
            return draws[-1][1]

        def recorded_cosine(embeddings, pairs):
            cosined.append(pairs)
            return cosine(embeddings, pairs)

        monkeypatch.setattr(evaluate, "sample_negatives", recorded_sample)
        monkeypatch.setattr(evaluate, "cosine_features", recorded_cosine)
        monkeypatch.setattr(evaluate, "link_predict", lambda pos, neg, spec: scored.append((pos, neg, spec)) or (0.5, 0.5))
        seeds = (0, 3, 7)
        link_prediction_report(net, y, 1, seeds=seeds)
        monkeypatch.undo()
        assert len(draws) == len(scored) == len(seeds)
        positives = cosined[0]
        for seed, (args, negatives), (pos, neg, spec) in zip(seeds, draws, scored, strict=True):
            assert args == (view, view.nnz // 2, seed)
            assert np.array_equal(negatives, sample_negatives(view, view.nnz // 2, seed))
            task = build_linkpred_task(net, 1, seed)
            assert np.array_equal(positives, task.positives)
            assert spec == SplitSpec(0.5, seed=seed, stratified=True)
            assert (pos.tobytes(), neg.tobytes()) == tuple(c.tobytes() for c in task_cosines(y, task))

    def test_link_prediction_report_scores_the_positives_once(self, monkeypatch):
        net = _three_view_net(90, seed=4)
        y = np.random.default_rng(1).normal(size=(net.n, 6))
        positives = build_linkpred_task(net, 2, 0).positives
        calls, cosine = [], evaluate.cosine_features
        monkeypatch.setattr(evaluate, "cosine_features", lambda e, pairs: calls.append(pairs) or cosine(e, pairs))
        seeds = (0, 1, 2, 5)
        link_prediction_report(net, y, 2, seeds=seeds)
        assert len(calls) == 1 + len(seeds)
        assert sum(np.array_equal(pairs, positives) for pairs in calls) == 1

    def test_link_prediction_report_matches_per_seed_tasks_at_n1000(self):
        # the benchmark's eval shape: 32 columns, 10 seeds
        net = _three_view_net(1000, seed=9)
        y = _wide_range_rows(np.random.default_rng(2), net.n, 32)
        assert link_prediction_report(net, y, 2) == per_seed_link_report(net, y, 2)
        y = np.random.default_rng(3).normal(size=(net.n, 32))
        assert link_prediction_report(net, y, 1, ratio=0.3) == per_seed_link_report(net, y, 1, ratio=0.3)

    @given(
        n=st.integers(4, 40),
        density=st.floats(0.05, 0.6),
        graph_seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 6),
        zero_every=st.integers(0, 5),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    )
    def test_link_prediction_report_matches_per_seed_tasks(self, n, density, graph_seed, d, zero_every, seeds):
        view = _random_view(n, density, graph_seed)
        assume(2 <= view.num_edges <= n * (n - 1) // 2 - view.num_edges)
        net = MultiViewNetwork(n=n, views=[view, view])
        y = _wide_range_rows(np.random.default_rng(graph_seed), n, d)
        if zero_every:
            y[::zero_every] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroVector)
            assert link_prediction_report(net, y, 1, seeds=seeds) == per_seed_link_report(net, y, 1, seeds=seeds)

    def test_link_prediction_report_warns_on_zero_rows(self):
        net = _three_view_net(60, seed=2)
        y = np.random.default_rng(4).normal(size=(net.n, 3))
        y[::5] = 0.0
        with pytest.warns(ZeroVector):
            rows = link_prediction_report(net, y, 2, seeds=(0, 1))
        with pytest.warns(ZeroVector):
            assert rows == per_seed_link_report(net, y, 2, seeds=(0, 1))

    @pytest.mark.parametrize("rows", [59, 61])
    def test_link_prediction_report_rejects_a_row_count(self, rows):
        net = _three_view_net(60, seed=2)
        y = np.random.default_rng(4).normal(size=(rows, 3))
        with pytest.raises(LengthMismatch, match=f"^{rows} embedding rows for 60 items$"):
            link_prediction_report(net, y, 2, seeds=(0,))

    def test_reports_take_1d_embeddings_as_one_column(self):
        net = _three_view_net(60, seed=2)
        y = np.random.default_rng(4).normal(size=net.n)
        rows = link_prediction_report(net, y, 2, seeds=(0, 1))
        assert rows == link_prediction_report(net, y[:, None], 2, seeds=(0, 1))
        assert rows == per_seed_link_report(net, y[:, None], 2, seeds=(0, 1))
        labels = [0, 1, 2] * 20
        assert classification_report(y, labels, seeds=(0,)) == classification_report(y[:, None], labels, seeds=(0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reports_reject_non_finite_embeddings(self, bad):
        net = _three_view_net(60, seed=2)
        y = np.random.default_rng(4).normal(size=(net.n, 3))
        y[17, 2] = y[40, 0] = bad
        with pytest.raises(ConfigError, match="^embedding row 17 is not finite$"):
            link_prediction_report(net, y, 2, seeds=(0,))
        with pytest.raises(ConfigError, match="^embedding row 17 is not finite$"):
            classification_report(y, [0, 1, 2] * 20, ratios=(0.5,), seeds=(0,))

    @pytest.mark.parametrize("target_view", [2, -1])
    def test_link_prediction_report_rejects_a_missing_view(self, target_view):
        view = SparseAdjacency.from_edges(6, [(0, 1), (2, 3)])
        net = MultiViewNetwork(n=6, views=[view, view])
        with pytest.raises(ConfigError, match="no view"):
            link_prediction_report(net, np.ones((6, 2)), target_view, seeds=(0,))

    def test_link_prediction_report_needs_a_seed(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6) if (i + j) % 2]
        view = SparseAdjacency.from_edges(6, edges)
        net = MultiViewNetwork(n=6, views=[view, view])
        y = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(ConfigError):
            link_prediction_report(net, y, 1, seeds=())
