import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgae import graph
from rgae.cli import main as cli_main
from rgae.evaluate import LabelMatrix
from rgae.errors import (
    ConfigError,
    EmptyView,
    FileError,
    IndexOutOfRange,
    NonSymmetric,
    ParseError,
    RgaeError,
    ShapeMismatch,
    SingleView,
)
from rgae.graph import (
    MultiViewNetwork,
    SparseAdjacency,
    jaccard_consistency,
    load_dataset,
    normalize,
    save_dataset,
    spmm,
    text_lines,
)
from rgae.synth import SynthConfig, generate


def adjacency_from_dense(a):
    n = a.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    mask = a[iu, ju] != 0
    return SparseAdjacency.from_edges(n, np.stack([iu[mask], ju[mask]], axis=1), a[iu, ju][mask])


def random_symmetric_dense(n, rng, p=0.4, weighted=False):
    a = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    if not mask.any():
        mask[0] = True
    w = rng.uniform(0.5, 2.0, size=iu.size) if weighted else np.ones(iu.size)
    a[iu[mask], ju[mask]] = w[mask]
    return a + a.T


def dense_normalize_oracle(a):
    # straight-line reference: add self-loops, compute row sums, scale both sides
    a_tilde = a + np.eye(a.shape[0])
    deg = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return inv_sqrt[:, None] * a_tilde * inv_sqrt[None, :]


class TestNormalize:
    def test_single_edge_pair(self):
        adj = SparseAdjacency.from_edges(2, [(0, 1)])
        norm = normalize(adj)
        assert np.allclose(norm.to_dense(), [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_node(self):
        adj = SparseAdjacency(1, np.array([0, 0]), np.array([], dtype=np.int64), np.array([]))
        assert np.allclose(normalize(adj).to_dense(), [[1.0]])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_dense_oracle(self, weighted):
        rng = np.random.default_rng(42)
        a = random_symmetric_dense(6, rng, weighted=weighted)
        norm = normalize(adjacency_from_dense(a))
        assert np.allclose(norm.to_dense(), dense_normalize_oracle(a), atol=1e-14)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        a = random_symmetric_dense(8, rng, weighted=True)
        norm = normalize(adjacency_from_dense(a))
        assert np.all(norm.values > 0) and np.all(norm.values <= 1.0)

    def test_pattern_is_input_plus_diagonal(self):
        rng = np.random.default_rng(9)
        a = random_symmetric_dense(7, rng)
        adj = adjacency_from_dense(a)
        norm = normalize(adj)
        expected = (a != 0) | np.eye(7, dtype=bool)
        assert np.array_equal(norm.to_dense() != 0, expected)

    def test_input_unchanged(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        before = adj.values.copy()
        normalize(adj)
        assert np.array_equal(adj.values, before)

    def test_cycle_rows_sum_to_one(self):
        # every node of a cycle has degree 2, so each normalized row sums to 1
        for n in (3, 5, 8):
            edges = [(i, (i + 1) % n) for i in range(n)]
            norm = normalize(SparseAdjacency.from_edges(n, edges))
            ones = np.ones((n, 1))
            assert np.allclose(spmm(norm, ones), ones)


class TestSpmm:
    def test_isolated_node_identity(self):
        adj = SparseAdjacency(1, np.array([0, 0]), np.array([], dtype=np.int64), np.array([]))
        x = np.array([[2.0, -3.0, 0.5]])
        assert np.array_equal(spmm(normalize(adj), x), x)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(7)
        a = random_symmetric_dense(6, rng)
        norm = normalize(adjacency_from_dense(a))
        x = rng.normal(size=(6, 3))
        assert np.allclose(spmm(norm, x), norm.to_dense() @ x, atol=1e-12)

    def test_zero_matrix(self):
        adj = SparseAdjacency.from_edges(4, [(0, 1), (2, 3)])
        out = spmm(normalize(adj), np.zeros((4, 2)))
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_shape_mismatch(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        with pytest.raises(ShapeMismatch):
            spmm(normalize(adj), np.zeros((4, 2)))

    @pytest.mark.parametrize("isolated", [1, 3], ids=["middle", "last"])
    def test_raw_adjacency_rejected(self, isolated):
        # a bare reduceat over these rows would return row 2's first product for an isolated
        # node 1, and raise IndexError for an isolated last node
        edges = [(u, v) for u, v in [(0, 2), (1, 2), (2, 3)] if isolated not in (u, v)]
        adj = SparseAdjacency.from_edges(4, edges)
        with pytest.raises(ConfigError, match="NormalizedAdjacency"):
            spmm(adj, np.ones((4, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = random_symmetric_dense(10, rng, weighted=True)
        norm = normalize(adjacency_from_dense(a))
        x = rng.normal(size=(10, 4))
        assert np.array_equal(spmm(norm, x), spmm(norm, x))


def reduceat_spmm(norm, dense):
    """The reference spmm: np.add.reduceat's per-row sums of the CSR products."""
    return np.add.reduceat(norm.values[:, None] * dense[norm.col_indices], norm.row_offsets[:-1], axis=0)


def hub_graph(degrees, seed):
    """Weighted star hubs of the given degrees over one leaf pool, then two isolated nodes."""
    hubs, leaves = len(degrees), max(degrees, default=0)
    edges = [(j, hubs + i) for j, d in enumerate(degrees) for i in range(d)]
    weights = np.random.default_rng(seed).uniform(1e-3, 1e3, size=len(edges))
    return normalize(SparseAdjacency.from_edges(hubs + leaves + 2, edges, weights))


def wide_range_operand(n, k, rng):
    """A non-contiguous n-by-k view with magnitudes 1e-8..1e8 and both signed zeros mixed in."""
    base = rng.normal(size=(n, 2 * k)) * 10.0 ** rng.uniform(-8, 8, size=(n, 2 * k))
    base[rng.random(base.shape) < 0.1] = 0.0
    base[rng.random(base.shape) < 0.1] = -0.0
    return base[:, ::2]


class TestSpmmSummationOrder:
    """spmm is pinned to np.add.reduceat bit for bit, so outputs match the reduceat kernel byte for byte."""

    # row lengths (with the diagonal) cross 1, 2, 8, 9, 16, 17, 129, 130, 131 and 300
    HUB_DEGREES = (1, 7, 8, 15, 16, 128, 129, 130, 299)
    # row lengths cross 1,024 and reach 1,230
    LONG_HUB_DEGREES = (1022, 1023, 1024, 1100, 1229)

    @pytest.mark.parametrize("k", [1, 8, 32, 33])
    @pytest.mark.parametrize("graph_name", ["hubs", "every-length", "one-short-row", "long-hubs"])
    def test_bytes_equal_reduceat(self, graph_name, k):
        if graph_name == "hubs":
            norm = hub_graph(self.HUB_DEGREES, seed=k)
        elif graph_name == "every-length":
            # hub j and leaf 299 - j both have degree j + 1, so every length 2..301 occurs twice
            norm = hub_graph(range(1, 301), seed=k)
        elif graph_name == "long-hubs":
            norm = hub_graph(self.LONG_HUB_DEGREES, seed=k)
        else:
            # only node 0 has at most 129 entries; every other row is longer
            edges = [(u, v) for u in range(140) for v in range(u + 1, 140) if u > 0 or v <= 15]
            norm = normalize(SparseAdjacency.from_edges(140, edges))
        assert np.diff(norm.row_offsets).max() >= 131
        rng = np.random.default_rng(k)
        operands = [np.full((norm.n, k), -0.0)] + [wide_range_operand(norm.n, k, rng) for _ in range(3)]
        for dense in operands:
            assert spmm(norm, dense).tobytes() == reduceat_spmm(norm, dense).tobytes()

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=5), st.sampled_from([1, 8, 32, 33]), st.integers(0, 2**32 - 1))
    def test_random_hubs_bytes_equal_reduceat(self, degrees, k, seed):
        norm = hub_graph(degrees, seed)
        dense = wide_range_operand(norm.n, k, np.random.default_rng(seed))
        assert spmm(norm, dense).tobytes() == reduceat_spmm(norm, dense).tobytes()

    @pytest.mark.parametrize(
        "generate_args, train_args",
        [
            (["--n", "60", "--communities", "20,20,20", "--views", "2", "--p-in", "0.3", "--p-out", "0.02",
              "--unique-frac", "0.5", "--seed", "7"],
             ["--dim", "32", "--layers", "32", "--alpha", "0.5", "--beta", "0.5", "--gamma", "5", "--lr", "0.01",
              "--epochs", "500", "--patience", "inf", "--tol", "0", "--seed", "0"]),
            (["--n", "300", "--communities", "100,100,100", "--views", "3", "--p-in", "0.1", "--p-out", "0.005",
              "--seed", "3"],
             ["--dim", "32", "--layers", "16,8", "--epochs", "40", "--seed", "2"]),
        ],
        ids=["criterion-5-n60", "3-view-n300"],
    )
    def test_training_outputs_equal_the_reduceat_kernel(self, tmp_path, monkeypatch, generate_args, train_args):
        data = tmp_path / "data"
        assert cli_main(["generate", "--out", str(data)] + generate_args) == 0

        def outputs(run):
            assert cli_main(["train", "--data", str(data), "--out", str(tmp_path / run)] + train_args) == 0
            return [(tmp_path / run / name).read_bytes() for name in ("embeddings.txt", "history.tsv")]

        got = outputs("spmm")
        monkeypatch.setattr(graph, "spmm", reduceat_spmm)
        assert got == outputs("reduceat")


class TestCsrValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(IndexOutOfRange):
            SparseAdjacency(2, np.array([0, 1, 1]), np.array([0], dtype=np.int64), np.array([1.0]))

    def test_column_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            SparseAdjacency(2, np.array([0, 1, 1]), np.array([5], dtype=np.int64), np.array([1.0]))

    def test_unsorted_columns(self):
        with pytest.raises(IndexOutOfRange):
            SparseAdjacency(
                3, np.array([0, 2, 2, 2]), np.array([2, 1], dtype=np.int64), np.array([1.0, 1.0]),
            )

    def test_missing_mirror(self):
        with pytest.raises(NonSymmetric):
            SparseAdjacency(3, np.array([0, 1, 1, 1]), np.array([1], dtype=np.int64), np.array([1.0]))

    def test_mirror_weight_mismatch(self):
        with pytest.raises(NonSymmetric):
            SparseAdjacency(
                2, np.array([0, 1, 2]), np.array([1, 0], dtype=np.int64), np.array([1.0, 2.0]),
            )

    def test_nonpositive_weight(self):
        with pytest.raises(ConfigError):
            SparseAdjacency.from_edges(2, [(0, 1)], [-1.0])

    @pytest.mark.parametrize("edge, index", [((0, -1), -1), ((0, 5), 5), ((7, 1), 7)])
    def test_node_index_out_of_range(self, edge, index):
        with pytest.raises(IndexOutOfRange, match=f"^node index {index} out of range for 3 nodes$"):
            SparseAdjacency.from_edges(3, [(0, 1), edge])

    def test_from_edges_keeps_max_duplicate(self):
        adj = SparseAdjacency.from_edges(2, [(0, 1), (1, 0), (0, 1)], [1.0, 3.0, 2.0])
        assert adj.nnz == 2
        assert np.array_equal(adj.values, [3.0, 3.0])


class TestJaccard:
    def test_hand_example(self):
        # views {ab, bc} and {bc, cd}: one shared pair of three distinct
        v1 = SparseAdjacency.from_edges(4, [(0, 1), (1, 2)])
        v2 = SparseAdjacency.from_edges(4, [(1, 2), (2, 3)])
        net = MultiViewNetwork(4, [v1, v2])
        j = jaccard_consistency(net)
        assert j[0, 1] == pytest.approx(1 / 3)
        assert j[0, 0] == j[1, 1] == 1.0
        assert j[0, 1] == j[1, 0]

    def test_identical_views(self):
        v = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        w = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        assert np.array_equal(jaccard_consistency(MultiViewNetwork(3, [v, w])), np.ones((2, 2)))

    def test_disjoint_views(self):
        v1 = SparseAdjacency.from_edges(4, [(0, 1)])
        v2 = SparseAdjacency.from_edges(4, [(2, 3)])
        assert jaccard_consistency(MultiViewNetwork(4, [v1, v2]))[0, 1] == 0.0

    def test_single_view_rejected(self):
        net = MultiViewNetwork(2, [SparseAdjacency.from_edges(2, [(0, 1)])])
        with pytest.raises(SingleView):
            jaccard_consistency(net)

    def test_view_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        views = [adjacency_from_dense(random_symmetric_dense(8, rng)) for _ in range(3)]
        j = jaccard_consistency(MultiViewNetwork(8, list(views)))
        perm = [2, 0, 1]
        j_perm = jaccard_consistency(MultiViewNetwork(8, [views[p] for p in perm]))
        assert np.allclose(j_perm, j[np.ix_(perm, perm)])


def write_dataset(directory, nodes, *views):
    """A dataset directory with the given node list and raw view file texts."""
    (directory / "nodes.txt").write_text("\n".join(nodes) + "\n")
    for i, text in enumerate(views):
        (directory / f"view_{i}.txt").write_text(text)
    return directory


class TestLoadEdgeLists:
    """View files as load_dataset reads them."""

    def test_two_files(self, tmp_path):
        net = load_dataset(write_dataset(tmp_path, "abc", "a b\n", "b c\n"))
        assert net.n == 3
        assert [v.num_edges for v in net.views] == [1, 1]
        assert net.views[0].to_dense()[0, 1] == net.views[1].to_dense()[1, 2] == 1.0

    def test_duplicate_line_collapses(self, tmp_path):
        net = load_dataset(write_dataset(tmp_path, "ab", "a b\na b\n"))
        assert net.views[0].num_edges == 1

    def test_weight_applies_both_directions(self, tmp_path):
        net = load_dataset(write_dataset(tmp_path, "ab", "a b 2.5\n"))
        dense = net.views[0].to_dense()
        assert dense[0, 1] == dense[1, 0] == 2.5

    def test_comments_blanks_and_self_loops_skipped(self, tmp_path):
        net = load_dataset(write_dataset(tmp_path, "ab", "# header\n\na a\na b\n"))
        assert net.n == 2 and net.views[0].num_edges == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ParseError, match=":2:"):
            load_dataset(write_dataset(tmp_path, "abcd", "a b\na b c d\n"))

    def test_bad_weight(self, tmp_path):
        with pytest.raises(ParseError, match=":1: bad weight"):
            load_dataset(write_dataset(tmp_path, "ab", "a b zero\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError):
            text_lines(tmp_path / "absent.txt")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("a b\na z\na b x\n", ":2: node 'z'"),
            ("a b nan\nz b\n", ":1: weight must be finite and positive"),
            ("a b\nb c 0x1\na b c d\n", ":2: bad weight '0x1'"),
            ("z z 1\na b c d\nz b\n", ":2: expected 'src dst [weight]'"),
            ("z z\ny z\n", ":2: node 'y'"),
        ],
        ids=["unknown-node-before-bad-weight", "weight-before-unknown-node", "bad-weight-before-field-count",
             "field-count-before-unknown-node", "two-unknown-nodes"],
    )
    def test_earlier_of_two_faults_wins(self, tmp_path, text, where):
        with pytest.raises(ParseError) as info:
            load_dataset(write_dataset(tmp_path, ["a", "b", "c"], text))
        assert str(info.value).startswith(f"{tmp_path / 'view_0.txt'}{where}")

    def test_self_loop_of_unknown_node_skipped(self, tmp_path):
        net = load_dataset(write_dataset(tmp_path, "ab", "z z\nz z 2\na b\n"))
        assert net.views[0].num_edges == 1

    def test_node_name_with_inner_whitespace(self, tmp_path):
        write_dataset(tmp_path, ["a", "b c", "d"], "a d\n")
        with pytest.raises(ParseError) as info:
            load_dataset(tmp_path)
        assert str(info.value).startswith(f"{tmp_path / 'nodes.txt'}:2: node name 'b c'")

    def test_empty_view(self, tmp_path):
        with pytest.raises(EmptyView):
            load_dataset(write_dataset(tmp_path, "ab", "a b\n", "# nothing here\n"))


class TestDatasetRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        views = [
            SparseAdjacency.from_edges(4, [(1, 0), (2, 3)], [1.5, 1.0]),
            SparseAdjacency.from_edges(4, [(3, 0), (2, 1)], [1.0, 0.25]),
        ]
        net = MultiViewNetwork(4, views, node_names=["b", "a", "c", "d"])
        out = tmp_path / "ds"
        save_dataset(net, out)
        again = load_dataset(out)
        assert again.n == net.n
        assert again.node_names == net.node_names
        for v1, v2 in zip(net.views, again.views):
            assert np.array_equal(v1.row_offsets, v2.row_offsets)
            assert np.array_equal(v1.col_indices, v2.col_indices)
            assert np.array_equal(v1.values, v2.values)

    def test_labels_round_trip(self, tmp_path):
        v = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        labels = [{"x"}, {"x", "y"}, {"y"}]
        net = MultiViewNetwork(3, [v], labels=labels, node_names=["n0", "n1", "n2"])
        save_dataset(net, tmp_path / "ds")
        again = load_dataset(tmp_path / "ds")
        assert again.labels == labels

    def test_bare_labels_are_one_label_each(self, tmp_path):
        # a string is one label, not a set of its characters, and an int is one label too
        v = SparseAdjacency.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        net = MultiViewNetwork(4, [v], labels=["10", 7, {"a", "b"}, ("c",)], node_names=["n0", "n1", "n2", "n3"])
        assert net.labels == [{"10"}, {7}, {"a", "b"}, {"c"}]
        save_dataset(net, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds").labels == [{"10"}, {"7"}, {"a", "b"}, {"c"}]
        # classification reads a bare item by the same rule
        assert LabelMatrix.of(["10", {"a", "b"}, ("c",)]).classes == ["10", "a", "b", "c"]

    @pytest.mark.parametrize("stray", ["view_x.txt", "view_1_old.txt", "view_3.txt", "view_01.txt"])
    def test_stray_view_file_rejected(self, tmp_path, stray):
        # a non-integer suffix, a gap in the indices and a second file for view 1
        v = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        save_dataset(MultiViewNetwork(3, [v, v]), tmp_path)
        (tmp_path / stray).write_text("0 1\n")
        with pytest.raises(FileError, match=re.escape(stray)):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "views, labels, stale",
        [(2, True, "view_2.txt"), (3, False, "labels.txt"), (1, False, "labels.txt, view_1.txt, view_2.txt")],
        ids=["fewer-views", "no-labels", "both"],
    )
    def test_files_the_write_would_not_replace_are_rejected(self, tmp_path, views, labels, stale):
        # load_dataset reads every view_<i>.txt and labels.txt it finds, so an older dataset's would join this one
        v = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        save_dataset(MultiViewNetwork(3, [v, v, v], labels=["x", "y", "x"]), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        net = MultiViewNetwork(3, [v] * views, labels=["y", "y", "x"] if labels else None)
        with pytest.raises(FileError, match=f"^{re.escape(f'{tmp_path}: {stale} would be read')}"):
            save_dataset(net, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # more views and labels replace every file there
        save_dataset(MultiViewNetwork(3, [v] * 4, labels=["y", "y", "x"]), tmp_path)
        assert len(load_dataset(tmp_path).views) == 4

    @pytest.mark.parametrize("name", ["", "b c", "b\tc", " b", "#b", "\ufeffb"])
    def test_unreadable_node_name_rejected_before_writing(self, tmp_path, name):
        v = SparseAdjacency.from_edges(2, [(0, 1)])
        with pytest.raises(ConfigError, match="node name"):
            save_dataset(MultiViewNetwork(2, [v], node_names=["a", name]), tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("label", ["", "x y", "x\ty", " x"])
    def test_unreadable_label_rejected_before_writing(self, tmp_path, label):
        # load_dataset would fail at labels.txt:2 with "expected 'node label'"
        v = SparseAdjacency.from_edges(2, [(0, 1)])
        net = MultiViewNetwork(2, [v], labels=[{"x"}, {label}], node_names=["a", "b"])
        with pytest.raises(ConfigError, match="label"):
            save_dataset(net, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_edge_to_unlisted_node_names_file_and_line(self, tmp_path):
        (tmp_path / "nodes.txt").write_text("a\nb\nc\n")
        (tmp_path / "view_0.txt").write_text("a b\n# note\nb z\n")
        with pytest.raises(ParseError) as info:
            load_dataset(tmp_path)
        assert str(info.value).startswith(f"{tmp_path / 'view_0.txt'}:3: node 'z'")

    def test_duplicate_node_name_names_file_and_line(self, tmp_path):
        (tmp_path / "nodes.txt").write_text("a\nb\n\na\n")
        (tmp_path / "view_0.txt").write_text("a b\n")
        with pytest.raises(ParseError) as info:
            load_dataset(tmp_path)
        assert str(info.value).startswith(f"{tmp_path / 'nodes.txt'}:4: node 'a'")


class TestMultiViewNetwork:
    def test_mismatched_node_counts(self):
        v1 = SparseAdjacency.from_edges(3, [(0, 1)])
        v2 = SparseAdjacency.from_edges(4, [(0, 1)])
        with pytest.raises(ConfigError):
            MultiViewNetwork(3, [v1, v2])

    def test_without_view(self):
        v1 = SparseAdjacency.from_edges(3, [(0, 1)])
        v2 = SparseAdjacency.from_edges(3, [(1, 2)])
        net = MultiViewNetwork(3, [v1, v2])
        dropped = net.without_view(0)
        assert len(dropped.views) == 1
        assert dropped.views[0] is v2
        with pytest.raises(SingleView):
            dropped.without_view(0)

    @pytest.mark.parametrize("k", [2, -1])
    def test_view_index_out_of_range(self, k):
        v1 = SparseAdjacency.from_edges(3, [(0, 1)])
        v2 = SparseAdjacency.from_edges(3, [(1, 2)])
        net = MultiViewNetwork(3, [v1, v2])
        assert net.view(1) is v2
        with pytest.raises(ConfigError, match="no view"):
            net.view(k)
        with pytest.raises(ConfigError, match="no view"):
            net.without_view(k)


# ---------------------------------------------------------------------------
# CSR assembly as it was before from_edges and normalize shared from_coo:
# kept as the reference the shared assembly must reproduce bit for bit
# ---------------------------------------------------------------------------

def reference_from_edges(n, edges, weights):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.asarray(weights, dtype=np.float64)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    ww = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    src, dst, ww = src[order], dst[order], ww[order]
    if src.size:
        first = np.empty(src.size, dtype=bool)
        first[0] = True
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        starts = np.flatnonzero(first)
        vals = np.maximum.reduceat(ww, starts)
        src, dst = src[starts], dst[starts]
    else:
        vals = ww
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst, vals


def reference_normalize(offsets, cols, vals):
    n = offsets.size - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    deg = np.bincount(rows, weights=vals, minlength=n) + 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    diag = np.arange(n, dtype=np.int64)
    all_rows = np.concatenate([rows, diag])
    all_cols = np.concatenate([cols, diag])
    all_vals = np.concatenate([vals, np.ones(n)])
    order = np.lexsort((all_cols, all_rows))
    all_rows, all_cols, all_vals = all_rows[order], all_cols[order], all_vals[order]
    scaled = all_vals * (inv_sqrt[all_rows] * inv_sqrt[all_cols])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_rows, minlength=n), out=offsets[1:])
    return offsets, all_cols, scaled


@st.composite
def edge_lists(draw, min_edges=0):
    """n nodes and undirected pairs with repeats, reversed repeats, weights and isolated nodes."""
    n = draw(st.integers(1 if min_edges == 0 else 2, 12))
    if n < 2:
        return n, [], []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, min_size=min_edges, max_size=30))
    weight = st.one_of(st.just(1.0), st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return n, edges, weights


def csr_arrays(m):
    return m.row_offsets, m.col_indices, m.values


class TestCsrProperties:
    @given(edge_lists())
    def test_from_edges_and_normalize_match_the_reference(self, case):
        n, edges, weights = case
        adj = SparseAdjacency.from_edges(n, edges, weights)
        want = reference_from_edges(n, edges, weights)
        for got, expected in zip(csr_arrays(adj), want, strict=True):
            assert np.array_equal(got, expected)
        for got, expected in zip(csr_arrays(normalize(adj)), reference_normalize(*want), strict=True):
            assert np.array_equal(got, expected)

    @given(edge_lists())
    def test_rows_expand_the_offsets(self, case):
        n, edges, weights = case
        adj = SparseAdjacency.from_edges(n, edges, weights)
        for m in (adj, normalize(adj)):
            assert np.array_equal(m.rows, np.repeat(np.arange(n), np.diff(m.row_offsets)))
            assert not m.rows.flags.writeable

    @given(edge_lists(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_spmm_matches_the_dense_product(self, case, k, seed):
        n, edges, weights = case
        norm = normalize(SparseAdjacency.from_edges(n, edges, weights))
        x = np.random.default_rng(seed).normal(size=(n, k))
        assert np.max(np.abs(spmm(norm, x) - norm.to_dense() @ x)) <= 1e-12

    @given(edge_lists(min_edges=1), st.data())
    def test_save_load_round_trip(self, case, data):
        n, edges, weights = case
        names = data.draw(st.permutations([f"node{i}" for i in range(n)]))
        labels = data.draw(st.lists(st.sets(st.sampled_from("abc")), min_size=n, max_size=n))
        net = MultiViewNetwork(n, [SparseAdjacency.from_edges(n, edges, weights)], labels, names)
        with tempfile.TemporaryDirectory() as directory:
            save_dataset(net, directory)
            again = load_dataset(directory)
        assert again.node_names == names
        assert again.labels == labels
        for got, expected in zip(csr_arrays(again.views[0]), csr_arrays(net.views[0]), strict=True):
            assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# The view reader as it was before it parsed whole files, one line at a time:
# kept as the reference the whole-file reader must match, error for error
# ---------------------------------------------------------------------------

def reference_read_view(path, index):
    edges = []
    weights = []
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 'src dst [weight]'")
        u, v = parts[0], parts[1]
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
            if not np.isfinite(w) or w <= 0:
                raise ParseError(f"{path}:{lineno}: weight must be finite and positive")
        else:
            w = 1.0
        if u == v:
            continue
        try:
            edges.append((index[u], index[v]))
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: node {exc.args[0]!r} is not in the node list") from None
        weights.append(w)
    if not edges:
        raise EmptyView(f"{path}: no edges")
    return SparseAdjacency.from_edges(len(index), edges, weights)


def outcome(read, *args):
    """What read returns, an adjacency as its CSR array bytes, or the type and message of what it raises."""
    try:
        result = read(*args)
    except RgaeError as exc:
        return type(exc), str(exc)
    return [a.tobytes() for a in csr_arrays(result)] if isinstance(result, SparseAdjacency) else result


VIEW_NODES = ["a", "b", "c", "n10"]
known = st.sampled_from(VIEW_NODES)
unknown = st.sampled_from(["zz", "A", "a,"])
good_weight = st.one_of(
    st.sampled_from(["1", "2.5", "1e3", "0.25", "+7", "1_0", "3."]),
    st.floats(1e-300, 1e300).map(repr),
)
bad_weight = st.sampled_from(["nan", "-nan", "0", "-0.0", "-1", "inf", "1e-400", "1e400", "x", "1..2", "0x1", "1,5"])


def text_line(*tokens):
    """One line of the given tokens, joined by one of a few whitespace separators."""
    return st.tuples(*tokens).flatmap(lambda ts: st.sampled_from([" ", "\t", " \t "]).map(lambda sep: sep.join(ts)))


clean_view_line = st.one_of(
    text_line(known, known),
    text_line(known, known, good_weight),
    st.sampled_from(["", "   ", "#", "# a b", "  #c d 1", "\t", " a  b "]),
)
faulty_view_line = st.one_of(
    known,
    unknown,
    st.lists(st.one_of(known, good_weight), min_size=4, max_size=5).map(" ".join),
    text_line(known, known, bad_weight),
    text_line(unknown, known),
    text_line(known, unknown, st.one_of(good_weight, bad_weight)),
    text_line(unknown, unknown),
    text_line(unknown, unknown, bad_weight),
    st.sampled_from(["zz zz", "zz zz 1", "a a", "a a nan"]),
)


def with_line_breaks(draw, lines):
    """The lines, each ended by a drawn line break; the last one may have none."""
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def view_texts(draw):
    """A view file over VIEW_NODES with up to three injected lines, each with a fault the reader reports.

    Self-loop lines are among them: a self-loop is skipped, even of an unknown node, but its weight is checked.
    """
    lines = draw(st.lists(clean_view_line, max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faulty_view_line))
    return with_line_breaks(draw, lines)


# ---------------------------------------------------------------------------
# The nodes.txt and labels.txt readers as they were before they took
# text_fields: kept as the references the readers must match, error for error
# ---------------------------------------------------------------------------

def reference_read_nodes(path):
    first_line = {}
    for lineno, name in text_lines(path):
        if len(name.split()) > 1:
            raise ParseError(f"{path}:{lineno}: node name {name!r} holds whitespace")
        if name in first_line:
            raise ParseError(f"{path}:{lineno}: node {name!r} is already on line {first_line[name]}")
        first_line[name] = lineno
    return list(first_line)


def reference_load_label_file(path, node_names):
    index = {name: i for i, name in enumerate(node_names)}
    labels = [set() for _ in node_names]
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'node label'")
        node, label = parts
        if node not in index:
            raise ParseError(f"{path}:{lineno}: unknown node {node!r}")
        labels[index[node]].add(label)
    return labels


# blank and comment lines, padding, and whitespace that only str.split knows: no-break and ideographic spaces
skipped_line = st.sampled_from(["", "   ", "\t", "#", "# a b", "  #c d", "\u3000"])
padded = st.tuples(st.sampled_from(["", " ", "\t", "\u00a0"]), st.sampled_from(["", " ", "\t "]))


def padded_line(*tokens):
    """A text_line of the tokens with drawn whitespace before and after it."""
    return st.tuples(text_line(*tokens), padded).map(lambda p: p[1][0] + p[0] + p[1][1])


def with_faults(draw, lines, faulty):
    """The lines with up to two drawn faulty lines inserted, a BOM before them or not."""
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faulty))
    return draw(st.sampled_from(["", "\ufeff"])) + with_line_breaks(draw, lines)


NODE_NAMES = VIEW_NODES + ["zz", "A", "a,"]


@st.composite
def node_texts(draw):
    """A nodes.txt whose injected faults are a repeated name or a line of several names."""
    name = st.sampled_from(NODE_NAMES)
    names = draw(st.lists(name, unique=True, max_size=len(NODE_NAMES)))
    lines = [draw(st.one_of(padded_line(st.just(n)), skipped_line)) for n in names]
    several = st.one_of(padded_line(name, name), text_line(name, name, name))
    return with_faults(draw, lines, st.one_of(padded_line(name), several))


@st.composite
def label_texts(draw):
    """A labels.txt over VIEW_NODES whose injected faults are unknown nodes and lines of one or three fields."""
    label = st.sampled_from(["x", "y", "10", "a"])
    lines = draw(st.lists(st.one_of(padded_line(known, label), skipped_line), max_size=10))
    node = st.one_of(known, unknown)
    faulty = st.one_of(padded_line(unknown, label), text_line(node), text_line(node, label, label))
    return with_faults(draw, lines, faulty)


def write_file(directory, name, text):
    path = f"{directory}/{name}"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    return path


class TestReaderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(view_texts(), st.permutations(VIEW_NODES))
    def test_view_reader_matches_the_line_loop(self, text, order):
        index = {name: i for i, name in enumerate(order)}
        with tempfile.TemporaryDirectory() as directory:
            path = write_file(directory, "view_0.txt", text)
            assert outcome(graph._read_view, path, index) == outcome(reference_read_view, path, index)

    @settings(max_examples=200, deadline=None)
    @given(node_texts())
    def test_node_reader_matches_the_line_loop(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = write_file(directory, "nodes.txt", text)
            assert outcome(graph._read_nodes, path) == outcome(reference_read_nodes, path)

    @settings(max_examples=200, deadline=None)
    @given(label_texts(), st.permutations(VIEW_NODES))
    def test_label_reader_matches_the_line_loop(self, text, order):
        with tempfile.TemporaryDirectory() as directory:
            path = write_file(directory, "labels.txt", text)
            assert outcome(graph.load_label_file, path, order) == outcome(reference_load_label_file, path, order)


def shuffled_view_text(rng, names, edges, weights):
    """View file lines of the edges in a random order, each pair in a random direction."""
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    lines = []
    for i in order.tolist():
        u, v = edges[i][::-1] if flip[i] else edges[i]
        lines.append(f"{names[u]} {names[v]} {float(weights[i])!r}")
    return "\n".join(lines) + "\n"


class TestLineOrderInvariance:
    """A view's CSR does not depend on the order of its file's lines, nor on the order of duplicate lines."""

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(min_edges=1), st.integers(0, 2**32 - 1))
    def test_shuffled_lines_give_the_same_bytes(self, case, seed):
        n, edges, weights = case
        names = [f"v{i}" for i in range(n)]
        index = {name: i for i, name in enumerate(names)}
        want = [a.tobytes() for a in reference_from_edges(n, edges, weights)]
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as directory:
            for _ in range(2):
                path = write_file(directory, "view_0.txt", shuffled_view_text(rng, names, edges, weights))
                assert outcome(graph._read_view, path, index) == want

    def test_train_large_shape(self, tmp_path):
        # the benchmark's train-large graph, with every third edge repeated at a drawn weight
        n = 1000
        net = generate(SynthConfig(n=n, communities=(334, 333, 333), views=3, p_in=8 / (n / 3), p_out=2 / n,
                                   unique_frac=0.5, seed=11))
        rng = np.random.default_rng(5)
        names = [f"v{i}" for i in range(n)]
        index = {name: i for i, name in enumerate(names)}
        for view in net.views:
            mask = view.rows < view.col_indices
            edges = np.column_stack([view.rows[mask], view.col_indices[mask]])
            edges = np.concatenate([edges, edges[::3]])
            weights = rng.uniform(0.5, 2.0, len(edges))
            want = reference_from_edges(n, edges, weights)
            adj = SparseAdjacency.from_edges(n, edges, weights)
            read = graph._read_view(write_file(tmp_path, "view.txt", shuffled_view_text(rng, names, edges, weights)),
                                    index)
            for m in (adj, read):
                assert [a.tobytes() for a in csr_arrays(m)] == [a.tobytes() for a in want]
                got = [a.tobytes() for a in csr_arrays(normalize(m))]
                assert got == [a.tobytes() for a in reference_normalize(*want)]
