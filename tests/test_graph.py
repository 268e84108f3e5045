import re

import numpy as np
import pytest

from rgae.errors import (
    ConfigError,
    EmptyView,
    FileError,
    IndexOutOfRange,
    NonSymmetric,
    ParseError,
    ShapeMismatch,
    SingleView,
)
from rgae.graph import (
    MultiViewNetwork,
    SparseAdjacency,
    balance_weight,
    dense_reconstruction_target,
    jaccard_consistency,
    load_dataset,
    load_edge_lists,
    normalize,
    save_dataset,
    spmm,
)


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

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = random_symmetric_dense(10, rng, weighted=True)
        norm = normalize(adjacency_from_dense(a))
        x = rng.normal(size=(10, 4))
        assert np.array_equal(spmm(norm, x), spmm(norm, x))


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

    def test_from_edges_keeps_max_duplicate(self):
        adj = SparseAdjacency.from_edges(2, [(0, 1), (1, 0), (0, 1)], [1.0, 3.0, 2.0])
        assert adj.nnz == 2
        assert np.array_equal(adj.values, [3.0, 3.0])


class TestReconstructionTarget:
    def test_target_and_balance(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        t = dense_reconstruction_target(adj)
        assert np.array_equal(t, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        # 5 nonzero entries (2 stored + 3 diagonal), 4 zeros
        assert balance_weight(adj) == pytest.approx(4 / 5)


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


class TestLoadEdgeLists:
    def test_two_files(self, tmp_path):
        f1 = tmp_path / "v1.txt"
        f2 = tmp_path / "v2.txt"
        f1.write_text("a b\n")
        f2.write_text("b c\n")
        net = load_edge_lists([f1, f2])
        assert net.n == 3
        assert [v.num_edges for v in net.views] == [1, 1]
        assert net.node_names == ["a", "b", "c"]

    def test_duplicate_line_collapses(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b\na b\n")
        net = load_edge_lists([f])
        assert net.views[0].num_edges == 1

    def test_weight_applies_both_directions(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b 2.5\n")
        net = load_edge_lists([f])
        dense = net.views[0].to_dense()
        assert dense[0, 1] == dense[1, 0] == 2.5

    def test_comments_blanks_and_self_loops_skipped(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("# header\n\na a\na b\n")
        net = load_edge_lists([f])
        assert net.n == 2 and net.views[0].num_edges == 1

    def test_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b\na b c d\n")
        with pytest.raises(ParseError, match=":2:"):
            load_edge_lists([f])

    def test_bad_weight(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b zero\n")
        with pytest.raises(ParseError, match=":1:"):
            load_edge_lists([f])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError):
            load_edge_lists([tmp_path / "absent.txt"])

    def test_empty_view(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("# nothing here\n")
        with pytest.raises(EmptyView):
            load_edge_lists([f])

    def test_n_hint_pads_isolated_nodes(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("a b\n")
        net = load_edge_lists([f], n_hint=4)
        assert net.n == 4
        with pytest.raises(ConfigError):
            load_edge_lists([f], n_hint=1)


class TestDatasetRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        f1 = tmp_path / "v1.txt"
        f2 = tmp_path / "v2.txt"
        f1.write_text("b a 1.5\nc d\n")
        f2.write_text("d b\n# note\nc a 0.25\n")
        net = load_edge_lists([f1, f2])
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

    @pytest.mark.parametrize("stray", ["view_x.txt", "view_1_old.txt", "view_3.txt", "view_01.txt"])
    def test_stray_view_file_rejected(self, tmp_path, stray):
        # a non-integer suffix, a gap in the indices and a second file for view 1
        v = SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])
        save_dataset(MultiViewNetwork(3, [v, v]), tmp_path)
        (tmp_path / stray).write_text("0 1\n")
        with pytest.raises(FileError, match=re.escape(stray)):
            load_dataset(tmp_path)


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
