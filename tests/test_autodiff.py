import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import rgae.autodiff as ad
from rgae.autodiff import Tape
from rgae.errors import NonScalarRoot, NumericalOverflow, ReleasedTape, RgaeError, ShapeMismatch
from rgae.graph import SparseAdjacency, normalize


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function over every entry of x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def assert_close_grad(analytic, numeric, rtol=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert np.max(np.abs(analytic - numeric) / denom) < rtol


def scalarize(fn):
    """Wrap an op so finite differences see a scalar: squared norm of its output."""

    def run(x):
        tape = Tape()
        leaf = tape.leaf(x)
        return float(ad.sq_frobenius(fn(leaf)).value[0, 0])

    return run


def two_branch_sigmoid(x):
    """Reference: 1/(1+exp(-x)) gathered from x >= 0, exp(x)/(1+exp(x)) from x < 0."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestForwardValues:
    def test_relu_value_and_grad(self):
        tape = Tape()
        x = tape.leaf([[-1.0, 2.0]])
        y = ad.relu(x)
        assert np.array_equal(y.value, [[0.0, 2.0]])
        ones = tape.leaf([[1.0], [1.0]])
        tape.backward(ad.matmul(y, ones))
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    def test_relu_subgradient_at_zero_is_zero(self):
        tape = Tape()
        x = tape.leaf([[0.0]])
        y = ad.relu(x)
        tape.backward(ad.sq_frobenius(ad.add(y, tape.leaf([[1.0]]))))
        assert x.grad[0, 0] == 0.0

    def test_sigmoid_at_zero(self):
        tape = Tape()
        x = tape.leaf([[0.0]])
        s = ad.sigmoid(x)
        assert s.value[0, 0] == pytest.approx(0.5)
        tape.backward(ad.matmul(s, tape.leaf([[1.0]])))
        assert x.grad[0, 0] == pytest.approx(0.25)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        tape = Tape()
        s = ad.sigmoid(tape.leaf([[800.0, -800.0]]))
        assert np.all(np.isfinite(s.value))
        assert s.value[0, 0] == pytest.approx(1.0)
        assert s.value[0, 1] == pytest.approx(0.0)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, max_side=8),
            # most finite floats saturate the logistic, so half the draws come from where it does not
            elements=st.one_of(st.floats(-40.0, 40.0), st.floats(allow_nan=False, allow_infinity=False)),
        )
    )
    @example(np.linspace(-40.0, 40.0, 801).reshape(3, 267))
    @example(np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, 2e-308, -2e-308]))
    @example(np.array([[36.0, -36.0, 709.8, -745.2], [1e308, -1e308, 0.5, -0.5]]))
    def test_sigmoid_values_match_two_branch_reference(self, x):
        assert np.array_equal(ad._sigmoid_values(x).view(np.uint64), two_branch_sigmoid(x).view(np.uint64))

    def test_sq_frobenius_gradient_is_double(self):
        tape = Tape()
        w = tape.leaf([[1.0, 2.0]])
        tape.backward(ad.sq_frobenius(w))
        assert np.array_equal(w.grad, [[2.0, 4.0]])

    def test_concat_and_gram_shapes(self):
        tape = Tape()
        a = tape.leaf(np.arange(6, dtype=float).reshape(3, 2))
        b = tape.leaf(np.ones((3, 1)))
        c = ad.concat_cols(a, b)
        assert c.shape == (3, 3)
        assert ad.gram(c).shape == (3, 3)

    def test_row_dot_is_column(self):
        tape = Tape()
        a = tape.leaf([[1.0, 0.0], [2.0, 3.0]])
        b = tape.leaf([[0.0, 1.0], [1.0, 1.0]])
        out = ad.row_dot(a, b)
        assert np.array_equal(out.value, [[0.0], [5.0]])


class TestFiniteDifferences:
    """Every op's tape gradient against central differences on seeded inputs."""

    rng = np.random.default_rng(123)

    def check(self, fn, x):
        tape = Tape()
        leaf = tape.leaf(x)
        tape.backward(ad.sq_frobenius(fn(leaf)))
        assert_close_grad(leaf.grad, numeric_grad(scalarize(fn), x.copy()))

    def test_relu(self):
        x = self.rng.normal(size=(4, 3))
        x[np.abs(x) < 1e-3] = 0.1
        self.check(ad.relu, x)

    def test_sigmoid(self):
        self.check(ad.sigmoid, self.rng.normal(size=(4, 3)))

    def test_matmul_both_sides(self):
        a0 = self.rng.normal(size=(4, 3))
        b0 = self.rng.normal(size=(3, 2))
        tape = Tape()
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        tape.backward(ad.sq_frobenius(ad.matmul(a, b)))

        def fa(x):
            t = Tape()
            return float(ad.sq_frobenius(ad.matmul(t.leaf(x), t.leaf(b0))).value[0, 0])

        def fb(x):
            t = Tape()
            return float(ad.sq_frobenius(ad.matmul(t.leaf(a0), t.leaf(x))).value[0, 0])

        assert_close_grad(a.grad, numeric_grad(fa, a0.copy()))
        assert_close_grad(b.grad, numeric_grad(fb, b0.copy()))

    def test_gram(self):
        self.check(ad.gram, self.rng.normal(size=(4, 3)))

    def test_scale(self):
        self.check(lambda t: ad.scale(t, -1.7), self.rng.normal(size=(3, 3)))

    def test_add_sub_row_dot_concat(self):
        a0 = self.rng.normal(size=(4, 3))
        b0 = self.rng.normal(size=(4, 3))
        ops = {
            "add": lambda x, y: ad.add(x, y),
            "sub": lambda x, y: ad.sub(x, y),
            "row_dot": lambda x, y: ad.row_dot(x, y),
            "concat": lambda x, y: ad.concat_cols(x, y),
        }
        for name, op in ops.items():
            tape = Tape()
            a = tape.leaf(a0)
            b = tape.leaf(b0)
            tape.backward(ad.sq_frobenius(op(a, b)))

            def fa(x, op=op):
                t = Tape()
                return float(ad.sq_frobenius(op(t.leaf(x), t.leaf(b0))).value[0, 0])

            def fb(x, op=op):
                t = Tape()
                return float(ad.sq_frobenius(op(t.leaf(a0), t.leaf(x))).value[0, 0])

            assert_close_grad(a.grad, numeric_grad(fa, a0.copy()))
            assert_close_grad(b.grad, numeric_grad(fb, b0.copy()))

    def test_spmm(self):
        norm = normalize(SparseAdjacency.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        x0 = self.rng.normal(size=(4, 3))
        tape = Tape()
        x = tape.leaf(x0)
        tape.backward(ad.sq_frobenius(ad.spmm(norm, x)))

        def f(x):
            t = Tape()
            return float(ad.sq_frobenius(ad.spmm(norm, t.leaf(x))).value[0, 0])

        assert_close_grad(x.grad, numeric_grad(f, x0.copy()))

    def test_balanced_bce(self):
        adj = SparseAdjacency.from_edges(4, [(0, 1), (2, 3)])
        p0 = self.rng.uniform(0.1, 0.9, size=(4, 4))
        tape = Tape()
        p = tape.leaf(p0)
        tape.backward(ad.balanced_bce(p, adj))

        def f(x):
            t = Tape()
            return float(ad.balanced_bce(t.leaf(x), adj).value[0, 0])

        assert_close_grad(p.grad, numeric_grad(f, p0.copy()))


def dense_bce_reference(probs, adj):
    """The dense composition balanced_bce replaces: n-by-n target, weight from entry counts."""
    t = adj.to_dense()
    t[t > 0] = 1.0
    np.fill_diagonal(t, 1.0)
    weight = (t.size - t.sum()) / t.sum()
    p = np.clip(probs, ad.CLAMP_EPS, 1.0 - ad.CLAMP_EPS)
    loss = -(weight * np.sum(t * np.log(p)) + np.sum((1.0 - t) * np.log1p(-p)))
    inside = (probs > ad.CLAMP_EPS) & (probs < 1.0 - ad.CLAMP_EPS)
    dp = (1.0 - t) / (1.0 - p) - (weight * t) / p
    # the tape seeds the root with gradient 1.0 and the op scales by it before masking
    return loss, 1.0 * dp * inside


class TestBalancedBce:
    def test_half_probability_identity(self):
        adj = SparseAdjacency.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        tape = Tape()
        loss = ad.balanced_bce(tape.leaf(np.full((5, 5), 0.5)), adj)
        nnz = adj.nnz + adj.n
        nz = 25 - nnz
        weight = nz / nnz
        assert loss.value[0, 0] == pytest.approx((nnz * weight + nz) * np.log(2.0), abs=1e-9)

    def test_perfect_reconstruction_near_zero(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        target = adj.to_dense() + np.eye(3)
        tape = Tape()
        loss = ad.balanced_bce(tape.leaf(np.where(target > 0, 1.0, 0.0)), adj)
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_clamped_entries_get_zero_gradient(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        tape = Tape()
        probs = np.full((3, 3), 0.5)
        probs[0, 0] = 1.0
        probs[2, 2] = 0.0
        p = tape.leaf(probs)
        tape.backward(ad.balanced_bce(p, adj))
        assert p.grad[0, 0] == 0.0 and p.grad[2, 2] == 0.0
        assert p.grad[0, 1] != 0.0 and p.grad[0, 2] != 0.0

    def test_target_and_balance(self):
        # stored pair (0, 1) plus the diagonal: 5 target entries, 4 zeros, weight 4/5
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        tape = Tape()
        p = tape.leaf(np.full((3, 3), 0.5))
        loss = ad.balanced_bce(p, adj)
        tape.backward(loss)
        assert loss.value[0, 0] == pytest.approx((5 * (4 / 5) + 4) * np.log(2.0), abs=1e-12)
        on_target = p.grad < 0
        assert np.array_equal(on_target, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        # d/dp at p = 1/2: -weight / p on the target, 1 / (1 - p) off it
        assert np.allclose(p.grad[on_target], -2.0 * (4 / 5))
        assert np.allclose(p.grad[~on_target], 2.0)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(21)
        n = 60
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < 0.1
        adj = SparseAdjacency.from_edges(n, np.stack([iu[mask], ju[mask]], axis=1))
        probs = rng.uniform(0.0, 1.0, size=(n, n))
        dense = adj.to_dense() + np.eye(n)
        # drive the clamp on both sides, on target and non-target entries alike
        for on in (dense > 0, dense == 0):
            rows, cols = np.nonzero(on)
            pick = rng.choice(rows.size, size=8, replace=False)
            probs[rows[pick[:4]], cols[pick[:4]]] = 1.0 - 1e-14
            probs[rows[pick[4:]], cols[pick[4:]]] = 1e-14
        ref_loss, ref_grad = dense_bce_reference(probs, adj)
        assert np.count_nonzero(ref_grad == 0.0) == 16
        tape = Tape()
        p = tape.leaf(probs)
        loss = ad.balanced_bce(p, adj)
        tape.backward(loss)
        assert np.array_equal(p.grad, ref_grad)
        assert abs(loss.value[0, 0] - ref_loss) <= 1e-12 * abs(ref_loss)

    def test_forward_keeps_no_square_array(self):
        # the pull closure lives as long as the tape, so it may hold the O(nnz) target values only
        n = 300
        adj = SparseAdjacency.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        tape = Tape()
        p = tape.leaf(np.random.default_rng(3).uniform(0.01, 0.99, size=(n, n)))
        tracemalloc.start()
        try:
            loss = ad.balanced_bce(p, adj)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < n * n
        tape.backward(loss)
        ref_loss, ref_grad = dense_bce_reference(p.value, adj)
        assert np.array_equal(p.grad, ref_grad)


class TestBackwardContract:
    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(5, 4))
        w0 = rng.normal(size=(4, 3))

        def run():
            tape = Tape()
            x = tape.leaf(x0)
            w = tape.leaf(w0)
            loss = ad.sq_frobenius(ad.sigmoid(ad.matmul(ad.relu(x), w)))
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_unused_leaf_gets_zero_gradient(self):
        tape = Tape()
        used = tape.leaf([[3.0]])
        unused = tape.leaf([[7.0, 7.0]])
        tape.backward(ad.sq_frobenius(used))
        assert np.array_equal(unused.grad, [[0.0, 0.0]])

    def test_repeated_backward_matches(self):
        tape = Tape()
        x = tape.leaf([[1.0, -2.0]])
        root = ad.sq_frobenius(ad.relu(x))
        tape.backward(root)
        first = x.grad.copy()
        tape.backward(root)
        assert np.array_equal(x.grad, first)

    def test_fanout_accumulates(self):
        tape = Tape()
        x = tape.leaf([[2.0]])
        root = ad.sq_frobenius(ad.add(x, x))
        tape.backward(root)
        # d/dx (2x)^2 = 8x
        assert x.grad[0, 0] == pytest.approx(16.0)

    def test_non_scalar_root_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(NonScalarRoot):
            tape.backward(x)

    def test_shape_mismatch(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, b)
        with pytest.raises(ShapeMismatch):
            ad.add(a, tape.leaf(np.ones((3, 2))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_detected(self):
        tape = Tape()
        x = tape.leaf([[1e308]])
        with pytest.raises(NumericalOverflow):
            ad.scale(x, 10.0)

    def test_non_finite_leaf_rejected(self):
        tape = Tape()
        with pytest.raises(NumericalOverflow):
            tape.leaf([[np.nan]])

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf([[1.0]])
        b = t2.leaf([[1.0]])
        with pytest.raises(ShapeMismatch):
            ad.add(a, b)

    def test_only_leaves_keep_gradients(self):
        tape = Tape()
        x = tape.leaf([[1.0, -2.0]])
        unused = tape.leaf([[5.0]])
        hidden = ad.relu(ad.scale(x, 3.0))
        root = ad.sq_frobenius(hidden)
        after_root = ad.scale(root, 2.0)
        tape.backward(root)
        assert hidden.grad is None and root.grad is None and after_root.grad is None
        assert np.array_equal(x.grad, [[18.0, 0.0]])
        assert np.array_equal(unused.grad, [[0.0]])

    def test_released_tape_raises_typed_error(self):
        x = Tape().leaf([[1.0]])
        assert issubclass(ReleasedTape, RgaeError)
        with pytest.raises(ReleasedTape):
            ad.relu(x)
        with pytest.raises(ReleasedTape):
            Tape().backward(x)
        assert np.array_equal(x.value, [[1.0]])
