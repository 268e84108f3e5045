import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import rgae.autodiff as ad
import rgae.model as model
from rgae.autodiff import Tape, Tensor
from rgae.cli import main as cli_main
from rgae.errors import NegativeEmbedding, NumericalOverflow, ShapeMismatch, TapeError
from rgae.graph import MultiViewNetwork, SparseAdjacency, normalize
from rgae.model import RgaeParams, reconstruction_loss, run_model

import reference_ops as ref


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
        tape = ref.Tape()
        leaf = tape.leaf(x)
        return float(ref.sq_frobenius(fn(leaf)).value[0, 0])

    return run


def two_branch_sigmoid(x):
    """Reference: 1/(1+exp(-x)) gathered from x >= 0, exp(x)/(1+exp(x)) from x < 0."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def identity(n):
    """The normalized adjacency of n nodes without edges, the n-by-n identity: graph_conv(identity(n), h) is relu(h)."""
    return normalize(SparseAdjacency.from_edges(n, []))


CYCLE4 = normalize(SparseAdjacency.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
PATH5 = normalize(SparseAdjacency.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


def seed_gradient(t, g):
    """A 1x1 node whose pull hands t a copy of g, so backward from it starts t from exactly g."""
    return t.tape._record(np.zeros((1, 1)), lambda _: t._take(g.copy()))


def wide_range_values(shape, rng):
    """Entries of both signs from 1e-8 to 1e8 in size, with +0.0 and -0.0 mixed in."""
    g = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    g[rng.random(shape) < 0.1] = 0.0
    g[rng.random(shape) < 0.1] = -0.0
    return g


# row counts at width 1000, the train-large width, and n-by-n sizes: one row, whole blocks of the decoder's 32 rows
# (64, 256) and short last blocks of 1, 2, 3, 12, 27 and 31 rows
WIDE_SHAPES = [(r, 1000) for r in (1, 64, 65, 66, 131, 300)]
SQUARE_SIZES = (1, 255, 256, 257, 571, 300)


def nonnegative_operands(rng, n, widths):
    """Encoder outputs as relu leaves them: zeros, -0.0 among them, and positive entries, with row 0 large enough
    that its inner products with itself and row 1 pass 27.6, where the probability clamp acts."""
    out = []
    for k in widths:
        y = np.maximum(rng.normal(scale=0.5, size=(n, k)), 0.0)
        y[rng.random((n, k)) < 0.1] = -0.0
        out.append(y)
    out[0][0, 0] = 7.0
    out[0][min(1, n - 1), 0] = 7.0
    return out


def random_adjacency(rng, n, p=0.1):
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return SparseAdjacency.from_edges(n, np.stack([iu[mask], ju[mask]], axis=1))


def reference_decoder(ys0, yp0, adj):
    """(loss, d loss / d ys, d loss / d yp) of the decoder recorded op by op on one tape, as bytes."""
    tape = ref.Tape()
    a, b = tape.leaf(ys0), tape.leaf(yp0)
    loss = ref.whole_array_balanced_bce(ref.decode(a, b), adj)
    tape.backward(loss)
    return loss.value.tobytes(), a.grad.tobytes(), b.grad.tobytes()


def sweep(ys0, yp0, adj):
    """model.reconstruction_loss's loss and gradients, as bytes."""
    loss, g_ys, g_yp = reconstruction_loss(ys0, yp0, adj)
    return np.array([[loss]]).tobytes(), g_ys.tobytes(), g_yp.tobytes()


class TestForwardValues:
    def test_relu_value_and_grad(self):
        # graph_conv on a graph without edges is the relu alone
        tape = ref.Tape()
        x = tape.leaf([[-1.0, 2.0]])
        y = ref.graph_conv(identity(1), x)
        assert np.array_equal(y.value, [[0.0, 2.0]])
        ones = tape.leaf([[1.0], [1.0]])
        tape.backward(ref.graph_conv(identity(1), y, ones))
        assert np.array_equal(x.grad, [[0.0, 1.0]])

    def test_relu_subgradient_at_zero_is_zero(self):
        tape = ref.Tape()
        x = tape.leaf([[0.0]])
        y = ref.graph_conv(identity(1), x)
        tape.backward(ref.sq_frobenius(ref.lincomb([y, tape.leaf([[1.0]])], (1, 1))))
        assert x.grad[0, 0] == 0.0

    def test_graph_conv_values(self):
        tape = ref.Tape()
        h0 = np.arange(8, dtype=float).reshape(4, 2) - 3.0
        w0 = np.array([[1.0, -2.0, 0.5], [-1.0, 0.25, 2.0]])
        first = ref.graph_conv(CYCLE4, tape.leaf(h0))
        assert np.allclose(first.value, np.maximum(CYCLE4.to_dense() @ h0, 0.0), rtol=1e-12, atol=1e-12)
        layer = ref.graph_conv(CYCLE4, tape.leaf(h0), tape.leaf(w0))
        assert np.allclose(layer.value, np.maximum(CYCLE4.to_dense() @ h0 @ w0, 0.0), rtol=1e-12, atol=1e-12)

    def test_lincomb_values(self):
        tape = ref.Tape()
        a, b, c = (tape.leaf(v) for v in ([[1.0, 2.0]], [[0.5, -1.0]], [[3.0, 3.0]]))
        assert np.array_equal(ref.lincomb([a, b, c], (1, -1, 2.0)).value, [[6.5, 9.0]])
        assert np.array_equal(ref.lincomb([a], (-0.5,)).value, [[-0.5, -1.0]])

    def test_sigmoid_at_zero(self):
        tape = ref.Tape()
        x = tape.leaf([[0.0]])
        s = ref.whole_array_sigmoid(x)
        assert s.value[0, 0] == pytest.approx(0.5)
        assert np.array_equal(ad.sigmoid(Tensor(np.array([[0.0, -0.0]]))).value, [[0.5, 0.5]])
        tape.backward(ref.lincomb([s], (1.0,)))
        assert x.grad[0, 0] == pytest.approx(0.25)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        tape = ref.Tape()
        s = ref.whole_array_sigmoid(tape.leaf([[800.0, -800.0]]))
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
        tape = ref.Tape()
        w = tape.leaf([[1.0, 2.0]])
        tape.backward(ref.sq_frobenius(w))
        assert np.array_equal(w.grad, [[2.0, 4.0]])

    def test_concat_and_gram_shapes(self):
        # gram joins the columns of its operands: the Gram matrix of the 3-by-3 [a | b]
        tape = ref.Tape()
        a0 = np.arange(6, dtype=float).reshape(3, 2)
        a = tape.leaf(a0)
        b = tape.leaf(np.ones((3, 1)))
        gm = ad.gram(a, b)
        assert gm.value.shape == (3, 3)
        z = np.concatenate([a0, np.ones((3, 1))], axis=1)
        assert np.array_equal(gm.value, z @ z.T)

    def test_row_dot_is_column(self):
        tape = ref.Tape()
        a = tape.leaf([[1.0, 0.0], [2.0, 3.0]])
        b = tape.leaf([[0.0, 1.0], [1.0, 1.0]])
        out = ref.row_dot(a, b)
        assert np.array_equal(out.value, [[0.0], [5.0]])


class TestFiniteDifferences:
    """Every op's tape gradient against central differences on seeded inputs."""

    rng = np.random.default_rng(123)

    def check(self, fn, x):
        tape = ref.Tape()
        leaf = tape.leaf(x)
        tape.backward(ref.sq_frobenius(fn(leaf)))
        assert_close_grad(leaf.grad, numeric_grad(scalarize(fn), x.copy()))

    def check_pair(self, op, a0, b0):
        """Gradients of sq_frobenius(op(a, b)) against central differences in both operands."""
        tape = ref.Tape()
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        tape.backward(ref.sq_frobenius(op(a, b)))

        def fa(x):
            t = ref.Tape()
            return float(ref.sq_frobenius(op(t.leaf(x), t.leaf(b0))).value[0, 0])

        def fb(x):
            t = ref.Tape()
            return float(ref.sq_frobenius(op(t.leaf(a0), t.leaf(x))).value[0, 0])

        assert_close_grad(a.grad, numeric_grad(fa, a0.copy()))
        assert_close_grad(b.grad, numeric_grad(fb, b0.copy()))

    def test_relu(self):
        x = self.rng.normal(size=(4, 3))
        x[np.abs(x) < 1e-3] = 0.1
        self.check(lambda t: ref.graph_conv(identity(4), t), x)

    def test_sigmoid(self):
        self.check(ref.whole_array_sigmoid, self.rng.normal(size=(4, 3)))

    def test_matmul_both_sides(self):
        # a hidden layer: the gradients reach both the layer input and the weight
        self.check_pair(lambda h, w: ref.graph_conv(CYCLE4, h, w), self.rng.normal(size=(4, 3)), self.rng.normal(size=(3, 2)))

    def test_gram(self):
        self.check_pair(ref.joined_gram, self.rng.normal(size=(4, 3)), self.rng.normal(size=(4, 2)))
        self.check(lambda t: ref.joined_gram(t, t), self.rng.normal(size=(4, 3)))

    def test_scale(self):
        self.check(lambda t: ref.lincomb([t], (-1.7,)), self.rng.normal(size=(3, 3)))

    def test_add_sub_row_dot_concat(self):
        a0 = self.rng.normal(size=(4, 3))
        b0 = self.rng.normal(size=(4, 3))
        ops = {
            "add": lambda x, y: ref.lincomb([x, y], (1, 1)),
            "sub": lambda x, y: ref.lincomb([x, y], (1, -1)),
            "weighted": lambda x, y: ref.lincomb([x, y, x], (0.3, -2.5, 1.1)),
            "row_dot": lambda x, y: ref.row_dot(x, y),
            "joined gram": lambda x, y: ref.joined_gram(x, y),
        }
        for op in ops.values():
            self.check_pair(op, a0, b0)

    def test_spmm(self):
        # a first layer on identity features: relu(spmm(norm, h))
        self.check(lambda t: ref.graph_conv(CYCLE4, t), self.rng.normal(size=(4, 3)))

    def test_balanced_bce(self):
        adj = SparseAdjacency.from_edges(4, [(0, 1), (2, 3)])
        p0 = self.rng.uniform(0.1, 0.9, size=(4, 4))
        tape = ref.Tape()
        p = tape.leaf(p0)
        tape.backward(ref.whole_array_balanced_bce(p, adj))

        def f(x):
            t = ref.Tape()
            return float(ref.whole_array_balanced_bce(t.leaf(x), adj).value[0, 0])

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
        tape = ref.Tape()
        loss = ad.balanced_bce(tape.leaf(np.full((5, 5), 0.5)), adj)
        nnz = adj.nnz + adj.n
        nz = 25 - nnz
        weight = nz / nnz
        assert loss.value[0, 0] == pytest.approx((nnz * weight + nz) * np.log(2.0), abs=1e-9)

    def test_perfect_reconstruction_near_zero(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        target = adj.to_dense() + np.eye(3)
        tape = ref.Tape()
        loss = ref.whole_array_balanced_bce(tape.leaf(np.where(target > 0, 1.0, 0.0)), adj)
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_clamped_entries_get_zero_gradient(self):
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        tape = ref.Tape()
        probs = np.full((3, 3), 0.5)
        probs[0, 0] = 1.0
        probs[2, 2] = 0.0
        p = tape.leaf(probs)
        tape.backward(ref.whole_array_balanced_bce(p, adj))
        assert p.grad[0, 0] == 0.0 and p.grad[2, 2] == 0.0
        assert p.grad[0, 1] != 0.0 and p.grad[0, 2] != 0.0

    def test_target_and_balance(self):
        # stored pair (0, 1) plus the diagonal: 5 target entries, 4 zeros, weight 4/5
        adj = SparseAdjacency.from_edges(3, [(0, 1)])
        tape = ref.Tape()
        p = tape.leaf(np.full((3, 3), 0.5))
        loss = ref.whole_array_balanced_bce(p, adj)
        tape.backward(loss)
        assert loss.value[0, 0] == pytest.approx((5 * (4 / 5) + 4) * np.log(2.0), abs=1e-12)
        on_target = p.grad < 0
        assert np.array_equal(on_target, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        # d/dp at p = 1/2: -weight / p on the target, 1 / (1 - p) off it
        assert np.allclose(p.grad[on_target], -2.0 * (4 / 5))
        assert np.allclose(p.grad[~on_target], 2.0)

    @pytest.mark.parametrize("n", (60,) + SQUARE_SIZES)
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(21)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < 0.1
        adj = SparseAdjacency.from_edges(n, np.stack([iu[mask], ju[mask]], axis=1))
        probs = rng.uniform(0.0, 1.0, size=(n, n))
        dense = adj.to_dense() + np.eye(n)
        # drive the clamp on both sides, on target and non-target entries alike
        for on in (dense > 0, dense == 0):
            rows, cols = np.nonzero(on)
            pick = rng.choice(rows.size, size=min(8, rows.size), replace=False)
            probs[rows[pick[:4]], cols[pick[:4]]] = 1.0 - 1e-14
            probs[rows[pick[4:]], cols[pick[4:]]] = 1e-14
        ref_loss, ref_grad = dense_bce_reference(probs, adj)
        on_target = np.count_nonzero(dense)
        assert np.count_nonzero(ref_grad == 0.0) == min(8, on_target) + min(8, n * n - on_target)
        tape = ref.Tape()
        p = tape.leaf(probs)
        loss = ref.whole_array_balanced_bce(p, adj)
        tape.backward(loss)
        assert np.array_equal(p.grad, ref_grad)
        assert abs(loss.value[0, 0] - ref_loss) <= 1e-12 * abs(ref_loss)
        # and the sweep, on symmetric logits of at least 0, -0.0 among them, whose probabilities clamp on target
        # and non-target entries: its loss is the reference ops' bit for bit, and it leaves 2 dL/dx, which is dL/dx
        # plus its transpose (where the clamp zeroes a target entry the leaf's zeros turn its -0.0 into +0.0;
        # test_gram_pull compares the signs of zeros too, behind the gram)
        upper = rng.uniform(0.0, 30.0, size=(n, n))
        upper[rng.random((n, n)) < 0.05] = -0.0
        rows, cols = np.nonzero(np.triu(dense == 0))
        upper[0, 0] = 29.0
        upper[rows[:1], cols[:1]] = 29.0
        x0 = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
        tape = ref.Tape()
        x = tape.leaf(x0)
        want = ref.whole_array_balanced_bce(ref.whole_array_sigmoid(x), adj)
        tape.backward(want)
        node = ad.sigmoid(Tensor(x0.copy()))
        assert ad.balanced_bce(node, adj).value.tobytes() == want.value.tobytes()
        assert np.array_equal(node.value, x.grad + x.grad.T)

    def test_forward_keeps_no_square_array(self):
        # the sweep returns a 1x1 node: its log terms and target values die with the call
        n = 300
        adj = SparseAdjacency.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        p0 = np.random.default_rng(3).uniform(0.5, 0.99, size=(n, n))
        probs = Tensor(p0.copy())
        tracemalloc.start()
        try:
            loss = ad.balanced_bce(probs, adj)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < n * n
        ref_loss, ref_grad = dense_bce_reference(p0, adj)
        assert abs(loss.value[0, 0] - ref_loss) <= 1e-12 * abs(ref_loss)
        # the gradient with respect to the logits, doubled
        assert np.array_equal(probs.value, ref_grad * p0 * (1.0 - p0) * 2.0)


class TestBlockedDecoderOps:
    """The decoder's sweeps in row blocks give the bytes of the whole-array decoder ops on a tape.

    Whole training runs give the bytes of the reference composition, whole-array decoder ops included.
    """

    def test_sizes_cross_the_block_edges(self):
        assert [r % ad._BLOCK_ROWS for r, _ in WIDE_SHAPES] == [1, 0, 1, 2, 3, 12]
        assert [n % ad._BLOCK_ROWS for n in SQUARE_SIZES] == [1, 31, 0, 1, 27, 12]

    @pytest.mark.parametrize("shape", WIDE_SHAPES + [(n, n) for n in SQUARE_SIZES], ids=str)
    def test_sigmoid(self, shape):
        rng = np.random.default_rng(shape[0])
        x0 = np.abs(wide_range_values(shape, rng))
        # half the entries where the logistic does not saturate, and -0.0 where relu's inner products may give it
        middle = rng.random(shape) < 0.5
        x0[middle] = rng.uniform(0.0, 40.0, size=np.count_nonzero(middle))
        x0[rng.random(shape) < 0.1] = -0.0
        node = Tensor(x0.copy())
        assert ad.sigmoid(node) is node
        assert node.value.tobytes() == ref.whole_array_sigmoid_values(x0).tobytes()

    @pytest.mark.parametrize("n", SQUARE_SIZES)
    def test_gram_pull(self, n):
        # the gram pull is one product of the sweep's symmetric gradient with the joined operands; it gives the
        # leaf gradients of the whole-array pull through g + g^T, with the clamp active and -0.0 in the operands
        rng = np.random.default_rng(n)
        ys0, yp0 = nonnegative_operands(rng, n, (8, 5))
        adj = random_adjacency(rng, n)
        assert sweep(ys0, yp0, adj) == reference_decoder(ys0, yp0, adj)

    @pytest.mark.parametrize(
        "generate_args, train_args",
        [
            (["--n", "60", "--communities", "20,20,20", "--views", "2", "--p-in", "0.3", "--p-out", "0.02",
              "--unique-frac", "0.5", "--seed", "7"],
             ["--dim", "32", "--layers", "32", "--alpha", "0.5", "--beta", "0.5", "--gamma", "5", "--lr", "0.01",
              "--epochs", "500", "--patience", "inf", "--tol", "0", "--seed", "0"]),
            (["--n", "300", "--communities", "100,100,100", "--views", "3", "--p-in", "0.1", "--p-out", "0.005",
              "--seed", "3"],
             ["--dim", "32", "--layers", "16,8", "--epochs", "40", "--lambda-every", "3", "--seed", "2"]),
        ],
        ids=["criterion-5-n60-one-block", "3-view-n300-two-blocks"],
    )
    def test_training_outputs_equal_the_whole_array_tape(self, tmp_path, monkeypatch, generate_args, train_args):
        data = tmp_path / "data"
        assert cli_main(["generate", "--out", str(data)] + generate_args) == 0

        def outputs(run):
            assert cli_main(["train", "--data", str(data), "--out", str(tmp_path / run)] + train_args) == 0
            return [(tmp_path / run / name).read_bytes() for name in ("embeddings.txt", "history.tsv")]

        got = outputs("blocked")
        ref.use_reference_ops(monkeypatch)
        assert got == outputs("whole-array")


class TestReconstructionLoss:
    """model.reconstruction_loss gives the bytes of the decoder recorded on one tape."""

    @staticmethod
    def operands(n):
        rng = np.random.default_rng(n)
        ys, yp = np.abs(rng.normal(scale=0.5, size=(n, 4))), np.abs(rng.normal(scale=0.5, size=(n, 3)))
        # rows 0 and 1 point the same way: Gram entries near 49 clamp probabilities
        ys[0, 0], ys[1, 0] = 7.0, 7.0
        pairs = rng.integers(0, n, size=(2 * n, 2))
        return ys, yp, SparseAdjacency.from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])

    @pytest.mark.parametrize("n", [5, 60], ids=["one-block", "two-blocks"])
    def test_matches_the_decoder_on_one_tape(self, n):
        ys0, yp0, adj = self.operands(n)
        assert -(-n // ad._BLOCK_ROWS) == (1 if n == 5 else 2)
        loss, g_ys, g_yp = reconstruction_loss(ys0, yp0, adj)

        ref_tape = ref.Tape()
        a, b = ref_tape.leaf(ys0), ref_tape.leaf(yp0)
        probs = ref.decode(a, b)
        assert (probs.value > 1.0 - ad.CLAMP_EPS).any()
        ref_loss = ref.whole_array_balanced_bce(probs, adj)
        ref_tape.backward(ref_loss)
        assert np.array([[loss]]).tobytes() == ref_loss.value.tobytes()
        assert g_ys.tobytes() == a.grad.tobytes()
        assert g_yp.tobytes() == b.grad.tobytes()

    def test_repeated_backward_matches(self):
        # run_model's backward reads the gradients reconstruction_loss returned and must leave them as they were
        ys0, yp0, adj = self.operands(5)
        net = MultiViewNetwork(5, [adj])
        tape = Tape()
        out = run_model(net, RgaeParams.init(5, (4, 3), 1, seed=3), 0.5, 0.5, 3.0, tape)
        tape.backward(out.loss)
        first = [g.tobytes() for g in out.params.gradients()]
        tape.backward(out.loss)
        assert [g.tobytes() for g in out.params.gradients()] == first

    def test_finite_differences_under_a_scaled_gradient(self):
        rng = np.random.default_rng(8)
        ys0, yp0 = rng.uniform(0.1, 1.5, size=(5, 3)), rng.uniform(0.1, 1.5, size=(5, 2))
        adj = SparseAdjacency.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        _, g_ys, g_yp = reconstruction_loss(ys0, yp0, adj)

        # scaled by -2.5: the gradients scale with the loss
        def f(x, y):
            return -2.5 * reconstruction_loss(x, y, adj)[0]

        assert_close_grad(-2.5 * g_ys, numeric_grad(lambda x: f(x, yp0), ys0.copy()))
        assert_close_grad(-2.5 * g_yp, numeric_grad(lambda y: f(ys0, y), yp0.copy()))

    @pytest.mark.parametrize("n", [1, 2, 33])
    def test_operands_of_zeros_and_negative_zeros(self, n):
        # every logit is +0.0 or -0.0, every probability exactly 1/2
        ys0, yp0 = np.zeros((n, 3)), np.full((n, 2), -0.0)
        ys0[::2, 1] = -0.0
        adj = SparseAdjacency.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert sweep(ys0, yp0, adj) == reference_decoder(ys0, yp0, adj)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_negative_operand_raises_and_a_non_finite_one_overflows(self):
        ys0, yp0, adj = self.operands(5)
        for bad, error in ((-1e-300, NegativeEmbedding), (-np.inf, NumericalOverflow), (np.nan, NumericalOverflow),
                           (np.inf, NumericalOverflow), (1e200, NumericalOverflow)):
            yp = yp0.copy()
            yp[3, 1] = bad
            with pytest.raises(error):
                reconstruction_loss(ys0, yp, adj)

    def test_run_model_names_the_view_of_a_negative_operand(self, monkeypatch):
        net = MultiViewNetwork(5, [self.operands(5)[2]] * 3)
        encode = model.encode

        def negated(norm, weights, scope):
            layers = encode(norm, weights, scope)
            return layers[:-1] + [(layers[-1][0], -1.0 - layers[-1][1])] if scope == "view 1 private" else layers

        monkeypatch.setattr(model, "encode", negated)
        with pytest.raises(NegativeEmbedding, match="^view 1 decoder: "):
            run_model(net, RgaeParams.init(5, (4, 3), 3, seed=3), 0.5, 0.5, 3.0, Tape())


class TestMatchesReferenceOps:
    """The reference graph_conv and lincomb give the values and leaf gradients of the primitive ops, byte for byte."""

    @pytest.mark.parametrize("with_weight", [False, True], ids=["first-layer", "hidden-layer"])
    @pytest.mark.parametrize("n", [5, 300])
    def test_graph_conv(self, n, with_weight):
        rng = np.random.default_rng(n)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < 0.2
        norm = normalize(SparseAdjacency.from_edges(n, np.stack([iu[mask], ju[mask]], axis=1)))
        h0 = wide_range_values((n, 6), rng)
        w0 = rng.normal(size=(6, 4)) if with_weight else None
        g0 = wide_range_values((n, 4 if with_weight else 6), rng)

        def run(op):
            tape = ref.Tape()
            h = tape.leaf(h0)
            w = None if w0 is None else tape.leaf(w0)
            out = op(norm, h, w)
            tape.backward(seed_gradient(out, g0))
            return [out.value.tobytes()] + [t.grad.tobytes() for t in (h, w) if t is not None]

        assert run(ref.graph_conv) == run(ref.primitive_graph_conv)

    def test_lincomb(self):
        rng = np.random.default_rng(5)
        leaves = [wide_range_values((7, 3), rng) for _ in range(4)]
        g0 = wide_range_values((7, 3), rng)
        for coeffs in [(1.0,), (1, -1), (1, 1, 0.7, -2.5), (0.1, 0.2, 0.3, 0.4)]:

            def run(op, coeffs=coeffs):
                tape = ref.Tape()
                ts = [tape.leaf(v) for v in leaves[: len(coeffs)]]
                # the first leaf twice: its two contributions meet in one gradient
                out = op(ts + ts[:1], coeffs + (1.5,))
                tape.backward(seed_gradient(out, g0))
                return [out.value.tobytes()] + [t.grad.tobytes() for t in ts]

            assert run(ref.lincomb) == run(ref.primitive_lincomb)
        # 1.0 and -1.0 give a + b and a - b exactly, the old add and sub
        tape = ref.Tape()
        a, b = tape.leaf(leaves[0]), tape.leaf(leaves[1])
        assert ref.lincomb([a, b], (1, 1)).value.tobytes() == ref.add(a, b).value.tobytes()
        assert ref.lincomb([a, b], (1, -1)).value.tobytes() == ref.sub(a, b).value.tobytes()


FANOUT_ADJ = SparseAdjacency.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5)])
FANOUT_NORM = normalize(FANOUT_ADJ)


def fanout_graph(case, tape, x0, y0, c0):
    """(leaves, interior nodes, root) of a small graph in which one node feeds several consumers."""
    x, y, c = tape.leaf(x0), tape.leaf(y0), tape.leaf(c0)
    if case == "sigmoid-two-consumers":
        s = ref.whole_array_sigmoid(ref.joined_gram(x, x))
        interior = [s, ref.sq_frobenius(ref.row_dot(s, c)), ref.sq_frobenius(ref.lincomb([s], (3.0,)))]
    elif case == "gram-two-consumers":
        gm = ref.joined_gram(x, y)
        interior = [gm, ref.whole_array_balanced_bce(ref.whole_array_sigmoid(gm), FANOUT_ADJ),
                    ref.sq_frobenius(ref.lincomb([gm], (-0.5,)))]
    elif case == "add-one-node-twice":
        s = ref.whole_array_sigmoid(ref.joined_gram(x, x))
        interior = [s, ref.whole_array_balanced_bce(ref.lincomb([s, s], (0.5, 0.5)), FANOUT_ADJ), ref.sq_frobenius(y)]
    elif case == "add-two-sigmoids":
        s, t = ref.whole_array_sigmoid(ref.joined_gram(x, y)), ref.whole_array_sigmoid(ref.joined_gram(y, x))
        interior = [s, t, ref.sq_frobenius(ref.row_dot(ref.lincomb([s, t], (1, 1)), c)), ref.sq_frobenius(c)]
    elif case == "graph-conv-shared-weight":
        # c is a layer input once and a weight twice; gm feeds a layer as its input
        gm = ref.joined_gram(x, y)
        hidden = ref.graph_conv(FANOUT_NORM, ref.graph_conv(FANOUT_NORM, c), c)
        interior = [gm, hidden, ref.sq_frobenius(ref.graph_conv(FANOUT_NORM, gm, c)), ref.sq_frobenius(hidden)]
    else:  # the probabilities feed balanced_bce and another op
        p = ref.whole_array_sigmoid(ref.joined_gram(x, y))
        interior = [p, ref.whole_array_balanced_bce(p, FANOUT_ADJ), ref.sq_frobenius(ref.row_dot(p, c))]
    root = ref.lincomb([interior[-2], interior[-1]], (1, 1))
    return [x, y, c], interior, root


class TestGradientOwnership:
    """On the reference's tape, fan-out, shared operands and copy-free hand-over give the leaf gradients of a tape
    that copies everything."""

    CASES = [
        "sigmoid-two-consumers", "gram-two-consumers", "add-one-node-twice", "add-two-sigmoids", "bce-probs-and-row-dot",
        "graph-conv-shared-weight",
    ]

    def run(self, case):
        rng = np.random.default_rng(4)
        tape = ref.Tape()
        leaves, interior, root = fanout_graph(
            case, tape, rng.normal(size=(6, 3)), rng.normal(size=(6, 3)), rng.normal(size=(6, 6))
        )
        tape.backward(root)
        return leaves, interior

    @pytest.mark.parametrize("case", CASES)
    def test_leaf_gradients_match_a_copying_tape(self, case, monkeypatch):
        leaves, interior = self.run(case)
        with monkeypatch.context() as m:
            ref.use_reference_ops(m)
            ref_leaves, _ = self.run(case)
        assert [t.grad.tobytes() for t in leaves] == [t.grad.tobytes() for t in ref_leaves]
        assert all(t.grad is None for t in interior)
        for i, a in enumerate(leaves):
            assert not any(np.shares_memory(a.grad, b.grad) for b in leaves[i + 1 :])


class TestBackwardContract:
    """The general tape in reference_ops, which the op-by-op reference records on."""

    def test_replay_is_bit_identical(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=(5, 4))
        w0 = rng.normal(size=(4, 3))

        def run():
            tape = ref.Tape()
            x = tape.leaf(x0)
            w = tape.leaf(w0)
            loss = ref.sq_frobenius(ref.whole_array_sigmoid(ref.graph_conv(identity(5), ref.graph_conv(PATH5, x), w)))
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_unused_leaf_gets_zero_gradient(self):
        tape = ref.Tape()
        used = tape.leaf([[3.0]])
        unused = tape.leaf([[7.0, 7.0]])
        tape.backward(ref.sq_frobenius(used))
        assert np.array_equal(unused.grad, [[0.0, 0.0]])

    def test_repeated_backward_matches(self):
        tape = ref.Tape()
        x = tape.leaf([[1.0, -2.0]])
        root = ref.sq_frobenius(ref.graph_conv(identity(1), x))
        tape.backward(root)
        first = x.grad.copy()
        tape.backward(root)
        assert np.array_equal(x.grad, first)

    def test_fanout_accumulates(self):
        tape = ref.Tape()
        x = tape.leaf([[2.0]])
        root = ref.sq_frobenius(ref.lincomb([x, x], (1, 1)))
        tape.backward(root)
        # d/dx (2x)^2 = 8x
        assert x.grad[0, 0] == pytest.approx(16.0)

    def test_non_scalar_root_rejected(self):
        tape = ref.Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(TapeError):
            tape.backward(x)

    def test_shape_mismatch(self):
        tape = ref.Tape()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeMismatch, match="multiply"):
            ref.graph_conv(identity(2), a, b)
        with pytest.raises(ShapeMismatch, match="rows"):
            ref.graph_conv(identity(3), a)
        with pytest.raises(ShapeMismatch, match="add"):
            ref.lincomb([a, tape.leaf(np.ones((3, 2)))], (1, 1))
        with pytest.raises(ShapeMismatch, match="coefficients"):
            ref.lincomb([a, b], (1.0,))
        with pytest.raises(ShapeMismatch, match="join"):
            ad.gram(a, tape.leaf(np.ones((3, 2))))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_detected(self):
        tape = ref.Tape()
        x = tape.leaf([[1e308]])
        with pytest.raises(NumericalOverflow):
            ref.lincomb([x], (10.0,))
        with pytest.raises(NumericalOverflow):
            ref.graph_conv(identity(1), x, tape.leaf([[10.0]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_graph_conv_raises_on_negative_infinite_pre_activation(self):
        # relu would turn the -inf of spmm(norm, h) @ w into 0; the pre-activation check raises first
        tape = ref.Tape()
        h = tape.leaf([[-1e308], [-1e308]])
        w = tape.leaf([[10.0]])
        with pytest.raises(NumericalOverflow):
            ref.graph_conv(normalize(SparseAdjacency.from_edges(2, [(0, 1)])), h, w)
        assert len(tape) == 2

    def test_non_finite_leaf_rejected(self):
        tape = ref.Tape()
        with pytest.raises(NumericalOverflow):
            tape.leaf([[np.nan]])

    def test_cross_tape_rejected(self):
        t1, t2 = ref.Tape(), ref.Tape()
        a = t1.leaf([[1.0]])
        b = t2.leaf([[1.0]])
        with pytest.raises(ShapeMismatch):
            ref.lincomb([a, b], (1, 1))
        with pytest.raises(ShapeMismatch):
            ref.joined_gram(a, b)
        with pytest.raises(ShapeMismatch):
            ref.graph_conv(identity(1), a, b)

    def test_only_leaves_keep_gradients(self):
        tape = ref.Tape()
        x = tape.leaf([[1.0, -2.0]])
        unused = tape.leaf([[5.0]])
        hidden = ref.graph_conv(identity(1), ref.lincomb([x], (3.0,)))
        root = ref.sq_frobenius(hidden)
        after_root = ref.lincomb([root], (2.0,))
        tape.backward(root)
        assert hidden.grad is None and root.grad is None and after_root.grad is None
        assert np.array_equal(x.grad, [[18.0, 0.0]])
        assert np.array_equal(unused.grad, [[0.0]])

    def test_a_node_keeps_its_tape_alive(self):
        gc.disable()
        try:
            x = ref.Tape().leaf([[1.0, -2.0]])
            root = ref.sq_frobenius(ref.graph_conv(identity(1), x))
            root.tape.backward(root)
            assert np.array_equal(x.grad, [[2.0, 0.0]])
            probe = weakref.ref(x.tape)
            del x, root
            # the tape refers to its nodes weakly, so no cycle outlives them
            assert probe() is None
        finally:
            gc.enable()


class TestTape:
    """rgae's own tape: weight leaves, and one loss whose pull adds into their zero-filled gradients."""

    def test_backward_zero_fills_the_leaves_and_runs_the_pull_once(self):
        tape = Tape()
        a, unused = tape.leaf([[1.0, -2.0]]), tape.leaf([[3.0]])
        calls = []

        def pull():
            calls.append(None)
            a.grad += 2.0 * a.value

        loss = tape.loss(5.0, pull)
        assert len(tape) == 3 and loss.value.tobytes() == np.array([[5.0]]).tobytes()
        for runs in (1, 2):
            tape.backward(loss)
            assert len(calls) == runs
            assert np.array_equal(a.grad, [[2.0, -4.0]]) and np.array_equal(unused.grad, [[0.0]])

    def test_a_second_loss_is_rejected(self):
        tape = Tape()
        tape.loss(1.0, lambda: None)
        with pytest.raises(TapeError, match="one loss"):
            tape.loss(2.0, lambda: None)
        assert len(tape) == 1

    def test_backward_runs_from_this_tapes_loss_only(self):
        tape, other = Tape(), Tape()
        x = tape.leaf([[1.0]])
        with pytest.raises(TapeError):
            tape.backward(x)
        tape.loss(1.0, lambda: None)
        for root in (x, other.loss(1.0, lambda: None)):
            with pytest.raises(TapeError):
                tape.backward(root)

    def test_leaves_are_checked_copies(self):
        tape = Tape()
        w = np.ones((2, 2))
        assert not np.shares_memory(tape.leaf(w).value, w)
        with pytest.raises(NumericalOverflow):
            tape.leaf([[np.nan]])
        with pytest.raises(ShapeMismatch):
            tape.leaf(np.ones(3))
