import copy
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from rgae import SynthConfig, generate
from rgae.autodiff import Tape
from rgae.errors import ConfigError, DegenerateWeights, InvalidGamma, NumericalOverflow, ShapeMismatch
from rgae.graph import MultiViewNetwork, SparseAdjacency
from rgae.model import (
    EmbeddingSet,
    RgaeParams,
    aggregate,
    consistent_embedding,
    decode,
    difference_loss,
    embed,
    embed_dim,
    encode,
    encode_views,
    outputs,
    run_model,
    similarity_loss,
)

import reference_ops as ref


def random_net(n, n_views, seed, p=0.35):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    views = []
    for _ in range(n_views):
        mask = rng.random(iu.size) < p
        if not mask.any():
            mask[0] = True
        views.append(SparseAdjacency.from_edges(n, np.stack([iu[mask], ju[mask]], axis=1)))
    return MultiViewNetwork(n=n, views=views)


# ---------------------------------------------------------------------------
# independent straight-line oracle: dense numpy, no tape involved
# ---------------------------------------------------------------------------

def oracle_normalized(view):
    a = view.to_dense() + np.eye(view.n)
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * a * inv[None, :]


def oracle_encode(norm_dense, weights):
    h = np.maximum(norm_dense @ weights[0], 0.0)
    for w in weights[1:]:
        h = np.maximum(norm_dense @ h @ w, 0.0)
    return h


def oracle_forward_view(view, params, i):
    norm = oracle_normalized(view)
    ys = oracle_encode(norm, params.shared)
    yp = oracle_encode(norm, params.private[i])
    joint = np.concatenate([ys, yp], axis=1)
    logits = joint @ joint.T
    return ys, yp, 1.0 / (1.0 + np.exp(-logits))


def oracle_bce(probs, view):
    t = view.to_dense()
    t[t > 0] = 1.0
    np.fill_diagonal(t, 1.0)
    weight = (t.size - t.sum()) / t.sum()
    p = np.clip(probs, 1e-12, 1 - 1e-12)
    return -(weight * np.sum(t * np.log(p)) + np.sum((1 - t) * np.log(1 - p)))


def oracle_total(net, params, alpha, beta, gamma):
    w = params.lam**gamma
    coef = w / w.sum()
    shared, private, recs = [], [], []
    for i, view in enumerate(net.views):
        ys, yp, a_hat = oracle_forward_view(view, params, i)
        shared.append(ys)
        private.append(yp)
        recs.append(oracle_bce(a_hat, view))
    y_con = sum(c * y for c, y in zip(coef, shared))
    sim = sum(wi * np.sum((y_con - ys) ** 2) for wi, ys in zip(w, shared))
    dif = sum(np.sum(np.sum(ys * yp, axis=1) ** 2) for ys, yp in zip(shared, private))
    return sum(recs) + alpha * sim + beta * dif


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function over every entry of x, changed in place and restored."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = f(x)
        x[idx] = orig - h
        down = f(x)
        x[idx] = orig
        g[idx] = (up - down) / (2 * h)
    return g


def probabilities(ys, yp):
    """decode's reconstruction probabilities for two encoder outputs."""
    tape = Tape()
    return decode(tape.leaf(ys), tape.leaf(yp)).value


def views_out(net, params):
    """Each view's shared and private encoder outputs."""
    shared, private = encode_views(net, params)
    return outputs(shared), outputs(private)


class TestForwardView:
    def test_degenerate_one_node_graph(self):
        view = SparseAdjacency(1, np.array([0, 0]), np.array([], dtype=np.int64), np.array([]))
        for w in (0.7, -0.7):
            params = RgaeParams(private=[[np.array([[w]])]], shared=[np.array([[w]])],
                                lam=np.array([1.0]))
            stacks = (params.shared, params.private[0])
            ys, yp = outputs([encode(view.normalized(), stack, "view 0") for stack in stacks])
            assert ys[0, 0] == pytest.approx(max(w, 0.0))
            assert yp[0, 0] == pytest.approx(max(w, 0.0))

    def test_zero_weights_give_half_probabilities(self):
        net = random_net(5, 1, seed=2)
        params = RgaeParams.init(5, (4, 2), 1, seed=0)
        params.shared = [np.zeros_like(w) for w in params.shared]
        params.private = [[np.zeros_like(w) for w in params.private[0]]]
        (ys,), (yp,) = views_out(net, params)
        assert np.array_equal(ys, np.zeros((5, 2)))
        assert np.all(probabilities(ys, yp) == 0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, seed):
        net = random_net(6, 2, seed=seed)
        params = RgaeParams.init(6, (5, 3), 2, seed=seed + 100)
        for i, (view, ys, yp) in enumerate(zip(net.views, *views_out(net, params))):
            oys, oyp, oa = oracle_forward_view(view, params, i)
            assert np.max(np.abs(ys - oys)) < 1e-12
            assert np.max(np.abs(yp - oyp)) < 1e-12
            assert np.max(np.abs(probabilities(ys, yp) - oa)) < 1e-12

    def test_reconstruction_symmetric_in_unit_interval(self):
        net = random_net(7, 1, seed=4)
        params = RgaeParams.init(7, (3,), 1, seed=1)
        (ys,), (yp,) = views_out(net, params)
        a_hat = probabilities(ys, yp)
        assert np.allclose(a_hat, a_hat.T)
        assert np.all((a_hat > 0) & (a_hat < 1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pre_activation_overflow_to_minus_infinity_raises(self):
        # the hub's normalized row sums to about 2, so its first-layer pre-activation overflows to -inf,
        # which relu would turn into 0
        star = SparseAdjacency.from_edges(9, [(0, i) for i in range(1, 9)]).normalized()
        with pytest.raises(NumericalOverflow, match="^non-finite value in view 4 private layer 0$"):
            encode(star, [np.full((9, 2), -1e308)], "view 4 private")

    def test_shared_weight_tying(self):
        net = random_net(6, 3, seed=6)
        params = RgaeParams.init(6, (4, 2), 3, seed=0)

        def shared_outputs(p):
            return views_out(net, p)[0]

        def private_outputs(p):
            return views_out(net, p)[1]

        base_shared = shared_outputs(params)
        base_private = private_outputs(params)
        bumped = copy.deepcopy(params)
        bumped.shared[0] = bumped.shared[0] + 0.5
        new_shared = shared_outputs(bumped)
        assert all(not np.allclose(a, b) for a, b in zip(base_shared, new_shared))

        bumped = copy.deepcopy(params)
        bumped.private[1][0] = bumped.private[1][0] + 0.5
        new_private = private_outputs(bumped)
        assert np.array_equal(new_private[0], base_private[0])
        assert not np.allclose(new_private[1], base_private[1])
        assert np.array_equal(new_private[2], base_private[2])


class TestConsistentEmbedding:
    def test_equal_inputs_pass_through(self):
        y = np.arange(6, dtype=float).reshape(3, 2)
        out = consistent_embedding([y, y.copy(), y.copy()], np.array([0.2, 0.5, 0.3]), 2.0)
        assert np.allclose(out, y)

    def test_one_hot_weights_select_view(self):
        rng = np.random.default_rng(0)
        ys = [rng.normal(size=(4, 2)) for _ in range(3)]
        out = consistent_embedding(ys, np.array([1.0, 0.0, 0.0]), 2.0)
        assert np.allclose(out, ys[0])

    def test_uniform_weights_give_mean(self):
        rng = np.random.default_rng(1)
        ys = [rng.normal(size=(4, 3)) for _ in range(2)]
        out = consistent_embedding(ys, np.array([0.5, 0.5]), 2.0)
        assert np.allclose(out, (ys[0] + ys[1]) / 2)

    def test_output_minimizes_similarity_loss(self):
        # grid perturbation around the closed form never decreases the objective
        rng = np.random.default_rng(2)
        ys = [rng.normal(size=(5, 3)) for _ in range(3)]
        lam = np.array([0.2, 0.3, 0.5])
        gamma = 2.0
        w = lam**gamma

        def objective(y_con):
            return sum(wi * np.sum((y_con - y) ** 2) for wi, y in zip(w, ys))

        y_star = consistent_embedding(ys, lam, gamma)
        base = objective(y_star)
        for _ in range(20):
            delta = rng.normal(size=y_star.shape)
            for eps in (1e-3, 1e-1, 1.0):
                assert objective(y_star + eps * delta) >= base

    def test_view_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        ys = [rng.normal(size=(4, 2)) for _ in range(3)]
        lam = np.array([0.6, 0.3, 0.1])
        base = consistent_embedding(ys, lam, 5.0)
        perm = [2, 0, 1]
        permuted = consistent_embedding([ys[p] for p in perm], lam[perm], 5.0)
        assert np.allclose(base, permuted)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            consistent_embedding([np.ones((2, 2)), np.ones((2, 2))], np.array([0.0, 0.0]), 2.0)

    def test_invalid_gamma(self):
        for gamma in (1.0, 0.0, -2.0):
            with pytest.raises(InvalidGamma):
                consistent_embedding([np.ones((2, 2))], np.array([1.0]), gamma)


class TestSimilarityLoss:
    def test_zero_when_all_equal(self):
        ys = [np.ones((3, 2)) for _ in range(2)]
        y_con = consistent_embedding(ys, np.array([0.5, 0.5]), 2.0)
        assert similarity_loss(ys, y_con, np.array([0.5, 0.5]), 2.0) == 0.0

    def test_hand_value(self):
        # lam = (.5, .5), gamma = 2 gives coefficient .25 on each squared distance
        d1 = np.array([[1.0, 0.0], [0.0, 2.0]])
        d2 = np.array([[0.0, 3.0], [1.0, 0.0]])
        loss = similarity_loss([-d1, -d2], np.zeros((2, 2)), np.array([0.5, 0.5]), 2.0)
        expected = 0.25 * (np.sum(d1**2) + np.sum(d2**2))
        assert loss == pytest.approx(expected)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(5)
        ys = [rng.normal(size=(3, 2)) for _ in range(2)]
        lam = np.array([0.4, 0.6])

        def value(c):
            scaled = [c * y for y in ys]
            return similarity_loss(scaled, consistent_embedding(scaled, lam, 3.0), lam, 3.0)

        assert value(2.0) == pytest.approx(4.0 * value(1.0))


class TestDifferenceLoss:
    def one(self, a, b):
        return difference_loss(np.array(a, dtype=float), np.array(b, dtype=float))

    def test_orthogonal_rows(self):
        assert self.one([[1.0, 0.0]], [[0.0, 1.0]]) == 0.0

    def test_hand_value(self):
        assert self.one([[1.0, 1.0]], [[1.0, 1.0]]) == pytest.approx(4.0)

    def test_zero_private(self):
        assert self.one([[2.0, 3.0]], [[0.0, 0.0]]) == 0.0

    def test_zero_iff_row_orthogonal(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3))
        # project each row of b against a's row to build an exactly orthogonal pair
        for i in range(5):
            b[i] -= a[i] * (a[i] @ b[i]) / (a[i] @ a[i])
        assert self.one(a, b) == pytest.approx(0.0, abs=1e-25)
        assert self.one(a, a) > 0


class TestTotalLoss:
    def test_zero_coefficients_equal_reconstruction_exactly(self):
        net = random_net(6, 2, seed=8)
        params = RgaeParams.init(6, (4, 2), 2, seed=8)
        tape = Tape()
        out = run_model(net, params, 0.0, 0.0, 2.0, tape)
        assert float(out.loss.value[0, 0]) == sum(out.rec)

    def test_matches_independent_oracle(self):
        net = random_net(8, 2, seed=9)
        params = RgaeParams.init(8, (5, 3), 2, seed=10)
        params.lam = np.array([0.35, 0.65])
        tape = Tape()
        loss = run_model(net, params, 0.7, 0.4, 2.0, tape).loss
        expected = oracle_total(net, params, 0.7, 0.4, 2.0)
        assert abs(float(loss.value[0, 0]) - expected) < 1e-10

    def test_ablation_flags_zero_terms(self):
        net = random_net(6, 2, seed=11)
        params = RgaeParams.init(6, (3,), 2, seed=11)
        tape = Tape()
        full = run_model(net, params, 1.0, 1.0, 2.0, tape)
        rec_only = sum(full.rec)
        t2 = Tape()
        no_both = run_model(net, params, 1.0, 1.0, 2.0, t2, use_sim=False, use_dif=False)
        assert float(no_both.loss.value[0, 0]) == rec_only
        t3 = Tape()
        no_sim = run_model(net, params, 1.0, 1.0, 2.0, t3, use_sim=False)
        assert float(no_sim.loss.value[0, 0]) == pytest.approx(rec_only + sum(full.dif))

    def test_ablated_gradients_flow_only_through_reconstruction(self):
        net = random_net(6, 2, seed=12)
        params = RgaeParams.init(6, (4, 2), 2, seed=12)
        tape = Tape()
        out = run_model(net, params, 1.0, 1.0, 2.0, tape, use_sim=False, use_dif=False)
        tape.backward(out.loss)
        ablated = [g.copy() for g in out.params.gradients()]

        # zero weights leave the regularizer terms in, as zeros
        t2 = Tape()
        out2 = run_model(net, params, 0.0, 0.0, 2.0, t2)
        t2.backward(out2.loss)
        rec_grads = out2.params.gradients()
        assert any(np.any(g != 0.0) for g in ablated)
        for g1, g2 in zip(ablated, rec_grads, strict=True):
            assert np.array_equal(g1, g2)

    def test_tape_node_count_is_pinned(self):
        # the benchmark's autodiff.tape_nodes reads len(tape)
        net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=2, seed=7))
        tape = Tape()
        out = run_model(net, RgaeParams.init(30, (4, 2), 2), 0.5, 0.5, 5.0, tape)
        tape.backward(out.loss)
        # 6 weight leaves and the total, whose pull is the written-out backward
        assert len(tape) == 7
        # the pull holds the pass's arrays; no cycle keeps them once the tape and the output go
        probes = [weakref.ref(a) for a in (out.loss.value, out.shared[0], out.params.shared[0].grad)]
        gc.disable()
        try:
            del tape, out
            assert all(probe() is None for probe in probes)
        finally:
            gc.enable()

    @pytest.mark.parametrize("use_sim", [True, False])
    @pytest.mark.parametrize("use_dif", [True, False])
    def test_gradients_match_finite_differences(self, use_sim, use_dif):
        net = random_net(7, 2, seed=22)
        params = RgaeParams.init(7, (4, 3), 2, seed=22)
        params.lam = np.array([0.4, 0.6])
        args = (0.7, 1.3, 2.0)
        tape = Tape()
        out = run_model(net, params, *args, tape, use_sim=use_sim, use_dif=use_dif)
        tape.backward(out.loss)
        grads = [g.copy() for g in out.params.gradients()]

        def loss(_):
            return float(run_model(net, params, *args, Tape(), use_sim=use_sim, use_dif=use_dif).loss.value[0, 0])

        for array, grad in zip(params.weights(), grads, strict=True):
            numeric = numeric_grad(loss, array, h=1e-4)
            assert np.max(np.abs(grad - numeric) / np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-6)) < 1e-4

    def test_repeated_backward_matches(self):
        net = random_net(6, 2, seed=18)
        tape = Tape()
        out = run_model(net, RgaeParams.init(6, (4, 2), 2, seed=18), 0.5, 0.5, 3.0, tape)
        tape.backward(out.loss)
        first = [g.tobytes() for g in out.params.gradients()]
        tape.backward(out.loss)
        assert [g.tobytes() for g in out.params.gradients()] == first

    def test_mismatched_weight_shapes_rejected(self):
        net = random_net(6, 2, seed=19)
        params = RgaeParams.init(6, (4, 2), 2, seed=19)
        params.shared[1] = np.ones((3, 2))
        with pytest.raises(ShapeMismatch, match="^view 0 shared layer 1: cannot multiply"):
            run_model(net, params, 0.5, 0.5, 2.0, Tape())
        params = RgaeParams.init(6, (4, 2), 2, seed=19)
        params.private[1][1] = np.ones((4, 1))
        with pytest.raises(ShapeMismatch, match="differ in shape"):
            run_model(net, params, 0.5, 0.5, 2.0, Tape())

    def test_negative_coefficients_rejected(self):
        net = random_net(4, 1, seed=13)
        params = RgaeParams.init(4, (2,), 1, seed=0)
        with pytest.raises(ConfigError):
            run_model(net, params, -0.1, 0.0, 2.0, Tape())


class TestTrainingMemory:
    def test_peak_does_not_grow_by_a_square_array_per_view(self):
        # each view's decoder arrays die inside its reconstruction node, so two more views add no n x n array
        n = 300

        def peak(n_views):
            net = random_net(n, n_views, seed=21, p=0.02)
            params = RgaeParams.init(n, (8, 4), n_views, seed=0)
            for view in net.views:
                view.normalized()
            tracemalloc.start()
            try:
                tape = Tape()
                tape.backward(run_model(net, params, 0.5, 0.5, 5.0, tape).loss)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) - peak(1) < 8 * n * n


class TestEmbed:
    @pytest.mark.parametrize("use_sim", [True, False])
    @pytest.mark.parametrize("use_dif", [True, False])
    def test_matches_run_model_outputs(self, use_sim, use_dif):
        net = random_net(12, 3, seed=15)
        params = RgaeParams.init(12, (5, 3), 3, seed=15)
        params.lam = np.array([0.2, 0.3, 0.5])
        es = embed(net, params, 3.0)
        # run_model's outputs and those of the model recorded op by op on a tape
        for out in (run_model(net, params, 0.5, 0.5, 3.0, Tape(), use_sim=use_sim, use_dif=use_dif),
                    ref.run_model(net, params, 0.5, 0.5, 3.0, ref.Tape(), use_sim=use_sim, use_dif=use_dif)):
            for got, want in zip(es.shared + es.private + [es.consistent],
                                 out.shared + out.private + [out.consistent], strict=True):
                assert got.tobytes() == want.tobytes()
        assert np.array_equal(es.final, aggregate(es))

    def test_view_count_mismatch(self):
        params = RgaeParams.init(6, (2,), 2, seed=0)
        with pytest.raises(ShapeMismatch):
            embed(random_net(6, 3, seed=16), params, 2.0)


class TestAggregate:
    def test_ordering_and_width(self):
        rng = np.random.default_rng(14)
        con = rng.normal(size=(5, 3))
        privates = [rng.normal(size=(5, 3)) for _ in range(2)]
        es = EmbeddingSet(shared=[], private=privates, consistent=con)
        y = aggregate(es)
        assert y.shape == (5, 9)
        assert np.array_equal(y[:, :3], con)
        assert np.array_equal(y[:, 3:6], privates[0])
        assert np.array_equal(y[:, 6:], privates[1])

    def test_single_view_width(self):
        con = np.ones((4, 2))
        es = EmbeddingSet(shared=[], private=[np.zeros((4, 2))], consistent=con)
        assert aggregate(es).shape == (4, 4)

    def test_mismatched_blocks(self):
        es = EmbeddingSet(shared=[], private=[np.ones((4, 3))], consistent=np.ones((4, 2)))
        with pytest.raises(ShapeMismatch):
            aggregate(es)


class TestDimensionBudget:
    def test_floor_division(self):
        assert embed_dim(32, 2) == 10
        assert embed_dim(128, 3) == 32
        assert embed_dim(3, 2) == 1

    def test_too_small(self):
        with pytest.raises(ConfigError):
            embed_dim(2, 2)

    def test_layer_spec_validation(self):
        with pytest.raises(ConfigError):
            RgaeParams.init(5, (4, 0), 1)
        with pytest.raises(ConfigError):
            RgaeParams.init(5, (), 1)
