import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rgae.autodiff as ad
from rgae.autodiff import Tape
from rgae.errors import ConfigError, InvalidGamma, NumericalOverflow, ShapeMismatch
from rgae.graph import MultiViewNetwork, SparseAdjacency
from rgae.model import RgaeParams, bind_params, embed_dim, encode, run_model
from rgae.synth import SynthConfig, generate
from rgae.trainer import AdamState, TrainConfig, _refresh_lambda, adam_step, train, update_lambda


class TestUpdateLambda:
    def test_equal_disagreements_give_uniform(self):
        for c in (0.5, 1.0, 42.0):
            lam = update_lambda(np.array([c, c, c]), 2.0)
            assert np.allclose(lam, [1 / 3, 1 / 3, 1 / 3])

    def test_hand_value(self):
        # gamma 2, B = (1, 4): weights (2)^-1 and (8)^-1, normalized to (0.8, 0.2)
        lam = update_lambda(np.array([1.0, 4.0]), 2.0)
        assert np.allclose(lam, [0.8, 0.2])

    def test_large_gamma_spreads_to_uniform(self):
        lam = update_lambda(np.array([1.0, 4.0]), 500.0)
        assert np.max(np.abs(lam - 0.5)) < 1e-2

    def test_gamma_near_one_concentrates(self):
        lam = update_lambda(np.array([1.0, 4.0]), 1.01)
        assert lam[0] > 0.99

    def test_simplex_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = rng.uniform(0, 10, size=rng.integers(2, 6))
            gamma = rng.choice([0.05, 0.5, 1.01, 2.0, 5.0, 500.0])
            lam = update_lambda(b, gamma)
            assert abs(lam.sum() - 1.0) < 1e-12
            assert np.all(lam >= 0)

    def test_extreme_inputs_stay_finite(self):
        lam = update_lambda(np.array([1e-30, 1e30]), 1.01)
        assert np.all(np.isfinite(lam))
        assert abs(lam.sum() - 1.0) < 1e-12

    @given(
        b=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=6),
        gamma=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).filter(lambda g: g != 1.0),
    )
    def test_any_valid_input_lands_on_the_simplex(self, b, gamma):
        lam = update_lambda(np.array(b), gamma)
        assert np.all(np.isfinite(lam)) and np.all(lam >= 0)
        assert abs(lam.sum() - 1.0) <= 1e-12

    def test_invalid_gamma(self):
        for gamma in (1.0, 0.0, -3.0, math.inf, math.nan):
            with pytest.raises(InvalidGamma):
                update_lambda(np.array([1.0, 2.0]), gamma)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = [np.array([[1.0, -2.0]])]
        before = p[0].copy()
        state = AdamState.for_params(p)
        adam_step(p, [np.zeros((1, 2))], state, lr=0.1)
        assert np.array_equal(p[0], before)

    def test_first_step_matches_scalar_reference(self):
        # hand-rolled scalar Adam, independently coded
        def reference(theta, g, lr, b1=0.9, b2=0.999, eps=1e-8):
            m = (1 - b1) * g
            v = (1 - b2) * g * g
            m_hat = m / (1 - b1)
            v_hat = v / (1 - b2)
            return theta - lr * m_hat / (math.sqrt(v_hat) + eps)

        theta = 0.7
        g = -1.3
        p = [np.array([[theta]])]
        state = AdamState.for_params(p)
        adam_step(p, [np.array([[g]])], state, lr=0.05)
        assert p[0][0, 0] == pytest.approx(reference(theta, g, 0.05), rel=1e-12)

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(5)
        p0 = rng.normal(size=(3, 2))
        grads = [rng.normal(size=(3, 2)) for _ in range(4)]

        def run():
            p = [p0.copy()]
            state = AdamState.for_params(p)
            for g in grads:
                adam_step(p, [g], state, lr=0.01)
            return p[0]

        first = run()
        assert not np.array_equal(first, p0)
        assert np.array_equal(first, run())

    def test_shape_mismatch(self):
        p = [np.zeros((2, 2))]
        state = AdamState.for_params(p)
        with pytest.raises(ShapeMismatch):
            adam_step(p, [np.zeros((3, 2))], state, lr=0.1)


def two_node_net():
    return MultiViewNetwork(2, [SparseAdjacency.from_edges(2, [(0, 1)])])


def path_net():
    return MultiViewNetwork(3, [SparseAdjacency.from_edges(3, [(0, 1), (1, 2)])])


class TestTrain:
    def test_loss_decreases_on_tiny_graph(self):
        cfg = TrainConfig(dim=2, layer_sizes=(), alpha=0.0, beta=0.0, gamma=2.0, lr=0.01,
                          max_epochs=50, patience=math.inf, tol=0.0, seed=0)
        _, _, history = train(path_net(), cfg)
        assert len(history) == 50
        assert history[-1].total < history[0].total

    def test_two_node_graph_is_degenerate_but_stable(self):
        # a single edge on two nodes makes the reconstruction target all-ones,
        # so the zero/nonzero balance weight vanishes and the loss sits at 0
        cfg = TrainConfig(dim=2, layer_sizes=(), alpha=0.0, beta=0.0, gamma=2.0, lr=0.01,
                          max_epochs=50, patience=math.inf, tol=0.0, seed=0)
        _, _, history = train(two_node_net(), cfg)
        assert all(b.total <= a.total for a, b in zip(history, history[1:]))

    def test_zero_epochs_returns_initial_embeddings(self):
        net = two_node_net()
        cfg = TrainConfig(dim=2, layer_sizes=(), max_epochs=0, seed=3)
        params, embeds, history = train(net, cfg)
        assert history == []
        fresh = RgaeParams.init(2, (1,), 1, seed=3)
        for a, b in zip(params.weights(), fresh.weights()):
            assert np.array_equal(a, b)
        assert embeds.final.shape == (2, 2)

    def test_exact_epoch_count_without_tolerance(self):
        cfg = TrainConfig(dim=2, layer_sizes=(), max_epochs=17, patience=math.inf, tol=0.0, seed=1)
        _, _, history = train(two_node_net(), cfg)
        assert len(history) == 17

    def test_early_stop_respects_patience(self):
        cfg = TrainConfig(dim=2, layer_sizes=(), max_epochs=400, patience=5, tol=0.5, seed=1)
        _, _, history = train(two_node_net(), cfg)
        assert len(history) < 400

    def test_lambda_stays_on_simplex(self):
        net = generate(SynthConfig(n=24, communities=(8, 8, 8), views=3, seed=5))
        cfg = TrainConfig(dim=16, layer_sizes=(8,), max_epochs=30, patience=math.inf, tol=0.0,
                          seed=2)
        _, _, history = train(net, cfg)
        for h in history:
            lam = np.array(h.lam)
            assert abs(lam.sum() - 1.0) < 1e-12
            assert np.all(lam >= 0)
            assert np.isfinite(h.total)

    def test_history_bounded_and_finite(self):
        cfg = TrainConfig(dim=2, layer_sizes=(4,), max_epochs=25, seed=0)
        _, _, history = train(two_node_net(), cfg)
        assert len(history) <= 25
        assert all(np.isfinite(h.total) for h in history)

    def test_same_seed_bit_identical(self):
        net = generate(SynthConfig(n=20, communities=(10, 10), views=2, seed=4))
        cfg = TrainConfig(dim=12, layer_sizes=(8,), max_epochs=20, seed=9)
        p1, e1, _ = train(net, cfg)
        p2, e2, _ = train(net, cfg)
        assert np.array_equal(e1.final, e2.final)
        for a, b in zip(p1.weights(), p2.weights()):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_reports_epoch(self):
        cfg = TrainConfig(dim=2, layer_sizes=(8, 8, 8), lr=1e120, max_epochs=10,
                          patience=math.inf, tol=0.0, seed=0)
        with pytest.raises(NumericalOverflow, match="epoch"):
            train(path_net(), cfg)

    def test_planted_communities_recovered_by_nearest_neighbor(self):
        net = generate(SynthConfig(n=60, communities=(20, 20, 20), views=2, p_in=0.3,
                                   p_out=0.02, unique_frac=0.5, seed=7))
        cfg = TrainConfig(dim=32, layer_sizes=(32,), alpha=0.5, beta=0.5, gamma=5.0, lr=0.01,
                          max_epochs=300, patience=math.inf, tol=0.0, seed=0)
        _, embeds, _ = train(net, cfg)
        y = embeds.final
        labels = np.array([next(iter(s)) for s in net.labels])
        # leave-one-out 1-NN by euclidean distance
        d2 = np.sum((y[:, None, :] - y[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        nearest = np.argmin(d2, axis=1)
        accuracy = np.mean(labels[nearest] == labels)
        assert accuracy > 0.9

    def test_config_validation(self):
        net = two_node_net()
        with pytest.raises(ConfigError):
            train(net, TrainConfig(lr=0.0))
        with pytest.raises(ConfigError):
            train(net, TrainConfig(alpha=-1.0))
        with pytest.raises(InvalidGamma):
            train(net, TrainConfig(gamma=1.0))
        with pytest.raises(ConfigError):
            train(net, TrainConfig(dim=1))
        with pytest.raises(ConfigError, match="seed"):
            train(net, TrainConfig(seed=-1))

    @pytest.mark.parametrize(
        "field, value, name, kind",
        [
            ("layer_sizes", (2.5,), "layer sizes", "an integer"),
            ("layer_sizes", (0,), "layer sizes", "an integer"),
            ("lambda_update_every", 1.5, "lambda_update_every", "an integer"),
            ("dim", 12.7, "dim", "an integer"),
            ("max_epochs", 2.5, "max_epochs", "an integer"),
            ("seed", 1.5, "seed", "an integer"),
            ("layer_sizes", 32, "layer sizes", "a sequence of integers"),
            ("layer_sizes", (True,), "layer sizes", "an integer"),
            ("dim", True, "dim", "an integer"),
            ("seed", True, "seed", "an integer"),
        ],
        ids=[
            "layers-2.5", "layers-0", "lambda-every-1.5", "dim-12.7", "epochs-2.5", "seed-1.5",
            "layers-int", "layers-bool", "dim-bool", "seed-bool",
        ],
    )
    def test_integer_fields_checked_at_construction(self, field, value, name, kind):
        with pytest.raises(ConfigError, match=f"^{name} must be {kind} of at least"):
            TrainConfig(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        ints = dict(dim=6, layer_sizes=(4,), max_epochs=3, seed=2, lambda_update_every=2)
        as_numpy = {k: (np.int32(4),) if k == "layer_sizes" else np.int64(v) for k, v in ints.items()}
        _, want, _ = train(two_node_net(), TrainConfig(**ints))
        _, got, _ = train(two_node_net(), TrainConfig(**as_numpy))
        assert np.array_equal(got.final, want.final)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "lr", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            train(two_node_net(), TrainConfig(max_epochs=1, **{field: value}))

    def test_verbose_stream_format(self, capsys):
        cfg = TrainConfig(dim=2, layer_sizes=(), max_epochs=2, verbose=True, seed=0)
        train(two_node_net(), cfg)
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        fields = lines[0].split("\t")
        assert len(fields) == 6
        assert fields[0] == "0"


class TestMemory:
    """An epoch's tape and arrays are freed by reference counting when the epoch ends."""

    def test_dead_epochs_are_freed_without_the_cycle_collector(self):
        net = generate(SynthConfig(n=300, communities=(100, 100, 100), views=3, p_in=0.3,
                                   p_out=2 / 300, seed=7))

        def train_peak(epochs):
            cfg = TrainConfig(max_epochs=epochs, patience=math.inf, tol=0.0, seed=1)
            tracemalloc.start()
            try:
                train(net, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        gc.disable()
        try:
            two, six = train_peak(2), train_peak(6)
            assert six <= 1.05 * two
            tape = Tape()
            out = run_model(net, RgaeParams.init(300, (32, 8), 3), 0.5, 0.5, 5.0, tape)
            tape.backward(out.loss)
            probe = weakref.ref(out.shared[0].value)
            del tape, out
            assert probe() is None
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# The loss and view-weight compositions as they were before model.py gained
# one fold, one view-weight power, one disagreement definition and one encoder
# pass: each view's encoders and decoder recorded together, the interleaved
# scale/add consistent embedding, the per-view similarity loop, separate
# reconstruction and difference folds, and the numpy disagreements.
# ---------------------------------------------------------------------------

def reference_consistent(shared, lam, gamma):
    w = lam**gamma
    coef = w / w.sum()
    acc = ad.scale(shared[0], coef[0])
    for c, t in zip(coef[1:], shared[1:]):
        acc = ad.add(acc, ad.scale(t, c))
    return acc


def reference_loss(net, params, cfg, tape):
    bound = bind_params(tape, params)
    shared, private, rec = [], [], []
    for i, view in enumerate(net.views):
        ys = encode(view.normalized(), bound.shared)
        yp = encode(view.normalized(), bound.private[i])
        a_hat = ad.sigmoid(ad.gram(ad.concat_cols(ys, yp)))
        shared.append(ys)
        private.append(yp)
        rec.append(ad.balanced_bce(a_hat, view))
    y_con = reference_consistent(shared, params.lam, cfg.gamma)
    sim = None
    for wi, t in zip(params.lam**cfg.gamma, shared):
        term = ad.scale(ad.sq_frobenius(ad.sub(y_con, t)), wi)
        sim = term if sim is None else ad.add(sim, term)
    dif = [ad.sq_frobenius(ad.row_dot(ys, yp)) for ys, yp in zip(shared, private)]
    loss = rec[0]
    for r in rec[1:]:
        loss = ad.add(loss, r)
    if cfg.use_sim:
        loss = ad.add(loss, ad.scale(sim, cfg.alpha))
    if cfg.use_dif:
        dif_total = dif[0]
        for d in dif[1:]:
            dif_total = ad.add(dif_total, d)
        loss = ad.add(loss, ad.scale(dif_total, cfg.beta))
    return loss, bound


def reference_refresh(net, params, gamma):
    tape = Tape()
    nodes = [tape.leaf(w) for w in params.shared]
    outs = [encode(view.normalized(), nodes) for view in net.views]
    y_con = reference_consistent(outs, params.lam, gamma)
    b = np.array([np.sum((y_con.value - o.value) ** 2) for o in outs])
    return update_lambda(b, gamma)


class TestMatchesReferenceComposition:
    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(layer_sizes=(16,), gamma=0.5, seed=3),
            TrainConfig(use_sim=False, lambda_update_every=4, seed=4),
            TrainConfig(use_sim=False, use_dif=False, seed=5),
        ],
        ids=["layers-16-8-gamma-0.5", "no-sim-lambda-every-4", "no-regularizers"],
    )
    def test_loss_gradients_and_lambda_bit_identical(self, cfg):
        net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=3, seed=6))
        params = RgaeParams.init(net.n, cfg.layer_sizes + (embed_dim(cfg.dim, 3),), 3, seed=cfg.seed)
        state = AdamState.for_params(params.weights())
        refreshed = 0
        for epoch in range(8):
            tape, ref_tape = Tape(), Tape()
            out = run_model(net, params, cfg.alpha, cfg.beta, cfg.gamma, tape,
                            use_sim=cfg.use_sim, use_dif=cfg.use_dif)
            ref_loss, ref_bound = reference_loss(net, params, cfg, ref_tape)
            tape.backward(out.loss)
            ref_tape.backward(ref_loss)
            assert np.array_equal(out.loss.value, ref_loss.value)
            for got, want in zip(out.params.gradients(), ref_bound.gradients(), strict=True):
                assert np.array_equal(got, want)
            adam_step(params.weights(), out.params.gradients(), state, cfg.lr)
            if (epoch + 1) % cfg.lambda_update_every == 0:
                lam = _refresh_lambda(net, params, cfg.gamma)
                assert np.array_equal(lam, reference_refresh(net, params, cfg.gamma))
                refreshed += not np.array_equal(lam, params.lam)
                params.lam = lam
        assert refreshed >= 2
