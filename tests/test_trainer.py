import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rgae.trainer as trainer
from rgae import graph
from rgae.autodiff import Tape
from rgae.cli import main as cli_main
from rgae.errors import ConfigError, InvalidGamma, NumericalOverflow, ShapeMismatch
from rgae.graph import MultiViewNetwork, SparseAdjacency
from rgae.model import RgaeParams, consistent_embedding, disagreements, embed_dim, run_model
from rgae.synth import SynthConfig, generate
from rgae.trainer import (
    LAMBDA_FLOOR,
    AdamState,
    TrainConfig,
    _refresh_lambda,
    adam_step,
    train,
    update_lambda,
)

import reference_ops as ref


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

    @given(
        gamma=st.one_of(st.floats(0.2, 0.8), st.floats(1.5, 8.0)),
        size=st.floats(1e-3, 0.5),
        sign=st.sampled_from([1.0, -1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_view_log_ratio_grows_by_the_fixed_factor(self, gamma, size, sign, seed):
        # with w = lam**gamma normalized and y* = w0 y0 + w1 y1, b0 = w1^2 D and b1 = w0^2 D for
        # D = |y0 - y1|^2, so the update maps r = log(lam0 / lam1) to r * 2 gamma / (gamma - 1)
        r = sign * size
        lam = np.array([np.exp(r / 2), np.exp(-r / 2)])
        lam /= lam.sum()
        rng = np.random.default_rng(seed)
        shared = [rng.normal(size=(6, 3)) for _ in range(2)]
        b = disagreements(shared, consistent_embedding(shared, lam, gamma))
        assert min(b) > LAMBDA_FLOOR
        new = update_lambda(b, gamma)
        want = r * 2.0 * gamma / (gamma - 1.0)
        assert abs(np.log(new[0] / new[1]) - want) <= 1e-9 * abs(want)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k", [0, 2])
    def test_overflow_names_epoch_stage_and_view(self, k):
        net = generate(SynthConfig(n=24, communities=(8, 8, 8), views=3, seed=5))
        cfg = TrainConfig(dim=16, layer_sizes=(8,), max_epochs=1, seed=2)
        params = RgaeParams.init(net.n, (8, 4), 3, seed=2)
        params.private[k][1][0, 0] = np.inf
        with pytest.raises(NumericalOverflow, match=f"^epoch 7: non-finite value in view {k} private layer 1$"):
            trainer._run_epoch(net, params, AdamState.for_params(params.weights()), cfg, 7)
        # a shared first-layer column of -inf: its pre-activations are all -inf, which relu would turn into 0
        params = RgaeParams.init(net.n, (8, 4), 3, seed=2)
        params.shared[0][:, 0] = -np.inf
        with pytest.raises(NumericalOverflow, match="^epoch 3: non-finite value in view 0 shared layer 0$"):
            trainer._run_epoch(net, params, AdamState.for_params(params.weights()), cfg, 3)

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

    def test_collapsed_weights_are_set_by_the_floor(self, monkeypatch):
        # the criterion-5 run: the 2-view update drives lambda to a vertex, the winning view's b
        # underflows below LAMBDA_FLOOR, and the floor alone then fixes the losing weight
        net = generate(SynthConfig(n=60, communities=(20, 20, 20), views=2, p_in=0.3, p_out=0.02,
                                   unique_frac=0.5, seed=7))
        cfg = TrainConfig(dim=32, layer_sizes=(32,), alpha=0.5, beta=0.5, gamma=5.0, lr=0.01,
                          max_epochs=100, patience=math.inf, tol=0.0, seed=0)
        refreshes = []

        def spy(b, gamma):
            lam = update_lambda(b, gamma)
            refreshes.append((np.array(b, dtype=np.float64), lam))
            return lam

        monkeypatch.setattr(trainer, "update_lambda", spy)
        _, _, history = train(net, cfg)
        assert len(refreshes) == 100
        floored = [i for i, (b, _) in enumerate(refreshes) if b.min() < LAMBDA_FLOOR]
        # measured: from refresh 46 on, with every later refresh floored too
        assert floored and floored[0] < 60 and floored == list(range(floored[0], 100))
        b, lam = refreshes[-1]
        win = int(np.argmax(lam))
        lose = 1 - win
        assert b[win] < LAMBDA_FLOOR <= b[lose]
        want = (LAMBDA_FLOOR / b[lose]) ** (1.0 / (cfg.gamma - 1.0))
        assert abs(lam[lose] / lam[win] - want) <= 1e-12 * want
        assert history[-1].lam == tuple(lam)

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
            probe = weakref.ref(out.shared[0])
            del tape, out
            assert probe() is None
        finally:
            gc.enable()


class TestMatchesReferenceComposition:
    """run_model's written-out backward and the plain refresh against the model recorded op by op on one tape.

    After a refresh the next forward and the final embedding pass reuse its shared layers; the reference encodes afresh.
    """

    @pytest.mark.parametrize(
        "views, cfg",
        [
            (3, TrainConfig(layer_sizes=(16,), gamma=0.5, seed=3)),
            (3, TrainConfig(use_sim=False, lambda_update_every=4, seed=4)),
            (3, TrainConfig(use_dif=False, seed=6)),
            (3, TrainConfig(use_sim=False, use_dif=False, seed=5)),
            (1, TrainConfig(layer_sizes=(8,), dim=8, seed=7)),
            (2, TrainConfig(layer_sizes=(12, 8), dim=12, alpha=0.0, beta=2.0, seed=8)),
        ],
        ids=["layers-16-8-gamma-0.5", "no-sim-lambda-every-4", "no-dif", "no-regularizers", "one-view",
             "three-layers-alpha-0"],
    )
    def test_loss_gradients_and_lambda_bit_identical(self, views, cfg):
        net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=views, seed=6))
        params = RgaeParams.init(net.n, cfg.layer_sizes + (embed_dim(cfg.dim, views),), views, seed=cfg.seed)
        state = AdamState.for_params(params.weights())
        refreshed = 0
        layers = None
        for epoch in range(8):
            tape, ref_tape = Tape(), Tape()
            out = run_model(net, params, cfg.alpha, cfg.beta, cfg.gamma, tape,
                            use_sim=cfg.use_sim, use_dif=cfg.use_dif, shared=layers)
            want = ref.run_model(net, params, cfg.alpha, cfg.beta, cfg.gamma, ref_tape,
                                 use_sim=cfg.use_sim, use_dif=cfg.use_dif)
            assert len(tape) == len(params.weights()) + 1
            tape.backward(out.loss)
            ref_tape.backward(want.loss)
            assert out.loss.value.tobytes() == want.loss.value.tobytes()
            assert (out.rec, out.sim, out.dif) == (want.rec, want.sim, want.dif)
            for got, expected in zip(out.params.gradients(), want.params.gradients(), strict=True):
                assert got.tobytes() == expected.tobytes()
            adam_step(params.weights(), out.params.gradients(), state, cfg.lr)
            layers = None
            if (epoch + 1) % cfg.lambda_update_every == 0:
                lam, layers = _refresh_lambda(net, params, cfg.gamma)
                assert lam.tobytes() == ref.refresh_lambda(net, params, cfg.gamma)[0].tobytes()
                refreshed += not np.array_equal(lam, params.lam)
                params.lam = lam
        assert refreshed >= (2 if views > 1 else 0)
        got, want = trainer.embed(net, params, cfg.gamma, layers), ref.embed(net, params, cfg.gamma)
        assert got.final.tobytes() == want.final.tobytes()


class TestRefreshLayersReused:
    """A view-weight refresh's shared layers serve the next forward and the final embedding pass.

    The outputs are those of a training that encodes every forward afresh, byte for byte, and each reuse spares
    the products of one encoder pass over the shared stacks.
    """

    VIEWS, LAYERS = 3, 2

    @pytest.mark.parametrize(
        "train_args, every",
        [
            (["--lambda-every", "3", "--epochs", "10"], 3),
            (["--epochs", "200", "--patience", "2", "--tol", "0.05"], 1),
            (["--epochs", "0"], 1),
        ] + [(["--ablate", arm, "--epochs", "6"], 1) for arm in ("none", "sim", "dif", "both")],
        ids=["lambda-every-3", "patience-stop", "no-epochs", "ablate-none", "ablate-sim", "ablate-dif", "ablate-both"],
    )
    def test_outputs_equal_encoding_afresh(self, tmp_path, monkeypatch, train_args, every):
        data = tmp_path / "data"
        assert cli_main(["generate", "--out", str(data), "--n", "45", "--communities", "15,15,15",
                         "--views", str(self.VIEWS), "--seed", "4"]) == 0
        spmm, products = graph.spmm, []
        monkeypatch.setattr(graph, "spmm", lambda *args: products.append(1) or spmm(*args))

        def run(name):
            products.clear()
            out = tmp_path / name
            args = ["train", "--data", str(data), "--out", str(out), "--dim", "16", "--layers", "8", "--seed", "1"]
            assert cli_main(args + train_args) == 0
            return [(out / f).read_bytes() for f in ("embeddings.txt", "history.tsv")], len(products)

        got, reused = run("reused")
        refresh = trainer._refresh_lambda
        monkeypatch.setattr(trainer, "_refresh_lambda", lambda *args: (refresh(*args)[0], None))
        want, afresh = run("afresh")
        assert got == want
        epochs = got[1].count(b"\n") - 1
        if "--patience" in train_args:
            assert 2 < epochs < 200
        assert afresh - reused == (epochs // every) * self.VIEWS * self.LAYERS
