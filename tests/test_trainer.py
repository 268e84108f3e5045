import math

import numpy as np
import pytest

from rgae.errors import ConfigError, InvalidGamma, NumericalOverflow, ShapeMismatch
from rgae.graph import MultiViewNetwork, SparseAdjacency
from rgae.synth import SynthConfig, generate
from rgae.trainer import AdamState, TrainConfig, adam_step, train, update_lambda


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

    def test_invalid_gamma(self):
        for gamma in (1.0, 0.0, -3.0):
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
        from rgae.model import LayerSpec, RgaeParams

        fresh = RgaeParams.init(2, LayerSpec((1,)), 1, seed=3)
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

    def test_verbose_stream_format(self, capsys):
        cfg = TrainConfig(dim=2, layer_sizes=(), max_epochs=2, verbose=True, seed=0)
        train(two_node_net(), cfg)
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        fields = lines[0].split("\t")
        assert len(fields) == 6
        assert fields[0] == "0"
