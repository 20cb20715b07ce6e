import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from fdrkit import (
    DomainError,
    NetworkConfig,
    NetworkParams,
    NumericError,
    ShapeError,
    backward,
    forward,
    grad_check,
    init_network,
    prior_net,
    softplus,
)
from fdrkit.prior_net import _BLOCK_ROWS, _forward_cached, expit


def zero_params(input_dim=3, hidden=(4,), floor=1e-3):
    cfg = NetworkConfig(input_dim=input_dim, hidden_sizes=hidden,
                        output_floor=floor)
    p = init_network(cfg)
    for w in p.weights:
        w[:] = 0.0
    return p


class TestNetworkConfig:
    @pytest.mark.parametrize("hidden", [None, 5, (), (4, 0), (4, True)])
    def test_bad_hidden_sizes_refused(self, hidden):
        with pytest.raises(DomainError, match="hidden_sizes must be "
                           "nonempty positive integers, not"):
            NetworkConfig(input_dim=2, hidden_sizes=hidden)


class TestInit:
    def test_deterministic(self):
        cfg = NetworkConfig(input_dim=10, hidden_sizes=(200, 200))
        p1, p2 = init_network(cfg, seed=3), init_network(cfg, seed=3)
        for w1, w2 in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(w1, w2)

    def test_layer_shapes(self):
        p = init_network(NetworkConfig(input_dim=10, hidden_sizes=(200, 200)))
        assert [w.shape for w in p.weights] == [(10, 200), (200, 200), (200, 2)]
        assert [b.shape for b in p.biases] == [(200,), (200,), (2,)]

    def test_seeds_differ(self):
        cfg = NetworkConfig(input_dim=4, hidden_sizes=(5,))
        p1 = init_network(cfg, seed=0)
        p2 = init_network(cfg, seed=1)
        assert any(
            not np.array_equal(w1, w2)
            for w1, w2 in zip(p1.weights, p2.weights)
        )

    def test_bound_scales_with_fan_in(self):
        p = init_network(NetworkConfig(input_dim=100, hidden_sizes=(50,)), seed=0)
        assert np.max(np.abs(p.weights[0])) <= 1.0 / math.sqrt(100)
        assert np.max(np.abs(p.weights[1])) <= 1.0 / math.sqrt(50)
        assert all(np.all(b == 0) for b in p.biases)


class TestForward:
    def test_zero_params_give_log2_plus_floor(self):
        p = zero_params(floor=1e-3)
        a, b = forward(p, np.array([3.0, -1.0, 0.5]))
        assert a == pytest.approx(math.log(2.0) + 1e-3, rel=1e-12)
        assert b == pytest.approx(math.log(2.0) + 1e-3, rel=1e-12)

    def test_softplus_overflow_safe(self):
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)
        assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-6)
        assert np.isfinite(softplus(1e4))

    def test_large_preactivation_paths(self):
        # one input, one hidden unit; drive the output heads to +-50
        cfg = NetworkConfig(input_dim=1, hidden_sizes=(1,), output_floor=1e-3)
        p = init_network(cfg)
        p.weights[0][:] = 50.0
        p.biases[0][:] = 0.0
        p.weights[1][:] = np.array([[1.0, -1.0]])
        a, b = forward(p, np.array([1.0]))
        assert a == pytest.approx(50.0 + 1e-3, abs=1e-10)
        assert b == pytest.approx(math.exp(-50.0) + 1e-3, rel=1e-6)

    def test_outputs_at_least_floor(self):
        rng = np.random.default_rng(0)
        cfg = NetworkConfig(input_dim=6, hidden_sizes=(9, 7), output_floor=0.25)
        p = init_network(cfg, seed=4)
        a, b = forward(p, rng.standard_normal((100, 6)))
        assert np.all(a >= 0.25) and np.all(b >= 0.25)

    def test_dimension_mismatch(self):
        p = zero_params(input_dim=3)
        with pytest.raises(ShapeError):
            forward(p, np.zeros(4))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        p = init_network(NetworkConfig(input_dim=5, hidden_sizes=(8,)), seed=2)
        x = rng.standard_normal((10, 5))
        a1, b1 = forward(p, x)
        a2, b2 = forward(p, x)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_bit_identical_to_cached_pass(self):
        rng = np.random.default_rng(7)
        p = init_network(NetworkConfig(input_dim=4, hidden_sizes=(32, 16)),
                         seed=1)
        for bias in p.biases:
            bias[:] = rng.uniform(-0.3, 0.3, size=bias.shape)
        X = rng.standard_normal((257, 4))
        a, b = forward(p, X)
        a_ref, b_ref, _ = _forward_cached(p, X)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(b, b_ref)
        a1, b1 = forward(p, X[5])
        a1_ref, b1_ref, _ = _forward_cached(p, X[5:6])
        assert (a1, b1) == (float(a1_ref[0]), float(b1_ref[0]))


class TestExpit:
    def test_equals_scipy_bit_for_bit(self):
        edges = [709.78, 709.79, 745.0, 1e308, 0.0, math.inf]
        x = np.concatenate([np.random.default_rng(5).uniform(-40, 40, 200_000),
                            edges, np.negative(edges)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x.reshape(-1, 2))
        want = special.expit(x).reshape(-1, 2)
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert expit(-1e308)[()] == 0.0


class TestForwardBlocks:
    """``forward`` is ``_forward_cached`` on each 1024-row slice, bit for
    bit, so one pass up to 1024 rows and within 1e-13 of one above."""

    @staticmethod
    def _net(k, hidden, rng):
        p = init_network(NetworkConfig(input_dim=k, hidden_sizes=hidden),
                         seed=2)
        for bias in p.biases:
            bias[:] = rng.uniform(-0.3, 0.3, size=bias.shape)
        return p

    @pytest.mark.parametrize("k,hidden", [
        (2, (1,)), (5, (9, 7)), (10, (200, 200)), (4, (30, 20, 10)),
        (12, (300, 150)),
    ])
    def test_bit_identical_to_cached_pass_on_each_slice(self, k, hidden):
        rng = np.random.default_rng(11)
        p = self._net(k, hidden, rng)
        assert _BLOCK_ROWS == 1024
        for n in (1, 2, 1023, 1024, 1025, 2048, 3 * 1024 + 5):
            X = rng.standard_normal((n, k))
            a, b = forward(p, X)
            slices = [_forward_cached(p, X[lo:lo + 1024])[:2]
                      for lo in range(0, n, 1024)]
            a_ref, b_ref = (np.concatenate(c) for c in zip(*slices))
            assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref), n
            a_one, b_one, _ = _forward_cached(p, X)
            if n <= 1024:
                assert np.array_equal(a, a_one) and np.array_equal(b, b_one)
            else:
                np.testing.assert_allclose(a, a_one, rtol=1e-13, atol=0)
                np.testing.assert_allclose(b, b_one, rtol=1e-13, atol=0)

    def test_memory_does_not_grow_with_the_table(self):
        rng = np.random.default_rng(3)
        p = self._net(10, (200, 200), rng)
        one_layer = 20_000 * 200 * 8  # bytes of one (20,000 x 200) array
        for n in (20_000, 80_000):
            X = rng.standard_normal((n, 10))
            tracemalloc.start()
            try:
                forward(p, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * one_layer, (n, peak)


class TestOnePass:
    """``forward`` is ``_forward_cached`` run block by block, and the cache
    holds only what ``backward`` reads."""

    @staticmethod
    def _net(k, hidden):
        rng = np.random.default_rng(5)
        p = init_network(NetworkConfig(input_dim=k, hidden_sizes=hidden),
                         seed=3)
        for bias in p.biases:
            bias[:] = rng.uniform(-0.3, 0.3, size=bias.shape)
        return p

    def test_forward_runs_the_cached_pass_once_per_block(self, monkeypatch):
        p = self._net(3, (200, 200))
        raw, seen = prior_net._forward_cached, []

        def spy(params, X):
            seen.append(X)
            return raw(params, X)

        monkeypatch.setattr(prior_net, "_forward_cached", spy)
        rng = np.random.default_rng(0)
        for n in (1, 1024, 2048, 3 * 1024 + 7):
            seen.clear()
            X = rng.standard_normal((n, 3))
            forward(p, X)
            starts = range(0, n, 1024)
            assert len(seen) == len(starts), n
            for lo, block in zip(starts, seen):
                np.testing.assert_array_equal(block, X[lo:lo + 1024])

    @pytest.mark.parametrize("hidden", [(1,), (6, 5), (7, 4, 3)])
    def test_cache_holds_the_layer_inputs_and_the_output(self, hidden):
        p = self._net(4, hidden)
        X = np.random.default_rng(1).standard_normal((9, 4))
        a, b, cache = _forward_cached(p, X)
        acts, out = cache
        assert len(acts) == len(p.weights)
        assert acts[0] is X
        h = X
        for layer, (W, bias) in enumerate(zip(p.weights, p.biases)):
            np.testing.assert_array_equal(acts[layer], h)
            u = h @ W + bias
            h = np.maximum(u, 0.0)
        np.testing.assert_array_equal(out, u)
        np.testing.assert_array_equal(a, softplus(out[:, 0]) + 1.0)
        np.testing.assert_array_equal(b, softplus(out[:, 1]) + 1.0)


def _upstream_loss(X, ga, gb):
    """Scalar objective whose exact gradient ``backward`` returns."""

    def loss_fn(params):
        a, b, cache = _forward_cached(params, X)
        loss = float(np.mean(ga * a + gb * b))
        return loss, backward(params, X, ga, gb, cache)

    return loss_fn


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self):
        rng = np.random.default_rng(0)
        p = init_network(NetworkConfig(input_dim=4, hidden_sizes=(6,)), seed=1)
        X = rng.standard_normal((8, 4))
        g = backward(p, X, np.zeros(8), np.zeros(8), _forward_cached(p, X)[2])
        assert all(np.all(arr == 0) for arr in g.arrays())

    def test_hand_computed_single_unit(self):
        # x -> w1*x -> relu -> (w2a*h, w2b*h) -> softplus heads
        cfg = NetworkConfig(input_dim=1, hidden_sizes=(1,), output_floor=1e-3)
        p = init_network(cfg)
        w1, w2a, w2b = 0.7, 1.3, -0.4
        p.weights[0][:] = w1
        p.weights[1][:] = np.array([[w2a, w2b]])
        x = 2.0
        h = w1 * x  # positive, relu passes through
        ua, ub = w2a * h, w2b * h
        sa, sb = 1 / (1 + math.exp(-ua)), 1 / (1 + math.exp(-ub))
        ga, gb = 0.9, -0.3
        X = np.array([[x]])
        g = backward(p, X, np.array([ga]), np.array([gb]),
                     _forward_cached(p, X)[2])
        # output layer weights: d loss/d w2a = ga*sigmoid(ua)*h
        np.testing.assert_allclose(g.weights[1][0, 0], ga * sa * h, rtol=1e-12)
        np.testing.assert_allclose(g.weights[1][0, 1], gb * sb * h, rtol=1e-12)
        # hidden weight: chain through both heads
        dh = ga * sa * w2a + gb * sb * w2b
        np.testing.assert_allclose(g.weights[0][0, 0], dh * x, rtol=1e-12)
        np.testing.assert_allclose(g.biases[0][0], dh, rtol=1e-12)

    def test_nonfinite_upstream_rejected(self):
        p = zero_params()
        X = np.zeros((1, 3))
        with pytest.raises(NumericError):
            backward(p, X, np.array([np.nan]), np.array([0.0]),
                     _forward_cached(p, X)[2])

    def test_cache_from_other_batch_rejected(self):
        rng = np.random.default_rng(3)
        p = init_network(NetworkConfig(input_dim=3, hidden_sizes=(4,)), seed=2)
        X = rng.standard_normal((5, 3))
        ga, gb = rng.standard_normal(5), rng.standard_normal(5)
        for other in (X + 1.0, X[:4], X[::-1]):
            with pytest.raises(ShapeError):
                backward(p, X, ga, gb, _forward_cached(p, other)[2])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(
            input_dim=int(rng.integers(1, 5)),
            hidden_sizes=tuple(rng.integers(2, 7, size=rng.integers(1, 3))),
            output_floor=1e-3,
        )
        p = init_network(cfg, seed=seed)
        # generic point: keep pre-activations off the ReLU kink
        for bias in p.biases:
            bias[:] = rng.uniform(-0.2, 0.2, size=bias.shape)
        B = int(rng.integers(1, 9))
        X = rng.standard_normal((B, cfg.input_dim))
        ga = rng.standard_normal(B)
        gb = rng.standard_normal(B)
        err = grad_check(p, _upstream_loss(X, ga, gb), h=1e-5)
        assert err <= 1e-4


class TestGradCheck:
    def test_quadratic_loss_exact(self):
        p = init_network(NetworkConfig(input_dim=3, hidden_sizes=(4,)), seed=0)

        def quad(params):
            loss = 0.5 * sum(float((arr ** 2).sum()) for arr in params.arrays())
            g = params.copy()
            return loss, g

        assert grad_check(p, quad, h=1e-4) <= 1e-8

    def test_zero_step_rejected(self):
        p = zero_params()
        with pytest.raises(DomainError):
            grad_check(p, lambda q: (0.0, q.zeros_like()), h=0.0)

    def test_subsamples_large_parameter_sets(self):
        p = init_network(NetworkConfig(input_dim=10, hidden_sizes=(60, 60)), seed=0)
        assert p.n_parameters() > 1000

        def quad(params):
            loss = 0.5 * sum(float((arr ** 2).sum()) for arr in params.arrays())
            return loss, params.copy()

        # central differences are exact for quadratics at any step; a larger
        # step only shrinks the cancellation roundoff of the large loss value
        assert grad_check(p, quad, h=1e-2, max_coords=1000) <= 1e-8


class TestSerialization:
    def test_roundtrip(self):
        p = init_network(NetworkConfig(input_dim=3, hidden_sizes=(5, 4)), seed=9)
        back = NetworkParams.from_dict(p.to_dict())
        for w1, w2 in zip(p.arrays(), back.arrays()):
            np.testing.assert_array_equal(w1, w2)
        assert back.config == p.config
