import dataclasses
import itertools
import json
import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy import integrate, special

from fdrkit import (
    DegenerateInputError,
    DomainError,
    NetworkConfig,
    NumericError,
    SchemaError,
    ShapeError,
    TrainingConfig,
    FittedModel,
    beta_params_for,
    fdp_power,
    generate,
    init_network,
    load_table,
    marginal_likelihood,
    nll_loss,
    posterior_alt,
    posteriors,
    scenario_config,
    select_discoveries,
    train,
    write_table,
)
from fdrkit import cli, data_model, prior_net, two_groups
from fdrkit.densities import DENSITY_FLOOR, eval_density, null_pdf
from fdrkit.prior_net import grad_check
from fdrkit.two_groups import _fit_seeds, _loss_and_grads, _nll_terms

SMALL_TRAIN = dict(epochs=5, batch_size=64, lambda_grid_size=300,
                   f1_sweeps=3, patience=5)


def closed_form(a, b, f0z, f1z):
    return (a / (a + b)) * f1z + (b / (a + b)) * f0z


def beta_quadrature(a, b, f0z, f1z):
    """Adaptive quadrature of the mixture likelihood over Beta(a, b).

    The interval is split at 1/2 so that each endpoint power below zero
    goes into quad's algebraic weight, which QUADPACK integrates with
    modified Chebyshev moments; the remaining smooth factor is evaluated
    in log space.
    """
    log_beta = special.betaln(a, b)
    sing_a, sing_b = min(a - 1.0, 0.0), min(b - 1.0, 0.0)

    def piece(pow_a, pow_b):
        def integrand(lam):
            return (lam * f1z + (1.0 - lam) * f0z) * math.exp(
                special.xlogy(pow_a, lam) + special.xlogy(pow_b, 1.0 - lam)
                - log_beta)
        return integrand

    left, _ = integrate.quad(piece(a - 1.0 - sing_a, b - 1.0), 0.0, 0.5,
                             weight="alg", wvar=(sing_a, 0.0), limit=200,
                             epsabs=0.0, epsrel=1e-12)
    right, _ = integrate.quad(piece(a - 1.0, b - 1.0 - sing_b), 0.5, 1.0,
                              weight="alg", wvar=(0.0, sing_b), limit=200,
                              epsabs=0.0, epsrel=1e-12)
    return left + right


#: (a, b) corners and (f0, f1) pairs with f1/f0 in {1e-9, 1, 1e9}
ORACLE_AB = (1e-3, 0.5, 1.0, 30.0, 1e3)
ORACLE_DENSITIES = ((0.1, 1e-10), (0.3, 0.3), (DENSITY_FLOOR, DENSITY_FLOOR),
                    (DENSITY_FLOOR, 0.1))


class TestMarginalLikelihood:
    def test_uniform_prior_exact(self):
        assert marginal_likelihood(1.0, 1.0, 0.4, 0.2) == pytest.approx(
            0.3, abs=1e-9
        )

    def test_matches_closed_form_randomized(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.5, 100, size=2000)
        b = rng.uniform(0.5, 100, size=2000)
        f0z = rng.uniform(1e-6, 1, size=2000)
        f1z = rng.uniform(1e-6, 1, size=2000)
        got = marginal_likelihood(a, b, f0z, f1z)
        want = closed_form(a, b, f0z, f1z)
        assert np.max(np.abs(got - want) / want) <= 1e-3

    def test_prior_mass_at_one(self):
        got = marginal_likelihood(1e4, 1.0, 0.4, 0.2)
        assert got == pytest.approx(closed_form(1e4, 1.0, 0.4, 0.2), rel=1e-3)
        assert got == pytest.approx(0.2, rel=1e-3)

    def test_matches_beta_quadrature(self):
        for a, b in itertools.product(ORACLE_AB, ORACLE_AB):
            for f0z, f1z in ORACLE_DENSITIES:
                assert marginal_likelihood(a, b, f0z, f1z) == pytest.approx(
                    beta_quadrature(a, b, f0z, f1z), rel=1e-9, abs=0.0
                ), (a, b, f0z, f1z)

    def test_huge_parameters_stay_finite(self):
        # (a + b)^2 overflows here; the likelihood and its derivatives
        # must not (RuntimeWarnings are errors under pytest)
        assert marginal_likelihood(1e200, 1.0, 0.4, 0.2) == pytest.approx(
            0.2, rel=1e-12)
        terms = _nll_terms(*(np.array([v]) for v in (1e155, 1e155, 0.4, 0.2)))
        assert all(np.isfinite(t).all() for t in terms)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marginal_likelihood(0.0, 1.0, 0.4, 0.2)
        with pytest.raises(DomainError):
            marginal_likelihood(1.0, 1.0, -0.1, 0.2)
        valid = (2.0, 1.0, 0.1, 0.2)
        for fn in (marginal_likelihood, posterior_alt):
            for slot in range(4):
                for bad in (np.nan, np.inf):
                    args = list(valid)
                    args[slot] = bad
                    with pytest.raises(DomainError, match="finite"):
                        fn(*args)


class TestPosteriorAlt:
    def test_equal_densities_give_prior_mean(self):
        rng = np.random.default_rng(23)
        for grid_size in (500, 1000):
            for _ in range(200):
                a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e3),
                                          size=2))
                f = rng.uniform(1e-6, 1)
                assert posterior_alt(a, b, f, f, grid_size=grid_size) == (
                    pytest.approx(a / (a + b), abs=1e-6))

    def test_zero_null_density(self):
        assert posterior_alt(2.0, 3.0, 0.0, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_both_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            posterior_alt(1.0, 1.0, 0.0, 0.0)

    def test_closed_form_value_ratio_two(self):
        # Beta(2,2), f1 = 2 f0: exact integral is -16 + 24 ln 2
        target = -16.0 + 24.0 * math.log(2.0)
        quad, err = integrate.quad(
            lambda l: 12.0 * l * l * (1 - l) / (1 + l), 0.0, 1.0,
            epsabs=1e-13, epsrel=1e-13,
        )
        assert quad == pytest.approx(target, abs=1e-10)
        assert err < 1e-10
        assert posterior_alt(2.0, 2.0, 0.31, 0.62) == pytest.approx(
            target, abs=1e-4
        )

    def test_matches_independent_quadrature_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            a = rng.uniform(0.6, 30)
            b = rng.uniform(0.6, 30)
            f0z = rng.uniform(0.05, 1.0)
            f1z = rng.uniform(0.05, 1.0)

            def integrand(l):
                dens = math.exp(
                    (a - 1) * math.log(l) + (b - 1) * math.log1p(-l)
                    - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
                )
                return l * f1z / (l * f1z + (1 - l) * f0z) * dens

            want, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
            assert posterior_alt(a, b, f0z, f1z) == pytest.approx(want, abs=1e-6)

    def test_monotone_in_likelihood_ratio(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = rng.uniform(0.5, 50)
            b = rng.uniform(0.5, 50)
            f0z = rng.uniform(0.01, 1.0)
            r1, r2 = sorted(rng.uniform(0.01, 100, size=2))
            w1 = posterior_alt(a, b, f0z, r1 * f0z)
            w2 = posterior_alt(a, b, f0z, r2 * f0z)
            assert w2 >= w1 - 1e-12

    def test_bounds_always(self):
        rng = np.random.default_rng(41)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), size=500))
        b = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), size=500))
        f0z = rng.uniform(0, 1, size=500)
        f1z = rng.uniform(1e-10, 1, size=500)
        w = posterior_alt(a, b, f0z, f1z)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


def _sliced_posterior(a, b, f0z, f1z, grid_size):
    """The posterior quadrature as it ran before it used blocks and
    threads: one loop over 1024-row slices, each through whole-slice
    temporaries."""
    af, bf, f0f, f1f, shape = two_groups._check_shapes(a, b, f0z, f1z)
    lam, base, logs = two_groups._lambda_grid(grid_size)
    out = np.empty(af.shape[0])
    for lo in range(0, af.shape[0], 1024):
        sl = slice(lo, lo + 1024)
        logw = np.column_stack((af[sl], bf[sl])) @ logs
        logw += base
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw, out=logw)
        w /= w.sum(axis=1, keepdims=True)
        num = lam[None, :] * f1f[sl, None]
        den = num + (1.0 - lam[None, :]) * f0f[sl, None]
        out[sl] = (w * (num / den)).sum(axis=1)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if shape == () else out.reshape(shape)


def _posterior_inputs(n, seed):
    """Beta parameters in the fitted domain [0.5, 1e3] and densities."""
    rng = np.random.default_rng(seed)
    a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e3), size=(2, n)))
    return a, b, rng.uniform(0, 1, size=n), rng.uniform(1e-9, 1, size=n)


class TestPosteriorParts:
    @pytest.fixture
    def parts(self, monkeypatch):
        """``parts(k)`` splits every table into up to k parts, one per
        slice at most, and records each part's rows and thread."""
        calls = []
        run = two_groups._posterior_rows

        def recorded(*args):
            calls.append((*args[:2], threading.get_native_id()))
            run(*args)

        def force(k, min_chunks=1):
            monkeypatch.setattr(two_groups, "_usable_cpus", lambda: k)
            monkeypatch.setattr(two_groups, "_MIN_PART_CHUNKS", min_chunks)
            return calls

        monkeypatch.setattr(two_groups, "_posterior_rows", recorded)
        return force

    @pytest.mark.parametrize("grid_size", [500, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bit_identical_to_the_sliced_loop(self, parts, k, grid_size):
        parts(k)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            for n in (1, 2, 127, 128, 129, 511, 512, 513, 5000, 20003):
                args = _posterior_inputs(n, seed=n)
                got = posterior_alt(*args, grid_size=grid_size)
                want = _sliced_posterior(*args, grid_size)
                assert np.array_equal(got, want), n
            got = posterior_alt(2.0, 3.0, 0.3, 0.6, grid_size=grid_size)
        finally:
            sys.setswitchinterval(interval)
        assert type(got) is float
        assert got == _sliced_posterior(2.0, 3.0, 0.3, 0.6, grid_size)

    @pytest.mark.parametrize("n, k, min_chunks, rows", [
        (1, 3, 1, [(0, 1)]),
        (0, 2, 1, [(0, 0)]),
        (2048, 3, 1, [(0, 1024), (1024, 2048)]),
        (5000, 3, 1, [(0, 1024), (1024, 3072), (3072, 5000)]),
        (5000, 4, 8, [(0, 5000)]),  # a small table stays on one thread
        (16384, 4, 8, [(0, 8192), (8192, 16384)]),
        (40000, 4, 8, [(0, 10240), (10240, 20480), (20480, 30720),
                       (30720, 40000)]),
        (40000, 1, 8, [(0, 40000)]),
    ])
    def test_parts_tile_the_rows_on_slice_edges(self, parts, n, k,
                                                min_chunks, rows):
        calls = parts(k, min_chunks)
        posterior_alt(*_posterior_inputs(n, seed=0), grid_size=2)
        assert sorted(c[:2] for c in calls) == rows
        assert min(calls)[2] == threading.get_native_id()  # the first part
        assert len({c[2] for c in calls}) == len(rows)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc")
    def test_no_thread_outlives_a_call(self, parts):
        calls = parts(2, two_groups._MIN_PART_CHUNKS)

        def threads():
            return (threading.active_count(),
                    len(os.listdir("/proc/self/task")), cli._worker_count(2))

        before = threads()
        posterior_alt(*_posterior_inputs(20000, seed=5), grid_size=500)
        assert threads() == before
        assert len({c[2] for c in calls}) == 2

    @pytest.mark.parametrize("failing", [0, 1024, 3072])
    def test_a_failing_part_raises_its_error_after_every_join(
            self, parts, monkeypatch, failing):
        parts(3)
        run = two_groups._posterior_rows
        err = NumericError(f"part at row {failing}")

        def rows(*args):
            if args[0] == failing:
                raise err
            run(*args)

        monkeypatch.setattr(two_groups, "_posterior_rows", rows)
        before = threading.active_count()
        with pytest.raises(NumericError) as info:
            posterior_alt(*_posterior_inputs(5000, seed=2), grid_size=500)
        assert info.value is err
        assert threading.active_count() == before

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: ["1"])
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert data_model._usable_cpus() == 1
        assert two_groups._usable_cpus is data_model._usable_cpus


class TestNllLoss:
    def test_perfect_likelihood_zero_loss(self):
        params = init_network(NetworkConfig(input_dim=2, hidden_sizes=(3,)))
        # f0 = f1 = 1 makes the mixture density 1 regardless of the prior
        loss = nll_loss(params, np.zeros((1, 2)), [1.0], [1.0])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_known_likelihoods(self):
        params = init_network(NetworkConfig(input_dim=2, hidden_sizes=(3,)))
        f = [math.exp(-1.0), math.exp(-3.0)]
        loss = nll_loss(params, np.zeros((2, 2)), f, f)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_zero_weights_no_penalty(self):
        params = init_network(NetworkConfig(input_dim=2, hidden_sizes=(3,)))
        for w in params.weights:
            w[:] = 0.0
        loss = nll_loss(params, np.zeros((1, 2)), [1.0], [1.0],
                        weight_decay=0.1)
        assert loss == 0.0

    def test_penalty_added(self):
        params = init_network(NetworkConfig(input_dim=2, hidden_sizes=(3,)))
        sq = sum(float((w ** 2).sum()) for w in params.weights)
        loss = nll_loss(params, np.zeros((1, 2)), [1.0], [1.0],
                        weight_decay=0.5)
        assert loss == pytest.approx(0.5 * sq, rel=1e-12)

    def test_empty_batch_rejected(self):
        params = init_network(NetworkConfig(input_dim=2, hidden_sizes=(3,)))
        with pytest.raises(DomainError):
            nll_loss(params, np.zeros((0, 2)), [], [])

    def test_nonfinite_likelihood_names_batch_row(self):
        params = init_network(NetworkConfig(input_dim=2, hidden_sizes=(3,)))
        with pytest.raises(NumericError, match="batch row 1"):
            nll_loss(params, np.zeros((3, 2)), [1.0, np.nan, 1.0], [1.0] * 3)


class TestGradient:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_objective_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(
            input_dim=int(rng.integers(2, 5)),
            hidden_sizes=tuple(rng.integers(3, 7, size=2)),
            output_floor=1e-3,
        )
        params = init_network(cfg, seed=seed)
        # generic point: nonzero biases keep pre-activations away from the
        # ReLU kink, where finite differences are undefined
        for bias in params.biases:
            bias[:] = rng.uniform(-0.2, 0.2, size=bias.shape)
        B = 10
        X = rng.standard_normal((B, cfg.input_dim))
        f0z = rng.uniform(0.05, 0.5, size=B)
        f1z = rng.uniform(0.05, 0.5, size=B)
        wd = float(rng.uniform(0, 1e-3))

        def loss_fn(p):
            loss, grads, _ = _loss_and_grads(p, X, f0z, f1z, wd)
            return loss, grads

        assert grad_check(params, loss_fn, h=1e-5) <= 1e-4

    def test_ab_derivatives_match_central_differences(self):
        eps = np.finfo(float).eps

        def terms(a, b, f0z, f1z):
            return [t[0] for t in _nll_terms(
                *(np.array([v]) for v in (a, b, f0z, f1z)))]

        for a, b in itertools.product(ORACLE_AB, ORACLE_AB):
            for f0z, f1z in ORACLE_DENSITIES:
                nll, dn_da, dn_db, _ = terms(a, b, f0z, f1z)
                ha, hb = 1e-5 * a, 1e-5 * b
                num_a = (terms(a + ha, b, f0z, f1z)[0]
                         - terms(a - ha, b, f0z, f1z)[0]) / (2.0 * ha)
                num_b = (terms(a, b + hb, f0z, f1z)[0]
                         - terms(a, b - hb, f0z, f1z)[0]) / (2.0 * hb)
                for analytic, numeric, h in ((dn_da, num_a, ha),
                                             (dn_db, num_b, hb)):
                    # rounding floor of the difference quotient
                    floor = 8.0 * eps * max(abs(nll), 1.0) / h
                    assert abs(numeric - analytic) <= (
                        1e-6 * abs(analytic) + floor), (a, b, f0z, f1z)


class TestOneForwardPass:
    """Every SGD step runs the network forward exactly once."""

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        """Count ``_forward_cached`` calls under both module names."""
        calls = []
        raw = prior_net._forward_cached

        def counting(*args, **kwargs):
            calls.append(1)
            return raw(*args, **kwargs)

        monkeypatch.setattr(prior_net, "_forward_cached", counting)
        monkeypatch.setattr(two_groups, "_forward_cached", counting)
        return calls

    def test_one_call_per_loss_and_grads(self, forward_calls):
        rng = np.random.default_rng(0)
        params = init_network(NetworkConfig(input_dim=3, hidden_sizes=(5, 4)))
        X = rng.standard_normal((16, 3))
        f = rng.uniform(0.05, 0.5, size=(2, 16))
        for _ in range(3):
            _loss_and_grads(params, X, f[0], f[1], 1e-4)
        assert len(forward_calls) == 3

    def test_one_call_per_training_batch(self, forward_calls, monkeypatch):
        per_batch = []
        raw_step = two_groups._loss_and_grads

        def step(*args, **kwargs):
            before = len(forward_calls)
            result = raw_step(*args, **kwargs)
            per_batch.append(len(forward_calls) - before)
            return result

        monkeypatch.setattr(two_groups, "_loss_and_grads", step)
        table = generate(scenario_config("A", seed=6, n=300))
        train(table, TrainingConfig(seed=6, epochs=2, f1_sweeps=2),
              variant="neurt_b")
        assert per_batch and set(per_batch) == {1}


class TestAllRowPass:
    """``train`` runs the network over every row only to fit Stage II;
    the loss passes cover the training or the validation rows."""

    @pytest.fixture
    def all_row_calls(self, monkeypatch):
        """Rows of each ``forward`` call that ``train`` makes."""
        rows = []
        raw = two_groups.forward

        def counting(params, x):
            rows.append(np.shape(x)[0])
            return raw(params, x)

        monkeypatch.setattr(two_groups, "forward", counting)
        return rows

    @pytest.mark.parametrize("stage2, q", [(False, 2), (True, 0)],
                             ids=["no_stage2", "q_zero"])
    def test_no_all_row_forward_without_stage2(self, all_row_calls, stage2,
                                               q):
        base = generate(scenario_config("A", seed=6, n=300))
        table = type(base)(z=base.z, X=base.X, Xa=base.Xa[:, :q],
                           h_truth=base.h_truth)
        model = train(table, TrainingConfig(seed=6, epochs=2, f1_sweeps=2,
                                            apply_stage2=stage2),
                      variant="neurt_a")
        assert model.regression is None
        assert all_row_calls and table.n not in all_row_calls


class TestSelectDiscoveries:
    def test_hand_example_all_three(self):
        ds = select_discoveries([0.99, 0.95, 0.8], alpha=0.1)
        assert ds.rejected.tolist() == [0, 1, 2]

    def test_hand_example_two(self):
        ds = select_discoveries([0.99, 0.95, 0.7], alpha=0.1)
        assert ds.rejected.tolist() == [0, 1]

    def test_all_zero_posteriors(self):
        assert select_discoveries([0.0, 0.0, 0.0], alpha=0.1).n_rejected == 0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            select_discoveries([0.5, 1.2], alpha=0.1)
        with pytest.raises(DomainError):
            select_discoveries([0.5], alpha=0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n = int(rng.integers(1, 101))
            w = np.round(rng.uniform(size=n), 3)  # induce ties
            alpha = float(rng.uniform(0.02, 0.4))
            got = select_discoveries(w, alpha)
            order = sorted(range(n), key=lambda i: (-w[i], i))
            best_m = 0
            for m in range(1, n + 1):
                mean_null = np.mean([1.0 - w[i] for i in order[:m]])
                if mean_null <= alpha:
                    best_m = m
            assert got.n_rejected == best_m
            assert set(got.rejected.tolist()) == set(order[:best_m])

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(60)
        w = rng.uniform(size=200)
        counts = [select_discoveries(w, a).n_rejected
                  for a in np.linspace(0.01, 0.9, 30)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


class TestFdpPower:
    def test_empty_rejection_convention(self):
        ds = select_discoveries([0.0, 0.0], alpha=0.1)
        fdp, power, counts = fdp_power(ds, [1, 0])
        assert (fdp, power) == (0.0, 0.0)
        assert counts["n_rejected"] == 0

    def test_hand_counts(self):
        ds = select_discoveries([0.99, 0.98, 0.0], alpha=0.1)
        assert ds.rejected.tolist() == [0, 1]
        fdp, power, counts = fdp_power(ds, [1, 0, 1])
        assert fdp == 0.5 and power == 0.5
        assert counts == {"n_rejected": 2, "true_positives": 1,
                          "false_positives": 1, "n_alternatives": 2}

    def test_perfect_recovery(self):
        ds = select_discoveries([0.99, 0.99, 0.0, 0.0], alpha=0.05)
        fdp, power, _ = fdp_power(ds, [1, 1, 0, 0])
        assert fdp == 0.0 and power == 1.0

    def test_length_mismatch(self):
        ds = select_discoveries([0.9], alpha=0.1)
        with pytest.raises(ShapeError):
            fdp_power(ds, [1, 0])


@pytest.fixture(scope="module")
def small_fit():
    table = generate(scenario_config("A", seed=3, n=500))
    config = TrainingConfig(seed=3, **SMALL_TRAIN)
    model = train(table, config, variant="neurt_b")
    return table, config, model


class TestTrain:
    def test_loss_improves(self, small_fit):
        _, _, model = small_fit
        log = model.train_log["epochs"]
        assert log[-1]["train_nll"] < log[0]["train_nll"]
        assert model.train_log["best_val_nll"] <= log[0]["val_nll"]

    def test_variant_b_stacks_inputs(self, small_fit):
        table, _, model = small_fit
        assert model.net_params.config.input_dim == table.k + table.q
        assert model.variant == "neurt_b"

    def test_variant_a_input_dim(self):
        table = generate(scenario_config("A", seed=4, n=300))
        model = train(table, TrainingConfig(seed=4, epochs=2, f1_sweeps=2,
                                            lambda_grid_size=200),
                      variant="neurt_a")
        assert model.net_params.config.input_dim == table.k

    def test_deterministic_serialization(self, small_fit):
        table, config, model = small_fit
        model2 = train(table, config, variant="neurt_b")
        assert json.dumps(model.to_dict(), sort_keys=True) == json.dumps(
            model2.to_dict(), sort_keys=True
        )

    def test_stage2_skipped_when_q_zero(self):
        base = generate(scenario_config("A", seed=5, n=300))
        table = type(base)(z=base.z, X=base.X, Xa=np.empty((base.n, 0)),
                           h_truth=base.h_truth, ids=base.ids)
        model = train(table, TrainingConfig(seed=5, epochs=2, f1_sweeps=2,
                                            lambda_grid_size=200),
                      variant="neurt_a")
        assert model.regression is None
        w = posteriors(model, table)
        assert w.shape == (table.n,)

    def test_grid_size_does_not_change_training(self):
        table = generate(scenario_config("A", seed=8, n=300))
        fits = [train(table, TrainingConfig(seed=8, epochs=3, f1_sweeps=2,
                                            lambda_grid_size=gs),
                      variant="neurt_b")
                for gs in (200, 500)]
        first, second = (m.to_dict() for m in fits)
        for key in ("network", "train_log", "regression"):
            assert first[key] == second[key]

    @pytest.mark.parametrize("kw", [{"f1_sweeps": 0},
                                    {"f1_kernel_sd": 0.0},
                                    {"f1_kernel_sd": -1.0}])
    def test_f1_settings_checked_with_the_config(self, kw):
        with pytest.raises(DomainError, match="sweeps must be >= 1"):
            TrainingConfig(**kw)

    @pytest.mark.parametrize("kw, message", [
        ({"lr": math.nan}, "lr must be a finite number"),
        ({"lr": math.inf}, "lr must be a finite number"),
        ({"weight_decay": math.inf}, "weight_decay must be a finite number"),
        ({"f0_scale": math.inf}, "f0_scale must be a finite number"),
        ({"epochs": 2.5}, "epochs must be an integer"),
        ({"lambda_grid_size": 300.5}, "lambda_grid_size must be an integer"),
        ({"batch_size": True}, "batch_size must be an integer"),
        ({"standardize": "no"}, "standardize must be a bool, not 'no'"),
        ({"apply_stage2": 0}, "apply_stage2 must be a bool, not 0"),
    ])
    def test_non_finite_rates_and_non_integer_counts_refused(self, kw,
                                                             message):
        with pytest.raises(DomainError, match=message):
            TrainingConfig(**kw)

    def test_unknown_variant(self, small_fit):
        table, config, _ = small_fit
        with pytest.raises(DomainError):
            train(table, config, variant="neurt_c")

    def test_stop_reason_patience(self):
        table = generate(scenario_config("A", seed=9, n=300))
        # a step this large overshoots, so validation NLL soon stalls
        model = train(table, TrainingConfig(seed=9, epochs=50, patience=1,
                                            lr=1.0, f1_sweeps=2,
                                            lambda_grid_size=200),
                      variant="neurt_a")
        assert model.train_log["stop_reason"] == "patience"
        assert len(model.train_log["epochs"]) - 1 < 50

    def test_stop_reason_epoch_cap(self):
        table = generate(scenario_config("A", seed=9, n=300))
        model = train(table, TrainingConfig(seed=9, epochs=1, f1_sweeps=2,
                                            lambda_grid_size=200),
                      variant="neurt_a")
        assert model.train_log["stop_reason"] == "epoch_cap"
        assert len(model.train_log["epochs"]) - 1 == 1

    def test_wide_f1_kernel(self):
        table = generate(scenario_config("A", seed=10, n=300))
        model = train(table, TrainingConfig(seed=10, epochs=1, f1_sweeps=2,
                                            f1_kernel_sd=2.0,
                                            lambda_grid_size=200),
                      variant="neurt_a")
        assert model.f1.sd == 2.0
        assert model.f1.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestModelIO:
    def test_save_load_same_posteriors(self, small_fit, tmp_path):
        table, _, model = small_fit
        path = tmp_path / "m.json"
        model.save(path)
        loaded = FittedModel.load(path)
        np.testing.assert_array_equal(
            posteriors(loaded, table), posteriors(model, table)
        )

    def test_resave_byte_identical(self, small_fit, tmp_path):
        _, _, model = small_fit
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        model.save(p1)
        FittedModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_format_tag_checked(self, small_fit, tmp_path):
        _, _, model = small_fit
        d = model.to_dict()
        d["format"] = "nope"
        with pytest.raises(DomainError):
            FittedModel.from_dict(d)

    def test_train_config_bools_checked(self, small_fit):
        _, _, model = small_fit
        d = model.to_dict()
        d["train_config"]["standardize"] = "no"
        with pytest.raises(DomainError, match="standardize must be a bool"):
            FittedModel.from_dict(d)

    def test_grid_model_file_rejected(self, small_fit):
        _, _, model = small_fit
        for tag in ("fdrkit-model-v1", "fdrkit-model-v2",
                    "fdrkit-model-v3"):
            d = model.to_dict()
            d["format"] = tag
            with pytest.raises(DomainError, match="unsupported model format"):
                FittedModel.from_dict(d)

    def test_loaded_scaling_is_read_only(self, small_fit, tmp_path):
        _, _, model = small_fit
        path = tmp_path / "m.json"
        model.save(path)
        loaded = FittedModel.load(path).scaling
        for name in ("x_center", "x_scale", "a_center", "a_scale"):
            assert not getattr(model.scaling, name).flags.writeable
            assert not getattr(loaded, name).flags.writeable
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(model.scaling, name))

    @pytest.mark.parametrize("spoil, cause", [
        (lambda d: "{not json", "JSONDecodeError"),
        (lambda d: json.dumps({k: v for k, v in d.items()
                               if k != "variant"}), "KeyError: 'variant'"),
        (lambda d: json.dumps({**d, "f1": {**d["f1"], "weights": ["x"]}}),
         "ValueError"),
        (lambda d: "[]", "AttributeError"),
        (lambda d: json.dumps({**d, "variant": "bogus"}),
         "DomainError: variant must be one of"),
    ], ids=["not_json", "missing_key", "non_numeric_weights",
            "not_an_object", "unknown_variant"])
    def test_malformed_file_names_the_file(self, small_fit, tmp_path, spoil,
                                           cause):
        _, _, model = small_fit
        path = tmp_path / "bad.json"
        path.write_text(spoil(model.to_dict()))
        with pytest.raises(DomainError) as info:
            FittedModel.load(path)
        assert str(info.value).startswith(f"{path}: not a valid model file")
        assert cause in str(info.value)

    @pytest.mark.parametrize("spoil, message", [
        (lambda d: d["network"]["weights"][1].pop(), "network of layer sizes"),
        (lambda d: d["network"]["biases"][0].pop(), "network of layer sizes"),
        (lambda d: d.update(variant="neurt_a"),
         r"neurt_a network needs input_dim 10 for \(k=10, q=2\), got 12"),
        (lambda d: d.update(k=3),
         r"neurt_b network needs input_dim 5 for \(k=3, q=2\), got 12"),
        (lambda d: [d["regression"][key].pop() for key in ("delta_a", "delta_b")],
         "regression needs q=2 coefficients per response, got 1"),
        (lambda d: d["scaling"]["x_center"].pop(), "scaling needs widths"),
        (lambda d: d["scaling"]["a_scale"].pop(), "scaling needs widths"),
    ], ids=["weight_shape", "bias_shape", "input_dim_not_k",
            "input_dim_not_k_plus_q", "regression_width", "scaling_k",
            "scaling_q"])
    def test_parts_must_fit_k_and_q(self, small_fit, spoil, message):
        _, _, model = small_fit
        d = json.loads(json.dumps(model.to_dict()))
        spoil(d)
        with pytest.raises(DomainError, match=message):
            FittedModel.from_dict(d)

    def test_f1_stored_as_mixture(self, small_fit):
        _, _, model = small_fit
        f1 = model.to_dict()["f1"]
        assert set(f1) == {"lo", "step", "sd", "weights"}
        assert (f1["lo"], f1["step"], f1["sd"]) == (-10.0, 0.1, 1.0)
        assert len(f1["weights"]) == 201

    def test_each_fact_stored_once(self, small_fit):
        _, _, model = small_fit
        d = model.to_dict()
        assert set(d) == {"format", "variant", "network", "regression", "f1",
                          "scaling", "train_config", "train_log", "k", "q"}
        assert set(d["network"]) == {"config", "weights", "biases"}
        assert set(d["network"]["config"]) == {"input_dim", "hidden_sizes",
                                               "output_floor"}
        assert set(d["regression"]) == {"mu_a", "mu_b", "delta_a", "delta_b",
                                        "sigma"}

    def test_restated_fields_derive_from_config_and_log(self, small_fit):
        _, _, model = small_fit
        assert model.pi1_hat == model.train_log["pi1_hat"]
        # the four fit seeds are the first four words of the five the fit
        # once drew, so fits made before the fifth was dropped are unchanged
        for seed in (*range(20), 2**32 - 1, 2**40):
            five = np.random.SeedSequence(seed).generate_state(5)
            assert _fit_seeds(seed) == [int(s) for s in five[:4]]

    def test_models_and_network_params_compare_by_identity_and_hash(
            self, small_fit):
        _, _, model = small_fit
        params = model.net_params
        for one, other in ((params, params.copy()),
                           (model, dataclasses.replace(model))):
            assert one == one and one != other
            assert hash(one) != hash(other) and len({one, one, other}) == 2


class TestPosteriors:
    def test_output_shape_and_bounds(self, small_fit):
        table, _, model = small_fit
        w = posteriors(model, table)
        assert w.shape == (table.n,)
        assert np.all((w >= 0) & (w <= 1))

    def test_consistent_with_posterior_alt(self, small_fit):
        table, _, model = small_fit
        from fdrkit.densities import DENSITY_FLOOR, eval_density, null_pdf

        beta = beta_params_for(model, table)
        f0z = np.maximum(null_pdf(table.z), DENSITY_FLOOR)
        f1z = eval_density(model.f1, table.z)
        want = posterior_alt(beta.a, beta.b, f0z, f1z,
                             grid_size=SMALL_TRAIN["lambda_grid_size"])
        np.testing.assert_allclose(posteriors(model, table), want, rtol=1e-12)

    def test_regression_scores_without_the_network(self, small_fit,
                                                   monkeypatch):
        table, _, model = small_fit
        assert model.regression is not None

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran under Stage II")

        monkeypatch.setattr(two_groups, "forward", no_forward)
        beta = beta_params_for(model, table)
        f0z = np.maximum(null_pdf(table.z), DENSITY_FLOOR)
        f1z = eval_density(model.f1, table.z)
        want = posterior_alt(beta.a, beta.b, f0z, f1z,
                             grid_size=SMALL_TRAIN["lambda_grid_size"])
        np.testing.assert_allclose(posteriors(model, table), want, rtol=1e-12)

    def test_no_regression_runs_the_network(self, small_fit, monkeypatch):
        table, _, model = small_fit
        calls = []
        raw = prior_net.forward

        def counting(*args, **kwargs):
            calls.append(1)
            return raw(*args, **kwargs)

        monkeypatch.setattr(two_groups, "forward", counting)
        bare = dataclasses.replace(model, regression=None)
        assert posteriors(bare, table).shape == (table.n,)
        assert len(calls) == 1
        beta = beta_params_for(bare, table)
        work = bare.scaling.apply(table)
        a, b = raw(bare.net_params, np.hstack((work.X, work.Xa)))
        np.testing.assert_array_equal(beta.a, a)
        np.testing.assert_array_equal(beta.b, b)

    def test_informative_rows_score_high(self, small_fit):
        table, _, model = small_fit
        w = posteriors(model, table)
        strong = (table.z > 2.5) & (table.h_truth == 1)
        assert strong.any()
        assert np.median(w[strong]) > 0.5

    def test_shape_mismatch_rejected(self, small_fit):
        table, _, model = small_fit
        bad = generate(scenario_config("A", seed=6, n=50, k=3))
        with pytest.raises(ShapeError):
            posteriors(model, bad)


class TestPartlyReadTables:
    """A table loaded without a covariate block scores as the full table
    where the block is not needed, and is refused by name where it is."""

    @pytest.fixture()
    def csv_path(self, small_fit, tmp_path):
        path = tmp_path / "t.csv"
        write_table(small_fit[0], path)
        return path

    def test_covariate_blocks(self, small_fit):
        model = small_fit[2]
        assert model.covariate_blocks == ("Xa",)
        bare = dataclasses.replace(model, regression=None)
        assert bare.covariate_blocks == ("X", "Xa")
        assert dataclasses.replace(bare, variant="neurt_a").covariate_blocks \
            == ("X",)

    def test_scores_as_the_full_table(self, small_fit, csv_path):
        model = small_fit[2]
        full = load_table(csv_path)
        for m in (model, dataclasses.replace(model, regression=None)):
            part = load_table(csv_path, blocks=m.covariate_blocks)
            np.testing.assert_array_equal(posteriors(m, part),
                                          posteriors(m, full))

    def test_train_needs_both_blocks(self, csv_path):
        for missing, blocks in (("X", ("Xa",)), ("Xa", ("X",))):
            with pytest.raises(SchemaError, match=f"block {missing},"):
                train(load_table(csv_path, blocks=blocks),
                      TrainingConfig(**SMALL_TRAIN))

    def test_scoring_refuses_a_missing_block_by_name(self, small_fit,
                                                     csv_path):
        model = small_fit[2]
        no_x = load_table(csv_path, blocks=("Xa",))
        with pytest.raises(SchemaError, match="block X,"):
            beta_params_for(dataclasses.replace(model, regression=None), no_x)
        with pytest.raises(SchemaError, match="block Xa,"):
            posteriors(model, load_table(csv_path, blocks=("X",)))
        with pytest.raises(ShapeError):
            prior_net.forward(model.net_params, no_x.X)
