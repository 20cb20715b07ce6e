import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, logit

from fdrkit import DomainError, ScenarioConfig, generate, scenario_config
from fdrkit.synthetic import aux_score, covariate_score


class TestScenarioConfig:
    def test_presets(self):
        a = scenario_config("A", seed=1)
        assert a.covariate_signal == 1.0 and a.aux_signal == 1.0
        n = scenario_config("n", seed=1)
        assert n.covariate_signal == 0.0 and n.aux_signal == 0.0

    def test_unknown_scenario(self):
        with pytest.raises(DomainError, match="available"):
            scenario_config("Z")

    def test_overrides(self):
        cfg = scenario_config("A", seed=2, n=123, k=4)
        assert (cfg.n, cfg.k) == (123, 4)

    def test_none_override_keeps_the_preset_and_zero_is_refused(self):
        assert scenario_config("A", seed=2, n=None) == scenario_config("A", seed=2)
        with pytest.raises(DomainError, match="n >= 1"):
            scenario_config("A", n=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(base_pi1=0.0)
        with pytest.raises(DomainError):
            ScenarioConfig(alt_sd=0.0)


class TestGenerate:
    def test_deterministic(self):
        cfg = scenario_config("A", seed=11, n=400)
        t1, t2 = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(t1.z, t2.z)
        np.testing.assert_array_equal(t1.X, t2.X)
        np.testing.assert_array_equal(t1.Xa, t2.Xa)
        np.testing.assert_array_equal(t1.h_truth, t2.h_truth)

    def test_degenerate_base_rate(self):
        cfg = ScenarioConfig(n=1000, covariate_signal=0.0, aux_signal=0.0,
                             base_pi1=1e-9, seed=0)
        t = generate(cfg)
        assert t.h_truth.sum() <= 1

    def test_shapes(self):
        t = generate(scenario_config("A", seed=0, n=50, k=7, q=3))
        assert t.X.shape == (50, 7)
        assert t.Xa.shape == (50, 3)
        assert t.h_truth.shape == (50,)

    def test_alternative_fraction_concentrates(self):
        cfg = scenario_config("A", seed=0)
        t = generate(cfg)
        prob = expit(logit(cfg.base_pi1)
                     + cfg.covariate_signal * covariate_score(t.X)
                     + cfg.aux_signal * aux_score(t.Xa))
        mean_p = prob.mean()
        sd = np.sqrt(np.sum(prob * (1 - prob))) / cfg.n
        assert abs(t.h_truth.mean() - mean_p) <= 3 * sd

    def test_null_z_standard_normal(self):
        rejections = 0
        for seed in range(5):
            t = generate(scenario_config("A", seed=seed, n=4000))
            null_z = t.z[t.h_truth == 0]
            assert null_z.size >= 1000
            if stats.kstest(null_z, "norm").pvalue < 0.01:
                rejections += 1
        assert rejections <= 1  # nominal false-alarm allowance

    def test_uninformative_scenario_flat_priors(self):
        cfg = scenario_config("N", seed=3)
        t = generate(cfg)
        # labels independent of covariates: correlation compatible with 0
        r = np.corrcoef(covariate_score(t.X), t.h_truth)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(cfg.n)

    def test_aux_carries_signal_in_scenario_a(self):
        t = generate(scenario_config("A", seed=4))
        r = np.corrcoef(aux_score(t.Xa), t.h_truth)[0, 1]
        assert r > 0.1
