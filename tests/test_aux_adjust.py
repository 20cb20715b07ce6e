import math

import numpy as np
import pytest

from fdrkit import (
    BetaParams,
    DomainError,
    InsufficientDataError,
    RegressionFit,
    ShapeError,
    adjust,
    fit_bivariate_ols,
)
from fdrkit.aux_adjust import CLIP_HI, CLIP_LO


def noiseless_fit(n=50, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    a_raw = np.exp(1.0 + 2.0 * x)
    b_raw = np.exp(-1.0 + 0.5 * x)
    return x[:, None], a_raw, b_raw


class TestFit:
    def test_noiseless_recovery(self):
        Xa, a_raw, b_raw = noiseless_fit()
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        assert fit.mu_a == pytest.approx(1.0, abs=1e-8)
        assert fit.delta_a[0] == pytest.approx(2.0, abs=1e-8)
        assert fit.mu_b == pytest.approx(-1.0, abs=1e-8)
        assert fit.delta_b[0] == pytest.approx(0.5, abs=1e-8)
        assert np.max(np.abs(fit.sigma)) <= 1e-10

    def test_all_zero_design(self):
        rng = np.random.default_rng(1)
        a_raw = np.exp(rng.standard_normal(30))
        b_raw = np.exp(rng.standard_normal(30))
        fit = fit_bivariate_ols(np.zeros((30, 1)), a_raw, b_raw)
        assert fit.mu_a == pytest.approx(np.log(a_raw).mean(), abs=1e-8)
        assert fit.delta_a[0] == 0.0
        ra = np.log(a_raw) - np.log(a_raw).mean()
        rb = np.log(b_raw) - np.log(b_raw).mean()
        expected = np.cov(ra, rb, ddof=1)
        np.testing.assert_allclose(fit.sigma, expected, atol=1e-7)

    def test_intercept_only_when_q_zero(self):
        rng = np.random.default_rng(2)
        a_raw = np.exp(rng.standard_normal(20))
        b_raw = np.exp(rng.standard_normal(20))
        fit = fit_bivariate_ols(np.empty((20, 0)), a_raw, b_raw)
        assert fit.delta_a.size == 0
        assert fit.mu_a == pytest.approx(np.log(a_raw).mean(), abs=1e-8)
        assert fit.mu_b == pytest.approx(np.log(b_raw).mean(), abs=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        n, q = 200, 4
        Xa = rng.standard_normal((n, q))
        a_raw = np.exp(rng.standard_normal(n))
        b_raw = np.exp(rng.standard_normal(n))
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        D = np.column_stack((np.ones(n), Xa))
        ra = np.log(a_raw) - D @ np.r_[fit.mu_a, fit.delta_a]
        rb = np.log(b_raw) - D @ np.r_[fit.mu_b, fit.delta_b]
        assert np.max(np.abs(D.T @ ra)) <= 1e-8 * n
        assert np.max(np.abs(D.T @ rb)) <= 1e-8 * n

    def test_collinear_design_still_solves(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        Xa = np.column_stack((x, 2.0 * x))  # rank deficient
        a_raw = np.exp(0.3 * x)
        b_raw = np.exp(-0.1 * x)
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        assert np.all(np.isfinite(fit.delta_a))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_bivariate_ols(np.zeros((2, 1)), [1.0, 2.0], [1.0, 2.0])

    def test_nonpositive_raw_rejected(self):
        with pytest.raises(DomainError):
            fit_bivariate_ols(np.zeros((5, 1)), [1, 1, 0, 1, 1], np.ones(5))

    @pytest.mark.parametrize("slot", ["Xa", "a_raw", "b_raw"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, slot, bad):
        Xa, a_raw, b_raw = noiseless_fit()
        args = {"Xa": Xa.copy(), "a_raw": a_raw.copy(), "b_raw": b_raw.copy()}
        args[slot].flat[3] = bad
        with pytest.raises(DomainError, match=f"{slot} must be finite"):
            fit_bivariate_ols(**args)

    def test_coefficient_lengths_must_agree(self):
        with pytest.raises(ShapeError, match="delta_a has 2 coefficients"):
            RegressionFit(mu_a=0, mu_b=0, delta_a=np.zeros(2),
                          delta_b=np.zeros(1), sigma=np.eye(2))

    def test_sigma_psd_validated(self):
        with pytest.raises(DomainError):
            RegressionFit(mu_a=0, mu_b=0, delta_a=np.zeros(0),
                          delta_b=np.zeros(0),
                          sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestAdjust:
    def test_mean_mode_on_fitted_line(self):
        Xa, a_raw, b_raw = noiseless_fit()
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        bp = adjust(fit, np.array([[0.0]]))
        assert bp.a[0] == pytest.approx(math.e, rel=1e-7)
        assert bp.b[0] == pytest.approx(math.exp(-1.0), rel=1e-7)

    def test_outputs_clipped(self):
        fit = RegressionFit(mu_a=100.0, mu_b=-100.0, delta_a=np.zeros(0),
                            delta_b=np.zeros(0), sigma=np.zeros((2, 2)))
        bp = adjust(fit, np.empty((3, 0)))
        assert np.all(bp.a == CLIP_HI)
        assert np.all(bp.b == CLIP_LO)

    def test_q_zero_gives_geometric_means(self):
        rng = np.random.default_rng(6)
        a_raw = np.exp(rng.standard_normal(25))
        b_raw = np.exp(rng.standard_normal(25))
        fit = fit_bivariate_ols(np.empty((25, 0)), a_raw, b_raw)
        bp = adjust(fit, np.empty((25, 0)))
        geo_a = np.exp(np.log(a_raw).mean())
        geo_b = np.exp(np.log(b_raw).mean())
        np.testing.assert_allclose(bp.a, geo_a, rtol=1e-7)
        np.testing.assert_allclose(bp.b, geo_b, rtol=1e-7)

    def test_dimension_mismatch(self):
        Xa, a_raw, b_raw = noiseless_fit()
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        with pytest.raises(ShapeError):
            adjust(fit, np.zeros((50, 2)))

    def test_unknown_mode(self):
        """Adjustment has one mode, the fitted mean; asking for another
        is refused rather than ignored."""
        Xa, a_raw, b_raw = noiseless_fit()
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        for kw in ({"mode": "sample"}, {"mode": "mean"}, {"seed": 0}):
            with pytest.raises(TypeError):
                adjust(fit, Xa, **kw)

    def test_serialization_roundtrip(self):
        Xa, a_raw, b_raw = noiseless_fit()
        fit = fit_bivariate_ols(Xa, a_raw, b_raw)
        back = RegressionFit.from_dict(fit.to_dict())
        assert back.mu_a == fit.mu_a
        np.testing.assert_array_equal(back.delta_b, fit.delta_b)
        np.testing.assert_array_equal(back.sigma, fit.sigma)


class TestRecordsCopyTheirInputs:
    """A record holds read-only copies; the caller's arrays stay as they
    were, writeable, and a later write to them leaves the record alone."""

    def test_regression_fit(self):
        da, db = np.array([0.5, -1.0]), np.array([2.0, 0.25])
        S = np.array([[1.0, 0.2], [0.2, 0.5]])
        before = [arr.copy() for arr in (da, db, S)]
        fit = RegressionFit(mu_a=0.1, mu_b=-0.2, delta_a=da, delta_b=db,
                            sigma=S)
        for arr, orig in zip((da, db, S), before):
            assert arr.flags.writeable
            np.testing.assert_array_equal(arr, orig)
            arr[...] = 9.0
        for held, orig in zip((fit.delta_a, fit.delta_b, fit.sigma), before):
            assert not held.flags.writeable
            np.testing.assert_array_equal(held, orig)

    def test_beta_params(self):
        a, b = np.array([1.5, 2.0]), np.array([3.0, 0.5])
        bp = BetaParams(a=a, b=b)
        assert a.flags.writeable and b.flags.writeable
        a[0], b[0] = 7.0, 7.0
        assert (bp.a[0], bp.b[0]) == (1.5, 3.0)
        assert not (bp.a.flags.writeable or bp.b.flags.writeable)
