import math

import numpy as np
import pytest

from fdrkit import (
    DomainError,
    GridConfig,
    GridDensity,
    InsufficientDataError,
    RecursionConfig,
    estimate_alternative,
    eval_density,
    null_pdf,
)
from fdrkit.densities import DENSITY_FLOOR, trapezoid_mass


class TestNullPdf:
    def test_standard_normal_at_zero(self):
        assert null_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_mode_value_scale_two(self):
        assert null_pdf(1.0, loc=1.0, scale=2.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(2 * math.pi))
        )

    def test_value_at_196(self):
        # direct evaluation of the Gaussian formula as the oracle
        expected = math.exp(-0.5 * 1.96**2) / math.sqrt(2 * math.pi)
        assert null_pdf(1.96) == pytest.approx(expected, rel=1e-12)
        assert null_pdf(1.96) == pytest.approx(0.058441, abs=5e-7)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            null_pdf(0.0, scale=0.0)

    @pytest.mark.parametrize("loc,scale", [(0.0, 1.0), (2.5, 0.7), (-4.0, 3.0)])
    def test_integrates_to_one(self, loc, scale):
        grid = np.linspace(loc - 10 * scale, loc + 10 * scale, 200001)
        vals = null_pdf(grid, loc=loc, scale=scale)
        step = grid[1] - grid[0]
        assert trapezoid_mass(vals, step) == pytest.approx(1.0, abs=1e-6)


class TestGridDensity:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            GridDensity(lo=0.0, hi=1.0, step=0.5, values=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DomainError):
            GridDensity(lo=0.0, hi=1.0, step=0.5, values=np.array([5.0, 5.0, 5.0]))
        with pytest.raises(DomainError):
            GridDensity(lo=0.0, hi=1.0, step=0.5, values=np.array([1.0, 1.0]))

    def test_serialization_roundtrip(self):
        d = GridDensity(lo=-1.0, hi=1.0, step=0.5,
                        values=np.array([0.1, 0.5, 0.8, 0.5, 0.1]) / 0.95)
        back = GridDensity.from_dict(d.to_dict())
        np.testing.assert_array_equal(back.values, d.values)
        assert (back.lo, back.hi, back.step) == (d.lo, d.hi, d.step)

    def test_csv_export(self, tmp_path):
        d = GridDensity(lo=0.0, hi=1.0, step=0.5,
                        values=np.array([1.0, 1.0, 1.0]))
        path = tmp_path / "d.csv"
        d.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "grid_point,value"
        assert len(lines) == 4


class TestEvalDensity:
    def setup_method(self):
        self.d = GridDensity(lo=0.0, hi=1.0, step=0.5,
                             values=np.array([0.2, 0.4, 2.8]) / 0.95)

    def test_grid_point_identity(self):
        assert eval_density(self.d, 0.5) == pytest.approx(0.4 / 0.95)

    def test_midpoint_interpolation(self):
        assert eval_density(self.d, 0.25) == pytest.approx(0.3 / 0.95)

    def test_outside_range_floor(self):
        assert eval_density(self.d, 2.0) == DENSITY_FLOOR
        assert eval_density(self.d, -1.0) == DENSITY_FLOOR

    def test_never_below_floor(self):
        d = GridDensity(lo=0.0, hi=2.0, step=0.01,
                        values=np.r_[np.zeros(100), np.full(101, 1.0 / 1.005)])
        zs = np.linspace(-1.0, 3.0, 1001)
        assert np.all(eval_density(d, zs) >= DENSITY_FLOOR)

    def test_continuous_on_range(self):
        zs = np.linspace(0.0, 1.0, 2001)
        vals = eval_density(self.d, zs)
        assert np.max(np.abs(np.diff(vals))) < 0.01


class TestEstimateAlternative:
    def test_pure_null_small_mass(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal(5000)
        _, pi1 = estimate_alternative(z, seed=7)
        assert pi1 < 0.1

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(500)
        f1, _ = estimate_alternative(z, seed=1)
        assert trapezoid_mass(f1.values, f1.step) == pytest.approx(1.0, abs=1e-3)

    def test_mixture_mode_located(self):
        rng = np.random.default_rng(42)
        h = rng.uniform(size=5000) < 0.5
        z = np.where(h, 3.0 + rng.standard_normal(5000), rng.standard_normal(5000))
        f1, pi1 = estimate_alternative(z, seed=7)
        mode = f1.grid[np.argmax(f1.values)]
        assert abs(mode - 3.0) <= 0.5
        assert 0.2 < pi1 < 0.8

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(200)
        f1a, pa = estimate_alternative(z, seed=11)
        f1b, pb = estimate_alternative(z, seed=11)
        np.testing.assert_array_equal(f1a.values, f1b.values)
        assert pa == pb

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            estimate_alternative(np.zeros(9), seed=0)

    @pytest.mark.parametrize("kw", [{"sweeps": 0}, {"sweeps": -2},
                                    {"kernel_sd": 0.0}, {"kernel_sd": -1.0}])
    def test_invalid_recursion_config(self, kw):
        with pytest.raises(DomainError, match="sweeps must be"):
            RecursionConfig(**kw)

    def test_grid_must_cover_range(self):
        with pytest.raises(DomainError, match="cover"):
            estimate_alternative(np.linspace(-1, 20, 50),
                                 grid=GridConfig(lo=-10, hi=10), seed=0)


def _reference_alternative(z, grid, config, seed, f0_loc=0.0, f0_scale=1.0):
    """The recursion one pass at a time, in its textbook additive form."""
    z = np.asarray(z, dtype=np.float64).ravel()
    n = z.shape[0]
    u = grid.lo + grid.step * np.arange(
        int(round((grid.hi - grid.lo) / grid.step)) + 1
    )
    m = u.shape[0]
    trapw = np.full(m, grid.step)
    trapw[0] = trapw[-1] = grid.step / 2.0

    f0_at_z = null_pdf(z, loc=f0_loc, scale=f0_scale)
    kern_norm = 1.0 / (config.kernel_sd * math.sqrt(2.0 * math.pi))

    rng = np.random.default_rng(seed)
    t_weights = (np.arange(1, n + 1) + 1.0) ** (-config.weight_decay_exponent)

    acc_density = np.zeros(m)
    acc_pi1 = 0.0
    for _ in range(config.sweeps):
        order = rng.permutation(n)
        q = np.full(m, 1.0 / (grid.hi - grid.lo))
        pi1 = config.init_pi1
        mass = q * trapw
        for t, idx in enumerate(order):
            d = (z[idx] - u) / config.kernel_sd
            kern = kern_norm * np.exp(-0.5 * d * d)
            joint = pi1 * kern * mass
            f1_at_z = joint.sum()
            denom = (1.0 - pi1) * f0_at_z[idx] + f1_at_z
            w = t_weights[t]
            post_alt = f1_at_z / denom
            pi1_new = (1.0 - w) * pi1 + w * post_alt
            mass = ((1.0 - w) * pi1 * mass + w * joint / denom) / pi1_new
            pi1 = pi1_new
        half = int(math.ceil(8.0 * config.kernel_sd / grid.step))
        taps = kern_norm * np.exp(
            -0.5 * (np.arange(-half, half + 1) * grid.step / config.kernel_sd) ** 2
        )
        dens = np.convolve(mass, taps, mode="same")
        acc_density += dens / trapezoid_mass(dens, grid.step)
        acc_pi1 += pi1

    f1 = acc_density / config.sweeps
    f1 = f1 / trapezoid_mass(f1, grid.step)
    return f1, min(max(acc_pi1 / config.sweeps, 0.0), 1.0)


class TestRecursionOracle:
    """The batched multiplicative update against the per-pass loop."""

    @staticmethod
    def _mixture(n, seed=0):
        rng = np.random.default_rng(seed)
        h = rng.uniform(size=n) < 0.3
        return np.where(h, 2.5 + rng.standard_normal(n), rng.standard_normal(n))

    def _check(self, z, grid=GridConfig(), f0_loc=0.0, f0_scale=1.0,
               seed=3, **recursion):
        config = RecursionConfig(**recursion)
        z_before = np.array(z, copy=True)
        f1, pi1 = estimate_alternative(z, grid=grid, config=config, seed=seed,
                                       f0_loc=f0_loc, f0_scale=f0_scale)
        np.testing.assert_array_equal(z, z_before)
        ref_f1, ref_pi1 = _reference_alternative(z, grid, config, seed,
                                                 f0_loc, f0_scale)
        np.testing.assert_allclose(f1.values, ref_f1, rtol=1e-12, atol=0)
        assert pi1 == pytest.approx(ref_pi1, rel=0, abs=1e-14)

    @pytest.mark.parametrize("sweeps", [1, 2, 10])
    @pytest.mark.parametrize("kernel_sd", [0.5, 1.0])
    def test_matches_per_pass_loop(self, sweeps, kernel_sd):
        self._check(self._mixture(300), sweeps=sweeps, kernel_sd=kernel_sd)

    def test_nondefault_null(self):
        self._check(self._mixture(250, seed=1) * 1.5 + 0.4,
                    f0_loc=0.4, f0_scale=1.5, sweeps=3)

    def test_smallest_table(self):
        self._check(self._mixture(10, seed=2), sweeps=10)

    def test_values_at_grid_edges(self):
        grid = GridConfig()
        rng = np.random.default_rng(4)
        edges = np.r_[grid.lo + rng.uniform(0.0, 0.05, 20),
                      grid.hi - rng.uniform(0.0, 0.05, 20)]
        self._check(np.r_[self._mixture(160, seed=5), edges], sweeps=2)
