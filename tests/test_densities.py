import math
import tracemalloc

import numpy as np
import pytest

from fdrkit import (
    DomainError,
    InsufficientDataError,
    MixtureDensity,
    RecursionConfig,
    estimate_alternative,
    eval_density,
    null_pdf,
)
from fdrkit.densities import _PDF_BLOCK, _STEP_BLOCK, DENSITY_FLOOR


def trapezoid_mass(values: np.ndarray, step: float) -> float:
    """Trapezoid-rule integral of uniformly gridded values."""
    v = np.asarray(values, dtype=np.float64)
    return float(step * (v.sum() - 0.5 * (v[0] + v[-1])))
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


def _direct_pdf(d, z):
    """The mixture sum one center at a time, in plain Python floats."""
    return sum(w * math.exp(-0.5 * ((z - u) / d.sd) ** 2)
               for u, w in zip(d.centers.tolist(), d.weights.tolist())
               ) / (d.sd * math.sqrt(2.0 * math.pi))


class TestMixtureDensity:
    def setup_method(self):
        self.d = MixtureDensity(lo=-1.0, step=0.5, sd=0.7,
                                weights=np.array([0.1, 0.2, 0.4, 0.2, 0.1]))

    def test_invariants_enforced(self):
        for weights in ([0.5, -0.1, 0.6], [0.5, np.nan, 0.5],
                        [0.5, np.inf, 0.5], [0.5, 0.5, 0.5],
                        [0.2, 0.2, 0.2], [], 1.0, [[0.5, 0.5]]):
            with pytest.raises(DomainError, match="weights"):
                MixtureDensity(lo=0.0, step=0.5, sd=1.0,
                               weights=np.array(weights, dtype=np.float64))
        for kw in ({"step": 0.0}, {"sd": -1.0}, {"lo": np.nan},
                   {"sd": np.inf}):
            with pytest.raises(DomainError):
                MixtureDensity(**{"lo": 0.0, "step": 0.5, "sd": 1.0,
                                  "weights": np.array([0.5, 0.5]), **kw})

    def test_weights_copied_and_read_only(self):
        w = np.array([0.25, 0.75])
        d = MixtureDensity(lo=0.0, step=1.0, sd=1.0, weights=w)
        assert w.flags.writeable
        w[0] = 5.0
        assert d.weights[0] == 0.25
        with pytest.raises(ValueError):
            d.weights[0] = 0.5

    def test_serialization_roundtrip(self):
        back = MixtureDensity.from_dict(self.d.to_dict())
        np.testing.assert_array_equal(back.weights, self.d.weights)
        assert (back.lo, back.step, back.sd) == (self.d.lo, self.d.step, self.d.sd)
        zs = np.linspace(-4.0, 4.0, 33)
        np.testing.assert_array_equal(back.pdf(zs), self.d.pdf(zs))


class TestEvalDensity:
    def setup_method(self):
        self.d = MixtureDensity(lo=-1.0, step=0.5, sd=0.7,
                                weights=np.array([0.1, 0.2, 0.4, 0.2, 0.1]))

    def test_matches_direct_sum(self):
        for z in (-3.0, -0.3, 0.0, 0.25, 1.7, 4.0):
            assert eval_density(self.d, z) == pytest.approx(
                _direct_pdf(self.d, z), rel=1e-13)

    def test_scalar_and_shape(self):
        assert isinstance(eval_density(self.d, 0.5), float)
        zs = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        out = eval_density(self.d, zs)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.ravel(), eval_density(self.d, zs.ravel()))

    def test_blocks_match_single_rows(self):
        zs = np.linspace(-6.0, 6.0, 2 * _PDF_BLOCK + 7)
        batch = self.d.pdf(zs)
        single = np.array([self.d.pdf(z) for z in zs[_PDF_BLOCK - 3:_PDF_BLOCK + 3]])
        np.testing.assert_allclose(batch[_PDF_BLOCK - 3:_PDF_BLOCK + 3], single,
                                   rtol=1e-14, atol=0)
        assert self.d.pdf(np.empty(0)).shape == (0,)

    def test_outside_range_floor(self):
        assert eval_density(self.d, 40.0) == DENSITY_FLOOR
        assert eval_density(self.d, -40.0) == DENSITY_FLOOR

    def test_never_below_floor(self):
        zs = np.linspace(-60.0, 60.0, 1001)
        assert np.all(eval_density(self.d, zs) >= DENSITY_FLOOR)

    def test_integrates_to_one(self):
        zs = np.linspace(-12.0, 12.0, 24001)
        assert trapezoid_mass(self.d.pdf(zs), zs[1] - zs[0]) == pytest.approx(
            1.0, abs=1e-12)

    def test_continuous_on_range(self):
        zs = np.linspace(-5.0, 5.0, 20001)
        vals = eval_density(self.d, zs)
        assert np.max(np.abs(np.diff(vals))) < 1e-3


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
        assert f1.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f1.weights >= 0) and not f1.weights.flags.writeable
        zs = np.linspace(-20.0, 20.0, 40001)
        # 40001 summands: rounding alone reaches ~N * eps = 9e-12
        assert trapezoid_mass(f1.pdf(zs), zs[1] - zs[0]) == pytest.approx(
            1.0, abs=1e-10)

    def test_latent_step_scales_with_kernel(self):
        z = np.random.default_rng(5).standard_normal(50)
        for sd, cells in ((1.0, 201), (0.5, 401), (0.3, 668)):
            f1, _ = estimate_alternative(z, config=RecursionConfig(kernel_sd=sd))
            assert (f1.lo, f1.step, f1.sd) == (-10.0, sd / 10, sd)
            assert f1.weights.shape == (cells,)
            assert f1.centers[-1] >= 10.0 - 1e-9

    def test_latent_grid_has_a_ceiling(self):
        """A narrow kernel steps by MIN_STEP = 0.01 instead of sd/10, so
        the grid stays at 2001 cells."""
        z = np.random.default_rng(6).standard_normal(200)
        for sd in (0.1, 0.05, 0.001):
            f1, pi1 = estimate_alternative(z, config=RecursionConfig(kernel_sd=sd))
            assert (f1.step, f1.sd) == (0.01, sd)
            assert f1.weights.shape == (2001,)
            assert np.all(np.isfinite(f1.weights))
            assert abs(f1.weights.sum() - 1.0) <= 1e-12
            assert 0.0 <= pi1 <= 1.0

    def test_mixture_mode_located(self):
        rng = np.random.default_rng(42)
        h = rng.uniform(size=5000) < 0.5
        z = np.where(h, 3.0 + rng.standard_normal(5000), rng.standard_normal(5000))
        f1, pi1 = estimate_alternative(z, seed=7)
        zs = np.linspace(-10.0, 10.0, 2001)
        mode = zs[np.argmax(f1.pdf(zs))]
        assert abs(mode - 3.0) <= 0.5
        assert 0.2 < pi1 < 0.8

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(200)
        f1a, pa = estimate_alternative(z, seed=11)
        f1b, pb = estimate_alternative(z, seed=11)
        np.testing.assert_array_equal(f1a.weights, f1b.weights)
        assert pa == pb

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            estimate_alternative(np.zeros(9), seed=0)

    @pytest.mark.parametrize("kw", [{"sweeps": 0}, {"sweeps": -2},
                                    {"kernel_sd": 0.0}, {"kernel_sd": -1.0}])
    def test_invalid_recursion_config(self, kw):
        with pytest.raises(DomainError, match="sweeps must be"):
            RecursionConfig(**kw)

    @pytest.mark.parametrize("sweeps", [2.5, True, "3"])
    def test_sweeps_must_be_an_integer(self, sweeps):
        with pytest.raises(DomainError, match="sweeps must be an integer"):
            RecursionConfig(sweeps=sweeps)

    @pytest.mark.parametrize("sd", [math.inf, math.nan])
    def test_kernel_sd_must_be_finite(self, sd):
        with pytest.raises(DomainError, match="kernel_sd must be a finite number"):
            RecursionConfig(kernel_sd=sd)

    def test_negative_seed_refused(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            estimate_alternative(np.linspace(-3.0, 3.0, 50), seed=-1)

    @pytest.mark.parametrize("kw, shown", [
        ({"f0_loc": math.nan}, "loc must be finite"),
        ({"f0_scale": math.nan}, "scale must be positive"),
        ({"f0_scale": math.inf}, "scale must be positive"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
    ])
    def test_null_and_seed_refused_before_any_work(self, monkeypatch, kw,
                                                   shown):
        def no_recursion(*args):
            raise AssertionError("the recursion started")

        monkeypatch.setattr(np.random, "default_rng", no_recursion)
        with pytest.raises(DomainError, match=shown):
            estimate_alternative(np.linspace(-3.0, 3.0, 50), **kw)

    def test_grid_must_cover_range(self):
        with pytest.raises(DomainError, match="cover"):
            estimate_alternative(np.linspace(-1, 20, 50), seed=0)

    @pytest.mark.parametrize("bad, shown", [(np.nan, "nan"), (np.inf, "inf"),
                                            (-np.inf, "-inf")])
    def test_non_finite_z_named_by_first_position(self, bad, shown):
        z = np.linspace(-3.0, 3.0, 50)
        z[[7, 30]] = bad, np.nan
        with pytest.raises(DomainError, match=rf"^z must be finite; "
                                              rf"z\[7\] is {shown}$"):
            estimate_alternative(z, seed=0)


def _reference_alternative(z, centers, step, config, seed, f0_loc=0.0,
                           f0_scale=1.0):
    """The recursion one pass at a time, in its textbook additive form.

    Returns each pass's final cell masses, as a (sweeps, cells) array, and
    each pass's alternative mass.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    n = z.shape[0]
    m = centers.shape[0]
    trapw = np.full(m, step)
    trapw[0] = trapw[-1] = step / 2.0

    f0_at_z = null_pdf(z, loc=f0_loc, scale=f0_scale)
    kern_norm = 1.0 / (config.kernel_sd * math.sqrt(2.0 * math.pi))

    rng = np.random.default_rng(seed)
    t_weights = (np.arange(1, n + 1) + 1.0) ** -0.67

    masses, pi1s = [], []
    for _ in range(config.sweeps):
        order = rng.permutation(n)
        pi1 = 0.1
        mass = trapw / trapw.sum()
        for t, idx in enumerate(order):
            d = (z[idx] - centers) / config.kernel_sd
            kern = kern_norm * np.exp(-0.5 * d * d)
            joint = pi1 * kern * mass
            f1_at_z = joint.sum()
            denom = (1.0 - pi1) * f0_at_z[idx] + f1_at_z
            w = t_weights[t]
            post_alt = f1_at_z / denom
            pi1_new = (1.0 - w) * pi1 + w * post_alt
            mass = ((1.0 - w) * pi1 * mass + w * joint / denom) / pi1_new
            pi1 = pi1_new
        masses.append(mass)
        pi1s.append(pi1)
    return np.array(masses), np.array(pi1s)


#: the z-grid, and the latent grid, that ``f1`` was tabulated on before
#: it was held as a mixture
_FINE_STEP = 0.01
_FINE_GRID = -10.0 + _FINE_STEP * np.arange(2001)


def _fine_grid_alternative(z, config, seed):
    """``f1`` on the fine z-grid: the recursion on the fine latent grid,
    each pass smoothed through the kernel by convolution and normalized by
    the trapezoid rule on [-10, 10], then averaged."""
    masses, pi1s = _reference_alternative(z, _FINE_GRID, _FINE_STEP, config,
                                          seed)
    kern_norm = 1.0 / (config.kernel_sd * math.sqrt(2.0 * math.pi))
    half = int(math.ceil(8.0 * config.kernel_sd / _FINE_STEP))
    taps = kern_norm * np.exp(
        -0.5 * (np.arange(-half, half + 1) * _FINE_STEP / config.kernel_sd) ** 2
    )
    acc = np.zeros(_FINE_GRID.shape[0])
    for mass in masses:
        dens = np.convolve(mass, taps, mode="same")
        acc += dens / trapezoid_mass(dens, _FINE_STEP)
    f1 = acc / config.sweeps
    return f1 / trapezoid_mass(f1, _FINE_STEP), float(pi1s.mean())


class TestRecursionOracle:
    """The batched multiplicative update against the per-pass loop."""

    @staticmethod
    def _mixture(n, seed=0):
        rng = np.random.default_rng(seed)
        h = rng.uniform(size=n) < 0.3
        return np.where(h, 2.5 + rng.standard_normal(n), rng.standard_normal(n))

    def _check(self, z, f0_loc=0.0, f0_scale=1.0, seed=3, **recursion):
        config = RecursionConfig(**recursion)
        z_before = np.array(z, copy=True)
        f1, pi1 = estimate_alternative(z, config=config, seed=seed,
                                       f0_loc=f0_loc, f0_scale=f0_scale)
        np.testing.assert_array_equal(z, z_before)
        masses, pi1s = _reference_alternative(z, f1.centers, f1.step, config,
                                              seed, f0_loc, f0_scale)
        ref_weights = (masses / masses.sum(axis=1, keepdims=True)).mean(axis=0)
        np.testing.assert_allclose(f1.weights, ref_weights, rtol=1e-12, atol=0)
        assert pi1 == pytest.approx(pi1s.mean(), rel=0, abs=1e-14)

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
        rng = np.random.default_rng(4)
        edges = np.r_[-10.0 + rng.uniform(0.0, 0.05, 20),
                      10.0 - rng.uniform(0.0, 0.05, 20)]
        self._check(np.r_[self._mixture(160, seed=5), edges], sweeps=2)

    @pytest.mark.parametrize("kernel_sd", [0.5, 1.0])
    def test_matches_fine_grid(self, kernel_sd):
        """The coarse latent grid loses nothing against the 0.01 grid.

        The fine-grid density was normalized on [-10, 10], while the
        mixture keeps 1.6e-10 (kernel_sd 0.5) to 2.6e-10 (kernel_sd 1) of
        its mass outside; that accounts for the difference up to 9e-11.
        Renormalized the same way, the two agree to <=4.8e-13.
        """
        config = RecursionConfig(kernel_sd=kernel_sd)
        z = self._mixture(300)
        f1, pi1 = estimate_alternative(z, config=config, seed=3)
        ref_f1, ref_pi1 = _fine_grid_alternative(z, config, seed=3)
        pdf = f1.pdf(_FINE_GRID)
        np.testing.assert_allclose(pdf, ref_f1, rtol=0, atol=1e-10)
        np.testing.assert_allclose(pdf / trapezoid_mass(pdf, _FINE_STEP),
                                   ref_f1, rtol=0, atol=1e-12)
        assert pi1 == pytest.approx(ref_pi1, rel=0, abs=1e-12)


def _lockstep_alternative(z, config, seed, f0_loc=0.0, f0_scale=1.0):
    """The recursion as it ran before it streamed its steps in blocks: the
    passes in lockstep, with every step's z-values and null densities
    gathered up front and each step's kernel computed when it is taken.

    Returns the averaged weights and ``pi1_hat``.
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    n = z.shape[0]
    step = max(config.kernel_sd / 10, 0.01)
    m = int(math.ceil(round(20.0 / step, 9))) + 1
    u = -10.0 + step * np.arange(m)
    trapw = np.full(m, step)
    trapw[0] = trapw[-1] = step / 2.0

    f0_at_z = null_pdf(z, loc=f0_loc, scale=f0_scale)
    kern_norm = 1.0 / (config.kernel_sd * math.sqrt(2.0 * math.pi))
    expo = -0.5 / config.kernel_sd ** 2

    rng = np.random.default_rng(seed)
    t_weights = (np.arange(1, n + 1) + 1.0) ** (-0.67)
    sweeps = config.sweeps
    orders = np.array([rng.permutation(n) for _ in range(sweeps)])
    z_steps = np.ascontiguousarray(z[orders].T)
    f0_steps = np.ascontiguousarray(f0_at_z[orders].T)

    mass = np.tile(trapw / trapw.sum(), (sweeps, 1))
    pi1 = np.full(sweeps, 0.1)
    kern = np.empty((sweeps, m))
    kern_dot_mass = np.empty(sweeps)
    for t in range(n):
        w = t_weights[t]
        np.subtract(z_steps[t][:, None], u, out=kern)
        np.multiply(kern, kern, out=kern)
        np.multiply(kern, expo, out=kern)
        np.exp(kern, out=kern)
        np.einsum("ij,ij->i", kern, mass, out=kern_dot_mass)
        f1_at_z = (kern_norm * pi1) * kern_dot_mass
        denom = (1.0 - pi1) * f0_steps[t] + f1_at_z
        pi1_new = (1.0 - w) * pi1 + w * (f1_at_z / denom)
        alpha = (1.0 - w) * pi1 / pi1_new
        beta = (w * kern_norm) * pi1 / (denom * pi1_new)
        np.multiply(kern, beta[:, None], out=kern)
        np.add(kern, alpha[:, None], out=kern)
        np.multiply(mass, kern, out=mass)
        pi1 = pi1_new

    mass /= mass.sum(axis=1, keepdims=True)
    return mass.mean(axis=0), min(max(float(pi1.mean()), 0.0), 1.0)


class TestStepBlocks:
    """The recursion streamed by step blocks gives the lockstep loop's
    answers bit for bit, in working memory that grows only by its step
    orders."""

    _mixture = staticmethod(TestRecursionOracle._mixture)

    def _check(self, z, seed=4, f0_loc=0.0, f0_scale=1.0, **recursion):
        config = RecursionConfig(**recursion)
        f1, pi1 = estimate_alternative(z, config=config, seed=seed,
                                       f0_loc=f0_loc, f0_scale=f0_scale)
        weights, pi1_ref = _lockstep_alternative(z, config, seed, f0_loc,
                                                 f0_scale)
        assert np.array_equal(f1.weights, weights)
        assert pi1 == pi1_ref

    @pytest.mark.parametrize("n", [_STEP_BLOCK - 1, _STEP_BLOCK,
                                   _STEP_BLOCK + 1, 3 * _STEP_BLOCK + 5])
    @pytest.mark.parametrize("sweeps", [1, 3, 10])
    @pytest.mark.parametrize("kernel_sd", [0.25, 1.0])
    def test_bit_identical_to_lockstep_loop(self, n, sweeps, kernel_sd):
        self._check(self._mixture(n, seed=n), sweeps=sweeps,
                    kernel_sd=kernel_sd)

    def test_bit_identical_with_nondefault_null(self):
        z = self._mixture(3 * _STEP_BLOCK + 5, seed=1) * 1.5 + 0.4
        self._check(z, f0_loc=0.4, f0_scale=1.5, sweeps=3)

    def test_memory_grows_only_by_the_step_orders(self):
        """Per added row, the traced peak grows by at most the int32 step
        orders and a few float64 vectors: 6 * sweeps + 64 bytes."""
        sweeps, n = 10, 1000
        peaks = []
        for rows in (n, 2 * n):
            z = self._mixture(rows)
            tracemalloc.start()
            try:
                estimate_alternative(z, config=RecursionConfig(sweeps=sweeps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / n <= 6 * sweeps + 64, peaks
