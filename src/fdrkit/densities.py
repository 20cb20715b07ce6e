"""Null and alternative densities on a shared z-grid.

The null is a (configurable) Gaussian. The alternative is estimated
nonparametrically from the observed z-values by a recursive mixture
update: a Gaussian location kernel is mixed over a latent grid, and the
kernel mixing weights together with the alternative mass are updated one
observation at a time with a decaying learning weight. Several passes
over independently shuffled data are averaged to remove order dependence.

The passes run side by side: step ``t`` updates every pass at once, with
the cell masses held as a ``(sweeps, grid)`` array. The update is the
multiplicative form of the recursion, ``mass <- mass * (alpha + beta *
kern)``, which equals the textbook ``((1-w) pi1 mass + w joint / denom) /
pi1_new`` up to rounding and needs a few whole-array passes per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError

#: evaluation floor; keeps log-likelihoods finite for extreme z
DENSITY_FLOOR = 1e-10

_INTEGRAL_TOL = 1e-3


def trapezoid_mass(values: np.ndarray, step: float) -> float:
    """Trapezoid-rule integral of uniformly gridded values."""
    v = np.asarray(values, dtype=np.float64)
    return float(step * (v.sum() - 0.5 * (v[0] + v[-1])))


@dataclass(frozen=True)
class GridDensity:
    """A density tabulated on a uniform grid with linear interpolation.

    Invariants: values are nonnegative, the trapezoid integral over
    [lo, hi] is 1 within 1e-3, and the grid spacing matches the value
    count.
    """

    lo: float
    hi: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.step <= 0:
            raise DomainError("grid step must be positive")
        m = int(round((self.hi - self.lo) / self.step)) + 1
        if v.ndim != 1 or v.shape[0] != m:
            raise DomainError(
                f"value count {v.shape[0]} inconsistent with grid of {m} points"
            )
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise DomainError("density values must be finite and nonnegative")
        total = trapezoid_mass(v, self.step)
        if abs(total - 1.0) > _INTEGRAL_TOL:
            raise DomainError(f"density integrates to {total:.6f}, expected 1")

    @property
    def grid(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.values.shape[0])

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "step": self.step,
            "values": [float(x) for x in self.values],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridDensity":
        return cls(lo=d["lo"], hi=d["hi"], step=d["step"],
                   values=np.array(d["values"], dtype=np.float64))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("grid_point,value\n")
            for g, v in zip(self.grid, self.values):
                fh.write(f"{float(g)!r},{float(v)!r}\n")


def null_pdf(z, loc: float = 0.0, scale: float = 1.0):
    """Gaussian density at z; the default N(0,1) is the null model."""
    if scale <= 0:
        raise DomainError("scale must be positive")
    z = np.asarray(z, dtype=np.float64)
    u = (z - loc) / scale
    out = np.exp(-0.5 * u * u) / (scale * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def eval_density(d: GridDensity, z, floor: float = DENSITY_FLOOR):
    """Linear interpolation on the grid, floored at ``floor``.

    Outside [lo, hi] the floor is returned, so downstream log-likelihoods
    stay finite.
    """
    if floor <= 0:
        raise DomainError("density floor must be positive")
    z = np.asarray(z, dtype=np.float64)
    out = np.interp(z, d.grid, d.values, left=0.0, right=0.0)
    out = np.maximum(out, floor)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GridConfig:
    lo: float = -10.0
    hi: float = 10.0
    step: float = 0.01


@dataclass(frozen=True)
class RecursionConfig:
    """Settings for the recursive alternative-density estimator."""

    sweeps: int = 10
    weight_decay_exponent: float = 0.67
    init_pi1: float = 0.1
    kernel_sd: float = 1.0

    def __post_init__(self):
        if self.sweeps < 1 or not self.kernel_sd > 0:
            raise DomainError("sweeps must be >= 1 and kernel_sd positive")


def _normalize(values: np.ndarray, step: float) -> np.ndarray:
    total = trapezoid_mass(values, step)
    if total <= 0:
        raise DomainError("estimated density has nonpositive mass")
    return values / total


def estimate_alternative(
    z,
    grid: GridConfig = GridConfig(),
    config: RecursionConfig = RecursionConfig(),
    seed: int = 0,
    f0_loc: float = 0.0,
    f0_scale: float = 1.0,
) -> tuple[GridDensity, float]:
    """Estimate the alternative density and its mixture mass from z-values.

    Runs ``config.sweeps`` single-pass recursions, each over an
    independently shuffled copy of the data with step weights
    ``(t+1)**-decay``, and averages the resulting density and mass
    estimates. The passes advance together, one step over all of them at
    a time. Deterministic given ``seed``.

    Returns
    -------
    (GridDensity, float)
        The normalized alternative density on the grid, and the
        estimated alternative mass in [0, 1].
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    n = z.shape[0]
    if n < 10:
        raise InsufficientDataError("alternative estimation needs >= 10 values")
    if z.min() < grid.lo or z.max() > grid.hi:
        raise DomainError(
            f"grid [{grid.lo}, {grid.hi}] does not cover observed z range "
            f"[{z.min():.3f}, {z.max():.3f}]"
        )

    u = grid.lo + grid.step * np.arange(
        int(round((grid.hi - grid.lo) / grid.step)) + 1
    )
    m = u.shape[0]
    trapw = np.full(m, grid.step)
    trapw[0] = trapw[-1] = grid.step / 2.0

    f0_at_z = null_pdf(z, loc=f0_loc, scale=f0_scale)
    kern_norm = 1.0 / (config.kernel_sd * math.sqrt(2.0 * math.pi))
    expo = -0.5 / config.kernel_sd ** 2

    rng = np.random.default_rng(seed)
    t_weights = (np.arange(1, n + 1) + 1.0) ** (-config.weight_decay_exponent)

    # one shuffled order per pass, drawn in pass order; row t holds the
    # z-value (and its null density) that each pass visits at step t
    sweeps = config.sweeps
    orders = np.array([rng.permutation(n) for _ in range(sweeps)])
    z_steps = np.ascontiguousarray(z[orders].T)
    f0_steps = np.ascontiguousarray(f0_at_z[orders].T)

    # unnormalized within-alternative cell masses, from a uniform guess
    q = np.full(m, 1.0 / (grid.hi - grid.lo))
    mass = np.tile(q * trapw, (sweeps, 1))
    pi1 = np.full(sweeps, config.init_pi1)
    kern = np.empty((sweeps, m))  # unnormalized kernel, then the update factor
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

    # smooth the located masses back onto the z-grid through the kernel
    half = int(math.ceil(8.0 * config.kernel_sd / grid.step))
    taps = kern_norm * np.exp(
        -0.5 * (np.arange(-half, half + 1) * grid.step / config.kernel_sd) ** 2
    )
    acc_density = np.zeros(m)
    acc_pi1 = 0.0
    for s in range(sweeps):
        dens = np.convolve(mass[s], taps, mode="same")
        acc_density += _normalize(dens, grid.step)
        acc_pi1 += pi1[s]

    f1 = _normalize(acc_density / config.sweeps, grid.step)
    pi1_hat = min(max(acc_pi1 / config.sweeps, 0.0), 1.0)
    return GridDensity(lo=grid.lo, hi=grid.hi, step=grid.step, values=f1), pi1_hat
