"""Null and alternative densities.

The null is a (configurable) Gaussian. The alternative is estimated
nonparametrically from the observed z-values by predictive recursion
(Newton 2002; Tokdar, Martin & Ghosh 2009): a Gaussian location kernel
of standard deviation ``kernel_sd`` is mixed over a latent grid of
centers, and the cell masses together with the alternative mass are
updated one observation at a time with a decaying learning weight.
Several passes over independently shuffled data are averaged to remove
order dependence.

The result is held exactly, as the Gaussian location mixture
``f1(z) = sum_j w_j phi((z - u_j)/sd)/sd`` on the centers ``u_j``. The
centers start at -10 and step by ``kernel_sd / 10``, so the grid covers
[-10, 10] with 201 cells at the default ``kernel_sd = 1``. The step is
never below ``MIN_STEP`` = 0.01, so the grid never exceeds 2001 cells
whatever the kernel; below ``kernel_sd = 0.1`` the centers are then
spaced wider than a tenth of the kernel. The masses
are a smooth function of the center, and the step must scale with the
kernel. Measured on 300 z-values against the same recursion on a 0.01
grid, smoothed through the kernel onto a 0.01 z-grid and normalized on
[-10, 10]: this step reproduces ``f1`` to <=9.5e-13 once normalized the
same way (<=9e-11 without, the mixture's mass outside [-10, 10]) and
``pi1_hat`` to <=1.6e-13 at kernel_sd 0.25, 0.5 and 1, while a fixed
step of 0.1 is off by 1.4e-8 at kernel_sd 0.25.

The passes run side by side: step ``t`` updates every pass at once, with
the cell masses held as a ``(sweeps, cells)`` array. The update is the
multiplicative form of the recursion, ``mass <- mass * (alpha + beta *
kern)``, which equals the textbook ``((1-w) pi1 mass + w joint / denom) /
pi1_new`` up to rounding and needs a few whole-array passes per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import Record, _frozen
from .errors import DomainError, InsufficientDataError

#: evaluation floor; keeps log-likelihoods finite for extreme z
DENSITY_FLOOR = 1e-10

#: the latent centers, and the z-values the recursion accepts, span this
LATENT_LO, LATENT_HI = -10.0, 10.0
#: latent cells per kernel standard deviation
CELLS_PER_SD = 10
#: the finest latent step; caps the grid at 2001 cells on [-10, 10]
MIN_STEP = 0.01
#: the recursion's step ``t`` (from 1) has learning weight ``(t+1)**-this``
DECAY_EXPONENT = 0.67
#: every pass starts from this alternative mass
INIT_PI1 = 0.1

_WEIGHT_SUM_TOL = 1e-9
# rows per block of ``MixtureDensity.pdf``; bounds its (rows x cells) buffer
_PDF_BLOCK = 4096


@dataclass(frozen=True)
class MixtureDensity(Record):
    """A Gaussian location mixture on the centers ``lo + step * j``.

    Invariants: ``step`` and ``sd`` are positive, and ``weights`` is a
    read-only vector of finite, nonnegative values summing to 1.
    """

    lo: float
    step: float
    sd: float
    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights, ndmin=0)  # a scalar is refused below
        object.__setattr__(self, "weights", w)
        if not (math.isfinite(self.lo) and 0 < self.step < math.inf
                and 0 < self.sd < math.inf):
            raise DomainError("mixture lo must be finite, step and sd positive")
        if w.ndim != 1 or w.shape[0] == 0:
            raise DomainError("mixture weights must be a nonempty vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DomainError("mixture weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise DomainError(f"mixture weights sum to {total:.6f}, expected 1")

    @property
    def centers(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.weights.shape[0])

    def pdf(self, z):
        """The mixture density at z, evaluated exactly."""
        z = np.asarray(z, dtype=np.float64)
        flat = z.ravel()
        n = flat.shape[0]
        out = np.empty(n)
        u = self.centers
        expo = -0.5 / self.sd ** 2
        buf = np.empty((min(n, _PDF_BLOCK), u.shape[0]))
        for start in range(0, n, _PDF_BLOCK):
            zb = flat[start:start + _PDF_BLOCK]
            k = buf[:zb.shape[0]]
            np.subtract(zb[:, None], u, out=k)
            np.multiply(k, k, out=k)
            np.multiply(k, expo, out=k)
            np.exp(k, out=k)
            np.matmul(k, self.weights, out=out[start:start + zb.shape[0]])
        out *= 1.0 / (self.sd * math.sqrt(2.0 * math.pi))
        return out.reshape(z.shape) if z.ndim else float(out[0])


def null_pdf(z, loc: float = 0.0, scale: float = 1.0):
    """Gaussian density at z; the default N(0,1) is the null model."""
    if scale <= 0:
        raise DomainError("scale must be positive")
    z = np.asarray(z, dtype=np.float64)
    u = (z - loc) / scale
    out = np.exp(-0.5 * u * u) / (scale * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def eval_density(d: MixtureDensity, z):
    """The density at z, floored at ``DENSITY_FLOOR``.

    The floor keeps downstream log-likelihoods finite far from the
    mixture's centers.
    """
    return np.maximum(d.pdf(z), DENSITY_FLOOR)


@dataclass(frozen=True)
class RecursionConfig:
    """Settings for the recursive alternative-density estimator."""

    sweeps: int = 10
    kernel_sd: float = 1.0

    def __post_init__(self):
        if self.sweeps < 1 or not self.kernel_sd > 0:
            raise DomainError("sweeps must be >= 1 and kernel_sd positive")


def estimate_alternative(
    z,
    config: RecursionConfig = RecursionConfig(),
    seed: int = 0,
    f0_loc: float = 0.0,
    f0_scale: float = 1.0,
) -> tuple[MixtureDensity, float]:
    """Estimate the alternative density and its mixture mass from z-values.

    Runs ``config.sweeps`` single-pass recursions, each over an
    independently shuffled copy of the data with step weights
    ``(t+1)**-DECAY_EXPONENT``, starting from the mass ``INIT_PI1``, and
    averages the resulting mixing weights and mass estimates. The passes
    advance together, one step over all of them at a time. Deterministic
    given ``seed``.

    Returns
    -------
    (MixtureDensity, float)
        The alternative density as a Gaussian location mixture, and the
        estimated alternative mass in [0, 1].
    """
    z = np.asarray(z, dtype=np.float64).ravel()
    n = z.shape[0]
    if n < 10:
        raise InsufficientDataError("alternative estimation needs >= 10 values")
    if z.min() < LATENT_LO or z.max() > LATENT_HI:
        raise DomainError(
            f"latent grid [{LATENT_LO}, {LATENT_HI}] does not cover observed "
            f"z range [{z.min():.3f}, {z.max():.3f}]"
        )

    step = max(config.kernel_sd / CELLS_PER_SD, MIN_STEP)
    # the last center reaches LATENT_HI even where step does not divide it
    m = int(math.ceil(round((LATENT_HI - LATENT_LO) / step, 9))) + 1
    u = LATENT_LO + step * np.arange(m)
    trapw = np.full(m, step)
    trapw[0] = trapw[-1] = step / 2.0

    f0_at_z = null_pdf(z, loc=f0_loc, scale=f0_scale)
    kern_norm = 1.0 / (config.kernel_sd * math.sqrt(2.0 * math.pi))
    expo = -0.5 / config.kernel_sd ** 2

    rng = np.random.default_rng(seed)
    t_weights = (np.arange(1, n + 1) + 1.0) ** (-DECAY_EXPONENT)

    # one shuffled order per pass, drawn in pass order; row t holds the
    # z-value (and its null density) that each pass visits at step t
    sweeps = config.sweeps
    orders = np.array([rng.permutation(n) for _ in range(sweeps)])
    z_steps = np.ascontiguousarray(z[orders].T)
    f0_steps = np.ascontiguousarray(f0_at_z[orders].T)

    # within-alternative cell masses, from a uniform guess on the span
    mass = np.tile(trapw / trapw.sum(), (sweeps, 1))
    pi1 = np.full(sweeps, INIT_PI1)
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

    # f1 is linear in the weights, so averaging the passes' weights
    # averages their densities
    mass /= mass.sum(axis=1, keepdims=True)
    weights = mass.mean(axis=0)
    pi1_hat = min(max(float(pi1.mean()), 0.0), 1.0)
    return MixtureDensity(lo=LATENT_LO, step=step, sd=config.kernel_sd,
                          weights=weights), pi1_hat
