"""Adjustment of network-emitted Beta parameters by auxiliary covariates.

The log pseudo-parameters are regressed on the auxiliary design (shared
regressors, two responses), and each row's adjusted parameters are the
exponentiated fitted conditional means. The residual covariance is kept
with the fit as a description of its spread; scoring does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Record, _frozen
from .errors import DomainError, InsufficientDataError, ShapeError

#: admissible range for adjusted Beta parameters
CLIP_LO = 1e-3
CLIP_HI = 1e6

_RIDGE = 1e-8


@dataclass(frozen=True, eq=False)
class RegressionFit(Record):
    """Bivariate least-squares fit of (log a', log b') on [1, Xa]:
    intercepts ``mu_*`` and one ``delta_*`` coefficient per column of Xa."""

    mu_a: float
    mu_b: float
    delta_a: np.ndarray
    delta_b: np.ndarray
    sigma: np.ndarray  # 2x2 residual covariance

    def __post_init__(self):
        da = _frozen(self.delta_a).ravel()
        db = _frozen(self.delta_b).ravel()
        S = _frozen(self.sigma)
        object.__setattr__(self, "delta_a", da)
        object.__setattr__(self, "delta_b", db)
        object.__setattr__(self, "sigma", S)
        if da.shape != db.shape:
            raise ShapeError(f"delta_a has {da.size} coefficients, "
                             f"delta_b {db.size}")
        if S.shape != (2, 2) or abs(S[0, 1] - S[1, 0]) > 1e-12:
            raise DomainError("sigma must be a symmetric 2x2 matrix")
        if S[0, 0] < 0 or S[1, 1] < 0 or S[0, 1] ** 2 > S[0, 0] * S[1, 1] + 1e-12:
            raise DomainError("sigma must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class BetaParams:
    """Final per-test Beta parameters."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            arr = _frozen(getattr(self, name)).ravel()
            if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be strictly positive and finite")
            object.__setattr__(self, name, arr)


def fit_bivariate_ols(Xa, a_raw, b_raw) -> RegressionFit:
    """Regress log a' and log b' on the auxiliary covariates.

    Both responses share the design [1, Xa]; the normal equations carry a
    1e-8 ridge so collinear or constant designs stay solvable (the
    unidentifiable directions are pinned at zero). The residual pairs'
    sample covariance (denominator n-1) becomes ``sigma``.
    """
    Xa = np.asarray(Xa, dtype=np.float64)
    if Xa.ndim == 1:
        Xa = Xa[:, None]
    a_raw = np.asarray(a_raw, dtype=np.float64).ravel()
    b_raw = np.asarray(b_raw, dtype=np.float64).ravel()
    n = a_raw.shape[0]
    q = Xa.shape[1]
    if Xa.shape[0] != n or b_raw.shape[0] != n:
        raise ShapeError("Xa, a_raw and b_raw must agree on row count")
    if n < q + 2:
        raise InsufficientDataError(f"need at least q + 2 = {q + 2} rows, got {n}")
    if np.any(a_raw <= 0) or np.any(b_raw <= 0):
        raise DomainError("pseudo-parameters must be strictly positive")

    Y = np.column_stack((np.log(a_raw), np.log(b_raw)))
    D = np.column_stack((np.ones(n), Xa))
    gram = D.T @ D + _RIDGE * np.eye(q + 1)
    beta = np.linalg.solve(gram, D.T @ Y)  # (q+1) x 2
    resid = Y - D @ beta
    sigma = np.cov(resid[:, 0], resid[:, 1], ddof=1)
    sigma = (sigma + sigma.T) / 2.0
    return RegressionFit(
        mu_a=float(beta[0, 0]), mu_b=float(beta[0, 1]),
        delta_a=beta[1:, 0].copy(), delta_b=beta[1:, 1].copy(),
        sigma=sigma,
    )


def adjust(fit: RegressionFit, Xa) -> BetaParams:
    """Produce adjusted Beta parameters from a regression fit.

    The parameters depend on the fit and ``Xa`` alone, not on the
    network's pseudo-parameters: each row's fitted conditional means of
    (log a, log b), exponentiated and clipped to [CLIP_LO, CLIP_HI].
    """
    Xa = np.asarray(Xa, dtype=np.float64)
    if Xa.ndim == 1:
        Xa = Xa[:, None]
    q = fit.delta_a.shape[0]
    if Xa.ndim != 2 or Xa.shape[1] != q:
        raise ShapeError(f"Xa must be (n, {q}), got {Xa.shape}")

    mean = np.column_stack((fit.mu_a + Xa @ fit.delta_a,
                            fit.mu_b + Xa @ fit.delta_b))
    ab = np.clip(np.exp(mean), CLIP_LO, CLIP_HI)
    return BetaParams(a=ab[:, 0], b=ab[:, 1])
