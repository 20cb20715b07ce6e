"""Non-covariate FDR baselines: BH step-up and Storey's adaptive variant.

Both consume p-values; ``z_to_pvalue`` converts z-scores under the
standard normal null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import _csv_field, _frozen
from .errors import DomainError, ShapeError


@dataclass(frozen=True, eq=False)
class DiscoverySet:
    """Result of a rejection procedure.

    ``rejected`` holds sorted row indices; ``scores`` the per-test values
    the procedure ranked on (p-values for the baselines, posterior
    alternative probabilities for the model-based selector).
    """

    rejected: np.ndarray
    scores: np.ndarray
    alpha: float
    method: str

    def __post_init__(self):
        # ndmin=0: a scalar is no vector, and is refused below
        r = _frozen(self.rejected, dtype=np.int64, ndmin=0)
        s = _frozen(self.scores, ndmin=0)
        object.__setattr__(self, "rejected", r)
        object.__setattr__(self, "scores", s)
        if r.ndim != 1 or s.ndim != 1:
            raise DomainError("rejected and scores must be 1-d vectors")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        n = s.shape[0]
        if r.size and (r.min() < 0 or r.max() >= n):
            raise DomainError("rejected indices out of range")
        if np.any(np.diff(r) <= 0):
            raise DomainError("rejected indices must be sorted and unique")

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.size)

    def rejected_mask(self) -> np.ndarray:
        mask = np.zeros(self.scores.shape[0], dtype=bool)
        mask[self.rejected] = True
        return mask

    def write_csv(self, path, ids=None):
        """Write one ``id,score,rejected`` line per test.

        Lines end in a line feed; scores are shortest round-trip floats
        and ``rejected`` is 0 or 1. An id is quoted only when it must be
        (see ``_csv_field``). ``ids``, one per test, default to the row
        numbers; a count of ids other than the number of tests raises
        ``ShapeError`` before the file is opened.
        """
        n = len(self.scores)
        ids = range(n) if ids is None else list(ids)
        if len(ids) != n:
            raise ShapeError(f"{len(ids)} ids for {n} tests")
        flags = self.rejected_mask().astype(np.int8).tolist()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,score,rejected\n")
            fh.writelines(f"{_csv_field(str(rid))},{s!r},{r}\n" for rid, s, r
                          in zip(ids, self.scores.tolist(), flags))


def z_to_pvalue(z, sidedness: str = "two_sided"):
    """Convert z-scores to p-values under the standard normal null.

    two_sided -> 2*Phi(-|z|) = erfc(|z|/sqrt(2)); left -> Phi(z) =
    erfc(-z/sqrt(2))/2; right -> 1 - Phi(z) = erfc(z/sqrt(2))/2, with
    the C library's ``erfc`` (``math.erfc``).
    """
    z = np.asarray(z, dtype=np.float64)
    if sidedness == "two_sided":
        x, scale = np.abs(z), 1.0
    elif sidedness == "left":
        x, scale = -z, 0.5
    elif sidedness == "right":
        x, scale = z, 0.5
    else:
        raise DomainError(f"unknown sidedness {sidedness!r}")
    x = (x * math.sqrt(0.5)).ravel().tolist()
    p = scale * np.fromiter(map(math.erfc, x), np.float64, z.size)
    return p.reshape(z.shape) if z.ndim else float(p[0])


def _check_pvals(pvals) -> np.ndarray:
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("p-values must form a nonempty 1-d vector")
    if np.any(~np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        raise DomainError("p-values must lie in [0, 1]")
    return p


def _step_up(p: np.ndarray, slope: float) -> np.ndarray:
    """Reject the largest prefix of sorted p with p_(m) <= m*slope."""
    n = p.size
    order = np.sort(p)
    ok = order <= slope * np.arange(1, n + 1)
    if not ok.any():
        return np.empty(0, dtype=np.int64)
    m_star = int(np.flatnonzero(ok)[-1]) + 1
    return np.flatnonzero(p <= order[m_star - 1]).astype(np.int64)


def bh(pvals, alpha: float) -> DiscoverySet:
    """Linear step-up procedure controlling FDR at ``alpha``.

    Rejects the m* smallest p-values, m* = max{m : p_(m) <= m*alpha/n};
    ties at the threshold are all rejected.
    """
    p = _check_pvals(pvals)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    rejected = _step_up(p, alpha / p.size)
    return DiscoverySet(rejected=rejected, scores=p, alpha=alpha, method="bh")


def storey_bh(pvals, alpha: float, lambda0: float = 0.5) -> DiscoverySet:
    """Adaptive step-up: BH run at level alpha / pi0_hat.

    pi0_hat = min(1, #{p > lambda0} / ((1 - lambda0) n)), clipped below
    at 1/n so the adjusted level stays finite.
    """
    p = _check_pvals(pvals)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if not 0.0 < lambda0 < 1.0:
        raise DomainError("lambda0 must lie in (0, 1)")
    n = p.size
    pi0 = min(1.0, np.count_nonzero(p > lambda0) / ((1.0 - lambda0) * n))
    pi0 = max(pi0, 1.0 / n)
    rejected = _step_up(p, alpha / (pi0 * n))
    return DiscoverySet(rejected=rejected, scores=p, alpha=alpha, method="storey_bh")
