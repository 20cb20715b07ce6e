"""Non-covariate FDR baselines: BH step-up and Storey's adaptive variant.

Both consume p-values; ``z_to_pvalue`` converts z-scores under the
standard normal null.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data_model import _frozen
from .errors import DomainError


@dataclass(frozen=True)
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
        # ndmin=0: a scalar is no vector, as before
        r = _frozen(self.rejected, dtype=np.int64, ndmin=0)
        s = _frozen(self.scores, ndmin=0)
        object.__setattr__(self, "rejected", r)
        object.__setattr__(self, "scores", s)
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        n = s.shape[0]
        if r.size and (r.min() < 0 or r.max() >= n):
            raise DomainError("rejected indices out of range")
        if r.size != np.unique(r).size or np.any(np.diff(r) < 0):
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
        (see ``_csv_field``).
        """
        ids = ids if ids is not None else range(len(self.scores))
        flags = self.rejected_mask().astype(np.int8).tolist()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id,score,rejected\n")
            fh.writelines(f"{_csv_field(str(rid))},{s!r},{r}\n" for rid, s, r
                          in zip(ids, self.scores.tolist(), flags))


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted only when it must be.

    A field holding a comma, a double quote or a line break is wrapped in
    quotes with its quotes doubled, as ``csv``'s minimal quoting does.
    ``csv`` leaves a lone carriage return unquoted when the line
    terminator is a line feed, and ``csv.reader`` then splits the row
    there; it is quoted here too.
    """
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def z_to_pvalue(z, sidedness: str = "two_sided"):
    """Convert z-scores to p-values under the standard normal null.

    two_sided -> 2*Phi(-|z|); left -> Phi(z); right -> 1 - Phi(z).
    """
    z = np.asarray(z, dtype=np.float64)
    if sidedness == "two_sided":
        p = 2.0 * ndtr(-np.abs(z))
    elif sidedness == "left":
        p = ndtr(z)
    elif sidedness == "right":
        p = ndtr(-z)
    else:
        raise DomainError(f"unknown sidedness {sidedness!r}")
    p = np.clip(p, 0.0, 1.0)
    return p if p.ndim else float(p)


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
