"""Seeded generators for hypothesis tables with known ground truth.

The per-test alternative probability is a logistic function of two fixed
linear scores:

    s(X)  = X[:, 0]                  if k == 1
          = (X[:, 0] + X[:, 1]) / sqrt(2)  otherwise
    t(Xa) = mean of the first min(q, 2) auxiliary columns (0 when q = 0)

    prob_alt = sigmoid(logit(base_pi1)
                       + covariate_signal * s + aux_signal * t)

The first min(q, 2) auxiliary columns are built as (s + noise)/sqrt(2),
so they genuinely carry prior information beyond X alone; any further
auxiliary columns are independent noise. Null statistics are standard
normal; alternatives are N(alt_mean, alt_sd).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data_model import HypothesisTable, _check_types
from .errors import DomainError
from .prior_net import expit

#: named presets: A has informative covariates, N has none
SCENARIOS = {
    "A": {"covariate_signal": 1.0, "aux_signal": 1.0},
    "N": {"covariate_signal": 0.0, "aux_signal": 0.0},
}


@dataclass(frozen=True)
class ScenarioConfig:
    n: int = 5000
    k: int = 10
    q: int = 2
    covariate_signal: float = 1.0
    aux_signal: float = 1.0
    base_pi1: float = 0.1
    alt_mean: float = 2.5
    alt_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.n < 1 or self.k < 1 or self.q < 0:
            raise DomainError("need n >= 1, k >= 1, q >= 0")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        if not 0.0 < self.base_pi1 < 1.0:
            raise DomainError("base_pi1 must lie in (0, 1)")
        if self.alt_sd <= 0:
            raise DomainError("alt_sd must be positive")
        if self.covariate_signal < 0 or self.aux_signal < 0:
            raise DomainError("signal strengths must be nonnegative")


def scenario_config(name: str, seed: int = 0, **overrides) -> ScenarioConfig:
    """Build a named preset; extra keyword arguments override its fields,
    except that None keeps the preset's value."""
    key = name.upper()
    if key not in SCENARIOS:
        raise DomainError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        )
    return replace(ScenarioConfig(seed=seed, **SCENARIOS[key]),
                   **{k: v for k, v in overrides.items() if v is not None})


def covariate_score(X: np.ndarray) -> np.ndarray:
    if X.shape[1] == 1:
        return X[:, 0].copy()
    return (X[:, 0] + X[:, 1]) / math.sqrt(2.0)


def aux_score(Xa: np.ndarray) -> np.ndarray:
    m = min(Xa.shape[1], 2)
    if m == 0:
        return np.zeros(Xa.shape[0])
    return Xa[:, :m].mean(axis=1)


def generate(config: ScenarioConfig) -> HypothesisTable:
    """Draw a table with ground-truth labels; deterministic given the seed."""
    rng = np.random.default_rng(config.seed)
    n, k, q = config.n, config.k, config.q

    X = rng.standard_normal((n, k))
    s = covariate_score(X)
    m_corr = min(q, 2)
    Xa = np.empty((n, q))
    if m_corr:
        noise = rng.standard_normal((n, m_corr))
        Xa[:, :m_corr] = (s[:, None] + noise) / math.sqrt(2.0)
    if q > m_corr:
        Xa[:, m_corr:] = rng.standard_normal((n, q - m_corr))
    t = aux_score(Xa)

    p = config.base_pi1
    prob_alt = expit(
        math.log(p / (1.0 - p))
        + config.covariate_signal * s
        + config.aux_signal * t
    )
    h = (rng.uniform(size=n) < prob_alt).astype(np.int64)
    g = rng.standard_normal(n)
    z = np.where(h == 1, config.alt_mean + config.alt_sd * g, g)

    return HypothesisTable(
        z=z, X=X, Xa=Xa, h_truth=h,
        ids=tuple(str(i) for i in range(n)),
    )
