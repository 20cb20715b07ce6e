"""Two-groups mixture core: likelihood, training, posterior, selection.

The mixture weight of each test follows a Beta prior whose parameters
come from the covariate network (optionally adjusted by the auxiliary
regression). The mixture lam*f1 + (1-lam)*f0 is linear in lam, so the
marginal likelihood that training maximizes is the closed form
(a*f1 + b*f0)/(a+b), and its gradients are exact. The posterior
alternative probability used by the step-down selector has no robust
closed form and is integrated on a fixed numerical grid.

Posterior quadrature: the unit interval is discretized by a midpoint
rule in a transformed variable, lambda = sin^2(pi/2 * T(u)) with
T(u) = u - sin(2 pi u)/(2 pi), and the Beta cell masses are normalized
to sum to one. The double transform removes the endpoint singularities
and fractional-power kinks of the raw Beta density. Measured with 500
and 1000 cells, the prior mean a/(a+b) is reproduced to <=1.2e-10 for
a, b in [0.5, 1e3]. Outside that domain the error grows: with 500 cells
it is 8.4e-3 relative at a=0.1, b=1, E[lambda] is 0.023 instead of
0.001 at a=1e-3, b=1, and the absolute error reaches 3e-3 for a, b near
1e6. Fitted priors stay inside the domain: min(a, b) >= 0.65 over
acceptance-config fits on scenarios A and N (seeds 0-2, both variants).

The quadrature walks rows in slices of ``_CHUNK`` rows. Each slice's
log cell masses come from one matrix product, and the remaining ufuncs
run in place on its blocks of ``_BLOCK`` rows, in the same order into
buffers reused from block to block, so their operands stay in cache. The
slices are split into contiguous parts, one per usable CPU; the calling
thread runs the first part and a thread each the others, and numpy
releases the interpreter lock inside every ufunc, so the parts run at
once. A row's value does not depend on its block or part: it comes from
the same operations on the same operands, and every row sum reduces one
contiguous row on its own. The slices stay at 1024 rows because the
product's bits are not the same for every row count: at 500 cells,
OpenBLAS 0.3.31 rounds a 128-row product differently from a 1024-row
one in the last columns.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .aux_adjust import BetaParams, RegressionFit, adjust, fit_bivariate_ols
from .baselines import DiscoverySet
from .data_model import (
    COVARIATE_BLOCKS,
    CovariateScaling,
    HypothesisTable,
    _check_types,
    _frozen,
    _usable_cpus,
    standardize_covariates,
)
from .densities import (
    DENSITY_FLOOR,
    MixtureDensity,
    RecursionConfig,
    estimate_alternative,
    eval_density,
    null_pdf,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    NumericError,
    ShapeError,
    TrainingError,
)
from .prior_net import NetworkConfig, NetworkParams, _forward_cached, backward, forward, init_network

MODEL_FORMAT_TAG = "fdrkit-model-v4"

_LIKELIHOOD_FLOOR = 1e-300
#: rows per matrix product of the posterior quadrature
_CHUNK = 1024
#: rows per in-place block of the posterior quadrature: three blocks of
#: the 500-cell grid (1.5 MB) fit a 2 MB L2 cache, and of 32 to 1024
#: rows, 128 and 256 ran fastest
_BLOCK = 128
#: fewest slices of ``_CHUNK`` rows a part of the posterior quadrature
#: runs; a smaller table stays on the calling thread
_MIN_PART_CHUNKS = 8

#: the table blocks each variant's network reads, side by side
VARIANTS = {"neurt_a": ("X",), "neurt_b": COVARIATE_BLOCKS}


@lru_cache(maxsize=8)
def _lambda_grid(grid_size: int):
    """Midpoint grid of the transformed mixing weight.

    Returns (lam, base, logs) where base collects the parameter-free
    part of the log cell mass and logs is the 2 x grid_size matrix
    [log lam; log(1-lam)] used by the batch mass computation.
    """
    if grid_size < 2:
        raise DomainError("grid_size must be at least 2")
    u = (np.arange(grid_size) + 0.5) / grid_size
    t = u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)
    dt = 1.0 - np.cos(2.0 * np.pi * u)
    s = 0.5 * np.pi * t
    log_lam = 2.0 * np.log(np.sin(s))
    log_1m = 2.0 * np.log(np.cos(s))
    lam = np.sin(s) ** 2
    base = np.log(dt) - 0.5 * (log_lam + log_1m)
    logs = np.vstack((log_lam, log_1m))
    return _frozen(lam), _frozen(base), _frozen(logs)


def _check_shapes(a, b, f0z, f1z):
    a, b, f0z, f1z = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64),
        np.asarray(f0z, dtype=np.float64), np.asarray(f1z, dtype=np.float64),
    )
    for name, arr in (("a", a), ("b", b), ("f0(z)", f0z), ("f1(z)", f1z)):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be finite")
    if np.any(a <= 0) or np.any(b <= 0):
        raise DomainError("Beta parameters must be strictly positive")
    if np.any(f0z < 0) or np.any(f1z < 0):
        raise DomainError("density values must be nonnegative")
    return a.ravel(), b.ravel(), f0z.ravel(), f1z.ravel(), a.shape


def marginal_likelihood(a, b, f0z, f1z):
    """Mixture likelihood of one test statistic under its Beta prior.

    The mixture lam*f1z + (1-lam)*f0z is linear in lam, so its average
    over the Beta(a, b) prior is exactly (a*f1z + b*f0z)/(a+b).
    """
    af, bf, f0f, f1f, shape = _check_shapes(a, b, f0z, f1z)
    out = _nll_terms(af, bf, f0f, f1f)[3]
    return float(out[0]) if shape == () else out.reshape(shape)


def posterior_alt(a, b, f0z, f1z, grid_size: int = 1000):
    """Posterior probability that a test is an alternative.

    Integrates lam*f1z / (lam*f1z + (1-lam)*f0z) against the Beta(a, b)
    prior; the result is clamped to [0, 1].

    Rows run in slices of ``_CHUNK``, split into one part per usable CPU
    (``_usable_cpus``) with at least ``_MIN_PART_CHUNKS`` slices each; the
    parts beyond the first run on threads, which are all gone when the
    call returns or raises. Restricting the process's CPU affinity (for
    example with ``taskset``) limits the parts, and a process with BLAS
    threads runs one part. The answer is the same, bit for bit, however
    the rows are split (see the module docstring).
    """
    af, bf, f0f, f1f, shape = _check_shapes(a, b, f0z, f1z)
    if np.any((f0f == 0.0) & (f1f == 0.0)):
        raise DegenerateInputError("f0(z) and f1(z) are both zero")
    lam, base, logs = _lambda_grid(grid_size)
    n = af.shape[0]
    chunks = -(-n // _CHUNK)
    parts = max(1, min(_usable_cpus(), chunks // _MIN_PART_CHUNKS))
    edges = [min(n, i * chunks // parts * _CHUNK) for i in range(parts + 1)]
    grid = (lam, 1.0 - lam, base, logs)
    out = np.empty(n)
    # one allocation for every part's grid buffers: freed at once, it
    # leaves no heap behind that would raise a later peak
    work = np.empty((parts, _CHUNK + 2 * _BLOCK, lam.size))
    jobs = [(edges[i], edges[i + 1], grid, af, bf, f0f, f1f, out, work[i],
             np.empty((_CHUNK, 2)), np.empty((_BLOCK, 1)))
            for i in range(parts)]
    errors = []

    def run(job):
        try:
            _posterior_rows(*job)
        except BaseException as err:  # re-raised by the calling thread
            errors.append(err)

    threads = []
    try:
        for job in jobs[1:]:
            t = threading.Thread(target=run, args=(job,))
            t.start()
            threads.append(t)
        _posterior_rows(*jobs[0])
    finally:
        _join(threads)
    if errors:
        raise errors[0]
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if shape == () else out.reshape(shape)


def _posterior_rows(lo, hi, grid, a, b, f0z, f1z, out, work, ab, col_buf):
    """Write the posteriors of rows ``lo:hi`` into ``out``, through the
    buffers ``work`` (``_CHUNK`` + 2 ``_BLOCK`` rows x grid), ``ab``
    (``_CHUNK`` x 2) and ``col_buf`` (``_BLOCK`` x 1). Allocates no
    buffer."""
    lam, one_m_lam, base, logs = grid
    logw, num_buf, den_buf = np.split(work, [_CHUNK, _CHUNK + _BLOCK])
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        pairs = ab[:stop - start]
        pairs[:, 0] = a[start:stop]
        pairs[:, 1] = b[start:stop]
        np.matmul(pairs, logs, out=logw[:stop - start])
        for first in range(start, stop, _BLOCK):
            rows = slice(first, min(first + _BLOCK, stop))
            m = rows.stop - first
            w = logw[first - start:rows.stop - start]
            num, den, col = num_buf[:m], den_buf[:m], col_buf[:m]
            w += base
            np.max(w, axis=1, keepdims=True, out=col)
            w -= col
            np.exp(w, out=w)
            np.sum(w, axis=1, keepdims=True, out=col)
            w /= col
            np.multiply(lam, f1z[rows, None], out=num)
            np.multiply(one_m_lam, f0z[rows, None], out=den)
            np.add(num, den, out=den)
            np.divide(num, den, out=num)
            np.multiply(w, num, out=num)
            np.sum(num, axis=1, out=out[rows])


def _join(threads):
    """Join ``threads``, then wait (at most a second) until the system
    lists none of them: ``join`` returns once a thread's Python state is
    gone, a moment before its system thread exits, and ``_usable_cpus``
    counts the threads that /proc/self/task lists."""
    for t in threads:
        t.join()
    deadline = time.monotonic() + 1.0
    for t in threads:
        while (os.path.exists(f"/proc/self/task/{t.native_id}")
               and time.monotonic() < deadline):
            time.sleep(1e-5)


def _nll_terms(a, b, f0z, f1z):
    """Per-test negative log likelihood, its (a, b) derivatives and p.

    p = (a*f1 + b*f0)/(a+b), so dp/da = b(f1-f0)/(a+b)^2 and
    dp/db = -a(f1-f0)/(a+b)^2.
    """
    s = a + b
    p = (a * f1z + b * f0z) / s
    slope = (f1z - f0z) / s / s
    p_safe = np.maximum(p, _LIKELIHOOD_FLOOR)
    nll = -np.log(p_safe)
    return nll, -b * slope / p_safe, a * slope / p_safe, p


def nll_loss(params: NetworkParams, inputs, f0z, f1z, *,
             weight_decay: float = 0.0) -> float:
    """Mean negative log marginal likelihood plus the weight penalty.

    ``inputs`` are network inputs for the batch rows; ``f0z``/``f1z`` the
    null and alternative densities at those rows' statistics. The penalty
    is ``weight_decay`` times the squared weight norm (biases excluded).
    """
    X = np.asarray(inputs, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise DomainError("batch must be nonempty")
    f0z = np.asarray(f0z, dtype=np.float64).ravel()
    f1z = np.asarray(f1z, dtype=np.float64).ravel()
    a, b = forward(params, X)
    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    nll = _nll_terms(a, b, f0z, f1z)[0]
    if not np.all(np.isfinite(nll)):
        bad = int(np.flatnonzero(~np.isfinite(nll))[0])
        raise NumericError(f"non-finite likelihood at batch row {bad}")
    return float(nll.mean() + weight_decay * params.weight_norm2())


def _loss_and_grads(params: NetworkParams, X, f0z, f1z, weight_decay: float):
    """Loss plus its exact gradient."""
    a, b, cache = _forward_cached(params, X)
    nll, dn_da, dn_db, _ = _nll_terms(a, b, f0z, f1z)
    grads = backward(params, X, dn_da, dn_db, cache)
    for g, W in zip(grads.weights, params.weights):
        g += 2.0 * weight_decay * W
    loss = float(nll.mean()) + weight_decay * params.weight_norm2()
    return loss, grads, float(nll.mean())


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for fitting the covariate-adaptive model."""

    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 128
    weight_decay: float = 1e-4
    momentum: float = 0.9
    val_fraction: float = 0.2
    patience: int = 10
    lambda_grid_size: int = 1000
    seed: int = 0
    standardize: bool = True
    apply_stage2: bool = True
    f0_loc: float = 0.0
    f0_scale: float = 1.0
    f1_kernel_sd: float = 1.0
    f1_sweeps: int = 10

    def __post_init__(self):
        _check_types(self)
        if self.lr <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise DomainError("lr, epochs and batch_size must be positive")
        if self.weight_decay < 0 or not 0.0 <= self.momentum < 1.0:
            raise DomainError("invalid weight_decay or momentum")
        if not 0.0 < self.val_fraction < 1.0 or self.patience < 1:
            raise DomainError("invalid val_fraction or patience")
        if self.lambda_grid_size < 2 or self.f0_scale <= 0:
            raise DomainError("invalid lambda_grid_size or f0_scale")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        self.recursion  # RecursionConfig checks the f1 settings

    @property
    def recursion(self) -> RecursionConfig:
        """The settings of the alternative-density estimator."""
        return RecursionConfig(sweeps=self.f1_sweeps,
                               kernel_sd=self.f1_kernel_sd)


def _net_input(variant: str, table: HypothesisTable) -> np.ndarray:
    """Network input rows: the variant's blocks, side by side; a single
    block is passed as it is, without a copy."""
    blocks = [getattr(table, name) for name in VARIANTS[variant]]
    return blocks[0] if len(blocks) == 1 else np.hstack(blocks)


def _fit_seeds(seed: int) -> list[int]:
    """Seeds of a fit's density, split, initialization and batches, in
    that order, all derived from ``seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(4)]


@dataclass(eq=False)
class FittedModel:
    """Everything needed to score new rows and reproduce a fit."""

    variant: str
    net_params: NetworkParams
    regression: RegressionFit | None
    f1: MixtureDensity
    scaling: CovariateScaling | None
    config: TrainingConfig
    train_log: dict
    k: int
    q: int

    @property
    def pi1_hat(self) -> float:
        """The estimated share of alternatives, from ``train_log``."""
        return self.train_log["pi1_hat"]

    @property
    def covariate_blocks(self) -> tuple[str, ...]:
        """The table blocks scoring reads: ``Xa`` for the Stage II
        regression, otherwise the network's input (see ``VARIANTS``)."""
        if self.regression is not None:
            return ("Xa",)
        return VARIANTS[self.variant]

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT_TAG,
            "variant": self.variant,
            "network": self.net_params.to_dict(),
            "regression": self.regression.to_dict() if self.regression else None,
            "f1": self.f1.to_dict(),
            "scaling": (None if self.scaling is None
                        else self.scaling.to_dict()),
            "train_config": asdict(self.config),
            "train_log": self.train_log,
            "k": self.k,
            "q": self.q,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        """The model of a ``to_dict`` record of this format; a part that
        does not fit the record's ``k`` and ``q`` raises ``DomainError``."""
        if d.get("format") != MODEL_FORMAT_TAG:
            raise DomainError(f"unsupported model format {d.get('format')!r}")
        if d["variant"] not in VARIANTS:
            raise DomainError(f"variant must be one of {tuple(VARIANTS)}, "
                              f"not {d['variant']!r}")
        model = cls(
            variant=d["variant"],
            net_params=NetworkParams.from_dict(d["network"]),
            regression=(RegressionFit.from_dict(d["regression"])
                        if d["regression"] else None),
            f1=MixtureDensity.from_dict(d["f1"]),
            scaling=(None if d["scaling"] is None
                     else CovariateScaling.from_dict(d["scaling"])),
            config=TrainingConfig(**d["train_config"]),
            train_log=d["train_log"],
            k=d["k"], q=d["q"],
        )
        model._check_widths()
        return model

    def _check_widths(self):
        """Raise ``DomainError`` unless the network's input, the
        regression and the scaling all fit the model's ``k`` and ``q``."""
        k, q = self.k, self.q
        width = sum({"X": k, "Xa": q}[name] for name in VARIANTS[self.variant])
        if self.net_params.config.input_dim != width:
            raise DomainError(
                f"{self.variant} network needs input_dim {width} for "
                f"(k={k}, q={q}), got {self.net_params.config.input_dim}")
        if self.regression is not None and self.regression.delta_a.size != q:
            raise DomainError(f"regression needs q={q} coefficients per "
                              f"response, got {self.regression.delta_a.size}")
        s = self.scaling
        if s is not None:
            shapes = [v.shape for v in (s.x_center, s.x_scale,
                                        s.a_center, s.a_scale)]
            if shapes != [(k,), (k,), (q,), (q,)]:
                raise DomainError(f"scaling needs widths k={k}, k, q={q}, "
                                  f"q, got {shapes}")

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FittedModel":
        """Read a model file; a malformed one raises ``DomainError``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise DomainError(f"{path}: not a valid model file "
                              f"({type(err).__name__}: {err})") from None


def _floored_f0(z, loc, scale):
    return np.maximum(null_pdf(z, loc=loc, scale=scale), DENSITY_FLOOR)


def train(table: HypothesisTable, config: TrainingConfig = TrainingConfig(),
          variant: str = "neurt_a",
          hidden_sizes: tuple[int, ...] = NetworkConfig.hidden_sizes,
          ) -> FittedModel:
    """Fit the covariate-adaptive two-groups model.

    Pipeline: estimate the alternative density from all statistics, split
    rows into train/validation, optimize the network by mini-batch SGD
    with momentum on the closed-form marginal likelihood of the
    unadjusted parameter pairs (early stopping on validation NLL, best
    parameters restored), then fit the auxiliary regression once on the
    full table. ``hidden_sizes`` sets the network's hidden layers.
    Deterministic given ``config.seed``, from which every seed of the fit
    (density, split, initialization, batches) derives.
    """
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {tuple(VARIANTS)}")
    table.require(*COVARIATE_BLOCKS)
    s_density, s_split, s_init, s_batch = _fit_seeds(config.seed)

    scaling = None
    work = table
    if config.standardize:
        work, scaling = standardize_covariates(table)

    f1, pi1_hat = estimate_alternative(
        work.z, config=config.recursion, seed=s_density,
        f0_loc=config.f0_loc, f0_scale=config.f0_scale,
    )

    X_in = _net_input(variant, work)
    params = init_network(NetworkConfig(input_dim=X_in.shape[1],
                                        hidden_sizes=hidden_sizes),
                          seed=s_init)

    f0z = _floored_f0(work.z, config.f0_loc, config.f0_scale)
    f1z = eval_density(f1, work.z)

    n = work.n
    rng_split = np.random.default_rng(s_split)
    perm = rng_split.permutation(n)
    n_val = min(max(1, int(round(config.val_fraction * n))), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    val_rows = (X_in[val_idx], f0z[val_idx], f1z[val_idx])
    val_nll = nll_loss(params, *val_rows)
    train_nll = nll_loss(params, X_in[train_idx], f0z[train_idx],
                         f1z[train_idx])
    log_epochs = [{"epoch": 0, "train_nll": train_nll, "val_nll": val_nll}]
    best_val, best_epoch, best_params = val_nll, 0, params.copy()

    velocity = [np.zeros_like(arr) for arr in params.arrays()]
    rng_batch = np.random.default_rng(s_batch)
    stall = 0
    stop_reason = "epoch_cap"
    for epoch in range(1, config.epochs + 1):
        order = rng_batch.permutation(train_idx)
        batch_nlls = []
        for start in range(0, order.shape[0], config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grads, bare_nll = _loss_and_grads(
                params, X_in[batch], f0z[batch], f1z[batch],
                config.weight_decay,
            )
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch {start // config.batch_size}"
                )
            for v, g, arr in zip(velocity, grads.arrays(), params.arrays()):
                v *= config.momentum
                v -= config.lr * g
                arr += v
            batch_nlls.append(bare_nll)
        val_nll = nll_loss(params, *val_rows)
        log_epochs.append({
            "epoch": epoch,
            "train_nll": float(np.mean(batch_nlls)),
            "val_nll": val_nll,
        })
        if val_nll < best_val:
            best_val, best_epoch, best_params = val_nll, epoch, params.copy()
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                stop_reason = "patience"
                break

    params = best_params
    regression = None
    if work.q > 0 and config.apply_stage2:
        regression = fit_bivariate_ols(work.Xa, *forward(params, X_in))

    return FittedModel(
        variant=variant,
        net_params=params,
        regression=regression,
        f1=f1,
        scaling=scaling,
        config=config,
        train_log={
            "epochs": log_epochs,
            "best_epoch": best_epoch,
            "best_val_nll": best_val,
            "pi1_hat": pi1_hat,
            "stop_reason": stop_reason,
        },
        k=work.k, q=work.q,
    )


def beta_params_for(model: FittedModel, table: HypothesisTable) -> BetaParams:
    """Per-row Beta parameters a new table receives from a fitted model.

    With a Stage II regression the parameters come from it and ``Xa``
    alone, so the network is not run; without one they are the
    network's outputs. The table needs only ``model.covariate_blocks``.
    """
    if table.k != model.k or table.q != model.q:
        raise ShapeError(
            f"table has (k={table.k}, q={table.q}), model was fitted on "
            f"(k={model.k}, q={model.q})"
        )
    table.require(*model.covariate_blocks)
    work = model.scaling.apply(table) if model.scaling is not None else table
    if model.regression is not None:
        return adjust(model.regression, work.Xa)
    a, b = forward(model.net_params, _net_input(model.variant, work))
    return BetaParams(a=np.atleast_1d(a), b=np.atleast_1d(b))


def posteriors(model: FittedModel, table: HypothesisTable) -> np.ndarray:
    """Posterior alternative probability for every row of the table."""
    beta = beta_params_for(model, table)
    f0z = _floored_f0(table.z, model.config.f0_loc, model.config.f0_scale)
    f1z = eval_density(model.f1, table.z)
    gs = model.config.lambda_grid_size
    return np.atleast_1d(posterior_alt(beta.a, beta.b, f0z, f1z, grid_size=gs))


def select_discoveries(posterior, alpha: float) -> DiscoverySet:
    """Step-down selection on posterior alternative probabilities.

    Sorts the posteriors in descending order (ties by ascending original
    index) and rejects the largest prefix whose mean posterior null
    probability stays at or below ``alpha``.
    """
    w = np.asarray(posterior, dtype=np.float64).ravel()
    if w.size == 0:
        raise DomainError("posterior vector must be nonempty")
    if np.any(~np.isfinite(w)) or w.min() < 0.0 or w.max() > 1.0:
        raise DomainError("posteriors must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    order = np.argsort(-w, kind="stable")
    running_mean = np.cumsum(1.0 - w[order]) / np.arange(1, w.size + 1)
    ok = np.flatnonzero(running_mean <= alpha)
    m = int(ok[-1]) + 1 if ok.size else 0
    return DiscoverySet(rejected=np.sort(order[:m]), scores=w,
                        alpha=alpha, method="neurt")


def fdp_power(ds: DiscoverySet, h_truth) -> tuple[float, float, dict]:
    """Realized false discovery proportion and power against known truth.

    Empty rejection sets and truth vectors without alternatives follow
    the 0/0 -> 0 convention.
    """
    h = np.asarray(h_truth, dtype=np.int64).ravel()
    if h.shape[0] != ds.scores.shape[0]:
        raise ShapeError("truth vector length does not match the discovery set")
    if h.size and not np.all(np.isin(h, (0, 1))):
        raise DomainError("truth labels must be 0/1")
    m = ds.n_rejected
    tp = int(h[ds.rejected].sum())
    fp = m - tp
    n_alt = int(h.sum())
    fdp = fp / max(1, m)
    power = tp / max(1, n_alt)
    counts = {
        "n_rejected": m,
        "true_positives": tp,
        "false_positives": fp,
        "n_alternatives": n_alt,
    }
    return float(fdp), float(power), counts
