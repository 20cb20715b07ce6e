"""Feed-forward network mapping covariates to Beta shape parameters.

The two output units pass through an overflow-safe soft-plus plus a small
positive floor, so the emitted pair is always a valid Beta
parameterization. Forward, reverse-mode gradients and a finite-difference
checker are implemented directly on numpy arrays; training never needs a
framework.

``_forward_cached`` is the one home of the arithmetic. Its cache, each
layer's input and the output pre-activation, is all that ``backward``
reads, so an SGD step runs forward once. ``forward``, the pass over
whole tables, runs it on consecutive slices of ``_BLOCK_ROWS`` rows and
drops each cache, so it holds one block's activations instead of every
row's. A table of at most ``_BLOCK_ROWS`` rows is one slice, so one
pass. A larger table's outputs can differ from one pass over every row
in the last bits, because BLAS may round a block's matrix product
differently from the whole table's.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_model import _check_types
from .errors import DomainError, NumericError, ShapeError

#: rows per slice of ``forward``; bounds its working memory to one
#: block's activations
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of the covariate network: ReLU hidden layers of
    ``hidden_sizes`` units and two soft-plus output heads.

    ``output_floor`` is added to both soft-plus heads. Besides keeping
    the emitted pair strictly positive, it bounds the prior concentration
    a+b from below; the marginal likelihood is linear in the mixing
    weight and therefore never identifies the concentration, so the floor
    is what keeps the fitted priors away from the degenerate spike-at-0/1
    regime where posteriors stop responding to the data.
    """

    input_dim: int
    hidden_sizes: tuple[int, ...] = (200, 200)
    output_floor: float = 1.0

    def __post_init__(self):
        if isinstance(self.hidden_sizes, Iterable):
            object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        _check_types(self)
        if self.input_dim < 1:
            raise DomainError("input_dim must be >= 1")
        sizes = self.hidden_sizes
        if not isinstance(sizes, tuple) or not sizes or any(
                isinstance(h, bool) or not isinstance(h, numbers.Integral)
                or h < 1 for h in sizes):
            raise DomainError("hidden_sizes must be nonempty positive "
                              f"integers, not {sizes!r}")
        if self.output_floor <= 0:
            raise DomainError("output_floor must be positive")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_sizes, 2)


@dataclass(eq=False)
class NetworkParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    config: NetworkConfig
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def n_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def weight_norm2(self) -> float:
        """Squared norm of all weight matrices (biases excluded)."""
        return sum(float((w ** 2).sum()) for w in self.weights)

    def arrays(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkParams":
        """The network of a ``to_dict`` record; a weight or bias whose
        shape disagrees with the config's ``layer_dims`` raises
        ``DomainError``."""
        params = cls(
            config=NetworkConfig(**d["config"]),
            weights=[np.array(w, dtype=np.float64) for w in d["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in d["biases"]],
        )
        dims = params.config.layer_dims
        want = (list(zip(dims[:-1], dims[1:])), [(n,) for n in dims[1:]])
        got = ([w.shape for w in params.weights],
               [b.shape for b in params.biases])
        if got != want:
            raise DomainError(f"network of layer sizes {dims} needs weight "
                              f"and bias shapes {want}, got {got}")
        return params


def init_network(config: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Initialize weights uniformly in +-1/sqrt(fan_in); biases zero.

    Deterministic given ``seed``.
    """
    rng = np.random.default_rng(seed)
    dims = config.layer_dims
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(config=config, weights=weights, biases=biases)


def softplus(u):
    """ln(1 + e^u), evaluated without overflow for large |u|."""
    return np.logaddexp(0.0, u)


def _exp(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def expit(x) -> np.ndarray:
    """The logistic sigmoid 1/(1 + e^-x), elementwise, as an array.

    e^-x comes from the C library's ``exp`` (``math.exp``), as in
    ``scipy.special.expit``, whose values this reproduces bit for bit;
    numpy's own ``exp`` differs from it by one ulp on some inputs. Where
    e^-x overflows it is infinite, so the result is exactly 0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.fromiter(map(_exp, (-x).ravel().tolist()), np.float64, x.size)
    return 1.0 / (1.0 + e.reshape(x.shape))


def _as_batch(params: NetworkParams, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        got = x.shape[-1] if x.ndim else 0  # a scalar or None has none
        raise ShapeError(
            f"input has {got} features, network expects "
            f"{params.config.input_dim}"
        )
    return x, single


def _forward_cached(params: NetworkParams, X: np.ndarray):
    """Forward pass returning ``(a, b, cache)``, the cache for ``backward``.

    ``cache`` is ``(acts, out)``: each layer's input, ``X`` first, and
    the output layer's pre-activation.
    """
    h = X
    acts = []
    n_layers = len(params.weights)
    for layer, (W, bias) in enumerate(zip(params.weights, params.biases)):
        acts.append(h)
        h = h @ W
        h += bias
        if layer < n_layers - 1:
            np.maximum(h, 0.0, out=h)
    floor = params.config.output_floor
    a = softplus(h[:, 0]) + floor
    b = softplus(h[:, 1]) + floor
    return a, b, (acts, h)


def forward(params: NetworkParams, x):
    """Map covariates to a strictly positive Beta parameter pair.

    Accepts a single vector or an (n, input_dim) batch; returns floats
    or a pair of arrays accordingly. Runs ``_forward_cached`` on each
    slice of ``_BLOCK_ROWS`` rows and binds no cache, so beyond its
    inputs and outputs it holds one block's activations, whatever n (see
    the module docstring).
    """
    X, single = _as_batch(params, x)
    n = X.shape[0]
    a, b = np.empty(n), np.empty(n)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        a[rows], b[rows] = _forward_cached(params, X[rows])[:2]
    if single:
        return float(a[0]), float(b[0])
    return a, b


def backward(params: NetworkParams, x, grad_a, grad_b, cache) -> NetworkParams:
    """Mean-over-batch gradient of ``sum_i upstream_i . outputs_i``.

    ``grad_a``/``grad_b`` are d(loss)/d(a_i), d(loss)/d(b_i) per batch
    row; the returned structure matches ``params`` and holds
    mean_i upstream_i * d(outputs_i)/d(theta), i.e. the gradient of a
    mean-reduced loss when the upstream terms are per-example.
    ``cache`` is what ``_forward_cached(params, x)`` returned for this
    batch. A hidden layer's input is a ReLU's output, positive exactly
    where the ReLU passes gradient; a cache of other rows raises
    ``ShapeError``.
    """
    X, _ = _as_batch(params, x)
    ga = np.asarray(grad_a, dtype=np.float64).ravel()
    gb = np.asarray(grad_b, dtype=np.float64).ravel()
    if ga.shape[0] != X.shape[0] or gb.shape[0] != X.shape[0]:
        raise ShapeError("upstream gradient length must match the batch")
    if not (np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))):
        raise NumericError("non-finite upstream gradient")
    acts, out = cache
    if not np.array_equal(acts[0], X):
        raise ShapeError("forward cache was built from a different batch")

    B = X.shape[0]
    # d softplus(u)/du = sigmoid(u); the floor is an additive constant
    delta = np.column_stack((ga, gb)) * expit(out)

    n_layers = len(params.weights)
    weights, biases = [None] * n_layers, [None] * n_layers
    for layer in range(n_layers - 1, -1, -1):
        weights[layer] = acts[layer].T @ delta / B
        biases[layer] = delta.mean(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (acts[layer] > 0.0)
    return NetworkParams(config=params.config, weights=weights, biases=biases)


def grad_check(params: NetworkParams, loss_fn, h: float = 1e-5,
               max_coords: int = 10_000, seed: int = 0) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(params) -> (loss, grads)`` must be deterministic. Every
    coordinate is checked, or a seeded random subset when the parameter
    count exceeds ``max_coords``. Returns the maximum relative error with
    denominator max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise DomainError("finite-difference step must be positive")
    _, grads = loss_fn(params)
    work = params.copy()
    total = params.n_parameters()
    if total > max_coords:
        rng = np.random.default_rng(seed)
        chosen = set(rng.choice(total, size=max_coords, replace=False).tolist())
    else:
        chosen = None

    worst = 0.0
    coord = 0
    for arr, garr in zip(work.arrays(), grads.arrays()):
        flat = arr.reshape(-1)
        gflat = garr.reshape(-1)
        for i in range(flat.size):
            if chosen is not None and coord not in chosen:
                coord += 1
                continue
            coord += 1
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_fn(work)
            flat[i] = orig - h
            lm, _ = loss_fn(work)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = gflat[i]
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, err)
    return worst
