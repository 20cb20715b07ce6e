"""Feed-forward network mapping covariates to Beta shape parameters.

The two output units pass through an overflow-safe soft-plus plus a small
positive floor, so the emitted pair is always a valid Beta
parameterization. Forward, reverse-mode gradients and a finite-difference
checker are implemented directly on numpy arrays; training never needs a
framework.

``_forward_cached`` is the one home of the arithmetic. Its cache, each
layer's input and the output pre-activation, is all that ``backward``
reads, so an SGD step runs forward once. ``forward``, the pass over
whole tables, runs it one row block at a time and drops each cache, so
it holds one block's activations instead of every row's. A block's
products equal the full-size products bit for bit as long as each row is
computed by the same BLAS kernel in the same place of its tile. OpenBLAS
runs a product of at most ``_SMALL_GEMM`` multiply-adds through a
small-matrix kernel that rounds differently, numpy sends a one-row
product to ``gemv``, and the rows left over after the last full tile of
a product round differently too. So each block is large enough for the
large kernel and starts on a tile boundary, and a table too small for
two such blocks is one block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DomainError, NumericError, ShapeError

_FORMAT_TAG = "fdrkit-net-v1"
# OpenBLAS (0.3.31, SkylakeX kernels) runs a product of at most this many
# multiply-adds (rows x fan_in x fan_out) through a small-matrix kernel,
# which rounds differently from the kernel of a larger product
_SMALL_GEMM = 100 ** 3
# ``forward``'s blocks start on multiples of this many rows, so their rows
# fill the kernel's row tiles (12 rows there) as in the full product
_ROW_TILE = 48


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of the covariate network.

    ``output_floor`` is added to both soft-plus heads. Besides keeping
    the emitted pair strictly positive, it bounds the prior concentration
    a+b from below; the marginal likelihood is linear in the mixing
    weight and therefore never identifies the concentration, so the floor
    is what keeps the fitted priors away from the degenerate spike-at-0/1
    regime where posteriors stop responding to the data.
    """

    input_dim: int
    hidden_sizes: tuple[int, ...] = (200, 200)
    activation: str = "relu"
    output_floor: float = 1.0
    init_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if self.input_dim < 1:
            raise DomainError("input_dim must be >= 1")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise DomainError("hidden_sizes must be nonempty positive integers")
        if self.activation != "relu":
            raise DomainError(f"unsupported activation {self.activation!r}")
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
            "format": _FORMAT_TAG,
            "config": asdict(self.config),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkParams":
        if d.get("format") != _FORMAT_TAG:
            raise DomainError(f"unsupported network format {d.get('format')!r}")
        return cls(
            config=NetworkConfig(**d["config"]),
            weights=[np.array(w, dtype=np.float64) for w in d["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in d["biases"]],
        )


def init_network(config: NetworkConfig, seed: int | None = None) -> NetworkParams:
    """Initialize weights uniformly in +-1/sqrt(fan_in); biases zero.

    Deterministic given the seed (``config.init_seed`` when not passed).
    """
    rng = np.random.default_rng(config.init_seed if seed is None else seed)
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


def _block_edges(params: NetworkParams, n: int) -> list[int]:
    """Row offsets of ``forward``'s blocks.

    A block has the fewest rows, in whole ``_ROW_TILE``s, that keep every
    layer's product above ``_SMALL_GEMM`` (2544 for a 200,200 network
    with at least two inputs), and a shorter tail joins the block before
    it. A table of fewer than two blocks' rows is one block.
    """
    rows = _SMALL_GEMM // min(W.size for W in params.weights) + 1
    rows = -(-rows // _ROW_TILE) * _ROW_TILE
    return [*range(0, max(n - rows, 0) + 1, rows), n]


def forward(params: NetworkParams, x):
    """Map covariates to a strictly positive Beta parameter pair.

    Accepts a single vector or an (n, input_dim) batch; returns floats
    or a pair of arrays accordingly. Runs ``_forward_cached`` on each row
    block of ``_block_edges`` and binds no cache, so beyond its inputs
    and outputs it holds one block's activations, whatever n. The outputs
    are bit-identical to one pass over every row (see the module docstring).
    """
    X, single = _as_batch(params, x)
    a, b = np.empty(X.shape[0]), np.empty(X.shape[0])
    edges = _block_edges(params, X.shape[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        a[lo:hi], b[lo:hi] = _forward_cached(params, X[lo:hi])[:2]
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
    delta = np.column_stack((ga * expit(out[:, 0]), gb * expit(out[:, 1])))

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
