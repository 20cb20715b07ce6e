"""Covariate-adaptive false discovery rate control.

A two-groups mixture model whose per-test Beta prior comes from a
feed-forward network on test-level covariates, adjusted by a bivariate
regression on auxiliary covariates; plus BH/Storey baselines, a
synthetic benchmark with known ground truth, and a CLI.
"""

__version__ = "0.1.0"

from .aux_adjust import BetaParams, RegressionFit, adjust, fit_bivariate_ols
from .baselines import DiscoverySet, bh, storey_bh, z_to_pvalue
from .data_model import (
    CovariateScaling,
    HypothesisTable,
    load_table,
    standardize_covariates,
    write_table,
)
from .densities import (
    MixtureDensity,
    RecursionConfig,
    estimate_alternative,
    eval_density,
    null_pdf,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    FdrkitError,
    InsufficientDataError,
    NumericError,
    SchemaError,
    ShapeError,
    TableParseError,
    TableValidationError,
    TrainingError,
)
from .prior_net import (
    NetworkConfig,
    NetworkParams,
    backward,
    forward,
    grad_check,
    init_network,
    softplus,
)
from .synthetic import SCENARIOS, ScenarioConfig, generate, scenario_config
from .two_groups import (
    FittedModel,
    TrainingConfig,
    beta_params_for,
    fdp_power,
    marginal_likelihood,
    nll_loss,
    posterior_alt,
    posteriors,
    select_discoveries,
    train,
)

__all__ = [
    "__version__",
    "BetaParams", "RegressionFit", "adjust", "fit_bivariate_ols",
    "DiscoverySet", "bh", "storey_bh", "z_to_pvalue",
    "CovariateScaling", "HypothesisTable",
    "load_table", "standardize_covariates", "write_table",
    "MixtureDensity", "RecursionConfig",
    "estimate_alternative", "eval_density", "null_pdf",
    "DegenerateInputError", "DomainError", "FdrkitError",
    "InsufficientDataError", "NumericError", "SchemaError", "ShapeError",
    "TableParseError", "TableValidationError", "TrainingError",
    "NetworkConfig", "NetworkParams", "backward", "forward",
    "grad_check", "init_network", "softplus",
    "SCENARIOS", "ScenarioConfig", "generate", "scenario_config",
    "FittedModel", "TrainingConfig", "beta_params_for", "fdp_power",
    "marginal_likelihood", "nll_loss", "posterior_alt", "posteriors",
    "select_discoveries", "train",
]
