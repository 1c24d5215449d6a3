"""Bayesian one-stock portfolio choice: filter, optimal fraction, asymptotics, simulation."""

from .model import (
    EmptySupport,
    InvalidAlpha,
    InvalidPrior,
    MarketModel,
    NonPositiveSigma,
    StrategyQuery,
    UnorderedDrifts,
    merton_fraction,
    new_market,
)
from .filtering import (
    FilterPath,
    StepTooLarge,
    log_normalizer,
    posterior_weights,
    simulate_filter_sde,
)
from .strategy import (
    QuadratureConfig,
    QuadratureNotConverged,
    StrategyValue,
    log_utility_fraction,
    optimal_fraction,
)
from .asymptotics import (
    HypothesisViolated,
    InvalidLambda,
    SweepResult,
    horizon_sweep,
    jensen_lower_bound_fd,
    limit_fraction,
    pessimist_lower_bound_f1,
)
from .simkit import (
    CacheProbeFailed,
    CachedStrategy,
    build_feedback_strategy,
    optimality_check,
    terminal_wealth,
)

__all__ = [
    "EmptySupport",
    "InvalidAlpha",
    "InvalidPrior",
    "MarketModel",
    "NonPositiveSigma",
    "StrategyQuery",
    "UnorderedDrifts",
    "merton_fraction",
    "new_market",
    "FilterPath",
    "StepTooLarge",
    "log_normalizer",
    "posterior_weights",
    "simulate_filter_sde",
    "QuadratureConfig",
    "QuadratureNotConverged",
    "StrategyValue",
    "log_utility_fraction",
    "optimal_fraction",
    "HypothesisViolated",
    "InvalidLambda",
    "SweepResult",
    "horizon_sweep",
    "jensen_lower_bound_fd",
    "limit_fraction",
    "pessimist_lower_bound_f1",
    "CacheProbeFailed",
    "CachedStrategy",
    "build_feedback_strategy",
    "optimality_check",
    "terminal_wealth",
]
