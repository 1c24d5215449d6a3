"""Problem-instance types, validation, and derived constants.

A market instance is one bond with rate ``r`` and one stock whose drift is a
random variable with finite support ``mu_1 < ... < mu_d`` and prior weights
``p_k``.  Everything downstream works with the normalized excess returns
``gamma_k = (mu_k - r) / sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonPositiveSigma(ValueError):
    """Volatility must be a finite positive number."""


class EmptySupport(ValueError):
    """The drift support must contain at least one point."""


class UnorderedDrifts(ValueError):
    """Drift support points must be strictly increasing (merge ties upstream)."""


class InvalidPrior(ValueError):
    """Prior weights must be positive and sum to 1 within 1e-9."""


class InvalidAlpha(ValueError):
    """Power coefficient outside the supported range for this operation."""


#: A prior whose weights sum to 1 within this tolerance is renormalized;
#: anything further off is rejected (config files carry rounded decimals).
PRIOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MarketModel:
    """Validated one-bond/one-stock market with finitely supported drift.

    Construct through :func:`new_market`; fields are immutable and the
    arrays are read-only, so instances are safe to share across workers.

    Attributes
    ----------
    r : float
        Interest rate per unit time.
    sigma : float
        Stock volatility, > 0.
    mus : np.ndarray
        Drift support, strictly increasing, shape (d,).
    prior : np.ndarray
        Prior weights, positive, summing to 1, shape (d,).
    gammas : np.ndarray
        Normalized excess returns (mus - r) / sigma, strictly increasing.
    """

    r: float
    sigma: float
    mus: np.ndarray
    prior: np.ndarray
    gammas: np.ndarray

    @property
    def d(self) -> int:
        """Number of drift support points."""
        return self.mus.size

    @property
    def asymptotics_valid(self) -> bool:
        """True iff r < mu_1, the hypothesis of the long-horizon limits."""
        return self.r < self.mus[0]


def _check_alpha(alpha: float) -> None:
    """Raise InvalidAlpha unless alpha is a finite number < 1; alpha = 0 is log utility."""
    if not np.isfinite(alpha) or alpha >= 1.0:
        raise InvalidAlpha(f"alpha must be a finite number < 1, got {alpha}")


@dataclass(frozen=True)
class StrategyQuery:
    """Evaluation point (t, T, y) for the feedback strategy.

    ``T = 0`` is legal only together with ``t = 0`` (degenerate horizon,
    handled by the closed form at maturity).
    """

    t: float
    T: float
    y: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t) and np.isfinite(self.T) and np.isfinite(self.y)):
            raise ValueError("query fields must be finite")
        if self.T < 0.0 or not 0.0 <= self.t <= self.T:
            raise ValueError(f"need 0 <= t <= T, got t={self.t}, T={self.T}")


def new_market(r, sigma, mus, prior) -> MarketModel:
    """Validate raw inputs and build a :class:`MarketModel`.

    The prior is renormalized when its sum is within ``PRIOR_SUM_TOL`` of 1
    and rejected otherwise.

    Raises
    ------
    NonPositiveSigma, EmptySupport, UnorderedDrifts, InvalidPrior
        One named error per violated invariant.
    """
    r = float(r)
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    mus_arr = np.asarray(mus, dtype=float).reshape(-1).copy()
    prior_arr = np.asarray(prior, dtype=float).reshape(-1).copy()
    if mus_arr.size == 0:
        raise EmptySupport("drift support is empty")
    if not np.all(np.isfinite(mus_arr)):
        raise UnorderedDrifts("drift values must be finite")
    if mus_arr.size > 1 and not np.all(np.diff(mus_arr) > 0.0):
        raise UnorderedDrifts(f"drift support must be strictly increasing, got {mus_arr.tolist()}")
    if prior_arr.size != mus_arr.size:
        raise InvalidPrior(
            f"prior length {prior_arr.size} does not match {mus_arr.size} drift values"
        )
    if not np.all(np.isfinite(prior_arr)) or np.any(prior_arr <= 0.0):
        raise InvalidPrior("prior weights must all be positive")
    total = float(prior_arr.sum())
    if abs(total - 1.0) > PRIOR_SUM_TOL:
        raise InvalidPrior(f"prior sums to {total!r}, more than {PRIOR_SUM_TOL} away from 1")
    prior_arr /= total
    gammas = (mus_arr - r) / sigma
    for arr in (mus_arr, prior_arr, gammas):
        arr.setflags(write=False)
    return MarketModel(r=r, sigma=sigma, mus=mus_arr, prior=prior_arr, gammas=gammas)


def merton_fraction(model: MarketModel, mu: float, alpha: float) -> float:
    """Optimal constant fraction (mu - r) / (sigma^2 (1 - alpha)) for known drift.

    Independent of time, horizon, and wealth.  Formed as gamma / (sigma (1 - alpha)),
    with ``MarketModel.gammas``' rounding of gamma, as u* is.
    """
    _check_alpha(alpha)
    return (mu - model.r) / model.sigma / (model.sigma * (1.0 - alpha))
