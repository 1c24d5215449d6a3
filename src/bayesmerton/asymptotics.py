"""Long-horizon limits, explicit lower bounds, and horizon sweeps.

Under the hypothesis r < mu_1 the optimal fraction converges as T grows:
towards the Merton ratio of the *largest* drift for alpha in (0, 1) and of
the *smallest* drift for alpha < 0, independently of the prior.  The
convergence comes with explicit lower bounds on the corresponding extreme
state weight (f_d resp. f_1); those bounds are implemented here so the
sandwich "bound <= quadrature value" is checkable at finite horizons.
Both read the filter: with b = 1/(1 - alpha) and the effective time
tau = (t - alpha T)/(1 - alpha), the Jensen bound on f_d is p_d^(b-1) times
the posterior weight of state d at (b tau, b y), and the pessimist bound's
second factor is the posterior weight of state 1 at a tilted observation.
The limit is :func:`~bayesmerton.model.merton_fraction` at the extreme
drift; the CLI writes a sweep's files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import _log_joint, log_normalizer, posterior_weights
from .model import InvalidAlpha, MarketModel, StrategyQuery, _check_alpha, merton_fraction
from .strategy import QuadratureConfig, _stabilized, evaluate_points


class HypothesisViolated(ValueError):
    """The long-horizon limits require r < mu_1."""


class InvalidLambda(ValueError):
    """Tilt parameter outside the admissible interval (1, (gamma_2/gamma_1 + 1)/2)."""


#: Relative gap below which a sweep row counts as converged to the limit.
#: An artifact choice for reporting, not a claim about convergence speed.
CONVERGENCE_GAP = 0.05


@dataclass(frozen=True)
class SweepResult:
    """u*(t, T, y) across horizons with gaps to the predicted limit.

    ``failed`` marks horizons whose quadrature did not converge (their
    u value is NaN); ``within_gap`` marks the successful horizons with
    gap/|limit| below CONVERGENCE_GAP.
    """

    horizons: np.ndarray
    u_values: np.ndarray
    limit: float
    gaps: np.ndarray
    within_gap: np.ndarray
    failed: np.ndarray


def limit_fraction(model: MarketModel, alpha: float) -> float:
    """Long-horizon limit of u*: best-drift Merton ratio for alpha in (0, 1),
    worst-drift Merton ratio for alpha < 0.  Independent of t, y, and prior.

    Raises
    ------
    HypothesisViolated
        If r >= mu_1.
    InvalidAlpha
        For alpha = 0 (the log-utility fraction is state-dependent and has
        no horizon limit of this form), or unless alpha is a finite number < 1.
    """
    _check_alpha(alpha)
    if alpha == 0.0:
        raise InvalidAlpha("alpha = 0: the logarithmic fraction does not depend on T")
    if not model.asymptotics_valid:
        raise HypothesisViolated(f"need r < mu_1, got r={model.r}, mu_1={model.mus[0]}")
    mu = model.mus[-1] if alpha > 0.0 else model.mus[0]
    return merton_fraction(model, float(mu), alpha)


def jensen_lower_bound_fd(
    model: MarketModel, alpha: float, t: float, T: float, y: float
) -> float:
    """Explicit lower bound on f_d(T, alpha) for alpha in (0, 1).

    The convexity chain bounds f_d from below by p_d^(b-1) times the filter
    posterior of state d at (b tau, b y), with b = 1/(1 - alpha) and the
    effective time tau = (t - alpha T)/(1 - alpha) at which
    ``strategy._stabilized`` reads the posterior.  Tends to p_d^(b-1) as T
    grows; saturates at 1 for d = 1.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"bound requires alpha in (0, 1), got {alpha}")
    if not 0.0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    b = 1.0 / (1.0 - alpha)
    tau = (t - alpha * T) / (1.0 - alpha)
    p_d = float(model.prior[-1])
    return p_d ** (b - 1.0) * float(posterior_weights(model, b * tau, b * y)[-1])


def admissible_lambda_interval(model: MarketModel) -> tuple[float, float]:
    """Open interval (1, (gamma_2/gamma_1 + 1)/2) of valid tilt parameters."""
    if model.d < 2:
        raise ValueError("the pessimist bound needs at least two drift states")
    if not model.asymptotics_valid:
        raise HypothesisViolated(
            f"need r < mu_1 for a positive gamma_1, got r={model.r}, mu_1={model.mus[0]}"
        )
    g1, g2 = float(model.gammas[0]), float(model.gammas[1])
    return 1.0, 0.5 * (g2 / g1 + 1.0)


def _pessimist_log_factors(
    model: MarketModel, alpha: float, t: float, T: float, y: float, lam: float | None
) -> tuple[float, float, float]:
    """(log factor1, log factor2, factor3) of the pessimist bound."""
    _check_alpha(alpha)
    if not alpha < 0.0:
        raise InvalidAlpha(f"bound requires alpha < 0, got {alpha}")
    if not 0.0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t}, T={T}")
    lo, hi = admissible_lambda_interval(model)
    if lam is None:
        lam = 0.5 * (lo + hi)
    if not lo < lam < hi:
        raise InvalidLambda(f"lambda must lie in ({lo}, {hi}), got {lam}")
    one_minus = 1.0 - alpha
    g1 = float(model.gammas[0])

    log_factor1 = float(_stabilized(model, alpha, t, T, y)[0][0]) / one_minus

    y_tilt = y + g1 * lam * (T - t)
    log_factor2 = float(_log_joint(model, T, y_tilt)[0]) - log_normalizer(model, T, y_tilt)

    z_cut = g1 * math.sqrt(T - t) * (lam - 1.0 / one_minus) * math.sqrt(one_minus)
    factor3 = 0.5 * math.erfc(-z_cut / math.sqrt(2.0))
    return log_factor1, log_factor2, factor3


def pessimist_lower_bound_f1(
    model: MarketModel,
    alpha: float,
    t: float,
    T: float,
    y: float,
    lam: float | None = None,
) -> float:
    """Explicit lower bound on f_1(T, alpha) for alpha < 0.

    Product of three factors, each tending to 1 as T grows: the stabilized
    weight p_hat_1(T)^(1/(1-alpha)), the posterior weight of state 1 at the
    tilted point y + gamma_1 lam (T - t), and a Gaussian tail probability.
    The exponential factors are carried in log domain.  ``lam`` defaults to
    the midpoint of the admissible interval.

    Raises
    ------
    InvalidLambda
        If lam lies outside (1, (gamma_2/gamma_1 + 1)/2).
    """
    log_f1, log_f2, f3 = _pessimist_log_factors(model, alpha, t, T, y, lam)
    return math.exp(log_f1 + log_f2) * f3


def horizon_sweep(
    model: MarketModel,
    alpha: float,
    t: float,
    y: float,
    horizons,
    quad: QuadratureConfig = QuadratureConfig(),
) -> SweepResult:
    """u*(t, T, y) across a horizon grid with gaps to the predicted limit.

    All horizons go through one batched evaluation that converges each row
    at its own node level, with the same doubling scheme as
    :func:`~bayesmerton.strategy.optimal_fraction`.  Rows whose quadrature
    fails to converge are flagged and carried as NaN; the other rows are
    unaffected.
    """
    horizons_arr = np.asarray(horizons, dtype=float).reshape(-1)
    if horizons_arr.size == 0:
        raise ValueError("horizons must be non-empty")
    if (
        not np.all(np.isfinite(horizons_arr))
        or np.any(horizons_arr <= 0.0)
        or np.any(np.diff(horizons_arr) <= 0.0)
    ):
        raise ValueError("horizons must be finite, positive and strictly increasing")
    StrategyQuery(t=t, T=float(horizons_arr[0]), y=y)  # needs finite t, y and 0 <= t <= T
    limit = limit_fraction(model, alpha)

    u_values, _, failed, _ = evaluate_points(model, alpha, t, horizons_arr, y, quad)
    gaps = np.abs(u_values - limit)
    with np.errstate(invalid="ignore"):
        within = (gaps / abs(limit) < CONVERGENCE_GAP) & ~failed
    for arr in (horizons_arr, u_values, gaps, within, failed):
        arr.setflags(write=False)
    return SweepResult(
        horizons=horizons_arr,
        u_values=u_values,
        limit=limit,
        gaps=gaps,
        within_gap=within,
        failed=failed,
    )


def default_horizons() -> np.ndarray:
    """Geometric grid 1, 2, 4, ... up to 1024."""
    return 2.0 ** np.arange(11)
