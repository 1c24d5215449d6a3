"""Optimal feedback fraction for the Bayesian power-utility investor.

The optimal fraction is a ratio of two Gaussian expectations,

    u*(t, T, y) = v*(t, T, y) / (sigma (1 - alpha)),
    v*          = E[F(T, y + W)^(a/(1-a)) sum_k p_k gamma_k L_T(mu_k, y + W)]
                  / E[F(T, y + W)^(1/(1-a))],        W ~ N(0, T - t),

and decomposes as v* = sum_k gamma_k f_k with f a probability vector over
drift states.  Evaluated naively, the integrands overflow doubles once
``gamma^2 T`` is a few hundred.  The engine therefore rewrites both
integrands in the scaled coordinate z = x / sqrt(T - t), where they become
powers of a normal mixture:

    F(T, y + z sqrt(T-t))^(1/(1-a)) phi_1(z)
        = (sum_k q_k(T) phi_k(z))^(1/(1-a)) / sqrt(2 pi),

with component densities phi_k = Normal(gamma_k sqrt(T-t) / (1-a), 1/(1-a))
and weights q_k(T) = p_k exp(gamma_k^2 (T a - t) / (2 (1-a)) + gamma_k y)
(up to a common constant that cancels in the ratio).  Raised to the power
1/(1-a), each component decays like a unit-variance Gaussian around its
mean, for every alpha < 1.  Quadrature therefore runs on per-component
panels of configurable half-width around those means, clipped at midpoints
between neighbours, with Gauss-Legendre nodes per panel and log-sum-exp
accumulation throughout, so no intermediate quantity leaves double range
even for horizons of 10^4 and |gamma| of 10.

The posterior state weights at the shifted observation y + z sqrt(T-t),
which the numerator needs, are the responsibilities q_k phi_k(z) / sum_j
q_j phi_j(z) of that same mixture, so the kernel gets them from the
log-sum-exp it already forms.  One evaluator, :func:`evaluate_points`,
serves every caller: it takes broadcast arrays of (t, T, y) points, sends
t = T and d = 1 to the closed form, and doubles the node count with a mask
per point, so each point stops at its own first level that agrees with the
previous one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import logsumexp, posterior, posterior_mean, posterior_weights
from .model import InvalidAlpha, MarketModel, StrategyQuery, UtilitySpec

#: Node-doubling ceiling per panel; a point reaching it without two
#: successive evaluations agreeing is flagged as not converged.
NODE_CAP = 1024

#: Working-set bound of the quadrature kernel in (point x node x state)
#: entries; larger chunks raise peak memory without running faster.
_CHUNK_ENTRIES = 16_384

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


class DegenerateHorizon(ValueError):
    """t = T has no stabilized mixture; use the maturity closed form."""


class QuadratureNotConverged(RuntimeError):
    """Successive node doublings kept moving u_star by more than rel_tol."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Gaussian-integral engine settings.

    ``nodes`` is the per-panel Gauss-Legendre order the doubling loop starts
    from, ``half_width`` the panel half-width in effective standard
    deviations, ``rel_tol`` the agreement target between successive node
    doublings.
    """

    nodes: int = 64
    half_width: float = 10.0
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.nodes < 8:
            raise ValueError(f"nodes must be >= 8, got {self.nodes}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")


@dataclass(frozen=True)
class StabilizedMixture:
    """Normalized log-weights and component parameters of the z-coordinate mixture."""

    log_weights: np.ndarray  # (d,), normalized: logsumexp == 0
    means: np.ndarray  # (d,), gamma_k sqrt(T-t) / (1-alpha)
    variance: float  # 1 / (1-alpha), shared by all components


@dataclass(frozen=True)
class StrategyValue:
    """Optimal fraction with its drift-state decomposition.

    ``u_star = v_star / (sigma (1-alpha))``, ``v_star = sum_k gamma_k f[k]``
    with f a probability vector; ``hedging = u_star - myopic`` where myopic
    is the posterior-mean Merton term.
    """

    u_star: float
    v_star: float
    f: np.ndarray
    myopic: float
    hedging: float


@dataclass(frozen=True)
class McFraction:
    """Monte Carlo estimate of u_star with a delta-method standard error."""

    estimate: float
    std_error: float
    n_samples: int


def _power_check(alpha: float) -> UtilitySpec:
    util = UtilitySpec(alpha)
    if util.is_log:
        raise InvalidAlpha("alpha = 0 is the logarithmic case; use log_utility_fraction")
    return util


def _stabilized(model: MarketModel, alpha: float, t, T, y) -> tuple[np.ndarray, np.ndarray]:
    """Normalized log-weights and means of the z-coordinate mixture; shape (..., d) each."""
    one_minus = 1.0 - alpha
    gam = model.gammas
    t_col = np.asarray(t, dtype=float)[..., None]
    T_col = np.asarray(T, dtype=float)[..., None]
    log_q = (
        np.log(model.prior)
        + 0.5 * gam * gam * (T_col * alpha - t_col) / one_minus
        + gam * np.asarray(y, dtype=float)[..., None]
    )
    means = gam * np.sqrt(T_col - t_col) / one_minus
    return log_q - logsumexp(log_q)[..., None], means


def stable_integrand_weights(
    model: MarketModel, alpha: float, t: float, T: float, y: float
) -> StabilizedMixture:
    """Mixture weights and component parameters of the stabilized integrands.

    Log-weights are normalized by max-shift; the common constant dropped in
    the normalization cancels in every ratio the weights feed into.

    Raises
    ------
    DegenerateHorizon
        If t = T; the caller must use the maturity closed form instead.
    """
    _power_check(alpha)
    if t == T:
        raise DegenerateHorizon("t = T: use the posterior-mean Merton closed form")
    if not 0.0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t}, T={T}")
    log_w, means = _stabilized(model, alpha, t, T, y)
    for arr in (log_w, means):
        arr.setflags(write=False)
    return StabilizedMixture(log_weights=log_w, means=means, variance=1.0 / (1.0 - alpha))


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    rule = _leggauss_cache.get(n)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(n)
        _leggauss_cache[n] = rule
    return rule


def _fk_level(
    model: MarketModel,
    alpha: float,
    t: np.ndarray,
    T: np.ndarray,
    y: np.ndarray,
    n_nodes: int,
    half_width: float,
) -> np.ndarray:
    """Single-level quadrature of f at points with t < T (1-D arrays); shape (P, d).

    Each point gets one Gauss-Legendre panel of ``n_nodes`` nodes per mixture
    mean, of the given half-width and clipped at the midpoint towards each
    neighbour, so panels never overlap; the omitted inter-panel gaps only
    ever hold integrand mass below exp(-half_width^2/2) of the peak.  All
    sums of positive terms run as log-sum-exp; f_k leaves the log domain only
    at the very end.  Points are processed in chunks of at most
    _CHUNK_ENTRIES (point x node x state) entries.
    """
    x, w = _legendre_rule(n_nodes)
    one_minus = 1.0 - alpha
    chunk = max(1, _CHUNK_ENTRIES // (model.d * n_nodes * model.d))
    out = np.empty((t.size, model.d))
    for lo in range(0, t.size, chunk):
        part = slice(lo, lo + chunk)
        log_p, means = _stabilized(model, alpha, t[part], T[part], y[part])  # (P, d)
        a = means - half_width
        b = means + half_width
        mid = 0.5 * (means[:, :-1] + means[:, 1:])
        a[:, 1:] = np.maximum(a[:, 1:], mid)
        b[:, :-1] = np.minimum(b[:, :-1], mid)
        half = (0.5 * (b - a))[..., None]
        z = (half * x + 0.5 * (a + b)[..., None]).reshape(means.shape[0], -1)  # (P, K)
        log_w = np.log(half * w).reshape(z.shape)

        # log of p_k phi_k(z) up to a term shared by all k and z, which cancels in f
        joint = log_p[:, None, :] - 0.5 * one_minus * (z[..., None] - means[:, None, :]) ** 2
        log_mix = logsumexp(joint)  # (P, K)
        # stabilized integrand (mixture)^(1/(1-alpha)) times the node weight
        node = log_w + log_mix / one_minus
        # joint - log_mix are the responsibilities: the posterior state
        # weights at the shifted observation y + z sqrt(T - t)
        joint += (node - log_mix)[..., None]
        out[part] = np.exp(logsumexp(joint, axis=1) - logsumexp(node)[:, None])
    return out


def evaluate_points(
    model: MarketModel,
    alpha: float,
    t,
    T,
    y,
    quad: QuadratureConfig = QuadratureConfig(),
    doubling: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u*, f and a failure flag at broadcast arrays of points (t, T, y).

    Points with t = T, and all points when d = 1, take the posterior-mean
    Merton closed form (degenerate Gaussians break node placement).  The
    rest run the quadrature.  With ``doubling``, the per-panel node count
    doubles from ``quad.nodes`` and each point stops at its own first level
    whose u* agrees with the previous level's to ``quad.rel_tol``; the finer
    value wins.  Points still moving at the node cap keep NaN and come back
    flagged.  Without ``doubling``, every point gets the single level
    ``quad.nodes`` and none is flagged.

    Returns ``(u, f, failed)`` with shapes ``(...)``, ``(..., d)``, ``(...)``.

    Raises
    ------
    ValueError
        Unless every point has finite 0 <= t <= T.
    """
    _power_check(alpha)
    t, T, y = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, T, y)))
    if not np.all(np.isfinite(T) & (0.0 <= t) & (t <= T)):
        raise ValueError("need finite 0 <= t <= T at every point")
    shape = t.shape
    t, T, y = t.reshape(-1), T.reshape(-1), y.reshape(-1)
    gam = model.gammas
    scale = model.sigma * (1.0 - alpha)
    f = np.full((t.size, model.d), np.nan)
    failed = np.zeros(t.size, dtype=bool)

    closed = (t == T) | (model.d == 1)
    # L_0 = 1: at T = 0 the weights are the prior for any y
    T_c = T[closed]
    f[closed] = posterior_weights(model, T_c, np.where(T_c == 0.0, 0.0, y[closed]))

    # roundoff floor: doubling cannot settle below summation noise
    atol = 1e-13 * (np.abs(gam).max() / scale + 1.0)
    cap = max(NODE_CAP, 2 * quad.nodes)
    todo = np.flatnonzero(~closed)
    n = quad.nodes
    u_prev = None
    while todo.size:
        f_n = _fk_level(model, alpha, t[todo], T[todo], y[todo], n, quad.half_width)
        u_n = f_n @ gam / scale
        if u_prev is None:
            done = np.full(todo.size, not doubling)
        else:
            done = np.abs(u_n - u_prev) <= quad.rel_tol * np.maximum(
                np.abs(u_n), np.abs(u_prev)
            ) + atol
        f[todo[done]] = f_n[done]
        todo, u_prev = todo[~done], u_n[~done]
        if n >= cap:
            failed[todo] = True
            break
        n *= 2
    u = f @ gam / scale
    return u.reshape(shape), f.reshape(shape + (model.d,)), failed.reshape(shape)


def optimal_fraction(
    model: MarketModel,
    alpha: float,
    query: StrategyQuery,
    quad: QuadratureConfig = QuadratureConfig(),
) -> StrategyValue:
    """Optimal feedback fraction u*(t, T, y) with its f decomposition.

    Doubles the per-panel node count, starting from ``quad.nodes``, until two
    successive u* values agree to ``quad.rel_tol``; the finer value wins.
    t = T and d = 1 short-circuit to the posterior-mean Merton closed form
    before any quadrature (degenerate Gaussians break node placement).

    Raises
    ------
    InvalidAlpha
        For alpha >= 1 or alpha = 0.
    QuadratureNotConverged
        If the node cap is hit before two levels agree.
    """
    u, f, failed = evaluate_points(model, alpha, query.t, query.T, query.y, quad)
    if failed:
        raise QuadratureNotConverged(f"u_star did not settle to rel_tol {quad.rel_tol}")
    u = float(u)
    if model.d == 1 or query.t == query.T:
        myopic = u
    else:
        myopic = (posterior_mean(model, query.t, query.y) - model.r) / (
            model.sigma**2 * (1.0 - alpha)
        )
    f.setflags(write=False)
    return StrategyValue(
        u_star=u, v_star=float(f @ model.gammas), f=f, myopic=myopic, hedging=u - myopic
    )


def optimal_fraction_grid(
    model: MarketModel,
    alpha: float,
    t: float,
    T: float,
    y_values: np.ndarray,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Vectorized u*(t, T, y) over an array of y values.

    Same doubling scheme as :func:`optimal_fraction`, converged point by
    point: each y stops at its own first agreeing level, so every value
    equals the scalar call at that y.

    Raises
    ------
    QuadratureNotConverged
        If any point hits the node cap before two levels agree.
    """
    y_arr = np.asarray(y_values, dtype=float).reshape(-1)
    u, _, failed = evaluate_points(model, alpha, t, T, y_arr, quad)
    if failed.any():
        raise QuadratureNotConverged(
            f"{int(failed.sum())} of {y_arr.size} grid points did not settle to "
            f"rel_tol {quad.rel_tol}"
        )
    return u


def log_utility_fraction(model: MarketModel, t: float, y: float) -> float:
    """Optimal fraction under logarithmic utility: (mu_hat(t, y) - r) / sigma^2.

    Independent of the horizon.
    """
    return (posterior_mean(model, t, y) - model.r) / model.sigma**2


def fk_profile(
    model: MarketModel,
    alpha_grid,
    T: float,
    t: float,
    y: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Matrix of f_k(T, alpha) values, one row per alpha in the grid.

    Every row sums to 1; along increasing alpha, f_d is nondecreasing and
    f_1 nonincreasing.
    """
    alphas = np.asarray(alpha_grid, dtype=float).reshape(-1)
    out = np.empty((alphas.size, model.d))
    query = StrategyQuery(t=t, T=T, y=y)
    for i, a in enumerate(alphas):
        out[i] = optimal_fraction(model, float(a), query, quad).f
    return out


def mc_fraction(
    model: MarketModel,
    alpha: float,
    query: StrategyQuery,
    n_samples: int,
    seed: int,
) -> McFraction:
    """Monte Carlo estimate of u*(t, T, y), the quadrature's independent oracle.

    Forms the self-normalized ratio of the two defining expectations over
    W ~ N(0, T - t).  Because the numerator integrand equals the denominator
    integrand times the bounded posterior-weighted gamma average, the ratio
    is a weighted mean of values in [gamma_1, gamma_d]; the standard error
    comes from the usual ratio linearization.

    The denominator expectation is dominated by tilted samples around
    W = gamma_k (T - t) / (1 - alpha), which plain sampling never reaches
    once that is more than a few standard deviations out.  Draws therefore
    come from a defensive mixture proposal, equal weights over N(0, T - t)
    and its d single-Gaussian tilts, with explicit importance weights.
    """
    _power_check(alpha)
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    one_minus = 1.0 - alpha
    gam = model.gammas
    var = query.T - query.t
    scale = model.sigma * one_minus

    if var == 0.0:
        probs = posterior(model, query.T, query.y).probs
        return McFraction(
            estimate=float(probs @ gam) / scale,
            std_error=0.0,
            n_samples=n_samples,
        )

    rng = np.random.default_rng(seed)
    centers = np.concatenate(([0.0], gam * var / one_minus))
    comp = rng.integers(0, centers.size, size=n_samples)
    w_draw = centers[comp] + np.sqrt(var) * rng.standard_normal(n_samples)
    # log of phi_var(w) / proposal(w); the 1/(d+1) proposal weight and the
    # shared normal constant cancel inside the ratio estimator
    sq = (w_draw[:, None] - centers) ** 2 / (2.0 * var)
    log_is = -(w_draw**2) / (2.0 * var) - logsumexp(-sq) - np.log(centers.size)

    x = query.y + w_draw
    log_lik = np.log(model.prior) + gam * x[:, None] - 0.5 * gam * gam * query.T
    log_F = logsumexp(log_lik)
    v = np.exp(log_lik - log_F[:, None]) @ gam  # bounded in [gamma_1, gamma_d]

    log_B = log_F / one_minus + log_is
    log_B -= log_B.max()
    b = np.exp(log_B)
    b_total = b.sum()
    v_hat = float((b * v).sum() / b_total)
    resid = v - v_hat
    var_v = float((b * b * resid * resid).sum() / b_total**2)
    return McFraction(
        estimate=v_hat / scale,
        std_error=float(np.sqrt(var_v)) / scale,
        n_samples=n_samples,
    )
