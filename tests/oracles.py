"""Independent oracles and random instance generators shared by the tests.

Everything here deliberately avoids the package's stabilized code paths:
the naive evaluator works on the literal integrands with plain products,
the Monte Carlo oracle samples the two defining expectations with its own
log-sum-exp and imports nothing from ``bayesmerton.strategy``, the lower
bounds are their likelihood exponents expanded by hand and evaluated in
mpmath, and the random market generator only uses the public constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from bayesmerton import (
    InvalidAlpha,
    MarketModel,
    StepTooLarge,
    StrategyQuery,
    new_market,
    posterior_weights,
)
from bayesmerton.filtering import _EULER_FLOOR, _EULER_GUARD, _time_grid


@lru_cache(maxsize=4)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def naive_ratio_u(
    model: MarketModel, alpha: float, t: float, T: float, y: float, n_nodes: int = 4000
) -> float:
    """Literal quadrature of the defining ratio, no log-domain tricks.

    Dense Gauss-Legendre over a window covering the tilted mass of both
    integrands.  Returns NaN/inf when the direct products leave double
    range; callers decide representability from that.
    """
    om = 1.0 - alpha
    beta = 1.0 / om
    var = T - t
    gam = model.gammas
    centers = np.concatenate(([0.0], beta * gam * var))
    lo = centers.min() - 12.0 * np.sqrt(var)
    hi = centers.max() + 12.0 * np.sqrt(var)
    x, w = _legendre(n_nodes)
    x = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        L = np.exp(gam * (y + x[:, None]) - 0.5 * gam * gam * T)
        F = L @ model.prior
        S = L @ (model.prior * gam)
        phi = np.exp(-x * x / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
        num = float(np.sum(w * F ** (alpha / om) * S * phi))
        den = float(np.sum(w * F**beta * phi))
        return num / den / (model.sigma * om)


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    top = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.sum(np.exp(a - top), axis=axis))


@dataclass(frozen=True)
class McFraction:
    """Monte Carlo estimate of u_star with a delta-method standard error."""

    estimate: float
    std_error: float
    n_samples: int


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
    It rejects the log case alpha = 0, whose fraction is the closed form
    ``log_utility_fraction`` with nothing to estimate.
    """
    if alpha == 0.0:
        raise InvalidAlpha("alpha = 0 is the logarithmic case; use log_utility_fraction")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    one_minus = 1.0 - alpha
    gam = model.gammas
    var = query.T - query.t
    scale = model.sigma * one_minus

    if var == 0.0:
        probs = posterior_weights(model, query.T, query.y) if query.T else model.prior
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
    log_is = -(w_draw**2) / (2.0 * var) - _logsumexp(-sq) - np.log(centers.size)

    x = query.y + w_draw
    log_lik = np.log(model.prior) + gam * x[:, None] - 0.5 * gam * gam * query.T
    log_F = _logsumexp(log_lik)
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


def jensen_bound_reference(
    model: MarketModel, alpha: float, t: float, T: float, y: float
) -> float:
    """The Jensen lower bound on f_d with its exponent expanded, at 50 digits.

    p_d^b exp(E_d) / sum_k p_k exp(E_k) with b = 1/(1 - alpha) and
    E_k = b (b - 1) gamma_k^2 T / 2 + b gamma_k y - gamma_k^2 t b^2 / 2.
    The double inputs are taken as exact; the result is rounded once.
    """
    with mp.workdps(50):
        b = 1 / (1 - mp.mpf(alpha))
        terms = [
            mp.mpf(p) * mp.exp(b * (b - 1) * g * g * T / 2 + b * g * y - g * g * t * b * b / 2)
            for p, g in zip(model.prior.tolist(), map(mp.mpf, model.gammas.tolist()))
        ]
        return float(mp.mpf(model.prior[-1]) ** (b - 1) * terms[-1] / mp.fsum(terms))


def pessimist_factor2_reference(
    model: MarketModel, t: float, T: float, y: float, lam: float
) -> float:
    """The pessimist bound's second factor with its exponent expanded, at 50 digits.

    exp(log p_1 + gamma_1 y' - gamma_1^2 T / 2 - log F(T, y')) at the tilted
    observation y' = y + gamma_1 lam (T - t), with
    F(T, y') = sum_k p_k exp(gamma_k y' - gamma_k^2 T / 2).
    """
    with mp.workdps(50):
        gam = [mp.mpf(g) for g in model.gammas.tolist()]
        y_tilt = y + gam[0] * lam * (T - mp.mpf(t))
        log_f = mp.log(
            mp.fsum(mp.mpf(p) * mp.exp(g * y_tilt - g * g * T / 2)
                    for p, g in zip(model.prior.tolist(), gam))
        )
        return float(mp.exp(mp.log(model.prior[0]) + gam[0] * y_tilt - gam[0] ** 2 * T / 2 - log_f))


def two_logsumexp_fk(
    model: MarketModel,
    alpha: float,
    t: np.ndarray,
    T: np.ndarray,
    y: np.ndarray,
    n_nodes: int,
    half_width: float,
) -> np.ndarray:
    """Reference quadrature kernel: f at points with t < T, shape (P, d).

    The same panels and nodes as the package kernel, but in the earlier
    two-log-sum-exp form: the log mixture density is one log-sum-exp over
    states, and each f_k is a log-sum-exp over nodes of the responsibility
    times the node integrand, minus the log-sum-exp of the node integrands.
    """
    om = 1.0 - alpha
    gam = model.gammas
    t, T, y = (np.asarray(a, dtype=float)[:, None] for a in (t, T, y))
    log_q = np.log(model.prior) + 0.5 * gam * gam * (T * alpha - t) / om + gam * y
    log_p = log_q - _logsumexp(log_q)[:, None]
    means = gam * np.sqrt(T - t) / om
    a = means - half_width
    b = means + half_width
    mid = 0.5 * (means[:, :-1] + means[:, 1:])
    a[:, 1:] = np.maximum(a[:, 1:], mid)
    b[:, :-1] = np.minimum(b[:, :-1], mid)
    x, w = _legendre(n_nodes)
    half = (0.5 * (b - a))[..., None]
    z = (half * x + 0.5 * (a + b)[..., None]).reshape(means.shape[0], -1)
    log_w = np.log(half * w).reshape(z.shape)
    joint = log_p[:, None, :] - 0.5 * om * (z[..., None] - means[:, None, :]) ** 2
    log_mix = _logsumexp(joint)
    node = log_w + log_mix / om
    joint += (node - log_mix)[..., None]
    return np.exp(_logsumexp(joint, axis=1) - _logsumexp(node)[:, None])


def numpy_filter_sde(
    model: MarketModel, true_drift_index: int, horizon: float, step: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Euler scheme for the posterior SDE as whole-vector numpy steps; (probs, y).

    The loop is the earlier vectorized one, written out unchanged: the
    posterior mean is ``p @ mus``, which numpy hands to the BLAS dot kernel.
    """
    times = _time_grid(horizon, step)
    n_steps = times.size - 1
    step = float(times[1])
    rng = np.random.default_rng(seed)
    dw = rng.standard_normal(n_steps) * np.sqrt(step)

    d = model.d
    mus = model.mus
    sigma = model.sigma
    gamma_true = model.gammas[true_drift_index]
    mu_true = mus[true_drift_index]

    probs = np.empty((n_steps + 1, d))
    y = np.empty(n_steps + 1)
    probs[0] = model.prior
    y[0] = 0.0
    p = model.prior.copy()
    lo, hi = _EULER_GUARD
    for i in range(n_steps):
        mu_hat = float(p @ mus)
        dw_hat = dw[i] + (mu_true - mu_hat) / sigma * step
        p = p + p * (mus - mu_hat) / sigma * dw_hat
        if p.min() < lo or p.max() > hi:
            raise StepTooLarge(
                f"posterior left {_EULER_GUARD} at step {i}; reduce step {step}"
            )
        np.clip(p, _EULER_FLOOR, 1.0, out=p)
        p /= p.sum()
        probs[i + 1] = p
        y[i + 1] = y[i] + dw[i] + gamma_true * step
    return probs, y


def serial_terminal_wealth(
    model: MarketModel, strategy, scales, T: float, step: float, n_paths: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``simkit.terminal_wealth`` as one thread: (drift indices, log X_T per scale).

    The stepper written out unchanged from before its increments were drawn
    ahead: step ``i`` calls the strategy, then draws its own
    ``standard_normal(n_paths)`` from the ``spawn_key=(1,)`` stream.
    """
    times = _time_grid(T, step)
    n_steps = times.size - 1
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    drifts = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    thetas = drifts.choice(model.d, size=n_paths, p=model.prior)
    noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    excess_dt = (model.mus[thetas] - model.r) * dt
    gam_dt = model.gammas[thetas] * dt
    y, gain, power = np.zeros((3, n_paths))
    for i in range(n_steps):
        u = strategy(i * dt, y)
        dw = noise.standard_normal(n_paths) * sqrt_dt
        gain += u * (excess_dt + model.sigma * dw)
        power += u * u * dt
        y = y + (dw + gam_dt)
    c = np.asarray(scales, dtype=float)[:, None]
    return thetas, model.r * T + c * gain - 0.5 * model.sigma**2 * c * c * power


def random_market(
    rng: np.random.Generator,
    d_max: int = 5,
    gamma_cap: float = 5.0,
    require_valid: bool = False,
) -> MarketModel:
    """Random instance with |gamma| <= gamma_cap and well-separated drifts."""
    d = int(rng.integers(1, d_max + 1))
    r = float(rng.uniform(-0.02, 0.05))
    sigma = float(rng.uniform(0.3, 2.0))
    lo = 1e-3 * sigma if require_valid else -gamma_cap * sigma
    while True:
        mus = np.sort(r + rng.uniform(lo, gamma_cap * sigma, size=d))
        if d == 1 or np.min(np.diff(mus)) > 1e-3 * sigma:
            break
    prior = rng.dirichlet(np.ones(d))
    return new_market(r, sigma, mus, prior)


def random_alpha(rng: np.random.Generator, lo: float = -2.0, hi: float = 0.8) -> float:
    """Random power coefficient away from the log case."""
    while True:
        a = float(rng.uniform(lo, hi))
        if abs(a) > 0.02:
            return a
