"""Closed-form Bayesian drift filter and an Euler simulator of its SDE.

The posterior over the drift support given the observable process
``Y_t = W_t + gamma_theta * t`` is available in closed form through the
likelihood weights

    L_t(mu_k, y) = exp(gamma_k * y - gamma_k^2 * t / 2)

and their prior mixture ``F(t, y) = sum_k p_k L_t(mu_k, y)``.  All products
are carried in the log domain: the exponents scale like ``gamma^2 T / 2`` and
overflow doubles beyond ``T ~ 1400 / gamma^2`` otherwise.

At the only observed point, ``Y_0 = 0``, the closed form is the prior.

The same posterior solves a diffusion driven by the innovation process,

    dp_k(t) = (gamma_k - gamma_hat_t) p_k(t) dW_hat_t,  gamma_hat_t = sum_k p_k(t) gamma_k,

which :func:`simulate_filter_sde` integrates with an Euler scheme in gamma,
``dW_hat = dY - gamma_hat dt``, as a pathwise cross-check of the closed form.

Both simulators, this one and ``simkit.terminal_wealth``, take their step
count, time grid and seeds from here: from a master seed, the drifts of all
paths are one prior draw in path order (:func:`_theta_indices`, spawn key
0), and the Brownian increments come in step order (:func:`_noise`, spawn
key 1), element ``j`` of each step's draw for path ``j``.  So runs with one
seed share noise path by path, and at one path both step the same ``Y``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .model import MarketModel


class StepTooLarge(RuntimeError):
    """Euler step left the posterior far outside the simplex; reduce the step."""


#: Pre-clip posterior coordinates outside this window signal instability.
_EULER_GUARD = (-0.1, 1.1)

#: Clipping floor applied after every Euler step, then renormalized; the SDE
#: preserves the simplex only in exact arithmetic.
_EULER_FLOOR = 1e-12


@dataclass(frozen=True)
class FilterPath:
    """One Euler trajectory of the posterior SDE plus its driving Y path."""

    times: np.ndarray
    probs: np.ndarray  # (n_steps + 1, d)
    y: np.ndarray  # (n_steps + 1,)


def _n_steps(T: float, step: float) -> int:
    """``max(1, round(T / step))``: both simulators take steps of ``T / n_steps``.

    The one check of (T, step): ValueError unless T is finite and positive,
    step is positive and T / step is finite (NaN fails all three).
    """
    if not (0.0 < T < np.inf and step > 0.0 and float(T) / float(step) < np.inf):
        raise ValueError(f"need finite T > 0, step > 0 and T / step, got T={T}, step={step}")
    return max(1, int(round(T / step)))


def _time_grid(T: float, step: float) -> np.ndarray:
    """The ``_n_steps(T, step) + 1`` times ``i * (T / n_steps)``, the last exactly T.

    ``times[1]`` is the step actually simulated, ``T / n_steps``.
    """
    n_steps = _n_steps(T, step)
    times = np.arange(n_steps + 1) * (T / n_steps)
    times[-1] = T
    return times


def _theta_indices(model: MarketModel, n_paths: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.choice(model.d, size=n_paths, p=model.prior)


def _noise(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp along the last axis."""
    shift = np.max(a, axis=-1, keepdims=True)
    return np.squeeze(shift, axis=-1) + np.log(np.sum(np.exp(a - shift), axis=-1))


def _log_joint(model: MarketModel, t, y) -> np.ndarray:
    """log p_k + gamma_k y - gamma_k^2 t / 2 over broadcast t and y; shape (..., d)."""
    gam = model.gammas
    t_col = np.asarray(t, dtype=float)[..., None]
    y_col = np.asarray(y, dtype=float)[..., None]
    return np.log(model.prior) + gam * (y_col - 0.5 * gam * t_col)


def log_normalizer(model: MarketModel, t: float, y) -> np.ndarray | float:
    """log F(t, y) = logsumexp_k(log p_k + log L_t(mu_k, y)), max-shifted.

    The normalizer of :func:`posterior_weights` at every t >= 0, so
    log F(0, y) = log sum_k p_k exp(gamma_k y).
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    out = logsumexp(_log_joint(model, t, y))
    return float(out) if out.ndim == 0 else out


def posterior_weights(model: MarketModel, t, y) -> np.ndarray:
    """Posterior probabilities p_k L_t(mu_k, y) / F(t, y); shape (..., d).

    Vectorized over broadcast arrays of times t >= 0 and observations y.
    The closed form holds as written at every t, so at t = 0 the weights
    are proportional to p_k exp(gamma_k y).
    """
    w = _log_joint(model, t, y)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def simulate_filter_sde(
    model: MarketModel,
    true_drift_index: int,
    horizon: float,
    step: float,
    seed: int,
) -> FilterPath:
    """Euler scheme for the posterior SDE along one simulated observation path.

    ``dY = dW + gamma_theta dt`` is formed once from the ``n_steps``
    increments of :func:`_noise`, drawn in one call, and ``Y`` is its running
    sum: ``terminal_wealth``'s one path bit for bit at the same seed and drift.
    Each Euler step reads only the observation, ``dW_hat = dY - gamma_hat dt``,
    and is clipped to [1e-12, 1] and renormalized.  The grid ends exactly at
    the horizon; ``times[1]`` is the step simulated.

    The step runs on Python floats and sums the posterior mean and the
    renormalizing total in state order, so no BLAS kernel touches the result.
    The rows come with their ``Y`` path, at which :func:`posterior_weights`
    gives the closed form.

    Raises
    ------
    StepTooLarge
        If any pre-clip posterior coordinate leaves [-0.1, 1.1].
    """
    times = _time_grid(horizon, step)
    if not 0 <= true_drift_index < model.d:
        raise IndexError(f"true_drift_index {true_drift_index} out of range")
    n_steps = times.size - 1
    step = float(times[1])
    dy = _noise(seed).standard_normal(n_steps) * np.sqrt(step)
    dy += model.gammas[true_drift_index] * step
    y = np.concatenate(([0.0], np.cumsum(dy)))  # cumsum adds in order: y + dy, step by step

    gammas = model.gammas.tolist()
    lo, hi = _EULER_GUARD
    floor = _EULER_FLOOR

    p = model.prior.tolist()
    probs = array("d", p)  # rows of d, flat
    for i, dyi in enumerate(dy.tolist()):
        gamma_hat = 0.0
        for pk, gk in zip(p, gammas):
            gamma_hat += pk * gk
        dw_hat = dyi - gamma_hat * step
        clipped = []
        total = 0.0
        for pk, gk in zip(p, gammas):
            pk = pk + pk * (gk - gamma_hat) * dw_hat
            if pk < lo or pk > hi:
                raise StepTooLarge(
                    f"posterior left {_EULER_GUARD} at step {i}; reduce step {step}"
                )
            if pk < floor:
                pk = floor
            elif pk > 1.0:
                pk = 1.0
            clipped.append(pk)
            total += pk
        p = [pk / total for pk in clipped]
        probs.extend(p)
    probs = np.frombuffer(probs, dtype=float).reshape(n_steps + 1, model.d)
    return FilterPath(times=times, probs=probs, y=y)
