"""Closed-form Bayesian drift filter and an Euler simulator of its SDE.

The posterior over the drift support given the observable process
``Y_t = W_t + gamma_theta * t`` is available in closed form through the
likelihood weights

    L_t(mu_k, y) = exp(gamma_k * y - gamma_k^2 * t / 2)

and their prior mixture ``F(t, y) = sum_k p_k L_t(mu_k, y)``.  All products
are carried in the log domain: the exponents scale like ``gamma^2 T / 2`` and
overflow doubles beyond ``T ~ 1400 / gamma^2`` otherwise.

One rule holds at t = 0: ``Y_0 = 0`` is the only observation, where L_0 = 1
and the posterior is the prior.  :func:`posterior_weights` evaluates the
closed form as written, continuous in t.  The callers that report a t = 0
value pin it: :func:`log_normalizer` and ``strategy.evaluate_points`` at
T = 0 take y = 0, and the first row of the CLI's filter demo is the prior.

The same posterior solves a diffusion driven by the innovation process,

    dp_k(t) = (mu_k - mu_hat_t) p_k(t) / sigma dW_hat_t,

which :func:`simulate_filter_sde` integrates with an Euler scheme as a
pathwise cross-check of the closed form.
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
    """log F(t, y) = logsumexp_k(log p_k + log L_t(mu_k, y)), max-shifted."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t == 0.0:  # L_0 = 1 for any y
        y = np.zeros_like(y, dtype=float)
    out = logsumexp(_log_joint(model, t, y))
    return float(out) if out.ndim == 0 else out


def posterior_weights(model: MarketModel, t, y) -> np.ndarray:
    """Posterior probabilities p_k L_t(mu_k, y) / F(t, y); shape (..., d).

    Vectorized over broadcast arrays of times t >= 0 and observations y.

    The closed form is continuous in t at fixed y: at t = 0 it gives weights
    proportional to p_k exp(gamma_k y), which is the prior at y = 0, the only
    value Y_0 takes.  A caller reporting a t = 0 posterior pins it there.
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
    """Euler scheme for the posterior SDE along one simulated true path.

    The true Brownian path and the innovation increments come from a single
    RNG stream (all Brownian increments drawn upfront, in time order) so
    paired comparisons are reproducible from the seed alone.  Each Euler step
    is clipped to [1e-12, 1] and renormalized.  The grid ends exactly at
    the horizon; ``times[1]`` is the step simulated.

    The step runs on Python floats, one state at a time.  The posterior
    mean and the renormalizing total are sequential sums in double
    precision, so the trajectory does not depend on which BLAS kernel the
    host dispatches for a dot product.

    Returns the posterior trajectory together with the driving ``Y`` path, so
    the closed form :func:`posterior_weights` is evaluable at matching times.

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
    rng = np.random.default_rng(seed)
    dw = (rng.standard_normal(n_steps) * np.sqrt(step)).tolist()

    mus = model.mus.tolist()
    sigma = float(model.sigma)
    mu_true = mus[true_drift_index]
    drift = float(model.gammas[true_drift_index]) * step
    lo, hi = _EULER_GUARD
    floor = _EULER_FLOOR

    p = model.prior.tolist()
    probs = array("d", p)  # rows of d, flat
    ys = array("d", [0.0])
    y = 0.0
    for i, dwi in enumerate(dw):
        mu_hat = 0.0
        for pk, mk in zip(p, mus):
            mu_hat += pk * mk
        dw_hat = dwi + (mu_true - mu_hat) / sigma * step
        clipped = []
        total = 0.0
        for pk, mk in zip(p, mus):
            pk = pk + pk * (mk - mu_hat) / sigma * dw_hat
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
        y = y + dwi + drift
        ys.append(y)
    return FilterPath(
        times=times,
        probs=np.frombuffer(probs, dtype=float).reshape(n_steps + 1, model.d),
        y=np.frombuffer(ys, dtype=float),
    )
