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
panels of half-width _HALF_WIDTH around those means, clipped at midpoints
between neighbours, with Gauss-Legendre nodes per panel.  Each node's
mixture terms are shifted by their largest before one exp pass, and the
node integrands by theirs, so no intermediate quantity leaves double range
even for horizons of 10^4 and |gamma| of 10.

The posterior state weights at the shifted observation y + z sqrt(T-t),
which the numerator needs, are the responsibilities q_k phi_k(z) / sum_j
q_j phi_j(z) of that same mixture, so the kernel gets them from the
shifted terms it already forms.  One point evaluator, :func:`evaluate_points`,
serves every caller that asks for points: it takes broadcast arrays of
(t, T, y) points and doubles the node count with a mask per point, so each
point stops at its own first level that agrees with the previous one, and
it reports the node count each point took.  It is also the one home of the
posterior-mean Merton closed form, exact at t = T, for d = 1, and under log
utility (alpha = 0) at every horizon.  The path stepper's strategy table
runs no quadrature: :class:`~bayesmerton.simkit.CachedStrategy` fills it by
a backward heat solve and probes it against :func:`evaluate_points`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .filtering import _log_joint, logsumexp, posterior_weights
from .model import MarketModel, StrategyQuery, _check_alpha

#: Node-doubling ceiling per panel; a point reaching it without two
#: successive evaluations agreeing is flagged as not converged.
NODE_CAP = 1024

#: Relative agreement target between successive node doublings; the
#: benchmark's sweep check allows ten times it against mpmath values.
REL_TOL = 1e-9

#: Smallest per-panel Gauss-Legendre order a quadrature may use.
MIN_NODES = 8

#: Working-set bound of the quadrature kernel in (point x node x state)
#: entries; larger chunks raise peak memory without running faster.
_CHUNK_ENTRIES = 16_384

#: Quadrature panel half-width in effective standard deviations: the gaps
#: between panels hold integrand mass below exp(-_HALF_WIDTH^2 / 2) of the peak.
_HALF_WIDTH = 10.0

@cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    # looked up at the first call: numpy imports np.polynomial only on access
    return np.polynomial.legendre.leggauss(n)


class QuadratureNotConverged(RuntimeError):
    """Successive node doublings kept moving u_star by more than REL_TOL."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Gaussian-integral engine settings.

    ``nodes`` is the per-panel Gauss-Legendre order that direct evaluations
    (:func:`optimal_fraction`, the horizon sweep, the strategy cache's
    probes) start doubling from, from MIN_NODES to NODE_CAP; the strategy
    cache's table runs no Gauss-Legendre quadrature (see
    :class:`~bayesmerton.simkit.CachedStrategy`).  The panel half-width
    _HALF_WIDTH and the doubling target REL_TOL are fixed.
    """

    nodes: int = 64

    def __post_init__(self) -> None:
        if not MIN_NODES <= self.nodes <= NODE_CAP:
            raise ValueError(f"nodes must be in [{MIN_NODES}, {NODE_CAP}], got {self.nodes}")


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


def _stabilized(model: MarketModel, alpha: float, t, T, y) -> tuple[np.ndarray, np.ndarray]:
    """Normalized log-weights and means of the z-coordinate mixture; shape (..., d) each.

    Components share the variance 1 / (1 - alpha); the kernel and the pessimist
    bound both read the mixture from here.  The weights are the filter posterior
    at y and the effective time tau = (t - alpha T) / (1 - alpha): the filter's
    own log-joint ``filtering._log_joint`` at (tau, y), normalized.  tau tends
    to -inf as T grows for alpha in (0, 1), putting the weight on the best
    drift (the optimist), and to +inf for alpha < 0, putting it on the worst
    drift (the pessimist).
    """
    one_minus = 1.0 - alpha
    t = np.asarray(t, dtype=float)
    T = np.asarray(T, dtype=float)
    log_q = _log_joint(model, (t - alpha * T) / one_minus, y)
    means = model.gammas * np.sqrt(T - t)[..., None] / one_minus
    return log_q - logsumexp(log_q)[..., None], means


def _state_sum(f: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k f[..., k] values[k], accumulated from k = 0 up; shape (...).

    Each step is one rounded product and one rounded add, as in a Python
    loop from 0.0, so the result does not depend on which BLAS dot kernel
    the host dispatches.
    """
    out = np.zeros(f.shape[:-1])
    for k, v in enumerate(values.tolist()):
        out += f[..., k] * v
    return out


def _fk_level(
    model: MarketModel,
    alpha: float,
    t: np.ndarray,
    T: np.ndarray,
    y: np.ndarray,
    n_nodes: int,
) -> np.ndarray:
    """Single-level quadrature of f at points with t < T (1-D arrays); shape (P, d).

    Each point gets one Gauss-Legendre panel of ``n_nodes`` nodes per mixture
    mean, of half-width _HALF_WIDTH and clipped at the midpoint towards each
    neighbour, so panels never overlap; the omitted inter-panel gaps only
    ever hold integrand mass below exp(-_HALF_WIDTH^2/2) of the peak.

    One exp pass over the (point x state x node) log-joint serves both
    integrands: each node's terms are shifted by their maximum, so the
    shifted terms lie in [0, 1] with a largest entry of 1, and their sum
    ``mix`` in [1, d].  The node's log integrand is then its log weight plus
    (top + log mix) / (1 - alpha), and f is the sum of the shifted terms
    weighted by exp(node - max node) / mix, normalized at the end.  No
    intermediate leaves [0, 1] or double range.  Points are processed in
    chunks of at most _CHUNK_ENTRIES (point x node x state) entries.
    """
    x, w = _legendre_rule(n_nodes)
    one_minus = 1.0 - alpha
    chunk = max(1, _CHUNK_ENTRIES // (model.d * n_nodes * model.d))
    out = np.empty((t.size, model.d))
    for lo in range(0, t.size, chunk):
        part = slice(lo, lo + chunk)
        log_p, means = _stabilized(model, alpha, t[part], T[part], y[part])  # (P, d)
        a = means - _HALF_WIDTH
        b = means + _HALF_WIDTH
        mid = 0.5 * (means[:, :-1] + means[:, 1:])
        a[:, 1:] = np.maximum(a[:, 1:], mid)
        b[:, :-1] = np.minimum(b[:, :-1], mid)
        half = (0.5 * (b - a))[..., None]
        z = (half * x + 0.5 * (a + b)[..., None]).reshape(means.shape[0], -1)  # (P, K)
        log_w = np.log(half * w).reshape(z.shape)

        # log of p_k phi_k(z) up to a term shared by all k and z, which cancels
        # in f; states on the middle axis, so the reductions over them are
        # elementwise passes over contiguous node rows
        joint = log_p[:, :, None] - 0.5 * one_minus * (z[:, None, :] - means[..., None]) ** 2
        top = joint.max(axis=1)  # (P, K)
        # the one exp pass: the largest entry per node is 1, so mix lies in [1, d]
        resp = np.exp(joint - top[:, None, :])
        mix = resp.sum(axis=1)
        # log of the stabilized integrand (mixture)^(1/(1-alpha)) times the node weight
        node = log_w + (top + np.log(mix)) / one_minus
        # resp / mix are the responsibilities: the posterior state weights at
        # the shifted observation y + z sqrt(T - t)
        weight = np.exp(node - node.max(axis=1, keepdims=True)) / mix
        f = np.matmul(resp, weight[..., None])[..., 0]
        out[part] = f / f.sum(axis=1, keepdims=True)
    return out


def evaluate_points(
    model: MarketModel,
    alpha: float,
    t,
    T,
    y,
    quad: QuadratureConfig = QuadratureConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """u*, f, a failure flag and the node count at broadcast arrays of points (t, T, y).

    Points with t = T, and all points when d = 1 or alpha = 0, take
    the posterior-mean Merton closed form f = posterior_weights(model, t, y)
    (the prior where T = 0), u = f . gamma / (sigma (1 - alpha)), and report
    0 nodes; the rest run the quadrature.  The per-panel node count doubles
    from ``quad.nodes`` and each point stops at its own first level whose u*
    agrees with the previous level's to REL_TOL; the finer value
    wins and its node count is reported, so the coarser level of the
    agreeing pair is half of it.  Points still moving at the node cap come
    back NaN and flagged, reporting the cap.  Every f . gamma is summed in
    state order by :func:`_state_sum`.

    Returns ``(u, f, failed, nodes)`` with shapes ``(...)``, ``(..., d)``,
    ``(...)``, ``(...)``.

    Raises
    ------
    InvalidAlpha
        Unless alpha is a finite number < 1.
    ValueError
        Unless every point has finite 0 <= t <= T.
    """
    _check_alpha(alpha)
    t, T, y = (np.asarray(a, dtype=float) for a in (t, T, y))
    # L_0 = 1: at T = 0 the weights are the prior for any y (quadrature needs T > 0)
    t, T, y = np.broadcast_arrays(t, T, np.where(T == 0.0, 0.0, y))
    if not np.all(np.isfinite(T) & (0.0 <= t) & (t <= T)):
        raise ValueError("need finite 0 <= t <= T at every point")
    shape = t.shape
    gam = model.gammas
    scale = model.sigma * (1.0 - alpha)
    # every point starts from the closed form; quadrature points overwrite it
    f = posterior_weights(model, t, y).reshape(-1, model.d)
    failed = np.zeros(f.shape[0], dtype=bool)
    nodes = np.zeros(f.shape[0], dtype=np.int32)

    # roundoff floor: doubling cannot settle below summation noise
    atol = 1e-13 * (np.abs(gam).max() / scale + 1.0)
    cap = max(NODE_CAP, 2 * quad.nodes)
    quadrature = (t != T) & (model.d > 1 and alpha != 0.0)
    todo = np.flatnonzero(quadrature)
    t, T, y = t[quadrature], T[quadrature], y[quadrature]  # the points of todo
    n = quad.nodes
    u_prev = None
    while todo.size:
        f_n = _fk_level(model, alpha, t, T, y, n)
        u_n = _state_sum(f_n, gam) / scale
        if u_prev is None:
            done = np.zeros(todo.size, dtype=bool)
        else:
            done = np.abs(u_n - u_prev) <= REL_TOL * np.maximum(
                np.abs(u_n), np.abs(u_prev)
            ) + atol
        f[todo[done]] = f_n[done]
        nodes[todo[done]] = n
        todo, u_prev, t, T, y = (a[~done] for a in (todo, u_n, t, T, y))
        if n >= cap:
            failed[todo] = True
            f[todo] = np.nan
            nodes[todo] = n
            break
        n *= 2
    u = _state_sum(f, gam) / scale
    return (
        u.reshape(shape), f.reshape(shape + (model.d,)), failed.reshape(shape), nodes.reshape(shape)
    )


def optimal_fraction(
    model: MarketModel,
    alpha: float,
    query: StrategyQuery,
    quad: QuadratureConfig = QuadratureConfig(),
) -> StrategyValue:
    """Optimal feedback fraction u*(t, T, y) with its f decomposition.

    Doubles the per-panel node count, starting from ``quad.nodes``, until two
    successive u* values agree to REL_TOL; the finer value wins.  t = T,
    d = 1 and alpha = 0 short-circuit to the posterior-mean Merton closed
    form before any quadrature; the myopic term is that form at (t, t, y).
    Log utility is horizon-free, so at alpha = 0 u* is the myopic term
    itself, :func:`log_utility_fraction`, and the hedging demand is 0.

    Raises
    ------
    InvalidAlpha
        Unless alpha is a finite number < 1.
    QuadratureNotConverged
        If the node cap is hit before two levels agree.
    """
    T = query.t if alpha == 0.0 else query.T
    (u, myopic), (f, _), (failed, _), _ = evaluate_points(
        model, alpha, query.t, [T, query.t], query.y, quad
    )
    if failed:
        raise QuadratureNotConverged(f"u_star did not settle to rel_tol {REL_TOL}")
    u, myopic = float(u), float(myopic)
    f.setflags(write=False)
    v = float(_state_sum(f, model.gammas))
    return StrategyValue(u_star=u, v_star=v, f=f, myopic=myopic, hedging=u - myopic)


def log_utility_fraction(model: MarketModel, t: float, y: float) -> float:
    """Optimal fraction under logarithmic utility: (mu_hat(t, y) - r) / sigma^2.

    Independent of the horizon: the closed form of :func:`evaluate_points`
    at (t, t, y), so t = 0 gives the prior mean for every y.
    """
    return float(evaluate_points(model, 0.0, t, t, y)[0])
