"""Path-level market simulation and Monte Carlo optimality checks.

The hidden drift is sampled from the prior per path; the stock, the
observation process ``Y_t = W_t + gamma_theta t``, and the wealth under a
feedback strategy all evolve on one time grid.  Log-space stepping is exact
in the noise and Euler only in the control (the fraction is frozen over each
step), so positivity of stock and wealth is structural and a constant
fraction reproduces the closed-form geometric Brownian solution to roundoff.

One stepper, :func:`terminal_wealth`, moves all paths one time step at a
time and calls the strategy once per step with every path's observation.
Two running sums per path, ``gain = sum u_i ((mu_theta - r) dt + sigma dW_i)``
and ``power = sum u_i^2 dt``, give
``log X_T = r T + c gain - sigma^2 c^2 power / 2`` for every scaled candidate
``c * strategy``.  The grid has ``n_steps = filtering._n_steps(T, step)``
steps of ``dt = T / n_steps``, so it ends exactly at ``T``; step ``i`` runs
at time ``i dt`` and no grid array is built, so memory is a few ``n_paths``
vectors at any step count.

The tabulated optimal strategy, :class:`CachedStrategy`, has a row of u* at
every time of that same grid, so each step reads one row and interpolates
only in y.

Reproducibility scheme: from a master seed, the hidden drifts for all paths
come from the generator seeded with ``SeedSequence(seed, spawn_key=(0,))``
(one vector draw in path order, :func:`_theta_indices`; the CLI's filter
demo simulates the drift of path 0), and step ``i``'s Brownian increments are
one ``standard_normal(n_paths)`` draw, element ``j`` for path ``j``, from one
generator seeded with ``SeedSequence(seed, spawn_key=(1,))``.  Runs with the
same seed therefore share noise path by path regardless of strategy, which is
what the paired strategy comparisons rely on; all reductions use numpy's
pairwise summation over full per-path arrays.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence

import numpy as np

from .filtering import _n_steps
from .model import MarketModel, UtilitySpec
from .strategy import QuadratureConfig, QuadratureNotConverged, _HeatSolve, evaluate_points

#: Working-set bound of the strategy table's stored rows, in entries (2 MiB,
#: twice the 65 x 2001 table that rows uniform in sqrt(T - t) took): the
#: rows are kept in segments of consecutive steps of about this size, and
#: the stepper's first call in a segment solves it again from a checkpoint.
_SEGMENT_ENTRIES = 1 << 18

#: Probes at which the cache must match direct evaluation: rows at random
#: grid times, each probed where its cubic in y errs most.
_PROBE_POINTS = 32
_PROBE_SEED = 20_060_317

#: Cached-strategy interpolation must reproduce direct evaluation at probe
#: points to this tolerance.
PROBE_TOL = 1e-4

#: Times the build halves the lattice step after a failed probe check.
_HALVINGS = 2

StrategyFn = Callable[[float, np.ndarray], np.ndarray]


class CacheProbeFailed(RuntimeError):
    """Cached-strategy interpolation missed direct evaluation by PROBE_TOL or more."""


def _cubic(row: np.ndarray, first: int, h: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, clamped mask) at y of the Lagrange cubic through the four nodes around y.

    ``row[j]`` is u* at (first + j) h; y beyond the first or last full stencil clamps.
    """
    e = np.diff(row)
    f = np.diff(e)
    c3 = np.diff(f) / 6.0
    c2 = 0.5 * f[:-1]
    c1 = e[1:-1] - c2 - c3
    pos = y * (1.0 / h) - (first + 1)
    clipped = np.clip(pos, 0.0, row.size - 4.0)
    j = clipped.astype(np.intp)
    x = clipped - j
    u = c3.take(j)
    u *= x
    u += c2.take(j)
    u *= x
    u += c1.take(j)
    u *= x
    u += row[1:].take(j)
    return u, clipped != pos


class CachedStrategy:
    """Feedback fraction u*(t, T, y) from a row of the heat solve at each grid time.

    A call at a grid time i T / n_steps reads row i, and a call between grid
    times blends the two neighbouring rows linearly in t; in y it takes the
    Lagrange cubic through the four nearest lattice points.  y beyond a row's
    band clamps to its edge; ``clamped`` counts those out of ``lookups``, the
    y values looked up through calls (the build's probe check does not count).

    Rows are kept in segments of consecutive steps of about
    _SEGMENT_ENTRIES entries: the first segment's rows, and the solve's state
    at the last step of every segment, from which a call in another segment
    solves it again, bit for bit.  ``probe_error`` is the worst error at the
    build's probes.
    """

    def __init__(
        self,
        heat: _HeatSolve,
        segments: list[tuple[int, int]],
        checkpoints: list[np.ndarray],
        rows: list[np.ndarray],
        probe_error: float,
    ):
        self.model, self.alpha, self.T = heat.model, heat.alpha, heat.T
        self._heat = heat
        self._segments = segments
        self._checkpoints = checkpoints
        self._segment = 0
        self._rows = rows
        self.probe_error = probe_error
        self.lookups = 0
        self.clamped = 0

    def _row(self, i: int) -> np.ndarray:
        s = bisect.bisect_right(self._segments, i, key=lambda seg: seg[0]) - 1
        first, last = self._segments[s]
        if s != self._segment:
            self._rows = None  # free the old segment before solving the new one
            self._rows = self._heat.rows(self._checkpoints[s], last, first)[0]
            self._segment = s
        return self._rows[i - first]

    def __call__(self, t: float, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        heat = self._heat
        pos = min(max(float(t) / heat.dt, 0.0), float(heat.n))
        i = round(pos)
        if abs(pos - i) <= 1e-9:
            u, clamped = _cubic(self._row(i), heat.band_lo[i], heat.h, y)
        else:
            i = min(int(pos), heat.n - 1)
            u, clamped = _cubic(self._row(i), heat.band_lo[i], heat.h, y)
            u1, clamped1 = _cubic(self._row(i + 1), heat.band_lo[i + 1], heat.h, y)
            u, clamped = u + (pos - i) * (u1 - u), clamped | clamped1
        self.lookups += y.size
        self.clamped += np.count_nonzero(clamped)
        return u


def _segments(heat: _HeatSolve) -> list[tuple[int, int]]:
    """(first, last) step of each segment: _SEGMENT_ENTRIES entries at most, plus its first row."""
    number = np.cumsum(heat.band_hi - heat.band_lo + 1) // _SEGMENT_ENTRIES
    firsts = np.flatnonzero(np.diff(number, prepend=-1)).tolist()
    return list(zip(firsts, [i - 1 for i in firsts[1:]] + [heat.n]))


def build_feedback_strategy(
    model: MarketModel,
    alpha: float,
    T: float,
    step: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CachedStrategy:
    """Tabulate u* for fast path simulation on the stepper's grid of ``_n_steps(T, step)``.

    One backward heat solve (``strategy._HeatSolve``) fills the rows for
    every alpha and d.  ``_PROBE_POINTS`` rows at random grid times after 0
    are each probed mid-cell where their fourth difference is largest, which
    is where the cubic in y errs most (about 3/128 of that difference); a
    doubling-verified ``evaluate_points`` call from ``quad.nodes`` there must
    match the table to PROBE_TOL, and while it does not, the lattice step
    halves, at most _HALVINGS times.

    Error budget: rows sit within about 1e-12 of doubling-verified values at
    the lattice points (the tests check every 8th point of every 50th row on
    six markets), so what is left is the cubic in y, which PROBE_TOL bounds.

    Raises
    ------
    ValueError
        Unless T > 0 and step > 0.
    QuadratureNotConverged
        If a probe hits the node cap.
    CacheProbeFailed
        If a row is not finite (the tilted solve left double range), or if
        the worst probe error reaches PROBE_TOL at the finest lattice.
    """
    if not T > 0.0:
        raise ValueError(f"the strategy table needs T > 0, got {T}")
    n_steps = _n_steps(T, step)
    at = np.random.default_rng(_PROBE_SEED).integers(1, n_steps + 1, size=_PROBE_POINTS)
    for halvings in range(_HALVINGS + 1):
        heat = _HeatSolve(model, alpha, T, n_steps, halvings)
        segments = _segments(heat)
        checkpoints = []
        probes, cached = np.empty((2, _PROBE_POINTS))
        state = heat.start()
        for first, last in reversed(segments):
            checkpoints.append(state)
            rows = None  # free the last segment's rows before solving this one
            rows, state = heat.rows(state, last, first)
            if not all(np.isfinite(row).all() for row in rows):
                raise CacheProbeFailed("table rows not finite: the solve left double range")
            for p in np.flatnonzero((first <= at) & (at <= last)).tolist():
                i = int(at[p])
                row = rows[i - first]
                cell = heat.band_lo[i] + 1 + int(np.argmax(np.abs(np.diff(row, 4))))
                probes[p] = (cell + 0.5) * heat.h
                cached[p] = _cubic(row, heat.band_lo[i], heat.h, probes[p : p + 1])[0][0]
            if first:
                state = heat.back(first - 1, state)
        direct, _, failed, _ = evaluate_points(model, alpha, at * heat.dt, T, probes, quad)
        if failed.any():
            raise QuadratureNotConverged(f"{int(failed.sum())} cache probes did not converge")
        worst = float(np.max(np.abs(cached - direct)))
        if worst < PROBE_TOL:
            return CachedStrategy(heat, segments, checkpoints[::-1], rows, worst)
    raise CacheProbeFailed(f"strategy cache interpolation error {worst:.3e} exceeds {PROBE_TOL}")


def _theta_indices(model: MarketModel, n_paths: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.choice(model.d, size=n_paths, p=model.prior)


def terminal_wealth(
    model: MarketModel,
    strategy: StrategyFn,
    scales: Sequence[float],
    T: float,
    step: float,
    n_paths: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal log-wealth per path under ``c * strategy`` for each scale c.

    Returns the sampled drift indices and log X_T with shape
    ``(len(scales), n_paths)``, row j under ``scales[j] * strategy``.  The
    strategy is called once per time step with the time and the observations
    of all paths, and may return a scalar or a vector; every scale sees the
    same noise (common random numbers), which makes the per-path utility
    differences directly comparable.
    """
    n_steps = _n_steps(T, step)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    dt = T / n_steps
    sqrt_dt = math.sqrt(dt)
    thetas = _theta_indices(model, n_paths, seed)
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


def _utilities(log_x_terminal: np.ndarray, alpha: float, x0: float) -> np.ndarray:
    log_xt = np.log(x0) + log_x_terminal
    if alpha == 0.0:
        return log_xt
    with np.errstate(over="ignore"):  # inf is caught by _mean_and_se
        return np.exp(alpha * log_xt) / alpha


def _mean_and_se(sample: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of a 1-D sample.

    ValueError below 2 samples; FloatingPointError unless both are finite.
    """
    n = sample.size
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(sample))
        se = float(np.std(sample, ddof=1) / math.sqrt(n))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise FloatingPointError(
            f"utility mean {mean} or standard error {se} is not finite; "
            "terminal utilities overflow double range"
        )
    return mean, se


def optimality_check(
    model: MarketModel,
    alpha: float,
    T: float,
    perturbations: Sequence[float],
    step: float,
    n_paths: int,
    seed: int,
    quad: QuadratureConfig = QuadratureConfig(),
) -> dict:
    """Compare the candidate optimal strategy against scaled perturbations.

    The reference strategy is the tabulated u*; each perturbation c runs
    ``c * u*`` on common random numbers.  The report carries
    per-strategy utility estimates, paired differences (reference minus
    perturbed, path by path), and whether the reference is undominated
    within 3 paired standard errors.  Its ``step`` is the step simulated,
    ``T / round(T / step)``.  ``probe_error`` is the table's worst error
    against direct evaluation at the build's probes,
    ``clamped_frac`` the fraction of the simulation's strategy lookups that
    fell outside a table row's band, ``table_step`` the lattice step of the
    table's heat solve and ``table_points`` the lattice points it convolved
    over in its n_steps steps.
    Standard errors need two paths, so ``n_paths < 2`` raises ValueError;
    utilities that overflow double range raise FloatingPointError.
    """
    UtilitySpec(alpha)
    if n_paths < 2:
        raise ValueError(f"optimality_check needs n_paths >= 2, got {n_paths}")
    scales = [1.0] + [float(c) for c in perturbations if float(c) != 1.0]
    base = build_feedback_strategy(model, alpha, T, step, quad)
    _, log_xt = terminal_wealth(model, base, scales, T, step, n_paths, seed)
    utils = _utilities(log_xt, alpha, 1.0)

    strategies_report = []
    for c, u in zip(scales, utils):
        mean, se = _mean_and_se(u)
        strategies_report.append({"scale": c, "mean": mean, "std_error": se})
    paired = []
    undominated = True
    for c, u in zip(scales[1:], utils[1:]):
        mean, se = _mean_and_se(utils[0] - u)
        dominated = mean < -3.0 * se
        undominated = undominated and not dominated
        paired.append(
            {
                "scale": c,
                "delta_mean": mean,
                "delta_std_error": se,
                "dominates_reference": dominated,
            }
        )
    return {
        "alpha": float(alpha),
        "T": float(T),
        "step": T / _n_steps(T, step),
        "n_paths": int(n_paths),
        "seed": int(seed),
        "probe_error": float(base.probe_error),
        "clamped_frac": base.clamped / base.lookups,
        "table_step": float(base._heat.h),
        "table_points": int(base._heat.points),
        "strategies": strategies_report,
        "paired": paired,
        "undominated": bool(undominated),
    }
