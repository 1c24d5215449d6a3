"""Path-level market simulation and Monte Carlo optimality checks.

The hidden drift is sampled from the prior per path; the stock, the
observation process ``Y_t = W_t + gamma_theta t``, and the wealth under a
feedback strategy all evolve on one time grid.  Log-space stepping is exact
in the noise and Euler only in the control (the fraction is frozen over each
step), so positivity of stock and wealth is structural and a constant
fraction reproduces the closed-form geometric Brownian solution to roundoff.

One stepper, :func:`_step_paths`, serves :func:`simulate_paths` and
:func:`terminal_wealth`.  It calls the strategy once per time step and moves
the log-wealth of every scaled candidate ``c * strategy`` from that one value.
The grid has ``n_steps = max(1, round(T / step))`` steps of ``T / n_steps``,
so the last time is exactly ``T`` even when ``step`` does not divide it.
Paths run in blocks of at most ``_BLOCK_ENTRIES`` path-steps, so memory stays
bounded as ``n_steps`` grows.

Reproducibility scheme: from a master seed, the hidden drifts for all paths
come from the generator seeded with ``SeedSequence(seed, spawn_key=(0,))``
(one vector draw in path order), and path ``i`` draws its Brownian
increments from ``SeedSequence(seed, spawn_key=(1, i))``.  Runs with the
same seed therefore share noise path by path regardless of strategy or
block size, which is what the paired strategy comparisons rely on; all
reductions use numpy's pairwise summation over full per-path arrays.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, IO, Sequence

import numpy as np

from .filtering import posterior_weights
from .model import MarketModel, UtilitySpec
from .strategy import (
    QuadratureConfig,
    QuadratureNotConverged,
    evaluate_points,
    log_utility_fraction,
)

#: Path-steps held per vectorized block (paths x steps of Brownian noise);
#: has no effect on results.
_BLOCK_ENTRIES = 1 << 24

#: Strategy-cache table shape: y points across the span, and rows uniform in
#: sqrt(T - t) (at least 4, for the cubic blend).
_Y_POINTS = 2001
_S_POINTS = 65

#: Random (t, y) probes at which the cache must match direct evaluation.
_PROBE_POINTS = 32
_PROBE_SEED = 20_060_317

#: Cached-strategy interpolation must reproduce direct evaluation at probe
#: points to this tolerance.
PROBE_TOL = 1e-4

StrategyFn = Callable[[float, np.ndarray], np.ndarray]


class CacheProbeFailed(RuntimeError):
    """Cached-strategy interpolation missed direct evaluation by PROBE_TOL or more."""


@dataclass(frozen=True)
class PathBundle:
    """One simulated path: stock, observation, wealth, and applied fractions."""

    seed: int
    path_index: int
    step: float
    times: np.ndarray
    theta_index: int
    stock: np.ndarray
    y: np.ndarray
    wealth: np.ndarray
    fraction: np.ndarray
    strategy_name: str


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo estimate of E[U(X_T)]."""

    mean: float
    std_error: float
    n_paths: int


class CachedStrategy:
    """Feedback fraction u*(t, T, y) tabulated on a (sqrt(T-t), y) grid.

    Calling the quadrature per path-step is prohibitively slow, so rows of
    u* over a uniform y grid are precomputed on a grid uniform in
    s = sqrt(T - t), where the fraction varies smoothly all the way to
    maturity.  Lookups interpolate cubically across the four nearest rows
    (the fraction is curved in s; linear rows would need ~10x the build
    work for the same accuracy) and linearly in y.  The path stepper calls
    it once per time step for all paths of a block and all scaled
    candidates, so each row is blended once per step.  Queries beyond the y
    span clamp to the edge values.  ``probe_error`` records the worst
    interpolation error against direct evaluation at random probe points;
    construction fails if it exceeds PROBE_TOL.
    """

    def __init__(
        self,
        model: MarketModel,
        alpha: float,
        T: float,
        s_grid: np.ndarray,
        y_grid: np.ndarray,
        table: np.ndarray,
    ):
        self.model = model
        self.alpha = alpha
        self.T = T
        self._s_grid = s_grid
        self._y_grid = y_grid
        self._table = table
        self._ds = s_grid[1] - s_grid[0]
        self._dy = y_grid[1] - y_grid[0]
        self.probe_error: float | None = None

    def _row_for_time(self, t: float) -> np.ndarray:
        s = math.sqrt(max(self.T - t, 0.0))
        n = self._s_grid.size
        pos = min(max(s / self._ds, 0.0), n - 1.0)
        j0 = min(max(int(pos) - 1, 0), n - 4)
        x = pos - j0
        # Lagrange cubic through rows j0..j0+3 at offsets 0..3
        w0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
        w1 = x * (x - 2.0) * (x - 3.0) / 2.0
        w2 = -x * (x - 1.0) * (x - 3.0) / 2.0
        w3 = x * (x - 1.0) * (x - 2.0) / 6.0
        return (
            w0 * self._table[j0]
            + w1 * self._table[j0 + 1]
            + w2 * self._table[j0 + 2]
            + w3 * self._table[j0 + 3]
        )

    def __call__(self, t: float, y) -> np.ndarray:
        y_arr = np.asarray(y, dtype=float)
        row = self._row_for_time(float(t))
        # uniform-grid linear interpolation in y, clamped at the span edges
        pos = (y_arr - self._y_grid[0]) / self._dy
        j = np.clip(pos.astype(np.int64), 0, self._y_grid.size - 2)
        frac = np.clip(pos - j, 0.0, 1.0)
        return row[j] * (1.0 - frac) + row[j + 1] * frac


def default_y_span(model: MarketModel, T: float) -> float:
    """Half-span of the strategy cache's y grid: 10 sigma sqrt(T)."""
    return 10.0 * model.sigma * math.sqrt(T)


def build_feedback_strategy(
    model: MarketModel,
    alpha: float,
    T: float,
    quad: QuadratureConfig = QuadratureConfig(),
) -> CachedStrategy:
    """Tabulate the optimal feedback fraction for fast path simulation.

    alpha = 0 tabulates the horizon-free logarithmic fraction; anything else
    evaluates the whole table at the configured node count in one batched
    call (a single level; the probe check below is what enforces accuracy
    here).  Interpolation is then measured against direct doubling-verified
    evaluation at ``_PROBE_POINTS`` random (t, y) points and must come in
    under PROBE_TOL.

    Raises
    ------
    CacheProbeFailed
        If the worst probe error reaches PROBE_TOL.
    """
    UtilitySpec(alpha)
    y_span = default_y_span(model, T)
    y_grid = np.linspace(-y_span, y_span, _Y_POINTS)
    s_grid = np.linspace(0.0, math.sqrt(T), _S_POINTS)
    t_rows = np.maximum(T - s_grid * s_grid, 0.0)[:, None]
    if alpha == 0.0:
        # continuum form of the posterior weights, also at t = 0: paths
        # only query (t=0, y=0) where it agrees with the defined value,
        # and interpolation towards t > 0 must stay continuous
        probs = posterior_weights(model, t_rows, y_grid)
        table = (probs @ model.mus - model.r) / model.sigma**2
    else:
        table, _, _ = evaluate_points(model, alpha, t_rows, T, y_grid, quad, doubling=False)
    strat = CachedStrategy(model, alpha, T, s_grid, y_grid, table)

    rng = np.random.default_rng(_PROBE_SEED)
    probes = rng.uniform([0.0, -y_span], [T, y_span], size=(_PROBE_POINTS, 2))
    if alpha == 0.0:
        direct = np.array([log_utility_fraction(model, t, y) for t, y in probes])
    else:
        direct, _, failed = evaluate_points(model, alpha, probes[:, 0], T, probes[:, 1], quad)
        if failed.any():
            raise QuadratureNotConverged(f"{int(failed.sum())} cache probes did not converge")
    cached = np.array([strat(t, np.array([y]))[0] for t, y in probes])
    worst = float(np.max(np.abs(cached - direct), initial=0.0))
    strat.probe_error = worst
    if not worst < PROBE_TOL:
        raise CacheProbeFailed(
            f"strategy cache interpolation error {worst:.3e} exceeds {PROBE_TOL}"
        )
    return strat


def _theta_indices(model: MarketModel, n_paths: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.choice(model.d, size=n_paths, p=model.prior)


def _path_increments(seed: int, index: int, n_steps: int, sqrt_dt: float) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, index)))
    return rng.standard_normal(n_steps) * sqrt_dt


def _time_grid(T: float, step: float) -> np.ndarray:
    """``max(1, round(T / step))`` equal steps from 0 to exactly T.

    ``times[1]`` is the step actually simulated, ``T / n_steps``.
    """
    if step <= 0.0 or T <= 0.0:
        raise ValueError("step and T must be positive")
    n_steps = max(1, int(round(T / step)))
    times = np.arange(n_steps + 1) * (T / n_steps)
    times[-1] = T
    return times


def _record(paths: np.ndarray, block: slice, i: int, y, log_x, pi) -> None:
    paths[0, block, i] = y
    paths[1, block, i] = log_x
    paths[2, block, i] = pi


def _step_paths(
    model: MarketModel,
    strategy: StrategyFn,
    scales: Sequence[float],
    times: np.ndarray,
    n_paths: int,
    seed: int,
    paths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one path stepper: log X_T of every candidate ``c * strategy``.

    ``strategy`` is called once per time step with the time and the block's
    observations, and may return a scalar or a vector; the log-wealth of
    every scale c moves from that one value.  ``paths``, if given, is a
    ``(3, n_paths, times.size)`` array that receives y, log-wealth and the
    applied fraction of the first candidate at every grid time.

    Returns the drift indices and log X_T with shape ``(len(scales), n_paths)``.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = times.size - 1
    dt = float(times[1])
    sqrt_dt = math.sqrt(dt)
    thetas = _theta_indices(model, n_paths, seed)
    c = np.asarray(scales, dtype=float)[:, None]
    sig2 = model.sigma**2
    log_xt = np.empty((c.shape[0], n_paths))
    rows = max(1, _BLOCK_ENTRIES // n_steps)
    for b0 in range(0, n_paths, rows):
        block = slice(b0, min(b0 + rows, n_paths))
        B = block.stop - b0
        dw = np.empty((n_steps, B))  # time-major: each step reads one contiguous row
        for j in range(B):
            dw[:, j] = _path_increments(seed, b0 + j, n_steps, sqrt_dt)
        mu_th = model.mus[thetas[block]]
        gam_th = model.gammas[thetas[block]]
        y = np.zeros(B)
        log_x = np.zeros((c.shape[0], B))
        for i in range(n_steps):
            pi = c * strategy(float(times[i]), y)
            if paths is not None:
                _record(paths, block, i, y, log_x[0], pi[0])
            log_x += (
                model.r + (mu_th - model.r) * pi - 0.5 * sig2 * pi * pi
            ) * dt + model.sigma * pi * dw[i]
            y = y + (dw[i] + gam_th * dt)
        if paths is not None:
            _record(paths, block, n_steps, y, log_x[0], c[0] * strategy(float(times[-1]), y))
        log_xt[:, block] = log_x
    return thetas, log_xt


def simulate_paths(
    model: MarketModel,
    strategy: StrategyFn,
    T: float,
    step: float,
    n_paths: int,
    seed: int,
    strategy_name: str = "strategy",
) -> list[PathBundle]:
    """Simulate full paths under a feedback strategy.

    The strategy is called once per time step with the current time and the
    vector of path observations; it may return a scalar or a vector.  Wealth
    evolves in log space (exact noise, control frozen per step) and the
    stock is log S_t = (r - sigma^2 / 2) t + sigma Y_t, so both stay
    positive on every path.  Memory grows with n_paths x n_steps; for
    terminal-only studies use :func:`optimality_check` or
    :func:`terminal_wealth`.
    """
    times = _time_grid(T, step)
    paths = np.empty((3, n_paths, times.size))
    thetas, _ = _step_paths(model, strategy, [1.0], times, n_paths, seed, paths)
    y, log_x, frac = paths
    stock = np.exp((model.r - 0.5 * model.sigma**2) * times + model.sigma * y)
    wealth = np.exp(log_x)
    return [
        PathBundle(
            seed=int(seed),
            path_index=j,
            step=float(times[1]),
            times=times,
            theta_index=int(thetas[j]),
            stock=stock[j],
            y=y[j],
            wealth=wealth[j],
            fraction=frac[j],
            strategy_name=strategy_name,
        )
        for j in range(n_paths)
    ]


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
    strategy is evaluated once per step for all scales, and every scale sees
    the same noise (common random numbers), which makes the per-path utility
    differences directly comparable.
    """
    return _step_paths(model, strategy, scales, _time_grid(T, step), n_paths, seed)


def _utilities(log_x_terminal: np.ndarray, alpha: float, x0: float) -> np.ndarray:
    log_xt = np.log(x0) + log_x_terminal
    if alpha == 0.0:
        return log_xt
    return np.exp(alpha * log_xt) / alpha


def estimate_utility(
    bundles: Sequence[PathBundle], alpha: float, x0: float = 1.0
) -> UtilityEstimate:
    """Sample mean and standard error of U(x0 X_T) over the bundles.

    U is the power utility x^alpha / alpha, or log x for alpha = 0.  Bundles
    are simulated with unit initial wealth; x0 rescales terminal wealth,
    which for power utility just multiplies the estimate by x0^alpha.
    """
    UtilitySpec(alpha)
    if len(bundles) == 0:
        raise ValueError("no bundles")
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    horizon = bundles[0].times[-1]
    for b in bundles:
        if b.times[-1] != horizon:
            raise ValueError("bundles do not share a horizon")
    log_xt = np.log(np.array([b.wealth[-1] for b in bundles]))
    u = _utilities(log_xt, alpha, x0)
    n = u.size
    se = float(np.std(u, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return UtilityEstimate(mean=float(np.mean(u)), std_error=se, n_paths=n)


def optimality_check(
    model: MarketModel,
    alpha: float,
    T: float,
    perturbations: Sequence[float],
    step: float,
    n_paths: int,
    seed: int,
    quad: QuadratureConfig = QuadratureConfig(),
    reference_scale: float = 1.0,
) -> dict:
    """Compare the candidate optimal strategy against scaled perturbations.

    The reference strategy is ``reference_scale * u*`` (the scale exists so
    tests can plant a deliberately wrong candidate); each perturbation c
    runs ``c * reference`` on common random numbers.  The report carries
    per-strategy utility estimates, paired differences (reference minus
    perturbed, path by path), and whether the reference is undominated
    within 3 paired standard errors.  Its ``step`` is the step simulated,
    ``T / round(T / step)``.
    """
    UtilitySpec(alpha)
    scales = [1.0] + [float(c) for c in perturbations if float(c) != 1.0]
    base = build_feedback_strategy(model, alpha, T, quad)
    _, log_xt = terminal_wealth(
        model, base, [c * reference_scale for c in scales], T, step, n_paths, seed
    )
    utils = _utilities(log_xt, alpha, 1.0)

    strategies_report = [
        {
            "scale": c,
            "mean": float(np.mean(u)),
            "std_error": float(np.std(u, ddof=1) / math.sqrt(u.size)),
        }
        for c, u in zip(scales, utils)
    ]
    paired = []
    undominated = True
    for c, u in zip(scales[1:], utils[1:]):
        delta = utils[0] - u
        mean = float(np.mean(delta))
        se = float(np.std(delta, ddof=1) / math.sqrt(delta.size))
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
        "step": float(_time_grid(T, step)[1]),
        "n_paths": int(n_paths),
        "seed": int(seed),
        "reference_scale": float(reference_scale),
        "probe_error": float(base.probe_error),
        "strategies": strategies_report,
        "paired": paired,
        "undominated": bool(undominated),
    }


def export_path_csv(bundle: PathBundle, stream: IO[str]) -> None:
    """Write one path as CSV: time, stock, y, wealth, fraction."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["time", "stock", "y", "wealth", "fraction"])
    for i in range(bundle.times.size):
        writer.writerow(
            [
                repr(float(bundle.times[i])),
                repr(float(bundle.stock[i])),
                repr(float(bundle.y[i])),
                repr(float(bundle.wealth[i])),
                repr(float(bundle.fraction[i])),
            ]
        )


def export_report_json(report: dict, stream: IO[str]) -> None:
    """Write an optimality report as deterministic, sorted JSON."""
    json.dump(report, stream, indent=2, sort_keys=True)
    stream.write("\n")
