"""Path-level market simulation and Monte Carlo optimality checks.

The hidden drift is sampled from the prior per path; the stock, the
observation process ``Y_t = W_t + gamma_theta t``, and the wealth under a
feedback strategy all evolve on one time grid.  Log-space stepping is exact
in the noise and Euler only in the control (the fraction is frozen over each
step), so positivity of stock and wealth is structural and a constant
fraction reproduces the closed-form geometric Brownian solution to roundoff.

One stepper, :func:`_step_paths`, serves :func:`simulate_paths`, which
records every path in log-wealth, and :func:`terminal_wealth`.  It moves all
paths one time step at a time and calls the strategy once per step.  Two
running sums per path, ``gain = sum u_i ((mu_theta - r) dt + sigma dW_i)`` and
``power = sum u_i^2 dt``, give ``log X_T = r T + c gain - sigma^2 c^2 power / 2``
for every scaled candidate ``c * strategy``, so memory is a few ``n_paths``
vectors at any step count.  The grid has ``n_steps = max(1, round(T / step))``
steps of ``T / n_steps``, so it ends exactly at ``T``.

Reproducibility scheme: from a master seed, the hidden drifts for all paths
come from the generator seeded with ``SeedSequence(seed, spawn_key=(0,))``
(one vector draw in path order), and step ``i``'s Brownian increments are
one ``standard_normal(n_paths)`` draw, element ``j`` for path ``j``, from one
generator seeded with ``SeedSequence(seed, spawn_key=(1,))``.  Runs with the
same seed therefore share noise path by path regardless of strategy, which is
what the paired strategy comparisons rely on; all reductions use numpy's
pairwise summation over full per-path arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, IO, Sequence

import numpy as np

from .csvout import write_columns
from .filtering import _time_grid
from .model import MarketModel, UtilitySpec
from .strategy import (
    MIN_NODES,
    QuadratureConfig,
    QuadratureNotConverged,
    evaluate_points,
    needs_quadrature,
)

#: Strategy-cache table shape: y points across the span, and rows uniform in
#: sqrt(T - t) (at least 4, for the cubic blend).
_Y_POINTS = 2001
_S_POINTS = 65

#: Every _LEVEL_STRIDE-th y point of a row measures the row's node order.
_LEVEL_STRIDE = 16

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
class PathRecord:
    """Simulated paths on one time grid, one row per path.

    ``y``, ``log_wealth`` (log X_t from unit initial wealth) and ``fraction``
    have shape ``(n_paths, times.size)``; ``theta_index`` holds each path's
    drift index.  Stock and wealth are derived on export.
    """

    model: MarketModel
    times: np.ndarray
    theta_index: np.ndarray
    y: np.ndarray
    log_wealth: np.ndarray
    fraction: np.ndarray


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
    it once per time step for all paths and all scaled candidates, so each
    row is blended once per step.  Queries beyond the y span clamp to the
    edge values; ``clamped`` counts them out of ``lookups``, the number of y
    values looked up through calls (the build's probe check does not count).
    ``row_nodes`` is the per-panel node order each row was built at, 0 for
    closed-form rows.  ``probe_error`` records the worst interpolation error
    against direct evaluation at random probe points; construction fails if
    it exceeds PROBE_TOL.
    """

    def __init__(
        self,
        model: MarketModel,
        alpha: float,
        T: float,
        s_grid: np.ndarray,
        y_grid: np.ndarray,
        table: np.ndarray,
        row_nodes: np.ndarray,
    ):
        self.model = model
        self.alpha = alpha
        self.T = T
        self._s_grid = s_grid
        self._y_grid = y_grid
        self._table = table
        self.row_nodes = row_nodes
        self._ds = s_grid[1] - s_grid[0]
        self._dy = y_grid[1] - y_grid[0]
        self.probe_error: float | None = None
        self.lookups = 0
        self.clamped = 0

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

    def _lookup(self, t: float, y: np.ndarray) -> np.ndarray:
        row = self._row_for_time(float(t))
        # uniform-grid linear interpolation in y, clamped at the span edges
        pos = (y - self._y_grid[0]) / self._dy
        j = np.clip(pos.astype(np.int64), 0, self._y_grid.size - 2)
        frac = np.clip(pos - j, 0.0, 1.0)
        return row[j] * (1.0 - frac) + row[j + 1] * frac

    def __call__(self, t: float, y) -> np.ndarray:
        y_arr = np.asarray(y, dtype=float)
        self.lookups += y_arr.size
        self.clamped += np.count_nonzero((y_arr < self._y_grid[0]) | (y_arr > self._y_grid[-1]))
        return self._lookup(t, y_arr)


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

    Each row is built at the node order it measurably needs.  The doubling
    loop of ``evaluate_points`` runs from MIN_NODES on every _LEVEL_STRIDE-th
    y point of every row; a row's order is the coarser level of the
    agreeing pair of its slowest point, and one single-level
    ``evaluate_points`` call per distinct order fills those rows.  Where no
    point needs quadrature (d = 1 or alpha = 0) there is no search, and one
    call fills the table from the closed form; under alpha = 0 its t = 0 row
    keeps the continuum posterior, so rows stay continuous in t.  A
    doubling-verified call from ``quad.nodes`` at ``_PROBE_POINTS`` random
    (t, y) points must match the interpolation to PROBE_TOL.

    Error budget: points off the measured subsample can miss ``quad.rel_tol``
    a little; rows sit within about 1.3 ``rel_tol`` of doubling-verified
    values (1.31e-9 at rel_tol 1e-9 on the toy market at alpha -5, T 20).
    PROBE_TOL is the bound the build enforces.

    Raises
    ------
    QuadratureNotConverged
        If a point of the order search or a probe hits the node cap.
    CacheProbeFailed
        If the worst probe error reaches PROBE_TOL.
    """
    y_span = default_y_span(model, T)
    y_grid = np.linspace(-y_span, y_span, _Y_POINTS)
    s_grid = np.linspace(0.0, math.sqrt(T), _S_POINTS)
    t_rows = np.maximum(T - s_grid * s_grid, 0.0)[:, None]
    if needs_quadrature(model, alpha):
        _, _, failed, nodes = evaluate_points(
            model, alpha, t_rows, T, y_grid[::_LEVEL_STRIDE], replace(quad, nodes=MIN_NODES)
        )
        if failed.any():
            raise QuadratureNotConverged(
                f"{int(failed.sum())} points of the table's node search did not converge"
            )
        # a point reports the finer level of its agreeing pair, closed-form points 0
        row_nodes = nodes.max(axis=1) // 2
        table = np.empty((s_grid.size, y_grid.size))
        for n in np.unique(row_nodes).tolist():
            rows = row_nodes == n
            table[rows] = evaluate_points(
                model, alpha, t_rows[rows], T, y_grid, replace(quad, nodes=n or quad.nodes),
                doubling=False,
            )[0]
    else:
        # one call, so the closed-form build holds no second table in memory
        row_nodes = np.zeros(s_grid.size, dtype=np.int32)
        table = evaluate_points(model, alpha, t_rows, T, y_grid, quad, doubling=False)[0]
    strat = CachedStrategy(model, alpha, T, s_grid, y_grid, table, row_nodes)

    rng = np.random.default_rng(_PROBE_SEED)
    probes = rng.uniform([0.0, -y_span], [T, y_span], size=(_PROBE_POINTS, 2))
    direct, _, failed, _ = evaluate_points(model, alpha, probes[:, 0], T, probes[:, 1], quad)
    if failed.any():
        raise QuadratureNotConverged(f"{int(failed.sum())} cache probes did not converge")
    cached = np.array([strat._lookup(t, np.array([y]))[0] for t, y in probes])
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


def _log_wealth(model: MarketModel, t, c, gain: np.ndarray, power: np.ndarray) -> np.ndarray:
    """log X_t of the candidate ``c * strategy`` from its running sums at time t."""
    return model.r * t + c * gain - 0.5 * model.sigma**2 * c * c * power


def _step_paths(
    model: MarketModel,
    strategy: StrategyFn,
    scales: Sequence[float],
    times: np.ndarray,
    n_paths: int,
    seed: int,
    paths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one path stepper: drift indices and log X_T of every ``c * strategy``.

    ``strategy`` is called once per time step with the time and the
    observations of all paths, and may return a scalar or a vector.  log X_T
    has shape ``(len(scales), n_paths)``.  ``paths``, if given, is a
    ``(3, n_paths, times.size)`` array that receives y, log X_t of the
    unscaled strategy, and its fraction at every grid time.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = times.size - 1
    dt = float(times[1])
    sqrt_dt = math.sqrt(dt)
    thetas = _theta_indices(model, n_paths, seed)
    noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    excess_dt = (model.mus[thetas] - model.r) * dt
    gam_dt = model.gammas[thetas] * dt
    y, gain, power = np.zeros((3, n_paths))
    for i in range(n_steps):
        u = strategy(float(times[i]), y)
        if paths is not None:
            log_x = _log_wealth(model, times[i], 1.0, gain, power)
            paths[:, :, i] = np.broadcast_arrays(y, log_x, u)
        dw = noise.standard_normal(n_paths) * sqrt_dt
        gain += u * (excess_dt + model.sigma * dw)
        power += u * u * dt
        y = y + (dw + gam_dt)
    if paths is not None:
        u = strategy(float(times[-1]), y)
        log_x = _log_wealth(model, times[-1], 1.0, gain, power)
        paths[:, :, n_steps] = np.broadcast_arrays(y, log_x, u)
    c = np.asarray(scales, dtype=float)[:, None]
    return thetas, _log_wealth(model, times[-1], c, gain, power)


def simulate_paths(
    model: MarketModel,
    strategy: StrategyFn,
    T: float,
    step: float,
    n_paths: int,
    seed: int,
) -> PathRecord:
    """Simulate full paths under a feedback strategy into one :class:`PathRecord`.

    The strategy is called once per time step with the current time and the
    vector of path observations; it may return a scalar or a vector.  The
    record keeps y, log-wealth and fraction, so memory grows with
    n_paths x n_steps; stock and wealth are derived by
    :func:`export_path_csv`.  Its final log-wealth column is
    ``terminal_wealth``'s for the unit scale, bit for bit.  For
    terminal-only studies use :func:`optimality_check` or
    :func:`terminal_wealth`.
    """
    times = _time_grid(T, step)
    paths = np.empty((3, n_paths, times.size))
    thetas, _ = _step_paths(model, strategy, [1.0], times, n_paths, seed, paths)
    y, log_wealth, fraction = paths
    return PathRecord(model, times, thetas, y, log_wealth, fraction)


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


def estimate_utility(record: PathRecord, alpha: float, x0: float = 1.0) -> UtilityEstimate:
    """Sample mean and standard error of U(x0 X_T) over the record's paths.

    U is the power utility x^alpha / alpha, or log x for alpha = 0, taken
    from the recorded log X_T, so wealth far below double range still counts.
    Paths are simulated with unit initial wealth; x0 rescales terminal
    wealth, which for power utility just multiplies the estimate by
    x0^alpha.  The standard error needs two paths, so one raises ValueError.
    """
    UtilitySpec(alpha)
    if x0 <= 0.0:
        raise ValueError("x0 must be positive")
    mean, se = _mean_and_se(_utilities(record.log_wealth[:, -1], alpha, x0))
    return UtilityEstimate(mean=mean, std_error=se, n_paths=record.theta_index.size)


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
    ``T / round(T / step)``, ``clamped_frac`` is the fraction of the
    simulation's strategy lookups that fell outside the cache's y span, and
    ``table_nodes`` lists the node order of each cache row from s = 0 up.
    Standard errors need two paths, so ``n_paths < 2`` raises ValueError;
    utilities that overflow double range raise FloatingPointError.
    """
    UtilitySpec(alpha)
    if n_paths < 2:
        raise ValueError(f"optimality_check needs n_paths >= 2, got {n_paths}")
    scales = [1.0] + [float(c) for c in perturbations if float(c) != 1.0]
    base = build_feedback_strategy(model, alpha, T, quad)
    _, log_xt = terminal_wealth(
        model, base, [c * reference_scale for c in scales], T, step, n_paths, seed
    )
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
        "step": float(_time_grid(T, step)[1]),
        "n_paths": int(n_paths),
        "seed": int(seed),
        "reference_scale": float(reference_scale),
        "probe_error": float(base.probe_error),
        "clamped_frac": base.clamped / base.lookups,
        "table_nodes": base.row_nodes.tolist(),
        "strategies": strategies_report,
        "paired": paired,
        "undominated": bool(undominated),
    }


def export_path_csv(record: PathRecord, path_index: int, stream: IO[str]) -> None:
    """Write one path as CSV: time, stock, y, wealth, fraction.

    The stock is log S_t = (r - sigma^2 / 2) t + sigma Y_t and the wealth is
    exp(log X_t), both positive by construction.
    """
    m, times, y = record.model, record.times, record.y[path_index]
    stock = np.exp((m.r - 0.5 * m.sigma**2) * times + m.sigma * y)
    wealth = np.exp(record.log_wealth[path_index])
    write_columns(
        stream,
        ["time", "stock", "y", "wealth", "fraction"],
        [times, stock, y, wealth, record.fraction[path_index]],
    )


def export_report_json(report: dict, stream: IO[str]) -> None:
    """Write an optimality report as sorted JSON; NaN or inf raise ValueError, writing nothing."""
    stream.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
