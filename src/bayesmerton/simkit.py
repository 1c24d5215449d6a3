"""Path-level market simulation and Monte Carlo optimality checks.

The hidden drift is sampled from the prior per path; the stock, the
observation process ``Y_t = W_t + gamma_theta t``, and the wealth under a
feedback strategy all evolve on one time grid.  Log-space stepping is exact
in the noise and Euler only in the control (the fraction is frozen over each
step), so positivity of stock and wealth is structural and a constant
fraction reproduces the closed-form geometric Brownian solution to roundoff.

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

#: Paths evolved per vectorized block; has no effect on results.
BLOCK_SIZE = 16384

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
    work for the same accuracy) and linearly in y.  The row blended for a
    given t is memoized, so repeated calls at the same simulation time cost
    one gather per path.  Queries beyond the y span clamp to the edge
    values.  ``probe_error`` records the worst interpolation error against
    direct evaluation at random probe points; construction fails if it
    exceeds PROBE_TOL.
    """

    def __init__(
        self,
        model: MarketModel,
        alpha: float,
        T: float,
        s_grid: np.ndarray,
        y_grid: np.ndarray,
        table: np.ndarray,
        scale: float = 1.0,
        row_cache: dict[float, np.ndarray] | None = None,
    ):
        self.model = model
        self.alpha = alpha
        self.T = T
        self._s_grid = s_grid
        self._y_grid = y_grid
        self._table = table
        self.scale = scale
        self._ds = s_grid[1] - s_grid[0] if s_grid.size > 1 else 1.0
        self._dy = y_grid[1] - y_grid[0]
        self._row_cache: dict[float, np.ndarray] = {} if row_cache is None else row_cache
        self.probe_error: float | None = None

    def rescaled(self, scale: float) -> "CachedStrategy":
        """Same table, fraction multiplied by ``scale`` (shares all arrays)."""
        out = CachedStrategy(
            self.model, self.alpha, self.T, self._s_grid, self._y_grid, self._table,
            scale=scale, row_cache=self._row_cache,
        )
        out.probe_error = self.probe_error
        return out

    def _row_for_time(self, t: float) -> np.ndarray:
        row = self._row_cache.get(t)
        if row is not None:
            return row
        s = math.sqrt(max(self.T - t, 0.0))
        n = self._s_grid.size
        if n < 4:
            row = self._table[0] if n == 1 else None
            if row is None:
                pos = min(max(s / self._ds, 0.0), n - 1.0)
                i = min(int(pos), n - 2)
                w = pos - i
                row = (1.0 - w) * self._table[i] + w * self._table[i + 1]
        else:
            pos = min(max(s / self._ds, 0.0), n - 1.0)
            j0 = min(max(int(pos) - 1, 0), n - 4)
            x = pos - j0
            # Lagrange cubic through rows j0..j0+3 at offsets 0..3
            w0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
            w1 = x * (x - 2.0) * (x - 3.0) / 2.0
            w2 = -x * (x - 1.0) * (x - 3.0) / 2.0
            w3 = x * (x - 1.0) * (x - 2.0) / 6.0
            row = (
                w0 * self._table[j0]
                + w1 * self._table[j0 + 1]
                + w2 * self._table[j0 + 2]
                + w3 * self._table[j0 + 3]
            )
        self._row_cache[t] = row
        return row

    def __call__(self, t: float, y) -> np.ndarray:
        y_arr = np.asarray(y, dtype=float)
        row = self._row_for_time(float(t))
        # uniform-grid linear interpolation in y, clamped at the span edges
        pos = (y_arr - self._y_grid[0]) / self._dy
        j = np.clip(pos.astype(np.int64), 0, self._y_grid.size - 2)
        frac = np.clip(pos - j, 0.0, 1.0)
        return self.scale * (row[j] * (1.0 - frac) + row[j + 1] * frac)


def default_y_span(model: MarketModel, T: float) -> float:
    """Default half-span of the strategy cache's y grid: 10 sigma sqrt(T)."""
    return 10.0 * model.sigma * math.sqrt(T)


def build_feedback_strategy(
    model: MarketModel,
    alpha: float,
    T: float,
    quad: QuadratureConfig = QuadratureConfig(),
    y_span: float | None = None,
    y_points: int = 2001,
    s_points: int = 65,
    probe_points: int = 32,
    probe_seed: int = 20_060_317,
) -> CachedStrategy:
    """Tabulate the optimal feedback fraction for fast path simulation.

    alpha = 0 tabulates the horizon-free logarithmic fraction; anything else
    evaluates the whole table at the configured node count in one batched
    call (a single level; the probe check below is what enforces accuracy
    here).  Interpolation is then measured against direct doubling-verified
    evaluation at ``probe_points`` random (t, y) points and must come in
    under PROBE_TOL.

    Raises
    ------
    CacheProbeFailed
        If the worst probe error reaches PROBE_TOL.
    """
    UtilitySpec(alpha)
    if y_span is None:
        y_span = default_y_span(model, T)
    y_grid = np.linspace(-y_span, y_span, y_points)
    s_grid = np.linspace(0.0, math.sqrt(T), s_points)
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

    rng = np.random.default_rng(probe_seed)
    probes = rng.uniform([0.0, -y_span], [T, y_span], size=(probe_points, 2))
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


def _as_fraction(value, shape) -> np.ndarray:
    pi = np.asarray(value, dtype=float)
    if pi.ndim == 0:
        return np.full(shape, float(pi))
    return pi


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
    vector of path observations; it may return a scalar or a vector.  Stock
    and wealth evolve in log space (exact noise, control frozen per step), so
    both stay positive on every path.  Memory grows with
    n_paths x n_steps; for terminal-only studies use
    :func:`optimality_check` or :func:`terminal_wealth`.
    """
    if step <= 0.0 or T <= 0.0:
        raise ValueError("step and T must be positive")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps = max(1, int(round(T / step)))
    sqrt_dt = math.sqrt(step)
    thetas = _theta_indices(model, n_paths, seed)
    times = np.arange(n_steps + 1) * step
    sig2 = model.sigma**2

    bundles: list[PathBundle] = []
    for b0 in range(0, n_paths, BLOCK_SIZE):
        b1 = min(b0 + BLOCK_SIZE, n_paths)
        B = b1 - b0
        dw = np.stack(
            [_path_increments(seed, i, n_steps, sqrt_dt) for i in range(b0, b1)]
        )
        th = thetas[b0:b1]
        mu_th = model.mus[th]
        gam_th = model.gammas[th]

        y = np.zeros((B, n_steps + 1))
        log_s = np.zeros((B, n_steps + 1))
        log_x = np.zeros((B, n_steps + 1))
        frac = np.empty((B, n_steps + 1))
        for i in range(n_steps):
            t_i = float(times[i])
            pi = _as_fraction(strategy(t_i, y[:, i]), (B,))
            frac[:, i] = pi
            log_x[:, i + 1] = log_x[:, i] + (
                model.r + (mu_th - model.r) * pi - 0.5 * sig2 * pi * pi
            ) * step + model.sigma * pi * dw[:, i]
            log_s[:, i + 1] = log_s[:, i] + (mu_th - 0.5 * sig2) * step + model.sigma * dw[:, i]
            y[:, i + 1] = y[:, i] + dw[:, i] + gam_th * step
        frac[:, n_steps] = _as_fraction(strategy(float(times[n_steps]), y[:, n_steps]), (B,))

        stock = np.exp(log_s)
        wealth = np.exp(log_x)
        for j in range(B):
            bundles.append(
                PathBundle(
                    seed=int(seed),
                    path_index=b0 + j,
                    step=step,
                    times=times,
                    theta_index=int(th[j]),
                    stock=stock[j],
                    y=y[j],
                    wealth=wealth[j],
                    fraction=frac[j],
                    strategy_name=strategy_name,
                )
            )
    return bundles


def terminal_wealth(
    model: MarketModel,
    strategies: Sequence[tuple[str, StrategyFn]],
    T: float,
    step: float,
    n_paths: int,
    seed: int,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Terminal log-wealth per path for several strategies under shared noise.

    Returns the sampled drift indices and, per strategy, the vector of
    log X_T.  Identical seeds give identical noise for every strategy
    (common random numbers), which makes the per-path utility differences
    directly comparable.
    """
    if step <= 0.0 or T <= 0.0:
        raise ValueError("step and T must be positive")
    n_steps = max(1, int(round(T / step)))
    sqrt_dt = math.sqrt(step)
    thetas = _theta_indices(model, n_paths, seed)
    sig2 = model.sigma**2
    out = {name: np.empty(n_paths) for name, _ in strategies}

    for b0 in range(0, n_paths, BLOCK_SIZE):
        b1 = min(b0 + BLOCK_SIZE, n_paths)
        B = b1 - b0
        dw = np.stack(
            [_path_increments(seed, i, n_steps, sqrt_dt) for i in range(b0, b1)]
        )
        th = thetas[b0:b1]
        mu_th = model.mus[th]
        gam_th = model.gammas[th]
        # observation paths are strategy-independent; build once per block
        y_path = np.empty((B, n_steps))
        y_path[:, 0] = 0.0
        np.cumsum(dw[:, :-1] + gam_th[:, None] * step, axis=1, out=y_path[:, 1:])
        for name, strat in strategies:
            log_x = np.zeros(B)
            for i in range(n_steps):
                pi = _as_fraction(strat(i * step, y_path[:, i]), (B,))
                log_x += (
                    model.r + (mu_th - model.r) * pi - 0.5 * sig2 * pi * pi
                ) * step + model.sigma * pi * dw[:, i]
            out[name][b0:b1] = log_x
    return thetas, out


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
    y_span: float | None = None,
) -> dict:
    """Compare the candidate optimal strategy against scaled perturbations.

    The reference strategy is ``reference_scale * u*`` (the scale exists so
    tests can plant a deliberately wrong candidate); each perturbation c
    runs ``c * reference`` on common random numbers.  The report carries
    per-strategy utility estimates, paired differences (reference minus
    perturbed, path by path), and whether the reference is undominated
    within 3 paired standard errors.
    """
    UtilitySpec(alpha)
    scales = [1.0] + [float(c) for c in perturbations if float(c) != 1.0]
    base = build_feedback_strategy(model, alpha, T, quad, y_span=y_span)
    named = [
        (f"c={c!r}", base.rescaled(c * reference_scale)) for c in scales
    ]
    _, log_xt = terminal_wealth(model, named, T, step, n_paths, seed)
    utils = {name: _utilities(lx, alpha, 1.0) for name, lx in log_xt.items()}

    strategies_report = []
    for c, (name, _) in zip(scales, named):
        u = utils[name]
        strategies_report.append(
            {
                "scale": c,
                "mean": float(np.mean(u)),
                "std_error": float(np.std(u, ddof=1) / math.sqrt(u.size)),
            }
        )
    ref = utils[named[0][0]]
    paired = []
    undominated = True
    for c, (name, _) in zip(scales[1:], named[1:]):
        delta = ref - utils[name]
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
        "step": float(step),
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
