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

The tabulated optimal strategy, :class:`CachedStrategy`, owns the table
from end to end: it picks the lattice, runs the backward heat solve that
gives a row of u* at every time of that same grid, keeps the rows in
segments, and looks them up, so each step reads one row and interpolates
only in y.

Reproducibility scheme: from a master seed, the hidden drifts for all paths
come from the generator seeded with ``SeedSequence(seed, spawn_key=(0,))``
(one vector draw in path order, :func:`_theta_indices`; the CLI's filter
demo simulates the drift of path 0), and step ``i``'s Brownian increments are
one ``standard_normal(n_paths)`` draw, element ``j`` for path ``j``, from one
generator seeded with ``SeedSequence(seed, spawn_key=(1,))``.  That generator
lives on a second thread, the only one to touch it, which draws step
``i + 1``'s increments while the stepper looks up step ``i``'s fractions;
it draws in step order, so every increment keeps its value and its place.
Runs with the same seed therefore share noise path by path regardless of
strategy, which is what the paired strategy comparisons rely on; all
reductions use numpy's pairwise summation over full per-path arrays.
"""

from __future__ import annotations

import bisect
import math
import queue
import threading
from typing import Callable, Sequence

import numpy as np

from .filtering import _n_steps, log_normalizer, posterior_weights
from .model import MarketModel, _check_alpha
from .strategy import QuadratureNotConverged, _state_sum, evaluate_points

#: The strategy table's lattice step is at most sqrt(dt) / _ROW_RES and
#: _GAP_STEP over the largest gap between adjacent gammas.
_ROW_RES = 1.5
_GAP_STEP = 0.5

#: Reach of the heat kernel, of each row and of each step's convolution, in
#: standard deviations: the kernel spans +-_KERNEL_SD sqrt(dt); the row at t
#: spans the drifts' reach plus _BAND_SD sqrt(t + dt), where the paths go;
#: and the convolution at t spans the tilted drifts' reach plus _REGION_SD
#: sqrt(t + dt).  By Cauchy-Schwarz, _BAND_SD sqrt(t + dt) + _KERNEL_SD
#: sqrt(s - t) is at most hypot(_BAND_SD, _KERNEL_SD) sqrt(s + dt) <=
#: _REGION_SD sqrt(s + dt), so the region at any later time s holds the
#: kernel windows of every row before it.
_KERNEL_SD = 9.0
_BAND_SD = 8.0
_REGION_SD = 12.5

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

#: Times the table halves its lattice step after a failed probe check.
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
    """Feedback fraction u*(t, T, y) from a row of a backward heat solve at each grid time.

    With b = 1 / (1 - alpha) and m(x) the posterior mean of gamma at (T, x),
    G(t, y) = E[F(T, y + W_{T-t})^b] and K(t, y) = E[(F^b (m - gamma_1))(y +
    W_{T-t})] both solve G_t + G_yy / 2 = 0 (the martingale form of Karatzas &
    Zhao 2001), and u* = (gamma_1 + K / G) / (sigma (1 - alpha)).  The state
    at step i is G + iK on the lattice points x_j = j h from ``region_lo[i]``
    to ``region_hi[i]``; one step back in time correlates it with the N(0, dt)
    density at the offsets within +-_KERNEL_SD sqrt(dt), taps beyond the
    region counting as 0: a trapezoid rule, geometrically convergent once h
    resolves the Gaussian and the posterior's switches.  G and K carry one
    tilt exp(-a x), a = b (gamma_1 + gamma_d) / 2, which turns the kernel into
    N(a dt, dt) up to a constant, and each step divides both by the largest G;
    where G still leaves double range, rows come out non-finite.  Row i spans
    ``band_lo[i] .. band_hi[i]``: [min(0, gamma_1 t), max(0, gamma_d t)] and
    _BAND_SD sqrt(t + dt) either side, plus the cubic's stencil; step i
    convolves only over that band widened to the tilted reach (b gamma_k t)
    and _REGION_SD sqrt(t + dt), which shrinks as t falls.  Row n is the
    closed form m / (sigma (1 - alpha)), bit-equal to
    :func:`~bayesmerton.strategy.evaluate_points` at t = T.  ``points``
    counts the lattice points the n steps convolve over.

    A call at a grid time i T / n_steps reads row i, and a call between grid
    times blends the two neighbouring rows linearly in t; in y it takes the
    Lagrange cubic through the four nearest lattice points.  A t outside
    [0, T] raises ValueError.  y beyond a row's band clamps to its edge;
    ``clamped`` counts those out of ``lookups``, the y values looked up
    through calls (the probe check does not count).

    Rows are kept in segments of consecutive steps of about
    _SEGMENT_ENTRIES entries: the first segment's rows, and the solve's state
    at the last step of every segment, from which a call in another segment
    solves it again, bit for bit.

    The constructor picks the lattice: from h = min(sqrt(dt) / _ROW_RES,
    _GAP_STEP / the largest gap between gammas) it runs the solve, probes it
    (:meth:`_walk`) against doubling-verified
    :func:`~bayesmerton.strategy.evaluate_points`, sets ``probe_error``, the
    worst miss, and halves h while that is not below PROBE_TOL, at most
    _HALVINGS times, so a table it returns meets PROBE_TOL.  Error budget:
    rows sit within about 1e-12 of doubling-verified values at the lattice
    points (tested at every 8th point of every 50th row on six markets), so
    PROBE_TOL bounds what is left, the cubic in y.  An alpha that is not a
    finite number < 1 raises InvalidAlpha before any lattice, a probe at the
    node cap QuadratureNotConverged, and a row that is not finite or a probe
    error still at PROBE_TOL or more at the finest lattice CacheProbeFailed.
    """

    def __init__(self, model: MarketModel, alpha: float, T: float, n_steps: int):
        _check_alpha(alpha)
        gam = model.gammas
        self.model, self.alpha, self.T, self.n = model, alpha, T, n_steps
        self.dt = dt = T / n_steps
        self._b = b = 1.0 / (1.0 - alpha)
        self._scale = model.sigma * (1.0 - alpha)
        self._tilt = 0.5 * b * float(gam[0] + gam[-1])
        gap = float(np.diff(gam).max(initial=0.0))
        step = min(math.sqrt(dt) / _ROW_RES, _GAP_STEP / gap if gap else math.inf)
        self.lookups = self.clamped = 0
        for halvings in range(_HALVINGS + 1):
            # free a failed table before solving the finer one
            self._rows = self._checkpoints = self._top = None
            self._lay_out(step / 2**halvings)
            t, probes, cached = self._walk()
            # after the walk, so none of its region-sized arrays outlive it into the probe call
            direct, _, failed, _ = evaluate_points(model, alpha, t, T, probes)
            if failed.any():
                raise QuadratureNotConverged(f"{int(failed.sum())} cache probes did not converge")
            self.probe_error = float(np.max(np.abs(cached - direct)))
            if self.probe_error < PROBE_TOL:
                return
        raise CacheProbeFailed(
            f"strategy cache interpolation error {self.probe_error:.3e} exceeds {PROBE_TOL}"
        )

    def _lay_out(self, h: float) -> None:
        """Set the lattice step h, the kernel, every row's band and region, and the segments."""
        gam, dt, b = self.model.gammas, self.dt, self._b
        self.h = h
        taps = math.ceil(_KERNEL_SD * math.sqrt(dt) / h)
        z = np.arange(-taps, taps + 1) * h - self._tilt * dt
        self._kernel = np.exp(-0.5 * z * z / dt)

        t = np.arange(self.n + 1) * dt
        # sqrt(t + dt) gives row 0 a width, so lookups between rows 0 and 1 stay inside both
        root = np.sqrt(t + dt)
        low, high = np.minimum(0.0, gam[0] * t), np.maximum(0.0, gam[-1] * t)
        # every band and region holds 0, so an index past int32 would need a row
        # of 2^31 lattice points; int32 halves what the table keeps per step
        self.band_lo = np.floor((low - _BAND_SD * root) / h).astype(np.int32) - 1
        self.band_hi = np.floor((high + _BAND_SD * root) / h).astype(np.int32) + 2
        reach_lo = np.minimum(low, b * gam[0] * t) - _REGION_SD * root
        reach_hi = np.maximum(high, b * gam[-1] * t) + _REGION_SD * root
        # the region reaches past the band by 4.5 sqrt(dt) or more, which holds the stencil's 2 h
        self.region_lo = np.floor(reach_lo / h).astype(np.int32)
        self.region_hi = np.ceil(reach_hi / h).astype(np.int32)
        self.points = int((self.region_hi - self.region_lo + 1)[:-1].sum())

        # each segment holds _SEGMENT_ENTRIES row entries at most, plus its first row
        number = np.cumsum(self.band_hi - self.band_lo + 1) // _SEGMENT_ENTRIES
        self._firsts = np.flatnonzero(np.diff(number, prepend=-1)).tolist()

    def _band(self, i: int, values: np.ndarray) -> np.ndarray:
        """The entries of values over region i that lie in row i's band."""
        first = self.band_lo[i] - self.region_lo[i]
        return values[first : first + self.band_hi[i] - self.band_lo[i] + 1]

    def _back(self, i: int, state: np.ndarray) -> np.ndarray:
        """G + iK at step i from the state at step i + 1."""
        first = self.region_lo[i] - self.region_lo[i + 1] + self._kernel.size // 2
        keep = slice(first, first + self.region_hi[i] - self.region_lo[i] + 1)
        # full correlation: entry j + taps sums state[j + k] kernel[k + taps], |k| <= taps;
        # the kernel is real, so G and K do not mix
        out = np.correlate(state, self._kernel, "full")[keep]
        out /= out.real.max()
        return out

    def _u(self, i: int, state: np.ndarray) -> np.ndarray:
        """Row i from the state at step i < n."""
        z = self._band(i, state)
        return (self.model.gammas[0] + z.imag / z.real) / self._scale

    def _solve(self, s: int, state: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Segment s's rows from the state at its last step, and the state at its first."""
        first = self._firsts[s]
        last = self._firsts[s + 1] - 1 if s + 1 < len(self._firsts) else self.n
        # G underflows to 0 where the tilt leaves double range: those rows are not finite
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rows = [self._top if last == self.n else self._u(last, state)]
            for i in range(last - 1, first - 1, -1):
                state = self._back(i, state)
                rows.append(self._u(i, state))
        return rows[::-1], state

    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve back from T once, keeping every segment's checkpoint and the first segment's rows.

        Returns, for ``_PROBE_POINTS`` grid steps after 0 drawn from
        ``_PROBE_SEED``, the time, the y mid-cell where that row's fourth
        difference is largest, which is where the cubic in y errs most (about
        3/128 of that difference), and the table's u* there.  A row that is
        not finite raises CacheProbeFailed.
        """
        at = np.random.default_rng(_PROBE_SEED).integers(1, self.n + 1, size=_PROBE_POINTS)
        gam = self.model.gammas
        x = np.arange(self.region_lo[-1], self.region_hi[-1] + 1) * self.h
        log_g = self._b * log_normalizer(self.model, self.T, x) - self._tilt * x
        g = np.exp(log_g - log_g.max())
        m = _state_sum(posterior_weights(self.model, self.T, x), gam)
        self._top = self._band(self.n, m) / self._scale
        state = g + 1j * (g * (m - gam[0]))
        probes, cached = np.empty((2, at.size))
        self._checkpoints, rows = [], None
        for s in reversed(range(len(self._firsts))):
            self._checkpoints.append(state)
            rows = None  # free the last segment's rows before solving this one
            rows, state = self._solve(s, state)
            if not all(np.isfinite(row).all() for row in rows):
                raise CacheProbeFailed("table rows not finite: the solve left double range")
            first = self._firsts[s]
            for p in np.flatnonzero((first <= at) & (at < first + len(rows))).tolist():
                i = int(at[p])
                row = rows[i - first]
                cell = self.band_lo[i] + 1 + int(np.argmax(np.abs(np.diff(row, 4))))
                probes[p] = (cell + 0.5) * self.h
                cached[p] = _cubic(row, self.band_lo[i], self.h, probes[p : p + 1])[0][0]
            if first:
                state = self._back(first - 1, state)
        self._checkpoints.reverse()
        self._rows, self._segment = rows, 0
        # n dt can round past T, which evaluate_points rejects
        return np.minimum(at * self.dt, self.T), probes, cached

    def _row(self, i: int) -> np.ndarray:
        s = bisect.bisect_right(self._firsts, i) - 1
        if s != self._segment:
            self._rows = None  # free the old segment before solving the new one
            self._rows = self._solve(s, self._checkpoints[s])[0]
            self._segment = s
        return self._rows[i - self._firsts[s]]

    def __call__(self, t: float, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        pos = float(t) / self.dt
        if not -1e-9 <= pos <= self.n + 1e-9:
            raise ValueError(f"t = {t} lies outside the table's [0, T = {self.T}]")
        i = round(pos)
        if abs(pos - i) <= 1e-9:
            u, clamped = _cubic(self._row(i), self.band_lo[i], self.h, y)
        else:
            i = int(pos)
            u, clamped = _cubic(self._row(i), self.band_lo[i], self.h, y)
            u1, clamped1 = _cubic(self._row(i + 1), self.band_lo[i + 1], self.h, y)
            u, clamped = u + (pos - i) * (u1 - u), clamped | clamped1
        self.lookups += y.size
        self.clamped += np.count_nonzero(clamped)
        return u


def build_feedback_strategy(
    model: MarketModel,
    alpha: float,
    T: float,
    step: float,
) -> CachedStrategy:
    """Tabulate u* for fast path simulation on the stepper's grid of ``_n_steps(T, step)``.

    An alpha that is not a finite number < 1 raises InvalidAlpha, and then a
    T that is not finite and positive, a step that is not positive or a
    T / step that is not finite ValueError, before any table is built.  The
    table is a :class:`CachedStrategy`, which picks its own lattice and
    returns only with ``probe_error`` below PROBE_TOL, or raises.
    """
    _check_alpha(alpha)
    return CachedStrategy(model, alpha, T, _n_steps(T, step))


def _theta_indices(model: MarketModel, n_paths: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return rng.choice(model.d, size=n_paths, p=model.prior)


def _draw_ahead(
    noise: np.random.Generator,
    sqrt_dt: float,
    n_steps: int,
    ready: queue.SimpleQueue,
    free: queue.SimpleQueue,
) -> None:
    """Fill buffers from ``free`` with each step's increments, in step order, into ``ready``.

    Each is ``noise.standard_normal(n_paths) * sqrt_dt`` bit for bit.  A None
    taken from ``free`` stops the drawing; an exception goes into ``ready``
    in place of the step's increments.
    """
    try:
        for _ in range(n_steps):
            buf = free.get()
            if buf is None:
                return
            noise.standard_normal(out=buf)
            buf *= sqrt_dt
            ready.put(buf)
    except Exception as exc:
        ready.put(exc)


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

    The increments are drawn one step ahead on a second thread, into two
    reused ``n_paths`` buffers, while this thread calls the strategy and
    updates the sums; numpy releases the interpreter lock for both.  The
    values and their order are those of drawing each step's increments in
    turn, so the output is the same bit for bit.  The thread is joined
    before the call returns or raises, and an exception it meets is raised
    here.  Below about 1000 paths the handoff, about 20 us a step, costs
    more than the draw it hides (2 paths x 20000 steps on a 2-vCPU Xeon:
    about 0.75 s, against 0.31 s drawn on one thread).
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
    ready, free = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty(n_paths))
    drawer = threading.Thread(target=_draw_ahead, args=(noise, sqrt_dt, n_steps, ready, free))
    drawer.start()
    try:
        for i in range(n_steps):
            u = strategy(i * dt, y)
            dw = ready.get()
            if isinstance(dw, Exception):
                raise dw
            gain += u * (excess_dt + model.sigma * dw)
            power += u * u * dt
            y = y + (dw + gam_dt)
            free.put(dw)  # redrawn only once this step is done reading it
    finally:
        free.put(None)
        drawer.join()
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
) -> dict:
    """Compare the candidate optimal strategy against scaled perturbations.

    The reference strategy is the tabulated u*; each perturbation c runs
    ``c * u*`` on common random numbers.  The report carries
    per-strategy utility estimates, paired differences (reference minus
    perturbed, path by path), and whether the reference is undominated
    within 3 paired standard errors.  Its ``step`` is the step simulated,
    ``T / round(T / step)``.  ``probe_error`` is the table's worst error
    against direct evaluation at its probes (see :class:`CachedStrategy`),
    ``clamped_frac`` the fraction of the simulation's strategy lookups that
    fell outside a table row's band, ``table_step`` the lattice step of the
    table's heat solve and ``table_points`` the lattice points it convolved
    over in its n_steps steps.
    Standard errors need two paths, so ``n_paths < 2`` raises ValueError;
    utilities that overflow double range raise FloatingPointError.
    """
    if n_paths < 2:
        raise ValueError(f"optimality_check needs n_paths >= 2, got {n_paths}")
    scales = [1.0] + [float(c) for c in perturbations if float(c) != 1.0]
    base = build_feedback_strategy(model, alpha, T, step)
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
        "table_step": float(base.h),
        "table_points": int(base.points),
        "strategies": strategies_report,
        "paired": paired,
        "undominated": bool(undominated),
    }
