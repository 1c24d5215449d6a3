import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bayesmerton import (
    StrategyQuery,
    log_utility_fraction,
    merton_fraction,
    new_market,
    optimal_fraction,
    posterior_weights,
)
import bayesmerton.simkit as simkit
import bayesmerton.strategy as strategy_mod
from bayesmerton.simkit import (
    PROBE_TOL,
    build_feedback_strategy,
    optimality_check,
    terminal_wealth,
)
from bayesmerton.filtering import _time_grid
from bayesmerton.strategy import QuadratureNotConverged
from oracles import integer_b_fraction, serial_terminal_wealth


@pytest.fixture
def toy():
    return new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))


@pytest.fixture(scope="module")
def toy_strategy():
    model = new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))
    return build_feedback_strategy(model, 0.5, 1.0, 1e-3)


def general_market():
    """sigma != 1, r != 0 and d = 4: the market of test_strategy's TestOneClosedForm."""
    return new_market(0.01, 0.3, (0.05, 0.1, 0.15, 0.3), (0.1, 0.2, 0.3, 0.4))


@pytest.fixture(scope="module")
def general_strategy():
    return build_feedback_strategy(general_market(), 0.0, 0.3, 1e-3)


@pytest.fixture(params=["toy_strategy", "general_strategy"], ids=["toy", "general"])
def feedback(request):
    """A multi-state market's feedback table; ``feedback.model`` is the market."""
    return request.getfixturevalue(request.param)


def recorded(model, strategy, T, step, n_paths, seed):
    """Run ``strategy`` at scale 1 and keep the (t, y, u) of every call it gets.

    Returns the drift indices, log X_T of shape (n_paths,), and the times
    (n_steps,), observations and fractions (n_steps, n_paths) the stepper
    passed and got back.  The strategy is called at every grid time but T,
    so y_T is not among them.
    """
    ts, ys, us = [], [], []

    def recording(t, y):
        u = strategy(t, y)
        ts.append(t)
        ys.append(np.array(y))
        us.append(np.broadcast_to(u, np.shape(y)).copy())
        return u

    thetas, log_xt = terminal_wealth(model, recording, [1.0], T, step, n_paths, seed)
    return thetas, log_xt[0], np.array(ts), np.array(ys), np.array(us)


class TestSimulatePaths:
    def test_bond_only_is_exact(self, toy):
        _, log_xt = terminal_wealth(toy, lambda t, y: 0.0, [1.0], T=1.0, step=0.01, n_paths=32, seed=3)
        assert np.all(log_xt[0] == 0.0)  # r = 0: X_T = x0 exactly
        assert np.all(np.exp(log_xt[0]) > 0)

    def test_bond_only_with_interest(self):
        m = new_market(0.03, 1.0, (0.08,), (1.0,))
        _, log_xt = terminal_wealth(m, lambda t, y: 0.0, [1.0], T=2.0, step=0.01, n_paths=8, seed=1)
        for log_x in log_xt[0]:
            assert math.exp(log_x) == pytest.approx(math.exp(0.03 * 2.0), rel=1e-13)

    def test_constant_merton_matches_gbm_closed_form(self):
        """d=1 with the constant Merton fraction: exact log-space scheme."""
        m = new_market(0.02, 0.8, (0.10,), (1.0,))
        pi = merton_fraction(m, 0.10, 0.5)
        T, step, n_paths, seed = 2.0, 1e-3, 16, 11
        _, log_xt = terminal_wealth(m, lambda t, y: pi, [1.0], T, step, n_paths, seed)
        # W_T from the documented noise stream: one standard_normal(n_paths) per step
        noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        n_steps = _time_grid(T, step).size - 1
        w_T = np.zeros(n_paths)
        for _ in range(n_steps):
            w_T += noise.standard_normal(n_paths) * math.sqrt(T / n_steps)
        closed = (m.r + (m.mus[0] - m.r) * pi - 0.5 * m.sigma**2 * pi**2) * T + m.sigma * pi * w_T
        np.testing.assert_allclose(log_xt[0], closed, rtol=0, atol=1e-10)

    def test_bitwise_determinism(self, toy):
        a = recorded(toy, lambda t, y: 0.5, T=0.5, step=0.01, n_paths=10, seed=77)
        b = recorded(toy, lambda t, y: 0.5, T=0.5, step=0.01, n_paths=10, seed=77)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_wealth_and_stock_positive(self, toy, toy_strategy):
        thetas, log_xt, times, y, u = recorded(
            toy, toy_strategy, T=1.0, step=0.005, n_paths=64, seed=5
        )
        # log X at the grid times inside (0, T), rebuilt from the recorded y increments
        dt = times[1]
        dw = np.diff(y, axis=0) - toy.gammas[thetas] * dt
        gain = np.cumsum(u[:-1] * ((toy.mus[thetas] - toy.r) * dt + toy.sigma * dw), axis=0)
        power = np.cumsum(u[:-1] ** 2 * dt, axis=0)
        log_x = toy.r * times[1:, None] + gain - 0.5 * toy.sigma**2 * power
        assert np.all(np.exp(log_x) > 0)
        assert np.all(np.exp(log_xt) > 0)
        log_stock = (toy.r - 0.5 * toy.sigma**2) * times[:, None] + toy.sigma * y
        assert np.all(np.exp(log_stock) > 0)
        assert np.all(y[0] == 0.0)

    def test_memory_does_not_grow_with_steps(self, toy):
        peaks = []
        for step in (0.02, 0.002):
            tracemalloc.start()
            try:
                terminal_wealth(
                    toy, lambda t, y: 0.5 + 0.1 * y, [1.0, 0.5], T=1.0, step=step,
                    n_paths=10_000, seed=4,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_memory_independent_of_step_count(self, toy):
        """With 2 paths nothing sized by the path count hides a per-step array."""

        def run(n_steps):
            terminal_wealth(
                toy, lambda t, y: 0.5 + 0.1 * y, [1.0, 0.5], T=1.0, step=1.0 / n_steps,
                n_paths=2, seed=4,
            )

        run(2_000)  # warm up: first-call allocations are not per step
        peaks = []
        for n_steps in (2_000, 20_000):
            tracemalloc.start()
            try:
                run(n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16_000

    def test_no_paths_rejected(self, toy):
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            terminal_wealth(toy, lambda t, y: 0.5, [1.0], T=1.0, step=0.1, n_paths=0, seed=1)

    def test_step_not_dividing_horizon_ends_at_horizon(self):
        m = new_market(0.03, 1.0, (0.08,), (1.0,))
        assert _time_grid(1.0, 0.3)[-1] == 1.0
        _, _, times, _, _ = recorded(m, lambda t, y: 0.0, T=1.0, step=0.3, n_paths=1, seed=1)
        assert times.tolist() == [0.0, 1.0 / 3.0, 2.0 / 3.0]
        _, log_xt = terminal_wealth(m, lambda t, y: 0.0, [1.0], T=1.0, step=0.3, n_paths=4, seed=1)
        np.testing.assert_allclose(log_xt, 0.03 * 1.0, rtol=1e-13)


class TestStepperReference:
    def test_matches_per_step_loop_on_general_market(self):
        """Two running sums reproduce the literal log-space step per candidate."""
        m = new_market(0.02, 0.3, (0.05, 0.1, 0.15, 0.3), (0.1, 0.2, 0.3, 0.4))
        strat = build_feedback_strategy(m, 0.0, 1.0, 0.01)
        scales, n_paths, n_steps, seed = [1.0, 0.5, 2.0], 500, 100, 17
        thetas, log_xt = terminal_wealth(m, strat, scales, T=1.0, step=0.01, n_paths=n_paths, seed=seed)

        drift_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        np.testing.assert_array_equal(thetas, drift_rng.choice(m.d, size=n_paths, p=m.prior))
        noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        dt = 1.0 / n_steps
        mu, gam = m.mus[thetas], m.gammas[thetas]
        y = np.zeros(n_paths)
        log_x = np.zeros((len(scales), n_paths))
        for i in range(n_steps):
            base = strat(i * dt, y)
            dw = noise.standard_normal(n_paths) * math.sqrt(dt)
            for k, c in enumerate(scales):
                pi = c * base
                log_x[k] += (
                    m.r + (mu - m.r) * pi - 0.5 * m.sigma**2 * pi * pi
                ) * dt + m.sigma * pi * dw
            y = y + dw + gam * dt
        np.testing.assert_allclose(np.exp(log_xt), np.exp(log_x), rtol=1e-12)


def raised_by(fn, timeout=60.0):
    """The exception ``fn()`` raises (None if it returns), run in a thread given ``timeout`` s."""
    box = []

    def target():
        try:
            fn()
        except Exception as exc:
            box.append(exc)
        else:
            box.append(None)

    # a daemon, so a call that hangs fails this test and does not hold up the suite's exit
    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"still running after {timeout} s"
    return box[0]


class TestDrawAhead:
    """The increments are drawn one step ahead on a second thread, bit for bit."""

    @pytest.mark.parametrize(
        "T, step",
        [(1.0, 1.0), (1.0, 0.5), (0.9, 0.3), (1.0, 0.15)],
        ids=["1-step", "2-steps", "3-steps", "step-not-dividing-T"],
    )
    def test_matches_serial_loop_bitwise(self, toy, T, step):
        def strat(t, y):
            return 0.5 + 0.1 * y - 0.2 * t

        args = (toy, strat, [1.0, 0.5, 2.0], T, step, 300, 21)
        for got, want in zip(terminal_wealth(*args), serial_terminal_wealth(*args)):
            np.testing.assert_array_equal(got, want)

    def test_matches_serial_loop_bitwise_on_table(self):
        """1000 steps of the table on the sigma 0.3 market; its lookup counts match too."""
        m = new_market(0.0, 0.3, (0.3, 0.6, 0.9), (0.3, 0.3, 0.4))
        strat = build_feedback_strategy(m, 0.0, 1.0, 1e-3)
        args = (m, strat, [1.0, 0.5, 2.0], 1.0, 1e-3, 2_000, 33)
        got = terminal_wealth(*args)
        counts = (strat.clamped, strat.lookups)
        want = serial_terminal_wealth(*args)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert (strat.clamped - counts[0], strat.lookups - counts[1]) == counts
        assert counts[1] == 1_000 * 2_000

    def test_strategy_error_propagates_and_leaves_no_thread(self, toy):
        class FailsAtStep5:
            armed = True

            def __call__(self, t, y):
                if self.armed and round(t / 0.1) == 5:
                    raise ZeroDivisionError("step 5")
                return 0.5 + 0.1 * y

        strat = FailsAtStep5()
        args = (toy, strat, [1.0, 0.5], 1.0, 0.1, 5_000, 8)
        before = threading.active_count()
        exc = raised_by(lambda: terminal_wealth(*args))
        assert isinstance(exc, ZeroDivisionError) and str(exc) == "step 5"
        assert threading.active_count() == before
        strat.armed = False
        for got, want in zip(terminal_wealth(*args), serial_terminal_wealth(*args)):
            np.testing.assert_array_equal(got, want)
        assert threading.active_count() == before

    def test_draw_error_propagates_and_leaves_no_thread(self, toy, monkeypatch):
        real = np.random.default_rng

        class FailsOnDraw4:
            def __init__(self, seed):
                self.rng, self.draws = real(seed), 0

            def choice(self, *args, **kwargs):
                return self.rng.choice(*args, **kwargs)

            def standard_normal(self, *args, **kwargs):
                self.draws += 1
                if self.draws == 4:
                    raise MemoryError("draw 4")
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", FailsOnDraw4)
        before = threading.active_count()
        exc = raised_by(
            lambda: terminal_wealth(toy, lambda t, y: 0.5, [1.0], 1.0, 0.1, 1_000, 8)
        )
        assert isinstance(exc, MemoryError) and str(exc) == "draw 4"
        assert threading.active_count() == before

    def test_concurrent_callers_under_short_switch_interval(self, toy):
        """Four callers at once, switching threads every microsecond, each bit for bit.

        A buffer handed back for redrawing while its step still reads it would
        change that step's increments.
        """
        def strat(t, y):
            return 0.5 + 0.1 * np.sin(y)

        runs = [(toy, strat, [1.0, 2.0], 1.0, 0.02, 20_000, seed) for seed in range(4)]
        want = [serial_terminal_wealth(*args) for args in runs]
        got = [None] * len(runs)

        def run(k):
            got[k] = terminal_wealth(*runs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(k,)) for k in range(len(runs))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                np.testing.assert_array_equal(a, b)


class TestObservationConsistency:
    def test_y_equals_brownian_plus_drift(self, feedback):
        model = feedback.model
        thetas, _, times, y, _ = recorded(
            model, lambda t, y: 0.0, T=1.0, step=0.01, n_paths=4, seed=13
        )
        # one noise stream; step i draws one increment per path, in path order
        rng = np.random.default_rng(np.random.SeedSequence(13, spawn_key=(1,)))
        dw = np.array([rng.standard_normal(4) for _ in range(100)]) * math.sqrt(0.01)
        w = np.vstack((np.zeros(4), np.cumsum(dw, axis=0)))
        assert y.shape == (100, 4)  # the strategy sees the 100 grid times before T
        for j in range(4):
            np.testing.assert_allclose(
                y[:, j], w[:100, j] + model.gammas[thetas[j]] * times, atol=1e-12,
            )

    def test_posterior_concentrates_on_true_drift(self, toy):
        """At t = 50 / min-gap^2 most paths identify theta (reported check)."""
        horizon = 50.0  # min gamma gap is 1
        thetas, _, times, y, _ = recorded(
            toy, lambda t, y: 0.0, T=horizon, step=0.05, n_paths=400, seed=21
        )
        t_last = float(times[-1])  # the last grid time the strategy sees, T - step
        hits = 0
        for y_t, theta in zip(y[-1], thetas):
            probs = posterior_weights(toy, t_last, float(y_t))
            hits += int(np.argmax(probs) == theta)
        fraction = hits / thetas.size
        print(f"posterior identification rate at t={t_last}: {fraction:.3f}")
        assert fraction > 0.9


class TestEstimateUtility:
    def test_bond_only_deterministic_utility(self, toy):
        _, log_xt = terminal_wealth(toy, lambda t, y: 0.0, [1.0], T=1.0, step=0.01, n_paths=16, seed=2)
        for alpha in (0.5, -0.5):
            mean, se = simkit._mean_and_se(simkit._utilities(log_xt[0], alpha, 1.0))
            assert mean == pytest.approx(1.0 / alpha, rel=1e-14)
            assert se == 0.0
        mean_log, _ = simkit._mean_and_se(simkit._utilities(log_xt[0], 0.0, 1.0))
        assert mean_log == pytest.approx(0.0, abs=1e-14)

    def test_bond_only_with_interest_and_initial_wealth(self):
        m = new_market(0.03, 1.0, (0.08,), (1.0,))
        _, log_xt = terminal_wealth(m, lambda t, y: 0.0, [1.0], T=2.0, step=0.01, n_paths=8, seed=2)
        for alpha in (0.5, -1.5):
            mean, se = simkit._mean_and_se(simkit._utilities(log_xt[0], alpha, 2.0))
            expected = (2.0 * math.exp(0.03 * 2.0)) ** alpha / alpha
            assert mean == pytest.approx(expected, rel=1e-12)
            assert se == 0.0

    def test_negative_alpha_means_negative_utility(self, toy, toy_strategy):
        _, log_xt = terminal_wealth(toy, toy_strategy, [1.0], T=1.0, step=0.01, n_paths=64, seed=4)
        mean, _ = simkit._mean_and_se(simkit._utilities(log_xt[0], -0.5, 1.0))
        assert mean < 0.0

    def test_initial_wealth_covariance(self, toy, toy_strategy):
        """Power utility scales by x0^alpha, so rankings are x0-free."""
        _, log_xt = terminal_wealth(toy, toy_strategy, [1.0], T=1.0, step=0.01, n_paths=64, seed=4)
        base, _ = simkit._mean_and_se(simkit._utilities(log_xt[0], 0.5, 1.0))
        scaled, _ = simkit._mean_and_se(simkit._utilities(log_xt[0], 0.5, 4.0))
        assert scaled == pytest.approx(4.0**0.5 * base, rel=1e-12)
        log_base, _ = simkit._mean_and_se(simkit._utilities(log_xt[0], 0.0, 1.0))
        log_scaled, _ = simkit._mean_and_se(simkit._utilities(log_xt[0], 0.0, 4.0))
        assert log_scaled == pytest.approx(log_base + math.log(4.0), rel=1e-12)

    def test_optimal_beats_half_scaled(self, toy, toy_strategy):
        """Paired comparison with common random numbers: u* vs 0.5 u*."""
        _, log_xt = terminal_wealth(
            toy, toy_strategy, [1.0, 0.5], T=1.0, step=5e-3, n_paths=20_000, seed=31
        )
        u_opt = simkit._utilities(log_xt[0], 0.5, 1.0)
        u_half = simkit._utilities(log_xt[1], 0.5, 1.0)
        delta = u_opt - u_half
        se = float(np.std(delta, ddof=1) / math.sqrt(delta.size))
        assert float(np.mean(delta)) >= -3.0 * se

    def test_log_optimal_beats_constant(self, toy):
        log_strat = build_feedback_strategy(toy, 0.0, 1.0, 5e-3)
        # the same seed gives both strategies the same noise
        _, opt = terminal_wealth(toy, log_strat, [1.0], T=1.0, step=5e-3, n_paths=20_000, seed=33)
        _, const = terminal_wealth(
            toy, lambda t, y: 1.0, [1.0], T=1.0, step=5e-3, n_paths=20_000, seed=33
        )
        delta = opt[0] - const[0]  # log utility is log X_T
        se = float(np.std(delta, ddof=1) / math.sqrt(delta.size))
        assert float(np.mean(delta)) >= -3.0 * se

    def test_step_halving_within_mc_noise(self, toy, toy_strategy):
        """Halving the step moves the estimate by less than the MC noise."""
        estimates = {}
        for step in (2e-3, 1e-3):
            _, log_xt = terminal_wealth(
                toy, toy_strategy, [1.0], T=1.0, step=step, n_paths=100_000, seed=8
            )
            u = simkit._utilities(log_xt[0], 0.5, 1.0)
            estimates[step] = (float(np.mean(u)), float(np.std(u, ddof=1) / math.sqrt(u.size)))
        (m1, s1), (m2, s2) = estimates[2e-3], estimates[1e-3]
        assert abs(m1 - m2) < 3.0 * math.hypot(s1, s2)

    def test_single_bundle_rejected(self, toy):
        # one path gives no standard error; 0.0 would claim an exact estimate
        _, log_xt = terminal_wealth(toy, lambda t, y: 1.0, [1.0], 1.0, 0.01, 1, 3)
        with pytest.raises(ValueError, match="2 samples"):
            simkit._mean_and_se(simkit._utilities(log_xt[0], 0.5, 1.0))

    def test_utility_overflow_raises(self, toy):
        # log X_T near -260 at 25x leverage: X_T is a double, X_T^-5 is not
        _, log_xt = terminal_wealth(toy, lambda t, y: 25.0, [1.0], 1.0, 0.01, 50, 3)
        with pytest.raises(FloatingPointError, match="overflow"):
            simkit._mean_and_se(simkit._utilities(log_xt[0], -5.0, 1.0))

    def test_log_utility_below_double_range(self, toy):
        # 60x leverage drives log X_T near -1800: X_T underflows to 0.0, its log does not
        _, log_xt = terminal_wealth(toy, lambda t, y: 60.0, [1.0], 1.0, 0.01, 50, 7)
        assert np.all(np.exp(log_xt[0]) == 0.0)
        mean, se = simkit._mean_and_se(simkit._utilities(log_xt[0], 0.0, 1.0))
        assert mean == np.mean(log_xt[0])
        assert math.isfinite(se)


def table_row(strat, i):
    """Row i of a strategy table and its lattice points, (x, u)."""
    u = strat._row(i)
    return (strat.band_lo[i] + np.arange(u.size)) * strat.h, u


#: Markets that failed the probe check when the table's rows were uniform in
#: sqrt(T - t) and blended cubically in t: (market, alpha, T).
ONCE_FAILING = [
    pytest.param("toy", 0.5, 8.0, id="toy-T8"),
    pytest.param("toy", 0.9, 1.0, id="toy-alpha0.9"),
    pytest.param("s03", 0.5, 1.0, id="sigma0.3"),
    pytest.param("wide", 0.5, 1.0, id="wide-alpha0.5"),
    pytest.param("wide", 0.25, 1.0, id="wide-alpha0.25"),
    pytest.param("wide", -0.25, 1.0, id="wide-alpha-0.25"),
    pytest.param("eight", 0.5, 1.0, id="eight-drifts"),
    pytest.param("bench-wide", 0.25, 1.0, id="bench-wide-alpha0.25"),
    pytest.param("bench-wide", -0.25, 1.0, id="bench-wide-alpha-0.25"),
]


def market(name):
    return {
        "toy": new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4)),
        "general": general_market(),
        "s03": new_market(0.0, 0.3, (0.3, 0.6, 0.9), (0.3, 0.3, 0.4)),
        "sigma2": new_market(0.0, 2.0, (2.0, 4.0, 6.0), (0.3, 0.3, 0.4)),
        # gammas from 0.2 to 9.95, adjacent gaps up to 5.5
        "wide": new_market(0.01, 0.2, (0.05, 0.3, 0.9, 2.0), (0.25,) * 4),
        "eight": new_market(0.0, 1.0, tuple(np.linspace(-1.0, 3.0, 8)), (0.125,) * 8),
        "bench-wide": new_market(0.0, 0.5, (0.5, 2.5, 5.0), (1 / 3,) * 3),
    }[name]


class TestCachedStrategy:
    def test_probe_error_within_contract(self, toy_strategy):
        assert toy_strategy.probe_error is not None
        assert toy_strategy.probe_error < PROBE_TOL

    def test_constructor_returns_a_finished_table(self, toy):
        """The constructor solves and probes: the table looks up like a built one, bit for bit."""
        table = simkit.CachedStrategy(toy, 0.5, 1.0, 100)
        assert type(table.probe_error) is float and table.probe_error < PROBE_TOL
        built = build_feedback_strategy(toy, 0.5, 1.0, 0.01)
        y = np.linspace(-3.0, 3.0, 25)
        for t in (0.5, 1.0):
            np.testing.assert_array_equal(table(t, y), built(t, y))

    def test_probes_at_node_cap_raise(self, toy, monkeypatch):
        """Probes still moving at the node cap raise; the one at t = T takes the closed form."""

        def unsettled(model, alpha, t, T, y, n_nodes):
            return np.full((t.size, model.d), np.nan)

        monkeypatch.setattr(strategy_mod, "_fk_level", unsettled)
        with pytest.raises(QuadratureNotConverged, match="^31 cache probes did not converge$"):
            build_feedback_strategy(toy, 0.5, 1.0, 0.01)

    def test_log_utility_cache(self, toy):
        strat = build_feedback_strategy(toy, 0.0, 1.0, 1e-3)
        assert strat.probe_error < PROBE_TOL
        got = float(strat(0.3, np.array([0.4]))[0])
        assert got == pytest.approx(log_utility_fraction(toy, 0.3, 0.4), abs=1e-4)
        # the t = 0 row is the closed form p_k exp(gamma_k y) that
        # log_utility_fraction reads, so rows stay continuous in t
        y, row = table_row(strat, 0)
        w = toy.prior * np.exp(toy.gammas * y[:, None])
        continuum = (w @ toy.mus / w.sum(axis=1) - toy.r) / toy.sigma**2
        np.testing.assert_allclose(row, continuum, rtol=1e-12)
        direct = np.array([log_utility_fraction(toy, 0.0, v) for v in y.tolist()])
        np.testing.assert_allclose(row, direct, rtol=0, atol=1e-12)

    def test_rescaled_shares_table(self, toy, toy_strategy):
        """A scaled candidate steps exactly like the table scaled by hand."""
        _, shared = terminal_wealth(
            toy, toy_strategy, [1.0, 2.0], T=1.0, step=0.01, n_paths=64, seed=12
        )
        _, doubled = terminal_wealth(
            toy, lambda t, y: 2.0 * toy_strategy(t, y), [1.0], T=1.0, step=0.01,
            n_paths=64, seed=12,
        )
        np.testing.assert_array_equal(shared[1], doubled[0])

    def test_matches_direct_evaluation(self, toy, toy_strategy):
        # random t fall between grid times, where the two nearest rows blend
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(-3.0, 3.0))
            direct = optimal_fraction(toy, 0.5, StrategyQuery(t, 1.0, y)).u_star
            assert float(toy_strategy(t, np.array([y]))[0]) == pytest.approx(direct, abs=1e-4)

    def test_probe_check_does_not_count_lookups(self, toy):
        strat = build_feedback_strategy(toy, 0.0, 1.0, 1e-3)
        assert strat.probe_error is not None
        assert (strat.lookups, strat.clamped) == (0, 0)
        strat(0.5, np.array([0.0, 100.0]))
        assert (strat.lookups, strat.clamped) == (2, 1)

    def test_clamps_outside_span(self, toy_strategy):
        inside = float(toy_strategy(0.0, np.array([9.99]))[0])
        outside = float(toy_strategy(0.0, np.array([50.0]))[0])
        assert outside == pytest.approx(inside, abs=1e-6)

    def test_lookup_outside_horizon_raises(self, toy_strategy):
        """A t outside [0, T] names t instead of reading row 0 or row n."""
        y = np.array([0.0])
        for t in (-0.5, -1e-6, 1.0 + 1e-6, 2.0):
            with pytest.raises(ValueError, match=f"t = {t} lies outside"):
                toy_strategy(t, y)
        # the ends, and roundoff past them, still read the end rows
        for t in (-1e-15, 0.0, 1.0, 1.0 + 1e-15):
            assert np.isfinite(toy_strategy(t, y)).all()

    def test_probe_at_maturity_past_T(self, toy):
        """T 3.5 in 100 steps: 100 dt rounds past T, but row n and its probes sit at T."""
        assert 100 * (3.5 / 100) > 3.5
        strat = build_feedback_strategy(toy, 0.5, 3.5, 0.035)
        assert strat.probe_error < PROBE_TOL

    def test_segments_solve_again_bit_for_bit(self, toy):
        """A segment solved again from its checkpoint gives the rows the build kept."""
        strat = build_feedback_strategy(toy, 0.5, 1.0, 1e-3)
        assert len(strat._firsts) > 1
        kept = [row.copy() for row in strat._rows]
        strat._row(strat.n)  # solves the top segment from its checkpoint
        assert strat._segment == len(strat._firsts) - 1
        for i, row in enumerate(kept):
            np.testing.assert_array_equal(strat._row(i), row)

    @pytest.mark.parametrize("n_steps", [1_000, 4_000])
    def test_segments_hold_their_entry_budget(self, toy, n_steps):
        """Each segment's rows hold _SEGMENT_ENTRIES entries at most, plus its first row."""
        strat = build_feedback_strategy(toy, 0.5, 1.0, 1.0 / n_steps)
        widest = int((strat.band_hi - strat.band_lo).max()) + 1
        assert len(strat._firsts) > 1
        for first in strat._firsts:
            strat._row(first)  # solves first's segment
            assert sum(row.size for row in strat._rows) <= simkit._SEGMENT_ENTRIES + widest

    @pytest.mark.parametrize("name, alpha, T", ONCE_FAILING)
    def test_once_failing_markets_build(self, name, alpha, T):
        """Probes pass, and simulated (t, Y_t) match direct evaluation to PROBE_TOL."""
        model = market(name)
        strat = build_feedback_strategy(model, alpha, T, T / 1000)
        assert strat.probe_error < PROBE_TOL
        _, _, times, y, u = recorded(model, strat, T, T / 1000, n_paths=300, seed=3)
        assert strat.clamped == 0
        direct, _, failed, _ = strategy_mod.evaluate_points(
            model, alpha, times[::50, None], T, y[::50]
        )
        assert not failed.any()
        assert np.max(np.abs(u[::50] - direct)) < PROBE_TOL

    @pytest.mark.parametrize(
        "name, alpha, halvings",
        [
            pytest.param("toy", 0.9, 1, id="toy-alpha0.9"),
            pytest.param("wide", 0.5, 2, id="wide-alpha0.5"),
            pytest.param("wide", 0.25, 1, id="wide-alpha0.25"),
            pytest.param("toy", 0.5, 0, id="toy-alpha0.5"),
            pytest.param("wide", -0.25, 0, id="wide-alpha-0.25"),
        ],
    )
    def test_constructor_picks_the_lattice(self, name, alpha, halvings):
        """The table halves its lattice step from h0 until the probes pass."""
        model = market(name)
        table = simkit.CachedStrategy(model, alpha, 1.0, 1_000)
        gap = float(np.diff(model.gammas).max())
        h0 = min(math.sqrt(1e-3) / simkit._ROW_RES, simkit._GAP_STEP / gap)
        assert table.h == h0 / 2**halvings
        assert table.probe_error < PROBE_TOL

    def test_probe_failure_at_finest_lattice_raises(self, toy, monkeypatch):
        """The tolerance is read when the table is built; the last halving's miss is named."""
        monkeypatch.setattr(simkit, "PROBE_TOL", 1e-12)
        with pytest.raises(
            simkit.CacheProbeFailed,
            match="^strategy cache interpolation error 3.346e-10 exceeds 1e-12$",
        ):
            simkit.CachedStrategy(toy, 0.5, 1.0, 1_000)

    def test_range_failure_raises(self, toy):
        """Toy alpha 0.5 at T 100: the tilted solve leaves double range, and no table comes back."""
        with pytest.raises(simkit.CacheProbeFailed, match="not finite"):
            build_feedback_strategy(toy, 0.5, 100.0, 0.1)

    @pytest.mark.parametrize(
        "alpha, step, h_over_h0",
        [
            # the tilted kernel's mean sits 3.8 sd off 0: off-centre taps missed by 7.8e-3
            pytest.param(0.25, 2.0, 0.25, id="alpha0.25-step2"),
            pytest.param(-2.0, 1.0, 1.0, id="alpha-2-step1"),
        ],
    )
    def test_taps_centre_on_the_tilted_mean(self, toy, alpha, step, h_over_h0):
        """Toy at T 100 with steps of 1 and 2: tilt dt spans many lattice steps.

        The first lattice step h0 is the gap cap _GAP_STEP at these steps.
        """
        strat = build_feedback_strategy(toy, alpha, 100.0, step)
        assert strat.probe_error < PROBE_TOL
        assert strat.h == h_over_h0 * simkit._GAP_STEP

    @pytest.mark.parametrize(
        "mus, alpha, T, n_steps",
        [
            # tilt sqrt(dt) 20 against a +-9 sd window: the shift passes the taps
            pytest.param((1.0, 2.0, 3.0), 0.9, 10.0, 10, id="tilt+20"),
            pytest.param((-3.0, -2.0, -1.0), 0.9, 10.0, 10, id="tilt-20"),
            pytest.param((1.0, 2.0, 3.0), 0.25, 100.0, 50, id="tilt+2.7"),
            pytest.param((1.0, 2.0, 3.0), 0.5, 1.0, 1_000, id="bench"),
        ],
    )
    def test_kernel_slices_stay_inside_the_full_correlation(
        self, monkeypatch, mus, alpha, T, n_steps
    ):
        """Every step's kept slice lies inside its full correlation, however far the taps shift."""

        class LaidOut(Exception):
            pass

        def check(table):
            width = table.region_hi - table.region_lo + 1
            first = table.region_lo[:-1] - table.region_lo[1:] + table._lag
            assert (first >= 0).all()
            assert (first + width[:-1] <= width[1:] + table._kernel.size - 1).all()
            raise LaidOut

        monkeypatch.setattr(simkit.CachedStrategy, "_walk", check)
        with pytest.raises(LaidOut):
            simkit.CachedStrategy(new_market(0.0, 1.0, mus, (0.3, 0.3, 0.4)), alpha, T, n_steps)


class TestRightSizedTable:
    """One backward heat solve gives a row of u* at every step of the stepper's grid."""

    @pytest.mark.parametrize(
        "name, alpha, T",
        [
            pytest.param("general", 0.5, 1.0, id="0.5"),
            pytest.param("general", -2.0, 1.0, id="-2.0"),
            # the row-level node search missed rel_tol here: 1.31e-9
            pytest.param("toy", -5.0, 20.0, id="toy-alpha-5-T20"),
            # sigma 2: the lattice step is set by the gaps between gammas
            pytest.param("sigma2", 0.5, 1.0, id="sigma2"),
            pytest.param("wide", -3.0, 4.0, id="wide-alpha-3-T4"),
            pytest.param("toy", 0.5, 50.0, id="toy-T50"),
        ],
    )
    def test_rows_match_doubling_verified_values(self, name, alpha, T):
        """Every 8th node of every 50th row, and of the first and last, within 1e-10 relative."""
        model = market(name)
        strat = build_feedback_strategy(model, alpha, T, T / 1000)
        n = strat.n
        # the evaluator's roundoff floor on top of the relative target
        atol = 1e-13 * (np.abs(model.gammas).max() / (model.sigma * (1.0 - alpha)) + 1.0)
        for i in sorted({0, 1, n, *range(0, n, 50)}):
            x, row = table_row(strat, i)
            direct, _, failed, _ = strategy_mod.evaluate_points(
                model, alpha, i * (T / n), T, x[::8]
            )
            assert not failed.any()
            assert np.all(np.abs(row[::8] - direct) <= 1e-10 * np.abs(direct) + atol)
        # t = T is the maturity closed form, bit for bit
        x, row = table_row(strat, n)
        np.testing.assert_array_equal(row, strategy_mod.evaluate_points(model, alpha, T, T, x)[0])

    @pytest.mark.parametrize("name", ["toy", "wide"])
    def test_rows_match_integer_b_closed_form(self, name):
        """At alpha 1/2 (b = 2), every lattice point of every 50th row, and of the first and last."""
        model, alpha, T = market(name), 0.5, 1.0
        strat = build_feedback_strategy(model, alpha, T, T / 1000)
        n = strat.n
        atol = 1e-13 * (np.abs(model.gammas).max() / (model.sigma * (1.0 - alpha)) + 1.0)
        for i in sorted({0, 1, n, *range(0, n, 50)}):
            x, row = table_row(strat, i)
            exact = integer_b_fraction(model, 2, i * (T / n), T, x)
            assert np.all(np.abs(row - exact) <= 1e-10 * np.abs(exact) + atol)

    def test_working_set_does_not_grow_with_horizon(self, toy):
        # warm up: first-call allocations do not grow with the horizon
        build_feedback_strategy(toy, 0.5, 1.0, 1e-3)
        peaks = []
        for T in (1.0, 50.0):
            tracemalloc.start()
            try:
                build_feedback_strategy(toy, 0.5, T, T / 1000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_zero_horizon_rejected(self, toy):
        # an optcheck at T = 0 exits 2 naming T
        for alpha in (0.5, 0.0):
            with pytest.raises(ValueError, match="T > 0"):
                build_feedback_strategy(toy, alpha, 0.0, 1e-3)

    def test_closed_form_builds_run_no_quadrature(self, toy, monkeypatch):
        calls = []
        real_fk = strategy_mod._fk_level

        def counted_fk(*args):
            calls.append("fk")
            return real_fk(*args)

        monkeypatch.setattr(strategy_mod, "_fk_level", counted_fk)
        d1 = new_market(0.0, 1.0, (1.0,), (1.0,))
        for model, alpha in ((toy, 0.0), (d1, 0.5)):
            strat = build_feedback_strategy(model, alpha, 1.0, 1e-3)
            assert strat.points > 0  # the same heat solve fills every table
        assert calls == []


class TestOptimalityCheck:
    def test_reference_undominated(self, toy):
        report = optimality_check(
            toy, 0.5, 1.0, [0.5, 2.0], step=0.01, n_paths=20_000, seed=5
        )
        assert report["undominated"] is True
        assert {s["scale"] for s in report["strategies"]} == {1.0, 0.5, 2.0}
        assert all(not p["dominates_reference"] for p in report["paired"])
        assert report["clamped_frac"] == 0.0  # toy paths stay inside the rows' bands
        # the lattice step is sqrt(dt) / 1.5 below the gap cap 0.5, convolved over 100 steps
        assert report["table_step"] == math.sqrt(0.01) / 1.5
        assert isinstance(report["table_points"], int) and report["table_points"] > 0

    def test_log_utility_runs_the_same_solve(self, toy):
        report = optimality_check(toy, 0.0, 1.0, [0.5], step=0.01, n_paths=200, seed=5)
        table = simkit.CachedStrategy(toy, 0.0, 1.0, 100)
        assert (report["table_step"], report["table_points"]) == (table.h, table.points)

    def test_trivial_perturbation_set(self, toy):
        report = optimality_check(toy, -0.5, 1.0, [1.0], step=0.01, n_paths=2_000, seed=5)
        assert report["undominated"] is True
        assert report["paired"] == []

    def test_wrong_reference_detected(self, toy, toy_strategy, monkeypatch):
        # planted wrong candidate: the simulated reference is twice the table;
        # the build's probe check reads the table through _cubic, so it passes
        lookup = simkit.CachedStrategy.__call__
        plain = terminal_wealth(toy, toy_strategy, [2.0, 1.0], 1.0, 0.01, 500, 5)[1]
        monkeypatch.setattr(
            simkit.CachedStrategy, "__call__", lambda self, t, y: 2.0 * lookup(self, t, y)
        )
        # doubling is exact in binary: c (2 u*) runs bit for bit as (2 c) u*
        doubled = terminal_wealth(toy, toy_strategy, [1.0, 0.5], 1.0, 0.01, 500, 5)[1]
        assert doubled.tobytes() == plain.tobytes()
        report = optimality_check(toy, 0.5, 1.0, [0.5], step=0.01, n_paths=20_000, seed=5)
        assert report["undominated"] is False

    def test_single_state_merton_undominated(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        report = optimality_check(m, 0.5, 1.0, [0.5, 2.0], step=0.01, n_paths=20_000, seed=6)
        assert report["undominated"] is True

    def test_clamped_lookups_reported(self):
        # sigma 0.3: Y_t = W_t + gamma_theta t does not scale with sigma, and
        # the rows span where the paths go, so no lookup clamps
        m = market("s03")
        report = optimality_check(m, 0.0, 1.0, [0.5], step=0.01, n_paths=2_000, seed=5)
        assert report["clamped_frac"] == 0.0
        strat = build_feedback_strategy(m, 0.0, 1.0, 0.01)
        _, _, times, y, u = recorded(m, strat, 1.0, 0.01, n_paths=2_000, seed=5)
        direct = strategy_mod.evaluate_points(m, 0.0, times[:, None], 1.0, y)[0]
        assert np.max(np.abs(u - direct)) < PROBE_TOL

    def test_memory_does_not_grow_with_steps(self, toy):
        """The table's stored rows stay within their budget at four times the steps.

        Bounds the peak's growth per added step, which the kernel's working set
        does not pad: the checkpoints add about 215 B per step, while keeping
        every row would add about 11 KB.
        """

        def run(n_steps):
            optimality_check(toy, 0.5, 1.0, [0.5], step=1.0 / n_steps, n_paths=2, seed=4)

        run(1_000)  # warm up: first-call allocations are not per step
        peaks = []
        for n_steps in (1_000, 4_000):
            tracemalloc.start()
            try:
                run(n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 3_000 <= 1_024

    def test_paths_step_on_the_table_grid(self, toy, monkeypatch):
        """T 3.5 in 100 steps: the table is called at the grid's times before T; step is its dt."""
        called = []
        lookup = simkit.CachedStrategy.__call__

        def recording(self, t, y):
            called.append(t)
            return lookup(self, t, y)

        monkeypatch.setattr(simkit.CachedStrategy, "__call__", recording)
        report = optimality_check(toy, 0.5, 3.5, [0.5], step=0.035, n_paths=2, seed=1)
        grid = _time_grid(3.5, 0.035)
        assert called == grid[:-1].tolist()
        assert report["step"] == grid[1]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: under P the sample mean of X^alpha / alpha misses its heavy "
        "tail, so the paired z is noise; the check under the optimal-wealth measure Q* mends it",
    )
    @pytest.mark.parametrize(
        "name, T, seed",
        [
            pytest.param("toy", 8.0, 1, id="toy-T8-seed1"),
            pytest.param("toy", 8.0, 2, id="toy-T8-seed2"),
            pytest.param("wide", 1.0, 7, id="wide-T1-seed7"),
        ],
    )
    def test_heavy_tailed_verdict(self, name, T, seed):
        """Alpha 0.5 at step T / 1000: an accurate table is judged dominated under P."""
        report = optimality_check(
            market(name), 0.5, T, [0.5, 2.0], step=T / 1000, n_paths=20_000, seed=seed
        )
        assert report["probe_error"] < PROBE_TOL
        assert report["undominated"] is True

    def test_single_path_rejected(self, toy):
        with pytest.raises(ValueError, match="n_paths"):
            optimality_check(toy, 0.0, 1.0, [0.5], step=0.1, n_paths=1, seed=1)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_perturbation_rejected_before_build(self, toy, scale, monkeypatch):
        def build(*args):
            raise AssertionError("built a table for a non-finite perturbation")

        monkeypatch.setattr(simkit, "build_feedback_strategy", build)
        with pytest.raises(ValueError, match=f"perturbations must be finite, got {scale}"):
            optimality_check(toy, 0.5, 1.0, [0.5, scale], step=0.1, n_paths=10, seed=0)
