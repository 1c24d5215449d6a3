"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s`` or in failure reports), so the gate can be read off directly.
"""

import time

import numpy as np
import pytest

from bayesmerton import (
    StrategyQuery,
    merton_fraction,
    new_market,
    optimal_fraction,
    posterior_weights,
    simulate_filter_sde,
)
from bayesmerton.asymptotics import (
    default_horizons,
    horizon_sweep,
    jensen_lower_bound_fd,
    limit_fraction,
    pessimist_lower_bound_f1,
)
from bayesmerton.simkit import CachedStrategy, optimality_check

from oracles import mc_fraction, naive_ratio_u, random_alpha, random_market

TOY = new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))


def _report(number: int, description: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number}: {status} - {description}")
            return False

    return _Reporter()


def test_criterion_01_example_limits():
    with _report(1, "example limits 6.0 and 2/3"):
        assert limit_fraction(TOY, 0.5) == 6.0
        assert abs(limit_fraction(TOY, -0.5) - 2.0 / 3.0) <= 1e-12


def test_criterion_02_figure_reproduction():
    with _report(2, "horizon sweep trends to the limit, final gap < 5%, < 5 min"):
        start = time.perf_counter()
        for alpha in (0.5, -0.5):
            sweep = horizon_sweep(TOY, alpha, 0.0, 0.0, default_horizons())
            assert not sweep.failed.any()
            assert np.all(np.diff(sweep.gaps) <= 1e-12)  # monotone trend on this grid
            assert sweep.gaps[-1] < 0.05 * abs(sweep.limit)
        elapsed = time.perf_counter() - start
        print(f"  sweep wall time: {elapsed:.2f}s")
        assert elapsed < 300.0


def test_criterion_03_convex_combination_bound():
    with _report(3, "u* within [gamma_1, gamma_d]/(sigma(1-alpha)) on 200 random models"):
        rng = np.random.default_rng(1234)
        violations = 0
        for _ in range(200):
            m = random_market(rng, d_max=5, gamma_cap=5.0)
            alpha = random_alpha(rng, lo=-2.0, hi=0.8)
            T = float(rng.uniform(0.01, 2.0))
            t = float(rng.uniform(0.0, T))
            y = float(rng.uniform(-4.0, 4.0))
            sv = optimal_fraction(m, alpha, StrategyQuery(t, T, y))
            scale = m.sigma * (1.0 - alpha)
            ok = (
                m.gammas[0] / scale - 1e-12 <= sv.u_star <= m.gammas[-1] / scale + 1e-12
                and np.all(sv.f > 0.0)
                and abs(sv.f.sum() - 1.0) < 1e-8
            )
            violations += int(not ok)
        assert violations == 0


def test_criterion_04_state_weight_monotonicity():
    # Monotonicity needs r < mu_1 (all gammas positive); with mixed-sign
    # gammas it genuinely fails (counterexample verified against 30-digit
    # quadrature), because the likelihood mixture stops growing in y.
    with _report(4, "f_d nondecreasing and f_1 nonincreasing in alpha on 50 models"):
        rng = np.random.default_rng(4321)
        grid = [-0.9, -0.5, 0.2, 0.5, 0.8]
        for _ in range(50):
            m = random_market(rng, d_max=5, gamma_cap=3.0, require_valid=True)
            T = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(0.0, 0.8 * T))
            y = float(rng.uniform(-2.0, 2.0))
            query = StrategyQuery(t=t, T=T, y=y)
            prof = np.array([optimal_fraction(m, a, query).f for a in grid])
            assert np.all(np.diff(prof[:, -1]) >= -1e-9)
            assert np.all(np.diff(prof[:, 0]) <= 1e-9)


def test_criterion_05_bound_sandwiches():
    with _report(5, "lower bounds sit below the quadrature f values; Jensen limit exact"):
        for T in (2.0, 10.0, 50.0):
            for alpha in (0.2, 0.5, 0.8):
                f_top = optimal_fraction(TOY, alpha, StrategyQuery(0.0, T, 0.0)).f[-1]
                assert jensen_lower_bound_fd(TOY, alpha, 0.0, T, 0.0) <= f_top
            for alpha in (-0.5, -2.0):
                f_bottom = optimal_fraction(TOY, alpha, StrategyQuery(0.0, T, 0.0)).f[0]
                for lam in (1.1, 1.25, 1.4):
                    bound = pessimist_lower_bound_f1(TOY, alpha, 0.0, T, 0.0, lam=lam)
                    assert bound <= f_bottom
        for alpha in (0.2, 0.5, 0.8):
            beta = 1.0 / (1.0 - alpha)
            bound = jensen_lower_bound_fd(TOY, alpha, 0.0, 1e6, 0.0)
            assert abs(bound - 0.4 ** (beta - 1.0)) <= 1e-10


def test_criterion_06_oracle_equivalence():
    with _report(6, "quadrature vs 1e6-sample MC within 3 standard errors, 20 instances"):
        rng = np.random.default_rng(20_240_501)
        for trial in range(20):
            m = random_market(rng, d_max=5, gamma_cap=3.0)
            alpha = random_alpha(rng, lo=-2.0, hi=0.8)
            T = float(rng.uniform(0.05, 2.0))
            t = float(rng.uniform(0.0, 0.9 * T))
            y = float(rng.uniform(-2.0, 2.0))
            query = StrategyQuery(t, T, y)
            sv = optimal_fraction(m, alpha, query)
            mc = mc_fraction(m, alpha, query, 1_000_000, seed=9000 + trial)
            # 1e-12 absolute floor covers degenerate-variance cases (d=1)
            assert abs(sv.u_star - mc.estimate) <= 3.0 * mc.std_error + 1e-12


def test_criterion_07_degenerate_closed_forms():
    with _report(7, "d=1 Merton, t=T posterior Merton, zero hedging at maturity (1e-12)"):
        single = new_market(0.01, 0.7, (0.08,), (1.0,))
        rng = np.random.default_rng(99)
        for _ in range(25):
            T = float(rng.uniform(0.05, 30.0))
            t = float(rng.uniform(0.0, T))
            y = float(rng.normal(0.0, 3.0))
            alpha = random_alpha(rng, lo=-3.0, hi=0.9)
            sv = optimal_fraction(single, alpha, StrategyQuery(t, T, y))
            assert abs(sv.u_star - merton_fraction(single, 0.08, alpha)) <= 1e-12
        for _ in range(25):
            T = float(rng.uniform(0.05, 20.0))
            y = float(rng.normal(0.0, 2.0))
            alpha = random_alpha(rng, lo=-3.0, hi=0.9)
            sv = optimal_fraction(TOY, alpha, StrategyQuery(T, T, y))
            mean = float(posterior_weights(TOY, T, y) @ TOY.mus)
            expected = (mean - TOY.r) / (TOY.sigma**2 * (1.0 - alpha))
            assert abs(sv.u_star - expected) <= 1e-12
            assert abs(sv.hedging) <= 1e-12


def test_criterion_08_log_utility_consistency():
    with _report(8, "u* at alpha = +/-1e-3 within 1e-2 of the logarithmic fraction"):
        log_value = (float(TOY.prior @ TOY.mus) - TOY.r) / TOY.sigma**2
        for alpha in (1e-3, -1e-3):
            sv = optimal_fraction(TOY, alpha, StrategyQuery(0.0, 1.0, 0.0))
            assert abs(sv.u_star - log_value) < 1e-2


def test_criterion_09_filter_agreement():
    with _report(9, "Euler filter error shrinks >= 1.5x when the step is quartered"):
        def max_err(step: float, seed: int) -> float:
            path = simulate_filter_sde(TOY, 2, 5.0, step, seed=seed)
            closed = posterior_weights(TOY, path.times, path.y)
            return float(np.max(np.abs(path.probs - closed)))

        seeds = range(20)
        coarse = float(np.mean([max_err(2e-3, s) for s in seeds]))
        fine = float(np.mean([max_err(5e-4, s) for s in seeds]))
        print(f"  mean max error: step 2e-3 -> {coarse:.3e}, step 5e-4 -> {fine:.3e}")
        assert coarse / fine >= 1.5


def test_criterion_10_optimality_monte_carlo(monkeypatch):
    with _report(10, "u* undominated at 1e5 paths; planted wrong reference detected"):
        for alpha in (0.5, -0.5):
            report = optimality_check(
                TOY, alpha, 1.0, [0.5, 0.8, 1.25, 2.0],
                step=1e-3, n_paths=100_000, seed=2024,
            )
            assert report["undominated"] is True
        # the planted wrong candidate simulates twice the tabulated u*
        lookup = CachedStrategy.__call__
        monkeypatch.setattr(CachedStrategy, "__call__", lambda self, t, y: 2.0 * lookup(self, t, y))
        wrong = optimality_check(TOY, 0.5, 1.0, [0.5], step=1e-3, n_paths=20_000, seed=2024)
        assert wrong["undominated"] is False


def test_criterion_11_numerical_stability():
    with _report(11, "T=1000 evaluates finite; naive agreement to 1e-8 where representable"):
        for alpha in (0.9, 0.5, -0.5, -5.0):
            sv = optimal_fraction(TOY, alpha, StrategyQuery(0.0, 1000.0, 0.0))
            scale = TOY.sigma * (1.0 - alpha)
            assert np.isfinite(sv.u_star)
            assert TOY.gammas[0] / scale - 1e-9 <= sv.u_star <= TOY.gammas[-1] / scale + 1e-9
        checked = 0
        for alpha in (0.9, 0.5, -0.5, -5.0):
            for T in (0.5, 2.0, 8.0, 15.0):
                naive = naive_ratio_u(TOY, alpha, 0.0, T, 0.0)
                if not np.isfinite(naive):
                    continue
                sv = optimal_fraction(TOY, alpha, StrategyQuery(0.0, T, 0.0))
                assert sv.u_star == pytest.approx(naive, rel=1e-8)
                checked += 1
        print(f"  naive-representable cases checked: {checked}")
        assert checked >= 8
