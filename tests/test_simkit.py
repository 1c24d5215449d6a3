import io
import json
import math

import numpy as np
import pytest

from bayesmerton import (
    StrategyQuery,
    log_utility_fraction,
    merton_fraction,
    new_market,
    optimal_fraction,
    posterior,
)
import bayesmerton.simkit as simkit
from bayesmerton.simkit import (
    PROBE_TOL,
    build_feedback_strategy,
    estimate_utility,
    export_path_csv,
    export_report_json,
    optimality_check,
    simulate_paths,
    terminal_wealth,
)


@pytest.fixture
def toy():
    return new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))


@pytest.fixture(scope="module")
def toy_strategy():
    model = new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))
    return build_feedback_strategy(model, 0.5, 1.0)


class TestSimulatePaths:
    def test_bond_only_is_exact(self, toy):
        bundles = simulate_paths(toy, lambda t, y: 0.0, T=1.0, step=0.01, n_paths=32, seed=3)
        for b in bundles:
            assert b.wealth[-1] == 1.0  # r = 0: X_T = x0 exactly
            assert np.all(b.wealth > 0)

    def test_bond_only_with_interest(self):
        m = new_market(0.03, 1.0, (0.08,), (1.0,))
        bundles = simulate_paths(m, lambda t, y: 0.0, T=2.0, step=0.01, n_paths=8, seed=1)
        for b in bundles:
            assert b.wealth[-1] == pytest.approx(math.exp(0.03 * 2.0), rel=1e-13)

    def test_constant_merton_matches_gbm_closed_form(self):
        """d=1 with the constant Merton fraction: exact log-space scheme."""
        m = new_market(0.02, 0.8, (0.10,), (1.0,))
        pi = merton_fraction(m, 0.10, 0.5)
        bundles = simulate_paths(m, lambda t, y: pi, T=2.0, step=1e-3, n_paths=16, seed=11)
        for b in bundles:
            w_T = b.y[-1] - m.gammas[0] * b.times[-1]
            closed = (
                m.r + (m.mus[0] - m.r) * pi - 0.5 * m.sigma**2 * pi**2
            ) * b.times[-1] + m.sigma * pi * w_T
            assert math.log(b.wealth[-1]) == pytest.approx(closed, abs=1e-10)

    def test_bitwise_determinism(self, toy):
        a = simulate_paths(toy, lambda t, y: 0.5, T=0.5, step=0.01, n_paths=10, seed=77)
        b = simulate_paths(toy, lambda t, y: 0.5, T=0.5, step=0.01, n_paths=10, seed=77)
        for x, z in zip(a, b):
            assert x.theta_index == z.theta_index
            np.testing.assert_array_equal(x.wealth, z.wealth)
            np.testing.assert_array_equal(x.stock, z.stock)
            np.testing.assert_array_equal(x.y, z.y)

    def test_wealth_and_stock_positive(self, toy, toy_strategy):
        bundles = simulate_paths(toy, toy_strategy, T=1.0, step=0.005, n_paths=64, seed=5)
        for b in bundles:
            assert np.all(b.wealth > 0)
            assert np.all(b.stock > 0)
            assert b.y[0] == 0.0

    def test_block_size_does_not_change_results(self, toy, toy_strategy, monkeypatch):
        full = simulate_paths(toy, lambda t, y: 0.7, T=0.3, step=0.01, n_paths=12, seed=9)
        full_tw = terminal_wealth(toy, toy_strategy, [1.0, 0.5], T=0.3, step=0.01, n_paths=12, seed=9)
        monkeypatch.setattr(simkit, "_BLOCK_ENTRIES", 5 * 30)  # 30 steps: 5 paths a block
        split = simulate_paths(toy, lambda t, y: 0.7, T=0.3, step=0.01, n_paths=12, seed=9)
        split_tw = terminal_wealth(toy, toy_strategy, [1.0, 0.5], T=0.3, step=0.01, n_paths=12, seed=9)
        for x, z in zip(full, split):
            np.testing.assert_array_equal(x.wealth, z.wealth)
        np.testing.assert_array_equal(full_tw[0], split_tw[0])
        np.testing.assert_array_equal(full_tw[1], split_tw[1])

    def test_step_not_dividing_horizon_ends_at_horizon(self):
        m = new_market(0.03, 1.0, (0.08,), (1.0,))
        b = simulate_paths(m, lambda t, y: 0.0, T=1.0, step=0.3, n_paths=1, seed=1)[0]
        assert b.times[-1] == 1.0
        assert b.step == 1.0 / 3.0
        _, log_xt = terminal_wealth(m, lambda t, y: 0.0, [1.0], T=1.0, step=0.3, n_paths=4, seed=1)
        np.testing.assert_allclose(log_xt, 0.03 * 1.0, rtol=1e-13)


class TestObservationConsistency:
    def test_y_equals_brownian_plus_drift(self, toy):
        bundles = simulate_paths(toy, lambda t, y: 0.0, T=1.0, step=0.01, n_paths=4, seed=13)
        for b in bundles:
            rng = np.random.default_rng(np.random.SeedSequence(13, spawn_key=(1, b.path_index)))
            dw = rng.standard_normal(100) * math.sqrt(0.01)
            w = np.concatenate(([0.0], np.cumsum(dw)))
            np.testing.assert_allclose(
                b.y, w + toy.gammas[b.theta_index] * b.times, atol=1e-12
            )

    def test_posterior_concentrates_on_true_drift(self, toy):
        """At t = 50 / min-gap^2 most paths identify theta (reported check)."""
        horizon = 50.0  # min gamma gap is 1
        bundles = simulate_paths(toy, lambda t, y: 0.0, T=horizon, step=0.05, n_paths=400, seed=21)
        hits = 0
        for b in bundles:
            probs = posterior(toy, horizon, float(b.y[-1])).probs
            hits += int(np.argmax(probs) == b.theta_index)
        fraction = hits / len(bundles)
        print(f"posterior identification rate at T={horizon}: {fraction:.3f}")
        assert fraction > 0.9


class TestEstimateUtility:
    def test_bond_only_deterministic_utility(self, toy):
        bundles = simulate_paths(toy, lambda t, y: 0.0, T=1.0, step=0.01, n_paths=16, seed=2)
        for alpha in (0.5, -0.5):
            est = estimate_utility(bundles, alpha)
            assert est.mean == pytest.approx(1.0 / alpha, rel=1e-14)
            assert est.std_error == 0.0
        est_log = estimate_utility(bundles, 0.0)
        assert est_log.mean == pytest.approx(0.0, abs=1e-14)

    def test_bond_only_with_interest_and_initial_wealth(self):
        m = new_market(0.03, 1.0, (0.08,), (1.0,))
        bundles = simulate_paths(m, lambda t, y: 0.0, T=2.0, step=0.01, n_paths=8, seed=2)
        for alpha in (0.5, -1.5):
            est = estimate_utility(bundles, alpha, x0=2.0)
            expected = (2.0 * math.exp(0.03 * 2.0)) ** alpha / alpha
            assert est.mean == pytest.approx(expected, rel=1e-12)
            assert est.std_error == 0.0

    def test_negative_alpha_means_negative_utility(self, toy, toy_strategy):
        bundles = simulate_paths(toy, toy_strategy, T=1.0, step=0.01, n_paths=64, seed=4)
        est = estimate_utility(bundles, -0.5)
        assert est.mean < 0.0

    def test_initial_wealth_covariance(self, toy, toy_strategy):
        """Power utility scales by x0^alpha, so rankings are x0-free."""
        bundles = simulate_paths(toy, toy_strategy, T=1.0, step=0.01, n_paths=64, seed=4)
        base = estimate_utility(bundles, 0.5, x0=1.0)
        scaled = estimate_utility(bundles, 0.5, x0=4.0)
        assert scaled.mean == pytest.approx(4.0**0.5 * base.mean, rel=1e-12)
        log_base = estimate_utility(bundles, 0.0, x0=1.0)
        log_scaled = estimate_utility(bundles, 0.0, x0=4.0)
        assert log_scaled.mean == pytest.approx(log_base.mean + math.log(4.0), rel=1e-12)

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
        log_strat = build_feedback_strategy(toy, 0.0, 1.0)
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

    def test_mixed_horizons_rejected(self, toy):
        a = simulate_paths(toy, lambda t, y: 0.0, T=1.0, step=0.01, n_paths=2, seed=1)
        b = simulate_paths(toy, lambda t, y: 0.0, T=2.0, step=0.01, n_paths=2, seed=1)
        with pytest.raises(ValueError):
            estimate_utility(a + b, 0.5)


class TestCachedStrategy:
    def test_probe_error_within_contract(self, toy_strategy):
        assert toy_strategy.probe_error is not None
        assert toy_strategy.probe_error < PROBE_TOL

    def test_log_utility_cache(self, toy):
        strat = build_feedback_strategy(toy, 0.0, 1.0)
        assert strat.probe_error < PROBE_TOL
        got = float(strat(0.3, np.array([0.4]))[0])
        assert got == pytest.approx(log_utility_fraction(toy, 0.3, 0.4), abs=1e-4)
        # the t = 0 row keeps the continuum form p_k exp(gamma_k y), not the
        # prior that posterior() pins at t = 0, so rows stay continuous in t
        y = strat._y_grid
        w = toy.prior * np.exp(toy.gammas * y[:, None])
        continuum = (w @ toy.mus / w.sum(axis=1) - toy.r) / toy.sigma**2
        np.testing.assert_allclose(strat._table[-1], continuum, rtol=1e-12)

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
        rng = np.random.default_rng(6)
        for _ in range(5):
            t = float(rng.uniform(0.0, 1.0))
            y = float(rng.uniform(-3.0, 3.0))
            direct = optimal_fraction(toy, 0.5, StrategyQuery(t, 1.0, y)).u_star
            assert float(toy_strategy(t, np.array([y]))[0]) == pytest.approx(direct, abs=1e-4)

    def test_clamps_outside_span(self, toy_strategy):
        inside = float(toy_strategy(0.0, np.array([9.99]))[0])
        outside = float(toy_strategy(0.0, np.array([50.0]))[0])
        assert outside == pytest.approx(inside, abs=1e-6)


class TestOptimalityCheck:
    def test_reference_undominated(self, toy):
        report = optimality_check(
            toy, 0.5, 1.0, [0.5, 2.0], step=0.01, n_paths=20_000, seed=5
        )
        assert report["undominated"] is True
        assert {s["scale"] for s in report["strategies"]} == {1.0, 0.5, 2.0}
        assert all(not p["dominates_reference"] for p in report["paired"])

    def test_trivial_perturbation_set(self, toy):
        report = optimality_check(toy, -0.5, 1.0, [1.0], step=0.01, n_paths=2_000, seed=5)
        assert report["undominated"] is True
        assert report["paired"] == []

    def test_wrong_reference_detected(self, toy):
        report = optimality_check(
            toy, 0.5, 1.0, [0.5], step=0.01, n_paths=20_000, seed=5, reference_scale=2.0
        )
        assert report["undominated"] is False

    def test_single_state_merton_undominated(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        report = optimality_check(m, 0.5, 1.0, [0.5, 2.0], step=0.01, n_paths=20_000, seed=6)
        assert report["undominated"] is True


class TestExports:
    def test_path_csv_schema_and_determinism(self, toy):
        bundle = simulate_paths(toy, lambda t, y: 0.5, T=0.2, step=0.02, n_paths=1, seed=3)[0]
        a, b = io.StringIO(), io.StringIO()
        export_path_csv(bundle, a)
        export_path_csv(bundle, b)
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert lines[0] == "time,stock,y,wealth,fraction"
        assert len(lines) == bundle.times.size + 1

    def test_report_json_round_trip(self, toy):
        report = optimality_check(toy, -0.5, 0.5, [0.8], step=0.01, n_paths=1_000, seed=9)
        buf = io.StringIO()
        export_report_json(report, buf)
        parsed = json.loads(buf.getvalue())
        assert parsed["undominated"] == report["undominated"]
        assert parsed["strategies"][0]["scale"] == 1.0
