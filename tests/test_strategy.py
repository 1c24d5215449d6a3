import numpy as np
import pytest

from bayesmerton import (
    DegenerateHorizon,
    InvalidAlpha,
    QuadratureConfig,
    QuadratureNotConverged,
    StrategyQuery,
    fk_profile,
    log_utility_fraction,
    mc_fraction,
    merton_fraction,
    new_market,
    optimal_fraction,
    optimal_fraction_grid,
    posterior,
    posterior_mean,
    stable_integrand_weights,
)
import bayesmerton.strategy as strategy_mod

from oracles import naive_ratio_u, random_alpha, random_market


@pytest.fixture
def toy():
    return new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))


# Defining ratio evaluated with mpmath at 40 digits (piecewise quad over
# [-80, -20, 0, 20, 80, 200] of the literal integrands), frozen here.
MPMATH_VALUES = [
    (0.5, 1.0, 5.91367071325),
    (0.5, 2.0, 5.99622348116),
    (-0.5, 1.0, 1.13230301161),
    (-2.0, 2.0, 0.399603988351),
]


class TestStableIntegrandWeights:
    def test_single_state(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        mix = stable_integrand_weights(m, 0.5, 0.0, 4.0, 0.0)
        assert mix.log_weights[0] == 0.0
        assert mix.means[0] == pytest.approx(1.0 * 2.0 / 0.5)  # gamma sqrt(T-t)/(1-a)
        assert mix.variance == pytest.approx(2.0)

    def test_direct_weight_oracle(self, toy):
        """Normalized weights match the plainly evaluated q_k at T=5, a=0.5."""
        mix = stable_integrand_weights(toy, 0.5, 0.0, 5.0, 0.0)
        q = toy.prior * np.exp(0.5 * toy.gammas**2 * (5.0 * 0.5) / 0.5)
        np.testing.assert_allclose(np.exp(mix.log_weights), q / q.sum(), rtol=1e-12)

    def test_pessimist_weight_concentrates_on_worst_state(self, toy):
        mix = stable_integrand_weights(toy, -0.5, 0.0, 1e4, 0.0)
        assert np.exp(mix.log_weights)[0] > 1.0 - 1e-10

    def test_optimist_weight_concentrates_on_best_state(self, toy):
        mix = stable_integrand_weights(toy, 0.5, 0.0, 1e4, 0.0)
        assert np.exp(mix.log_weights)[-1] > 1.0 - 1e-10

    def test_degenerate_horizon(self, toy):
        with pytest.raises(DegenerateHorizon):
            stable_integrand_weights(toy, 0.5, 2.0, 2.0, 0.0)

    def test_log_case_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            stable_integrand_weights(toy, 0.0, 0.0, 2.0, 0.0)


class TestClosedForms:
    def test_known_drift_is_merton_everywhere(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        rng = np.random.default_rng(2)
        for _ in range(20):
            T = float(rng.uniform(0.1, 50.0))
            t = float(rng.uniform(0.0, T))
            y = float(rng.normal(0, 3))
            sv = optimal_fraction(m, 0.5, StrategyQuery(t, T, y))
            assert sv.u_star == pytest.approx(merton_fraction(m, 1.0, 0.5), abs=1e-12)
            assert sv.hedging == 0.0

    def test_maturity_is_posterior_mean_merton(self, toy):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = float(rng.uniform(0.1, 20.0))
            y = float(rng.normal(0, 2))
            sv = optimal_fraction(toy, -0.5, StrategyQuery(T, T, y))
            expected = (posterior_mean(toy, T, y) - toy.r) / (toy.sigma**2 * 1.5)
            assert sv.u_star == pytest.approx(expected, abs=1e-12)
            assert sv.hedging == 0.0
            np.testing.assert_allclose(sv.f, posterior(toy, T, y).probs, rtol=1e-12)

    def test_zero_horizon(self, toy):
        sv = optimal_fraction(toy, 0.5, StrategyQuery(0.0, 0.0, 0.0))
        expected = (float(toy.prior @ toy.mus) - toy.r) / (toy.sigma**2 * 0.5)
        assert sv.u_star == pytest.approx(expected, abs=1e-14)


class TestQuadratureValues:
    @pytest.mark.parametrize("alpha,T,expected", MPMATH_VALUES)
    def test_frozen_high_precision_values(self, toy, alpha, T, expected):
        sv = optimal_fraction(toy, alpha, StrategyQuery(0.0, T, 0.0))
        assert sv.u_star == pytest.approx(expected, rel=1e-9)

    def test_value_identities(self, toy):
        sv = optimal_fraction(toy, -0.5, StrategyQuery(0.3, 2.0, 0.7))
        assert sv.u_star == pytest.approx(sv.v_star / (toy.sigma * 1.5), rel=1e-12)
        assert sv.hedging == pytest.approx(sv.u_star - sv.myopic, abs=1e-15)
        assert sv.f.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(sv.f > 0)
        assert toy.gammas[0] <= sv.v_star <= toy.gammas[-1]

    def test_convex_combination_bound_battery(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            m = random_market(rng)
            alpha = random_alpha(rng)
            T = float(rng.uniform(0.01, 2.0))
            t = float(rng.uniform(0.0, T))
            y = float(rng.normal(0.0, 2.0))
            sv = optimal_fraction(m, alpha, StrategyQuery(t, T, y))
            lo = m.gammas[0] / (m.sigma * (1 - alpha))
            hi = m.gammas[-1] / (m.sigma * (1 - alpha))
            assert lo - 1e-12 <= sv.u_star <= hi + 1e-12
            assert abs(sv.f.sum() - 1.0) < 1e-8

    def test_log_case_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            optimal_fraction(toy, 0.0, StrategyQuery(0.0, 1.0, 0.0))

    def test_alpha_one_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            optimal_fraction(toy, 1.0, StrategyQuery(0.0, 1.0, 0.0))

    def test_not_converged_at_tiny_cap(self, toy, monkeypatch):
        monkeypatch.setattr(strategy_mod, "NODE_CAP", 16)
        quad = QuadratureConfig(nodes=8, rel_tol=1e-12)
        with pytest.raises(QuadratureNotConverged):
            optimal_fraction(toy, -0.5, StrategyQuery(0.0, 40.0, 0.0), quad)

    def test_bitwise_repeatable(self, toy):
        q = StrategyQuery(0.1, 3.0, -0.4)
        a = optimal_fraction(toy, -0.8, q)
        b = optimal_fraction(toy, -0.8, q)
        assert a.u_star == b.u_star
        np.testing.assert_array_equal(a.f, b.f)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=4)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(half_width=-1.0)


def close_drift_market(rng):
    """Random market with sigma != 1, up to 8 states and some near-tied drifts."""
    d = int(rng.integers(2, 9))
    sigma = float(rng.uniform(0.2, 3.0))
    gaps = np.where(rng.random(d - 1) < 0.3, 1e-3, rng.uniform(0.05, 2.0, d - 1))
    mus = float(rng.uniform(-4.0, 1.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    return new_market(float(rng.uniform(-0.5, 0.5)), sigma, mus * sigma, rng.dirichlet(np.ones(d)))


class TestGridEvaluator:
    def test_matches_scalar_calls(self, toy, monkeypatch):
        ys = np.array([-3.0, -0.5, 0.0, 1.2, 4.0])
        grid = optimal_fraction_grid(toy, 0.5, 0.2, 1.5, ys)
        for y, u in zip(ys, grid):
            sv = optimal_fraction(toy, 0.5, StrategyQuery(0.2, 1.5, float(y)))
            assert u == pytest.approx(sv.u_star, rel=1e-13)

        # every batched row equals the point evaluated alone, failed flag
        # included; the small cap leaves some rows of the 8-node start unconverged
        rng = np.random.default_rng(41)
        monkeypatch.setattr(strategy_mod, "NODE_CAP", 32)
        quads = (QuadratureConfig(), QuadratureConfig(nodes=8, rel_tol=1e-12))
        n_failed = 0
        for _ in range(12):
            m = close_drift_market(rng)
            alpha = float(rng.uniform(-5.0, 0.9))
            T = 10.0 ** rng.uniform(-2.0, 4.0, size=6)
            t = T * np.where(rng.random(6) < 0.2, 1.0, rng.random(6))
            y = rng.normal(0.0, 1.0, size=6) * np.sqrt(T)
            for quad in quads:
                u, f, failed = strategy_mod.evaluate_points(m, alpha, t, T, y, quad)
                for i in range(6):
                    try:
                        sv = optimal_fraction(m, alpha, StrategyQuery(t[i], T[i], y[i]), quad)
                    except QuadratureNotConverged:
                        assert failed[i] and np.isnan(u[i])
                        n_failed += 1
                        continue
                    assert not failed[i]
                    assert u[i] == pytest.approx(sv.u_star, rel=1e-13)
                    np.testing.assert_allclose(f[i], sv.f, rtol=1e-13, atol=1e-15)
        assert 0 < n_failed < 12 * 6

    def test_maturity_and_single_state_paths(self, toy):
        ys = np.array([-1.0, 0.0, 2.0])
        at_maturity = optimal_fraction_grid(toy, 0.5, 2.0, 2.0, ys)
        for y, u in zip(ys, at_maturity):
            expected = (posterior_mean(toy, 2.0, float(y)) - toy.r) / (toy.sigma**2 * 0.5)
            assert u == pytest.approx(expected, rel=1e-12)
        # T = 0: the likelihood is identically 1, so the prior mean for every y
        prior_merton = (float(toy.prior @ toy.mus) - toy.r) / (toy.sigma**2 * 0.5)
        np.testing.assert_allclose(
            optimal_fraction_grid(toy, 0.5, 0.0, 0.0, ys), prior_merton, rtol=1e-14
        )
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        np.testing.assert_allclose(
            optimal_fraction_grid(m, -1.0, 0.0, 3.0, ys), merton_fraction(m, 1.0, -1.0)
        )

    def test_bad_times_rejected(self, toy):
        # rejected before sqrt(T - t) can turn NaN
        with pytest.raises(ValueError):
            optimal_fraction_grid(toy, 0.5, 2.0, 1.0, [0.0])
        for t, T in ((-0.1, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError):
                strategy_mod.evaluate_points(toy, 0.5, t, T, 0.0)


class TestMonteCarloOracle:
    def test_frozen_derived_example(self, toy):
        """Quadrature vs the 1e6-sample MC oracle on the toy model, a=-0.5, T=1.

        Dev-time frozen oracle output for seed 12345: estimate 1.132458,
        standard error 3.16e-4 (quadrature value 1.132303).
        """
        q = StrategyQuery(0.0, 1.0, 0.0)
        mc = mc_fraction(toy, -0.5, q, 1_000_000, seed=12345)
        sv = optimal_fraction(toy, -0.5, q)
        assert mc.estimate == pytest.approx(1.132458, abs=2e-5)
        assert abs(sv.u_star - mc.estimate) <= 3.0 * mc.std_error

    def test_deterministic_given_seed(self, toy):
        q = StrategyQuery(0.0, 1.5, 0.2)
        a = mc_fraction(toy, 0.5, q, 10_000, seed=7)
        b = mc_fraction(toy, 0.5, q, 10_000, seed=7)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_degenerate_horizon_exact(self, toy):
        mc = mc_fraction(toy, 0.5, StrategyQuery(0.0, 0.0, 0.0), 100, seed=0)
        expected = (float(toy.prior @ toy.mus)) / (toy.sigma**2 * 0.5)
        assert mc.estimate == pytest.approx(expected, rel=1e-12)
        assert mc.std_error == 0.0

    def test_randomized_agreement_battery(self):
        rng = np.random.default_rng(77)
        for trial in range(10):
            m = random_market(rng, gamma_cap=3.0)
            alpha = random_alpha(rng)
            T = float(rng.uniform(0.05, 2.0))
            t = float(rng.uniform(0.0, 0.9 * T))
            y = float(rng.normal(0.0, 1.5))
            q = StrategyQuery(t, T, y)
            sv = optimal_fraction(m, alpha, q)
            mc = mc_fraction(m, alpha, q, 1_000_000, seed=500 + trial)
            assert abs(sv.u_star - mc.estimate) <= 3.0 * mc.std_error + 1e-12

    def test_too_few_samples_rejected(self, toy):
        with pytest.raises(ValueError):
            mc_fraction(toy, 0.5, StrategyQuery(0.0, 1.0, 0.0), 1, seed=0)


class TestNaiveAgreement:
    """Stabilized engine vs the literal integrand wherever doubles suffice."""

    @pytest.mark.parametrize("alpha", [0.5, -0.5, -5.0])
    @pytest.mark.parametrize("T", [1.0, 5.0, 15.0])
    def test_toy_grid(self, toy, alpha, T):
        naive = naive_ratio_u(toy, alpha, 0.0, T, 0.0)
        assert np.isfinite(naive)
        sv = optimal_fraction(toy, alpha, StrategyQuery(0.0, T, 0.0))
        assert sv.u_star == pytest.approx(naive, rel=1e-8)

    def test_high_alpha_small_horizon(self, toy):
        naive = naive_ratio_u(toy, 0.9, 0.0, 0.5, 0.3)
        assert np.isfinite(naive)
        sv = optimal_fraction(toy, 0.9, StrategyQuery(0.0, 0.5, 0.3))
        assert sv.u_star == pytest.approx(naive, rel=1e-8)

    def test_extreme_horizon_and_excess_return(self):
        """Stabilized evaluation holds out to T = 1e4 with |gamma| up to 10."""
        m = new_market(0.0, 1.0, (-10.0, -1.0, 2.0, 10.0), (0.25, 0.25, 0.25, 0.25))
        for alpha in (0.9, 0.5, -0.5, -5.0):
            scale = m.sigma * (1.0 - alpha)
            for T in (100.0, 1e4):
                sv = optimal_fraction(m, alpha, StrategyQuery(0.0, T, 0.0))
                assert np.isfinite(sv.u_star)
                assert m.gammas[0] / scale - 1e-9 <= sv.u_star <= m.gammas[-1] / scale + 1e-9


class TestStateWeightProfile:
    def test_rows_sum_to_one(self, toy):
        prof = fk_profile(toy, [-0.9, -0.5, 0.2, 0.5, 0.8], T=5.0, t=0.0, y=0.0)
        np.testing.assert_allclose(prof.sum(axis=1), 1.0, atol=1e-10)

    def test_monotone_in_alpha(self, toy):
        """Top-state weight grows with alpha, bottom-state weight shrinks."""
        prof = fk_profile(toy, [-0.9, -0.5, 0.2, 0.5, 0.8], T=5.0, t=0.0, y=0.0)
        assert np.all(np.diff(prof[:, -1]) >= -1e-9)
        assert np.all(np.diff(prof[:, 0]) <= 1e-9)

    def test_log_alpha_in_grid_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            fk_profile(toy, [0.5, 0.0], T=5.0, t=0.0, y=0.0)


class TestLogUtility:
    def test_prior_mean_at_time_zero(self, toy):
        expected = float(toy.prior @ toy.mus) / toy.sigma**2
        assert log_utility_fraction(toy, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_single_state(self):
        m = new_market(0.01, 2.0, (0.09,), (1.0,))
        assert log_utility_fraction(m, 5.0, 1.0) == pytest.approx(0.08 / 4.0, rel=1e-14)

    def test_composes_with_filter(self, toy):
        assert log_utility_fraction(toy, 1.0, 0.0) == pytest.approx(
            posterior_mean(toy, 1.0, 0.0) / 1.0, rel=1e-14
        )

    def test_power_utility_limit(self, toy):
        """u* at alpha = +/-1e-3 sits within 1e-2 of the logarithmic fraction."""
        lu = log_utility_fraction(toy, 0.0, 0.0)
        for alpha in (1e-3, -1e-3):
            sv = optimal_fraction(toy, alpha, StrategyQuery(0.0, 1.0, 0.0))
            assert abs(sv.u_star - lu) < 1e-2
