import numpy as np
import pytest

from bayesmerton import (
    InvalidAlpha,
    QuadratureConfig,
    QuadratureNotConverged,
    StrategyQuery,
    log_utility_fraction,
    merton_fraction,
    new_market,
    optimal_fraction,
    posterior_weights,
)
import bayesmerton.strategy as strategy_mod

from oracles import mc_fraction, naive_ratio_u, random_alpha, random_market, two_logsumexp_fk


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
        log_w, means = strategy_mod._stabilized(m, 0.5, 0.0, 4.0, 0.0)
        assert log_w[0] == 0.0
        assert means[0] == pytest.approx(1.0 * 2.0 / 0.5)  # gamma sqrt(T-t)/(1-a)

    def test_direct_weight_oracle(self, toy):
        """Normalized weights match the plainly evaluated q_k at T=5, a=0.5."""
        log_w, _ = strategy_mod._stabilized(toy, 0.5, 0.0, 5.0, 0.0)
        q = toy.prior * np.exp(0.5 * toy.gammas**2 * (5.0 * 0.5) / 0.5)
        np.testing.assert_allclose(np.exp(log_w), q / q.sum(), rtol=1e-12)

    def test_pessimist_weight_concentrates_on_worst_state(self, toy):
        log_w, _ = strategy_mod._stabilized(toy, -0.5, 0.0, 1e4, 0.0)
        assert np.exp(log_w)[0] > 1.0 - 1e-10

    def test_optimist_weight_concentrates_on_best_state(self, toy):
        log_w, _ = strategy_mod._stabilized(toy, 0.5, 0.0, 1e4, 0.0)
        assert np.exp(log_w)[-1] > 1.0 - 1e-10

    def test_weights_are_posterior_at_effective_time(self):
        """exp(log-weights) is the filter posterior at tau = (t - alpha T) / (1 - alpha)."""
        rng = np.random.default_rng(9)
        for _ in range(300):
            m = random_market(rng, d_max=6)  # sigma in (0.3, 2), never exactly 1
            alpha = random_alpha(rng, -10.0, 0.95)
            T = float(rng.uniform(0.0, 100.0))
            t = float(rng.uniform(0.0, T))
            y = float(rng.normal(0.0, 1.0 + np.sqrt(T)))
            weights = np.exp(strategy_mod._stabilized(m, alpha, t, T, y)[0])
            tau = (t - alpha * T) / (1.0 - alpha)
            np.testing.assert_allclose(weights, posterior_weights(m, tau, y), rtol=0, atol=1e-13)


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
            probs = posterior_weights(toy, T, y)
            expected = (float(probs @ toy.mus) - toy.r) / (toy.sigma**2 * 1.5)
            assert sv.u_star == pytest.approx(expected, abs=1e-12)
            assert sv.hedging == 0.0
            np.testing.assert_allclose(sv.f, probs, rtol=1e-12)

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
        # the power-utility entry points; evaluate_points itself takes alpha = 0
        with pytest.raises(InvalidAlpha):
            optimal_fraction(toy, 0.0, StrategyQuery(0.0, 1.0, 0.0))
        with pytest.raises(InvalidAlpha):
            mc_fraction(toy, 0.0, StrategyQuery(0.0, 1.0, 0.0), 100, seed=0)

    def test_alpha_one_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            optimal_fraction(toy, 1.0, StrategyQuery(0.0, 1.0, 0.0))
        with pytest.raises(InvalidAlpha):
            strategy_mod.evaluate_points(toy, 1.0, 0.0, 1.0, 0.0)

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


class TestKernelReference:
    def test_one_exp_pass_matches_two_logsumexp_form(self):
        """The kernel against its earlier two-log-sum-exp form on random markets."""
        rng = np.random.default_rng(2024)
        for _ in range(60):
            m = random_market(rng, d_max=8, gamma_cap=10.0)
            alpha = float(rng.uniform(-20.0, 0.95))
            T = 10.0 ** rng.uniform(-2.0, 4.0, size=24)
            # a third of the points sit within 1e-12 to 1e-2 of maturity, relative
            near = rng.random(24) < 1.0 / 3.0
            gap = np.where(near, 10.0 ** rng.uniform(-12.0, -2.0, size=24), rng.random(24))
            t = T * (1.0 - gap)
            y = rng.normal(0.0, 2.0, size=24) * np.sqrt(T)
            n = int(rng.choice([8, 16, 64]))
            got = strategy_mod._fk_level(m, alpha, t, T, y, n, 10.0)
            ref = two_logsumexp_fk(m, alpha, t, T, y, n, 10.0)
            assert np.all(np.isfinite(ref))
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=1e-14)


class TestGridEvaluator:
    def test_matches_scalar_calls(self, toy, monkeypatch):
        ys = np.array([-3.0, -0.5, 0.0, 1.2, 4.0])
        grid, _, _, _ = strategy_mod.evaluate_points(toy, 0.5, 0.2, 1.5, ys)
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
                u, f, failed, _ = strategy_mod.evaluate_points(m, alpha, t, T, y, quad)
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

    def test_reports_node_counts(self, toy, monkeypatch):
        t = np.array([0.0, 0.5, 1.0])
        u, _, _, nodes = strategy_mod.evaluate_points(toy, 0.5, t, 1.0, 0.3, QuadratureConfig(nodes=8))
        assert nodes[2] == 0  # t = T: the closed form
        for i in (0, 1):
            # the reported count is the level whose value came back
            n = int(nodes[i])
            assert n >= 16 and n & (n - 1) == 0
            single = strategy_mod.evaluate_points(
                toy, 0.5, t[i], 1.0, 0.3, QuadratureConfig(nodes=n), doubling=False
            )
            assert single[0] == u[i] and single[3] == n
        assert strategy_mod.evaluate_points(toy, 0.0, t, 1.0, 0.3)[3].tolist() == [0, 0, 0]
        monkeypatch.setattr(strategy_mod, "NODE_CAP", 16)
        _, _, failed, capped = strategy_mod.evaluate_points(
            toy, 0.5, t, 1.0, 0.3, QuadratureConfig(nodes=8, rel_tol=1e-15)
        )
        assert failed.tolist() == [True, True, False]
        assert capped.tolist() == [16, 16, 0]

    def test_maturity_and_single_state_paths(self, toy):
        ys = np.array([-1.0, 0.0, 2.0])
        at_maturity = strategy_mod.evaluate_points(toy, 0.5, 2.0, 2.0, ys)[0]
        for y, u in zip(ys, at_maturity):
            mean = float(posterior_weights(toy, 2.0, float(y)) @ toy.mus)
            expected = (mean - toy.r) / (toy.sigma**2 * 0.5)
            assert u == pytest.approx(expected, rel=1e-12)
        # T = 0: the likelihood is identically 1, so the prior mean for every y
        prior_merton = (float(toy.prior @ toy.mus) - toy.r) / (toy.sigma**2 * 0.5)
        np.testing.assert_allclose(
            strategy_mod.evaluate_points(toy, 0.5, 0.0, 0.0, ys)[0], prior_merton, rtol=1e-14
        )
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        np.testing.assert_allclose(
            strategy_mod.evaluate_points(m, -1.0, 0.0, 3.0, ys)[0], merton_fraction(m, 1.0, -1.0)
        )

    def test_bad_times_rejected(self, toy):
        # rejected before sqrt(T - t) can turn NaN
        for t, T in ((2.0, 1.0), (-0.1, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)):
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
    GRID = [-0.9, -0.5, 0.2, 0.5, 0.8]

    def profile(self, model):
        query = StrategyQuery(t=0.0, T=5.0, y=0.0)
        return np.array([optimal_fraction(model, a, query).f for a in self.GRID])

    def test_rows_sum_to_one(self, toy):
        prof = self.profile(toy)
        np.testing.assert_allclose(prof.sum(axis=1), 1.0, atol=1e-10)

    def test_monotone_in_alpha(self, toy):
        """Top-state weight grows with alpha, bottom-state weight shrinks."""
        prof = self.profile(toy)
        assert np.all(np.diff(prof[:, -1]) >= -1e-9)
        assert np.all(np.diff(prof[:, 0]) <= 1e-9)


class TestLogUtility:
    def test_prior_mean_at_time_zero(self, toy):
        expected = float(toy.prior @ toy.mus) / toy.sigma**2
        assert log_utility_fraction(toy, 0.0, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_single_state(self):
        m = new_market(0.01, 2.0, (0.09,), (1.0,))
        assert log_utility_fraction(m, 5.0, 1.0) == pytest.approx(0.08 / 4.0, rel=1e-14)

    def test_composes_with_filter(self, toy):
        assert log_utility_fraction(toy, 1.0, 0.0) == pytest.approx(
            float(posterior_weights(toy, 1.0, 0.0) @ toy.mus) / 1.0, rel=1e-14
        )

    def test_power_utility_limit(self, toy):
        """u* at alpha = +/-1e-3 sits within 1e-2 of the logarithmic fraction."""
        lu = log_utility_fraction(toy, 0.0, 0.0)
        for alpha in (1e-3, -1e-3):
            sv = optimal_fraction(toy, alpha, StrategyQuery(0.0, 1.0, 0.0))
            assert abs(sv.u_star - lu) < 1e-2


class TestOneClosedForm:
    """The posterior-mean Merton closed form on a sigma != 1, r != 0 market."""

    @pytest.fixture
    def market(self):
        return new_market(0.01, 0.3, (0.05, 0.1, 0.15, 0.3), (0.1, 0.2, 0.3, 0.4))

    @staticmethod
    def continuum_log_fraction(m, t, y):
        # (mu_hat(t, y) - r) / sigma^2 with weights p_k exp(gamma_k y - gamma_k^2 t / 2)
        w = m.prior * np.exp(m.gammas * y - 0.5 * m.gammas**2 * t)
        return (float(w @ m.mus / w.sum()) - m.r) / m.sigma**2

    def test_log_utility_points_match_continuum_formula(self, market):
        T = 2.0
        ts = np.array([0.0, 0.3, 1.0, 1.7, T])
        ys = np.array([-1.5, -0.2, 0.0, 0.4, 2.5])
        t, y = np.meshgrid(ts, ys, indexing="ij")
        u, f, failed, _ = strategy_mod.evaluate_points(market, 0.0, t, T, y)
        assert not failed.any()
        np.testing.assert_allclose(f.sum(axis=-1), 1.0, rtol=1e-14)
        for i, j in np.ndindex(t.shape):
            expected = self.continuum_log_fraction(market, t[i, j], y[i, j])
            assert u[i, j] == pytest.approx(expected, rel=1e-13)
        # horizon-free: a longer horizon gives the same values
        u_long, _, _, _ = strategy_mod.evaluate_points(market, 0.0, t, 50.0, y)
        np.testing.assert_array_equal(u_long, u)

    def test_myopic_is_posterior_mean_merton(self, market):
        rng = np.random.default_rng(41)
        for alpha in (0.5, -0.5, -3.0):
            for t, T in ((0.0, 1.0), (0.4, 1.5), (2.0, 2.0)):
                for y in rng.normal(0.0, 1.0, size=2):
                    sv = optimal_fraction(market, alpha, StrategyQuery(t, T, float(y)))
                    # at t = 0 the myopic term sees Y_0 = 0, the prior
                    probs = posterior_weights(market, t, float(y) if t else 0.0)
                    mean = float(probs @ market.mus)
                    expected = (mean - market.r) / (market.sigma**2 * (1.0 - alpha))
                    assert sv.myopic == pytest.approx(expected, rel=1e-13)
                    assert sv.hedging == sv.u_star - sv.myopic

    def test_log_fraction_at_time_zero_is_prior_mean(self, market):
        expected = (float(market.prior @ market.mus) - market.r) / market.sigma**2
        for y in (-2.0, 0.7, 3.0):
            assert log_utility_fraction(market, 0.0, y) == pytest.approx(expected, rel=1e-14)
        assert log_utility_fraction(market, 0.8, 0.7) == pytest.approx(
            self.continuum_log_fraction(market, 0.8, 0.7), rel=1e-13
        )
