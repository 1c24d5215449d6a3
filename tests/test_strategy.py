import tracemalloc

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

from oracles import (
    integer_b_fraction,
    mc_fraction,
    naive_ratio_u,
    random_alpha,
    random_market,
    two_logsumexp_fk,
)


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
        # the oracle estimates the power-utility ratio only
        with pytest.raises(InvalidAlpha):
            mc_fraction(toy, 0.0, StrategyQuery(0.0, 1.0, 0.0), 100, seed=0)

    def test_log_case_is_the_log_utility_fraction(self, toy):
        # horizon-free: the myopic term itself, the closed form at (t, y)
        for t, T, y in ((0.0, 1.0, 0.0), (0.0, 5.0, 1.2), (0.2, 1.0, 0.5), (0.7, 0.7, -0.3)):
            sv = optimal_fraction(toy, 0.0, StrategyQuery(t, T, y))
            assert sv.u_star == sv.myopic == log_utility_fraction(toy, t, y)
            assert sv.hedging == 0.0
            assert sv.v_star == strategy_mod._state_sum(sv.f, toy.gammas)
            np.testing.assert_array_equal(sv.f, posterior_weights(toy, t, y))

    def test_alpha_one_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            optimal_fraction(toy, 1.0, StrategyQuery(0.0, 1.0, 0.0))
        with pytest.raises(InvalidAlpha):
            strategy_mod.evaluate_points(toy, 1.0, 0.0, 1.0, 0.0)

    def test_not_converged_at_tiny_cap(self, toy, monkeypatch):
        monkeypatch.setattr(strategy_mod, "NODE_CAP", 16)
        monkeypatch.setattr(strategy_mod, "REL_TOL", 1e-12)
        with pytest.raises(QuadratureNotConverged):
            optimal_fraction(toy, -0.5, StrategyQuery(0.0, 40.0, 0.0), QuadratureConfig(nodes=8))

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
            QuadratureConfig(nodes=strategy_mod.NODE_CAP + 1)


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
            got = strategy_mod._fk_level(m, alpha, t, T, y, n)
            ref = two_logsumexp_fk(m, alpha, t, T, y, n, 10.0)
            assert np.all(np.isfinite(ref))
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=1e-14)

    def test_chunking_never_changes_a_bit(self, monkeypatch):
        """One entry per chunk, the default and one chunk for all give the same bits."""
        rng = np.random.default_rng(77)
        default = strategy_mod._CHUNK_ENTRIES
        for _ in range(24):
            m = close_drift_market(rng)
            alpha = float(rng.uniform(-10.0, 0.9))
            n = int(rng.choice([8, 64]))
            # several default-sized chunks and a partial last one
            chunk = max(1, default // (m.d * n * m.d))
            P = 2 * chunk + int(rng.integers(1, chunk + 1))
            T = 10.0 ** rng.uniform(-2.0, 3.0, size=P)
            t = T * rng.random(P)
            y = rng.normal(0.0, 2.0, size=P) * np.sqrt(T)
            outs = []
            for entries in (1, default, 1 << 30):
                monkeypatch.setattr(strategy_mod, "_CHUNK_ENTRIES", entries)
                outs.append(strategy_mod._fk_level(m, alpha, t, T, y, n))
            assert all(np.array_equal(out, outs[0]) for out in outs[1:])

    def test_working_set_per_point(self):
        """Doubling the points adds at most 16 doubles per (point x state) of peak memory."""
        m = new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))
        rng = np.random.default_rng(3)
        inputs = []
        for P in (2000, 4000):
            T = 10.0 ** rng.uniform(-1.0, 2.0, size=P)
            inputs.append((T * rng.random(P), T, rng.normal(0.0, 1.0, size=P) * np.sqrt(T)))
        strategy_mod._fk_level(m, 0.5, *inputs[0], 256)  # warm up the node rule cache
        peaks = []
        for t, T, y in inputs:
            tracemalloc.start()
            try:
                strategy_mod._fk_level(m, 0.5, t, T, y, 256)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 8 <= 16 * 2000 * m.d


class TestStateSum:
    def test_bit_equal_to_python_left_to_right_sum(self):
        rng = np.random.default_rng(19)
        for d in range(1, 21):
            values = rng.normal(0.0, 3.0, size=d)
            f = rng.dirichlet(np.ones(d), size=50)
            f[0] = -0.0  # a zero sum keeps the sign Python's 0.0 start gives it
            got = strategy_mod._state_sum(f, values)
            for row, g in zip(f, got):
                acc = 0.0
                for fk, vk in zip(row.tolist(), values.tolist()):
                    acc += fk * vk
                assert np.float64(acc).tobytes() == g.tobytes()


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
        # built before the cap drops below the default 64 nodes
        quads = ((QuadratureConfig(), 1e-9), (QuadratureConfig(nodes=8), 1e-12))
        monkeypatch.setattr(strategy_mod, "NODE_CAP", 32)
        n_failed = 0
        for _ in range(12):
            m = close_drift_market(rng)
            alpha = float(rng.uniform(-5.0, 0.9))
            T = 10.0 ** rng.uniform(-2.0, 4.0, size=6)
            t = T * np.where(rng.random(6) < 0.2, 1.0, rng.random(6))
            y = rng.normal(0.0, 1.0, size=6) * np.sqrt(T)
            for quad, rel_tol in quads:
                monkeypatch.setattr(strategy_mod, "REL_TOL", rel_tol)
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
            f = strategy_mod._fk_level(toy, 0.5, t[i : i + 1], np.array([1.0]), np.array([0.3]), n)
            assert strategy_mod._state_sum(f, toy.gammas)[0] / (toy.sigma * 0.5) == u[i]
        assert strategy_mod.evaluate_points(toy, 0.0, t, 1.0, 0.3)[3].tolist() == [0, 0, 0]
        monkeypatch.setattr(strategy_mod, "NODE_CAP", 16)
        monkeypatch.setattr(strategy_mod, "REL_TOL", 1e-15)
        _, _, failed, capped = strategy_mod.evaluate_points(
            toy, 0.5, t, 1.0, 0.3, QuadratureConfig(nodes=8)
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
        # T = 0: the closed form as written, weights p_k exp(gamma_k y)
        w = toy.prior * np.exp(toy.gammas * ys[:, None])
        closed_merton = (w @ toy.mus / w.sum(axis=1) - toy.r) / (toy.sigma**2 * 0.5)
        np.testing.assert_allclose(
            strategy_mod.evaluate_points(toy, 0.5, 0.0, 0.0, ys)[0], closed_merton, rtol=1e-14
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

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_rejected(self, toy, y):
        with pytest.raises(ValueError, match="finite y"):
            strategy_mod.evaluate_points(toy, 0.5, 0.0, 1.0, y)
        with pytest.raises(ValueError, match="finite y"):
            strategy_mod.evaluate_points(toy, 0.5, 0.5, 1.0, [0.0, y])
        # at T = 0 too: the closed form reads y there as anywhere else
        with pytest.raises(ValueError, match="finite y"):
            strategy_mod.evaluate_points(toy, 0.5, 0.0, 0.0, y)
        with pytest.raises(ValueError, match="finite y"):
            strategy_mod.evaluate_points(toy, 0.0, 0.0, 0.0, y)


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


class TestIntegerBOracle:
    """At alpha = 1 - 1/b with integer b, u* has an exact closed form (tests/oracles.py)."""

    MARKETS = {
        "toy": new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4)),
        # gammas from 0.2 to 9.95
        "wide": new_market(0.01, 0.2, (0.05, 0.3, 0.9, 2.0), (0.25,) * 4),
    }

    @pytest.mark.parametrize("b", [2, 3, 4, 10])
    @pytest.mark.parametrize("name", sorted(MARKETS))
    def test_evaluator_matches_closed_form(self, name, b):
        model = self.MARKETS[name]
        points = [
            (t, T, y)
            for T in (0.5, 1.0, 8.0, 100.0, 1000.0)
            for t in (0.0, T / 2)
            for y in (-1.0, 0.0, 2.0, T)
        ]
        t, T, y = (np.array(v) for v in zip(*points))
        u, _, failed, _ = strategy_mod.evaluate_points(model, 1.0 - 1.0 / b, t, T, y)
        assert not failed.any()
        np.testing.assert_allclose(u, integer_b_fraction(model, b, t, T, y), rtol=1e-10, atol=0)


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
                    probs = posterior_weights(market, t, float(y))
                    mean = float(probs @ market.mus)
                    expected = (mean - market.r) / (market.sigma**2 * (1.0 - alpha))
                    assert sv.myopic == pytest.approx(expected, rel=1e-13)
                    assert sv.hedging == sv.u_star - sv.myopic

    def test_log_fraction_at_time_zero_is_the_closed_form(self, market):
        # the prior mean at the observed Y_0 = 0, weights p_k exp(gamma_k y) elsewhere
        prior_mean = (float(market.prior @ market.mus) - market.r) / market.sigma**2
        assert log_utility_fraction(market, 0.0, 0.0) == pytest.approx(prior_mean, rel=1e-14)
        for y in (-2.0, 0.7, 3.0):
            assert log_utility_fraction(market, 0.0, y) == pytest.approx(
                self.continuum_log_fraction(market, 0.0, y), rel=1e-14
            )
        assert log_utility_fraction(market, 0.8, 0.7) == pytest.approx(
            self.continuum_log_fraction(market, 0.8, 0.7), rel=1e-13
        )


class TestContinuousAtTimeZero:
    """u* and its myopic term read one posterior at t = 0: toy market, y = 1."""

    @pytest.mark.parametrize("alpha", [0.5, -2.0])
    def test_hedging_vanishes_at_maturity(self, toy, alpha):
        sv = optimal_fraction(toy, alpha, StrategyQuery(0.0, 1e-9, 1.0))
        assert abs(sv.hedging) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.5, -2.0])
    def test_continuous_at_zero_horizon(self, toy, alpha):
        near = optimal_fraction(toy, alpha, StrategyQuery(0.0, 1e-9, 1.0)).u_star
        at = optimal_fraction(toy, alpha, StrategyQuery(0.0, 0.0, 1.0)).u_star
        assert abs(near - at) <= 1e-6

    def test_continuous_across_log_utility(self, toy):
        q = StrategyQuery(0.0, 1.0, 1.0)
        log_u = optimal_fraction(toy, 0.0, q).u_star
        for alpha in (1e-6, -1e-6):
            assert abs(optimal_fraction(toy, alpha, q).u_star - log_u) <= 1e-5
