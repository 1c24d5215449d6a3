import math
import re

import mpmath as mp
import numpy as np
import pytest

from bayesmerton import (
    StepTooLarge,
    build_feedback_strategy,
    log_normalizer,
    new_market,
    posterior_weights,
    simulate_filter_sde,
    terminal_wealth,
)
from bayesmerton.filtering import _EULER_FLOOR, _theta_indices

from oracles import numpy_filter_sde


@pytest.fixture
def toy():
    return new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))


def single_state(mu):
    """d = 1 market: log F(t, y) is then log L_t(mu, y) itself."""
    return new_market(0.0, 1.0, (mu,), (1.0,))


class TestLikelihood:
    def test_time_zero_is_exp_gamma_y(self, toy):
        # L_0(mu, y) = exp(gamma y), gamma = mu at r 0, sigma 1; 1 at the observed Y_0 = 0
        for y in (-5.0, 0.0, 3.7):
            for mu in toy.mus:
                assert log_normalizer(single_state(mu), 0.0, y) == mu * y

    def test_cancelling_exponent(self):
        # gamma=2, t=1, y=1: exponent 2*1 - 0.5*4*1 = 0
        assert log_normalizer(single_state(2.0), 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_high_precision(self):
        # gamma=3, t=1, y=0 -> exp(-4.5); oracle evaluated at 50 digits
        with mp.workdps(50):
            expected = float(mp.e ** mp.mpf("-4.5"))
        got = np.exp(log_normalizer(single_state(3.0), 1.0, 0.0))
        assert got == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.1109e-2, rel=1e-3)

    def test_negative_time_rejected(self, toy):
        with pytest.raises(ValueError):
            log_normalizer(toy, -1.0, 0.0)


class TestNormalizer:
    def test_time_zero(self, toy):
        # log sum_k p_k exp(gamma_k y): 1 at the observed Y_0 = 0
        assert np.exp(log_normalizer(toy, 0.0, 0.0)) == 1.0
        naive = np.log(np.sum(toy.prior * np.exp(toy.gammas * 12.3)))
        assert log_normalizer(toy, 0.0, 12.3) == pytest.approx(naive, rel=1e-15)

    def test_toy_direct_sum(self, toy):
        expected = 0.3 * np.exp(-0.5) + 0.3 * np.exp(-2.0) + 0.4 * np.exp(-4.5)
        assert np.exp(log_normalizer(toy, 1.0, 0.0)) == pytest.approx(expected, rel=1e-14)

    def test_single_state_equals_likelihood(self):
        m = single_state(2.0)
        # L_1.5(mu, 0.7) = exp(2 * 0.7 - 0.5 * 4 * 1.5)
        assert log_normalizer(m, 1.5, 0.7) == pytest.approx(-1.6, rel=1e-15)
        assert posterior_weights(m, 1.5, 0.7).tolist() == [1.0]

    def test_log_identity_vs_naive_summation(self, toy):
        """logsumexp form equals log of the direct sum at moderate exponents."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = float(rng.uniform(0.0, 6.0))
            y = float(rng.uniform(-3.0, 3.0))
            exponents = toy.gammas * y - 0.5 * toy.gammas**2 * t
            if np.abs(exponents).max() > 30:
                continue
            naive = np.log(np.sum(toy.prior * np.exp(exponents)))
            assert log_normalizer(toy, t, y) == pytest.approx(naive, rel=1e-12)


class TestPosterior:
    def test_toy_proportionality(self, toy):
        weights = toy.prior * np.exp(toy.gammas * 0.0 - 0.5 * toy.gammas**2 * 1.0)
        np.testing.assert_allclose(
            posterior_weights(toy, 1.0, 0.0), weights / weights.sum(), rtol=1e-13
        )
        # vectorized over a (t, y) grid and continuous at t = 0
        t = np.array([0.0, 0.5, 2.0])[:, None]
        y = np.array([-1.5, 0.0, 2.5])
        w = toy.prior * np.exp(toy.gammas * y[..., None] - 0.5 * toy.gammas**2 * t[..., None])
        np.testing.assert_allclose(
            posterior_weights(toy, t, y), w / w.sum(axis=-1, keepdims=True), rtol=1e-13
        )

    def test_single_state(self):
        m = new_market(0.0, 1.0, (2.0,), (1.0,))
        assert posterior_weights(m, 3.0, 1.0)[0] == 1.0

    def test_simplex_and_mean_bounds(self, toy):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = float(rng.uniform(0.0, 50.0))
            y = float(rng.normal(0.0, 5.0))
            p = posterior_weights(toy, t, y)
            assert abs(p.sum() - 1.0) < 1e-10
            mean = float(p @ toy.mus)
            assert toy.mus[0] - 1e-12 <= mean <= toy.mus[-1] + 1e-12

    def test_monotone_in_observation(self, toy):
        """Higher y shifts mass to the top state, away from the bottom one."""
        ys = np.linspace(-6.0, 6.0, 61)
        p_top = [posterior_weights(toy, 2.0, y)[-1] for y in ys]
        p_bot = [posterior_weights(toy, 2.0, y)[0] for y in ys]
        assert np.all(np.diff(p_top) >= -1e-15)
        assert np.all(np.diff(p_bot) <= 1e-15)

    def test_posterior_mean_toy_value(self, toy):
        w = (0.3 * np.exp(-0.5), 0.3 * np.exp(-2.0), 0.4 * np.exp(-4.5))
        expected = (1.0 * w[0] + 2.0 * w[1] + 3.0 * w[2]) / sum(w)
        assert float(posterior_weights(toy, 1.0, 0.0) @ toy.mus) == pytest.approx(expected)


class TestFilterSde:
    def test_single_state_stays_degenerate(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        path = simulate_filter_sde(m, 0, horizon=2.0, step=0.01, seed=4)
        np.testing.assert_array_equal(path.probs, np.ones_like(path.probs))

    def test_deterministic_given_seed(self, toy):
        a = simulate_filter_sde(toy, 1, 1.0, 1e-3, seed=42)
        b = simulate_filter_sde(toy, 1, 1.0, 1e-3, seed=42)
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "sigma, mus", [(1.0, (1.0, 2.0, 3.0)), (0.5, (0.5, 1.0, 1.5))], ids=["sigma1", "sigma0.5"]
    )
    def test_reads_the_market_only_through_gamma(self, sigma, mus, seed):
        """Equal gammas, sigma and prior under another r and other mus: the same path, bit for bit."""
        base = new_market(0.0, sigma, mus, (0.3, 0.3, 0.4))
        shifted = new_market(0.25, sigma, tuple(mu + 0.25 for mu in mus), (0.3, 0.3, 0.4))
        np.testing.assert_array_equal(base.gammas, shifted.gammas)  # dyadic values: exact
        a = simulate_filter_sde(base, 1, 1.0, 1e-3, seed=seed)
        b = simulate_filter_sde(shifted, 1, 1.0, 1e-3, seed=seed)
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.y, b.y)

    def test_blocks_are_the_path_in_order(self, toy):
        blocks = []
        path = simulate_filter_sde(toy, 1, 1.0, 1e-3, 42, block_rows=300, on_block=blocks.append)
        assert [b.times.size for b in blocks] == [300, 300, 300, 101]
        for name in ("times", "probs", "y"):
            whole = np.concatenate([getattr(b, name) for b in blocks])
            np.testing.assert_array_equal(whole, getattr(path, name))
        np.testing.assert_array_equal(path.probs, simulate_filter_sde(toy, 1, 1.0, 1e-3, 42).probs)
        with pytest.raises(ValueError, match="block_rows"):
            simulate_filter_sde(toy, 1, 1.0, 1e-3, seed=42, on_block=blocks.append)

    def test_observation_path_relation(self, toy):
        """y accumulates the spawn-key-1 increments plus gamma_theta * t drift."""
        path = simulate_filter_sde(toy, 2, 1.0, 1e-2, seed=9)
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(1,)))
        dw = rng.standard_normal(100) * np.sqrt(1e-2)
        w = np.concatenate(([0.0], np.cumsum(dw)))
        np.testing.assert_allclose(
            path.y, w + toy.gammas[2] * path.times, rtol=0, atol=1e-12
        )

    def test_step_not_dividing_horizon_ends_at_horizon(self):
        # one state, so no seed trips the Euler guard at these coarse steps (on the
        # toy market about 1 seed in 8 does at step 1/3, and 1 in 4 at step 1/2)
        model = single_state(3.0)
        for step, n_steps in ((0.3, 3), (0.4, 2)):
            path = simulate_filter_sde(model, 0, 1.0, step, seed=9)
            assert path.times.size == n_steps + 1
            assert path.times[-1] == 1.0
            assert path.times[1] == 1.0 / n_steps
            # y drifts with the step actually simulated
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(1,)))
            dw = rng.standard_normal(n_steps) * np.sqrt(path.times[1])
            w = np.concatenate(([0.0], np.cumsum(dw)))
            np.testing.assert_allclose(path.y, w + 3.0 * path.times, rtol=0, atol=1e-12)

    def test_rows_stay_on_simplex(self, toy):
        # on the sigma = 0.2 market (gammas +-25) the losing state sits on the clip
        # floor; at step 1e-3 the guard raises StepTooLarge there for about half the
        # seeds (test_step_too_large_raises covers that), at 1e-4 for none of 200
        wild = new_market(0.0, 0.2, (-5.0, 5.0), (0.5, 0.5))
        for model, horizon, step in ((toy, 5.0, 1e-3), (wild, 1.0, 1e-4)):
            path = simulate_filter_sde(model, 0, horizon, step, seed=3)
            assert np.all(path.probs > 0)
            np.testing.assert_allclose(path.probs.sum(axis=1), 1.0, atol=1e-12)
        # the wild market's losing state reaches the floor, renormalized by 1 + floor
        assert path.probs[:, 1].min() == pytest.approx(_EULER_FLOOR, rel=1e-9)

    def test_error_shrinks_as_step_refines(self, toy):
        """Euler error vs the closed form drops by >= 1.5x for a 4x finer step."""
        def max_err(step, seed):
            path = simulate_filter_sde(toy, 2, 2.0, step, seed=seed)
            closed = posterior_weights(toy, path.times, path.y)
            return np.max(np.abs(path.probs - closed))

        # every disjoint block of 40 seeds among the first 960 passes (the worst at 1.61)
        seeds = range(40)
        coarse = np.mean([max_err(4e-3, s) for s in seeds])
        fine = np.mean([max_err(1e-3, s) for s in seeds])
        assert coarse / fine >= 1.5

    @pytest.mark.parametrize(
        "market, T, step",
        [
            ((0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4)), 1.0, 1e-3),
            ((0.01, 0.3, (0.05, 0.1, 0.15, 0.3), (0.1, 0.2, 0.3, 0.4)), 1.0, 0.003),
            ((0.0, 2.0, (1.0, 2.0, 4.0), (1 / 3, 1 / 3, 1 / 3)), 0.7, 0.03),
        ],
        ids=["toy", "sigma0.3_d4", "sigma2_step_not_dividing"],
    )
    def test_y_is_the_stepper_path_0(self, market, T, step):
        """At one path and one seed, y is the Y terminal_wealth passes its strategy, bit for bit."""
        model = new_market(*market)
        for seed in (0, 1, 7, 2024):
            seen = []

            def record(t, y):
                seen.append(float(y[0]))
                return 0.0

            terminal_wealth(model, record, [1.0], T, step, 1, seed)
            index = int(_theta_indices(model, 1, seed)[0])
            path = simulate_filter_sde(model, index, T, step, seed)
            assert path.y[:-1].tolist() == seen

    def test_step_too_large_raises(self):
        m = new_market(0.0, 0.2, (-5.0, 5.0), (0.5, 0.5))
        with pytest.raises(StepTooLarge):
            simulate_filter_sde(m, 1, horizon=2.0, step=0.5, seed=0)

    def test_invalid_index_rejected(self, toy):
        with pytest.raises(IndexError):
            simulate_filter_sde(toy, 3, 1.0, 0.01, seed=0)


#: Callers of ``filtering._n_steps``, the one check of (T, step).
STEPPED = {
    "simulate_filter_sde": lambda m, T, step: simulate_filter_sde(m, 0, T, step, seed=0),
    "terminal_wealth": lambda m, T, step: terminal_wealth(
        m, lambda t, y: 1.0, [1.0], T, step, 2, 0
    ),
    "build_feedback_strategy": lambda m, T, step: build_feedback_strategy(m, 0.5, T, step),
}


@pytest.mark.parametrize(
    "T, step",
    [
        (math.inf, 1e-3),
        (math.nan, 1e-3),
        (1.0, math.nan),
        (0.0, 1e-3),
        (1.0, -1e-3),
        (1.0, 1e-320),  # T / step overflows to inf
        (1e300, 1e-10),
    ],
)
@pytest.mark.parametrize("caller", list(STEPPED))
def test_horizon_and_step_checked_once(toy, caller, T, step):
    """A non-finite or non-positive T, a NaN or non-positive step, or an infinite
    T / step is a ValueError naming both."""
    with pytest.raises(ValueError, match=re.escape(f"T={T}, step={step}")):
        STEPPED[caller](toy, T, step)


class TestEulerAgainstNumpyLoop:
    """The scalar Euler loop against the whole-vector numpy loop it replaced.

    The two differ in how the posterior mean is summed: in order here, by
    the BLAS dot kernel there, which may fuse multiply and add; and in its
    coordinates: gamma here, mu and sigma there.
    """

    MARKETS = (
        new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4)),
        new_market(0.01, 0.3, (0.05, 0.1, 0.15, 0.3), (0.1, 0.2, 0.3, 0.4)),
    )

    @pytest.mark.parametrize("model", MARKETS, ids=["toy", "sigma03_d4"])
    def test_probs_and_y_agree(self, model):
        for seed in (0, 5, 31):
            for index in range(model.d):
                path = simulate_filter_sde(model, index, 1.0, 1e-3, seed=seed)
                probs, y = numpy_filter_sde(model, index, 1.0, 1e-3, seed=seed)
                np.testing.assert_array_equal(path.y, y)
                np.testing.assert_allclose(path.probs, probs, rtol=0, atol=1e-12)

    def test_same_step_too_large(self):
        m = new_market(0.0, 0.2, (-5.0, 5.0), (0.5, 0.5))
        with pytest.raises(StepTooLarge) as ours:
            simulate_filter_sde(m, 1, horizon=2.0, step=0.5, seed=0)
        with pytest.raises(StepTooLarge) as theirs:
            numpy_filter_sde(m, 1, horizon=2.0, step=0.5, seed=0)
        assert str(ours.value) == str(theirs.value)
        assert "at step " in str(ours.value)
