import math

import numpy as np
import pytest

from bayesmerton import (
    InvalidAlpha,
    StrategyQuery,
    merton_fraction,
    new_market,
    optimal_fraction,
)
import bayesmerton.strategy as strategy_mod
from bayesmerton.asymptotics import (
    HypothesisViolated,
    InvalidLambda,
    admissible_lambda_interval,
    default_horizons,
    horizon_sweep,
    jensen_lower_bound_fd,
    limit_fraction,
    _pessimist_log_factors,
    pessimist_lower_bound_f1,
)

from oracles import (
    jensen_bound_reference,
    pessimist_factor1_reference,
    pessimist_factor2_reference,
    pessimist_factor3_reference,
    random_market,
)


@pytest.fixture
def toy():
    return new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))


class TestLimitFraction:
    def test_optimist_limit(self, toy):
        assert limit_fraction(toy, 0.5) == 6.0

    def test_pessimist_limit(self, toy):
        assert limit_fraction(toy, -0.5) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_single_state_limits_coincide(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        for alpha in (0.5, -0.5, -3.0):
            assert limit_fraction(m, alpha) == pytest.approx(
                merton_fraction(m, 1.0, alpha), abs=1e-15
            )

    def test_prior_independence(self, toy):
        other = new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.8, 0.1, 0.1))
        for alpha in (0.5, -0.5):
            assert limit_fraction(toy, alpha) == limit_fraction(other, alpha)

    def test_log_alpha_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            limit_fraction(toy, 0.0)

    def test_hypothesis_required(self):
        m = new_market(2.0, 1.0, (1.0, 3.0), (0.5, 0.5))
        with pytest.raises(HypothesisViolated):
            limit_fraction(m, 0.5)


class TestJensenBound:
    def test_saturates_for_single_state(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        assert jensen_lower_bound_fd(m, 0.5, 0.0, 10.0, 0.0) == pytest.approx(1.0)

    def test_horizon_limit_value(self, toy):
        """The bound tends to p_d^(beta-1); exact within 1e-10 at large T."""
        for alpha in (0.5, 0.25, 0.8):
            beta = 1.0 / (1.0 - alpha)
            bound = jensen_lower_bound_fd(toy, alpha, 0.0, 1e6, 0.0)
            assert bound == pytest.approx(0.4 ** (beta - 1.0), abs=1e-10)

    def test_bounds_quadrature_from_below(self, toy):
        for T in (2.0, 10.0, 50.0):
            f_top = optimal_fraction(toy, 0.5, StrategyQuery(0.0, T, 0.0)).f[-1]
            assert jensen_lower_bound_fd(toy, 0.5, 0.0, T, 0.0) <= f_top

    def test_value_in_unit_interval(self, toy):
        # ranges kept narrow enough that the true value stays above
        # double-precision underflow, so strict positivity is checkable
        rng = np.random.default_rng(8)
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 0.8))
            T = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, T))
            y = float(rng.normal(0, 2))
            b = jensen_lower_bound_fd(toy, alpha, t, T, y)
            assert 0.0 < b <= 1.0 + 1e-12

    def test_requires_alpha_in_unit_interval(self, toy):
        with pytest.raises(InvalidAlpha):
            jensen_lower_bound_fd(toy, -0.5, 0.0, 1.0, 0.0)

    def test_time_past_horizon_rejected(self, toy):
        with pytest.raises(ValueError, match="need 0 <= t <= T"):
            jensen_lower_bound_fd(toy, 0.5, 2.0, 1.0, 0.0)


class TestPessimistBound:
    def test_lambda_interval_example(self):
        m = new_market(0.0, 1.0, (1.0, 3.0), (0.5, 0.5))
        assert admissible_lambda_interval(m) == (1.0, 2.0)

    def test_invalid_lambda(self, toy):
        lo, hi = admissible_lambda_interval(toy)
        for lam in (lo, hi, 0.5, 5.0):
            with pytest.raises(InvalidLambda):
                pessimist_lower_bound_f1(toy, -0.5, 0.0, 5.0, 0.0, lam=lam)

    def test_factors_tend_to_one(self, toy):
        """Each of the three factors approaches 1 along growing horizons."""
        prev = (0.0, 0.0, 0.0)
        for T in (5.0, 50.0, 500.0):
            log_f1, log_f2, f3 = _pessimist_log_factors(toy, -0.5, 0.0, T, 0.0, lam=1.2)
            factors = (math.exp(log_f1), math.exp(log_f2), f3)
            assert all(f > p for f, p in zip(factors, prev))
            prev = factors
        assert all(f > 1.0 - 1e-6 for f in prev)

    def test_bounds_quadrature_from_below(self, toy):
        for T in (5.0, 20.0, 50.0):
            f_bottom = optimal_fraction(toy, -0.5, StrategyQuery(0.0, T, 0.0)).f[0]
            for lam in (1.1, 1.25, 1.4):
                assert pessimist_lower_bound_f1(toy, -0.5, 0.0, T, 0.0, lam=lam) <= f_bottom

    def test_default_lambda_is_admissible_midpoint(self, toy):
        mid = pessimist_lower_bound_f1(toy, -0.5, 0.0, 10.0, 0.0)
        explicit = pessimist_lower_bound_f1(toy, -0.5, 0.0, 10.0, 0.0, lam=1.25)
        assert mid == explicit

    def test_needs_two_states_and_hypothesis(self):
        single = new_market(0.0, 1.0, (1.0,), (1.0,))
        with pytest.raises(ValueError):
            pessimist_lower_bound_f1(single, -0.5, 0.0, 5.0, 0.0)
        invalid = new_market(2.0, 1.0, (1.0, 3.0), (0.5, 0.5))
        with pytest.raises(HypothesisViolated):
            pessimist_lower_bound_f1(invalid, -0.5, 0.0, 5.0, 0.0)

    def test_positive_alpha_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            pessimist_lower_bound_f1(toy, 0.5, 0.0, 5.0, 0.0)

    def test_time_at_horizon_rejected(self, toy):
        with pytest.raises(ValueError, match="need 0 <= t < T"):
            pessimist_lower_bound_f1(toy, -0.5, 1.0, 1.0, 0.0)


def _exponent_scale(model, b: float, T: float, y: float) -> float:
    """b g |y| + (b g)^2 T at the largest |gamma| g: the size of a bound's exponents."""
    g = float(np.abs(model.gammas).max())
    return b * g * abs(y) + (b * g) ** 2 * T


class TestBoundsAgainstExpandedReferences:
    """Both bounds read the filter; the oracles expand their exponents by hand.

    A double evaluation of exponents of size K rounds them by a few eps K,
    which no rewrite avoids, so the agreement asked is 1e-12 relative plus
    2 eps K wherever the reference exceeds 1e-300.
    """

    N_CASES = 400

    def cases(self, seed):
        """(rng, model, t, T, y) on random valid markets, d cycling 2-5, T in [0.1, 1e3]."""
        rng = np.random.default_rng(seed)
        for i in range(self.N_CASES):
            model = random_market(rng, require_valid=True)
            while model.d != 2 + i % 4:
                model = random_market(rng, require_valid=True)
            T = float(10.0 ** rng.uniform(-1.0, 3.0))
            t = float(rng.uniform(0.0, T))
            gam = model.gammas
            y = float(rng.uniform(gam[0], gam[-1]) * t + math.sqrt(T) * rng.standard_normal())
            yield rng, model, t, T, y

    def test_jensen_bound(self):
        checked = 0
        for rng, model, t, T, y in self.cases(19):
            alpha = float(rng.uniform(0.0, 1.0))
            ref = jensen_bound_reference(model, alpha, t, T, y)
            if ref > 1e-300:
                b = 1.0 / (1.0 - alpha)
                tol = 1e-12 + 2 * np.finfo(float).eps * _exponent_scale(model, b, T, y)
                got = jensen_lower_bound_fd(model, alpha, t, T, y)
                assert abs(got - ref) <= tol * ref, (model, alpha, t, T, y)
                checked += 1
        assert checked >= self.N_CASES // 2

    def test_pessimist_first_factor(self):
        checked = 0
        for rng, model, t, T, y in self.cases(29):
            alpha = float(rng.uniform(-5.0, 0.0))
            if not t < T:
                continue
            ref = pessimist_factor1_reference(model, alpha, t, T, y)
            if ref > 1e-300:
                # b <= 1 and 0 <= tau <= T, so the exponents are at most this size
                tol = 1e-12 + 2 * np.finfo(float).eps * _exponent_scale(model, 1.0, T, y)
                lam = sum(admissible_lambda_interval(model)) / 2
                got = math.exp(_pessimist_log_factors(model, alpha, t, T, y, lam)[0])
                assert abs(got - ref) <= tol * ref, (model, alpha, t, T, y)
                checked += 1
        assert checked >= self.N_CASES // 2

    def test_pessimist_third_factor(self):
        for rng, model, t, T, y in self.cases(31):
            alpha = float(rng.uniform(-5.0, 0.0))
            lo, hi = admissible_lambda_interval(model)
            lam = float(rng.uniform(lo, hi))
            if not (t < T and lo < lam < hi):
                continue
            ref = pessimist_factor3_reference(model, alpha, t, T, lam)
            got = _pessimist_log_factors(model, alpha, t, T, y, lam)[2]
            assert got == pytest.approx(ref, rel=1e-12, abs=0), (model, alpha, t, T, lam)

    def test_pessimist_second_factor(self):
        checked = 0
        for rng, model, t, T, y in self.cases(23):
            alpha = float(rng.uniform(-5.0, 0.0))
            lo, hi = admissible_lambda_interval(model)
            lam = float(rng.uniform(lo, hi))
            if not (t < T and lo < lam < hi):
                continue
            ref = pessimist_factor2_reference(model, t, T, y, lam)
            if ref > 1e-300:
                y_tilt = y + float(model.gammas[0]) * lam * (T - t)
                tol = 1e-12 + 2 * np.finfo(float).eps * _exponent_scale(model, 1.0, T, y_tilt)
                got = math.exp(_pessimist_log_factors(model, alpha, t, T, y, lam)[1])
                assert abs(got - ref) <= tol * ref, (model, alpha, t, T, y, lam)
                checked += 1
        assert checked >= self.N_CASES // 2


class TestHorizonSweep:
    def test_default_grid(self):
        np.testing.assert_allclose(default_horizons(), 2.0 ** np.arange(11))

    def test_single_state_gaps_are_zero(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        sweep = horizon_sweep(m, 0.5, 0.0, 0.0, [1.0, 2.0, 4.0])
        np.testing.assert_allclose(sweep.gaps, 0.0, atol=1e-14)
        assert sweep.within_gap[0]

    def test_toy_converges_to_both_limits(self, toy):
        for alpha in (0.5, -0.5):
            sweep = horizon_sweep(toy, alpha, 0.0, 0.0, default_horizons())
            assert not sweep.failed.any()
            final_gap = sweep.gaps[-1]
            assert final_gap < 0.05 * abs(sweep.limit)
            assert sweep.within_gap.any()

    def test_pessimist_gap_shrinks_along_grid(self, toy):
        """Observed behavior of this grid: gaps decrease monotonically."""
        sweep = horizon_sweep(toy, -0.5, 0.0, 0.0, default_horizons())
        assert np.all(np.diff(sweep.gaps) <= 1e-12)

    def test_failed_rows_are_flagged_and_kept(self, toy, monkeypatch):
        real = strategy_mod._fk_level

        def flaky(model, alpha, t, T, y, n_nodes):
            f = real(model, alpha, t, T, y, n_nodes)
            f[T == 4.0] = np.nan  # planted failure: this row never settles
            return f

        monkeypatch.setattr(strategy_mod, "_fk_level", flaky)
        sweep = horizon_sweep(toy, 0.5, 0.0, 0.0, [1.0, 2.0, 4.0, 8.0])
        assert sweep.failed.tolist() == [False, False, True, False]
        assert np.isnan(sweep.u_values[2])
        assert np.isfinite(sweep.u_values[[0, 1, 3]]).all()

    def test_bad_grids_rejected(self, toy):
        with pytest.raises(ValueError):
            horizon_sweep(toy, 0.5, 0.0, 0.0, [])
        with pytest.raises(ValueError):
            horizon_sweep(toy, 0.5, 0.0, 0.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            horizon_sweep(toy, 0.5, 5.0, 0.0, [1.0, 2.0])
