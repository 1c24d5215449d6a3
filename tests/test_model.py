import math

import numpy as np
import pytest

from bayesmerton import (
    EmptySupport,
    InvalidAlpha,
    InvalidPrior,
    NonPositiveSigma,
    StrategyQuery,
    UnorderedDrifts,
    merton_fraction,
    new_market,
)


@pytest.fixture
def toy():
    return new_market(r=0.0, sigma=1.0, mus=(1.0, 2.0, 3.0), prior=(0.3, 0.3, 0.4))


class TestNewMarket:
    def test_toy_gammas_and_flag(self, toy):
        np.testing.assert_allclose(toy.gammas, [1.0, 2.0, 3.0], rtol=0)
        assert toy.asymptotics_valid
        assert toy.d == 3

    def test_single_point_support(self):
        m = new_market(0.0, 1.0, (1.0,), (1.0,))
        assert m.d == 1
        assert m.gammas[0] == 1.0

    def test_unordered_drifts_rejected(self):
        with pytest.raises(UnorderedDrifts):
            new_market(0.0, 1.0, (2.0, 1.0), (0.5, 0.5))

    def test_infinite_drift_rejected(self):
        with pytest.raises(UnorderedDrifts, match="drift values must be finite"):
            new_market(0.0, 1.0, (1.0, math.inf), (0.5, 0.5))

    def test_tied_drifts_rejected(self):
        with pytest.raises(UnorderedDrifts):
            new_market(0.0, 1.0, (1.0, 1.0), (0.5, 0.5))

    def test_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            new_market(0.0, 0.0, (1.0,), (1.0,))
        with pytest.raises(NonPositiveSigma):
            new_market(0.0, -1.0, (1.0,), (1.0,))

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            new_market(0.0, 1.0, (), ())

    def test_prior_negative_rejected(self):
        with pytest.raises(InvalidPrior):
            new_market(0.0, 1.0, (1.0, 2.0), (1.5, -0.5))

    def test_prior_length_mismatch(self):
        with pytest.raises(InvalidPrior):
            new_market(0.0, 1.0, (1.0, 2.0), (1.0,))

    def test_prior_renormalized_within_tolerance(self):
        m = new_market(0.0, 1.0, (1.0, 2.0), (0.5, 0.5 + 5e-10))
        assert abs(m.prior.sum() - 1.0) <= 1e-12

    def test_prior_beyond_tolerance_rejected(self):
        with pytest.raises(InvalidPrior):
            new_market(0.0, 1.0, (1.0, 2.0), (0.5, 0.5 + 1e-8))

    def test_r_above_mu1_allowed_but_flagged(self):
        m = new_market(1.5, 1.0, (1.0, 2.0), (0.5, 0.5))
        assert not m.asymptotics_valid
        assert m.gammas[0] < 0 < m.gammas[1]

    def test_arrays_are_read_only(self, toy):
        for arr in (toy.mus, toy.prior, toy.gammas):
            with pytest.raises(ValueError):
                arr[0] = 99.0


class TestMertonFraction:
    def test_example_best_drift(self, toy):
        assert merton_fraction(toy, 3.0, 0.5) == pytest.approx(6.0, abs=1e-15)

    def test_example_worst_drift(self, toy):
        assert merton_fraction(toy, 1.0, -0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_excess_return(self):
        m = new_market(0.03, 0.7, (0.03, 0.08), (0.5, 0.5))
        assert merton_fraction(m, 0.03, -1.2) == 0.0

    def test_linear_in_excess_return(self, toy):
        base = merton_fraction(toy, 1.0, 0.25)
        assert merton_fraction(toy, 2.0, 0.25) == pytest.approx(2 * base, rel=1e-14)
        assert merton_fraction(toy, 4.0, 0.25) == pytest.approx(4 * base, rel=1e-14)

    def test_increasing_in_alpha_for_positive_excess(self, toy):
        alphas = [-2.0, -0.5, 0.0, 0.3, 0.9]
        values = [merton_fraction(toy, 2.0, a) for a in alphas]
        assert np.all(np.diff(values) > 0)

    def test_alpha_at_least_one_rejected(self, toy):
        with pytest.raises(InvalidAlpha):
            merton_fraction(toy, 2.0, 1.0)


class TestStrategyQuery:
    def test_valid(self):
        q = StrategyQuery(t=0.5, T=2.0, y=-1.0)
        assert q.t == 0.5

    def test_degenerate_zero_horizon_allowed(self):
        StrategyQuery(t=0.0, T=0.0, y=1.0)

    def test_t_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            StrategyQuery(t=2.0, T=1.0, y=0.0)

    def test_non_finite_field_rejected(self):
        with pytest.raises(ValueError, match="query fields must be finite"):
            StrategyQuery(math.nan, 1.0, 0.0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            StrategyQuery(t=-0.1, T=1.0, y=0.0)
