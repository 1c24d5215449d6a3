"""Property tests: the strategy table, the point evaluator and the bounds on random markets.

Every test runs a fixed, derandomized set of examples and keeps no example
database, so the suite stays deterministic and writes no files.
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from bayesmerton import (
    StrategyQuery,
    jensen_lower_bound_fd,
    new_market,
    optimal_fraction,
    pessimist_lower_bound_f1,
)
from bayesmerton.simkit import PROBE_TOL, CacheProbeFailed, build_feedback_strategy
from bayesmerton.strategy import evaluate_points

from oracles import integer_b_fraction

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=50)


# Hypothesis caches the constants it finds in local source files under its
# storage directory while collecting; with the null device as that directory
# the cache writes fail quietly, and the suite writes no .hypothesis/ directory.
set_hypothesis_home_dir(os.devnull)


@st.composite
def markets(draw, max_d, above_r=False):
    """r, sigma and d increasing drifts with gaps from near-tied to wide, and a random prior.

    With ``above_r`` the smallest drift exceeds r, so every gamma is positive.
    """
    d = draw(st.integers(2, max_d))
    sigma = draw(st.floats(0.3, 2.0))
    first = draw(st.floats(1e-3, 1.0) if above_r else st.floats(-1.0, 1.0))
    gaps = draw(st.lists(st.floats(0.01, 1.5), min_size=d - 1, max_size=d - 1))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    r = draw(st.floats(0.0, 0.05))
    mus = first + np.cumsum([0.0, *gaps]) + (r if above_r else 0.0)
    return new_market(r, sigma, mus, weights / weights.sum())


@FIXED
@given(
    model=markets(max_d=5),
    alpha=st.floats(-3.0, 0.8),
    T=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_rows_finite_and_match_evaluator(model, alpha, T, seed):
    """The build either fails loudly or returns finite rows within PROBE_TOL of evaluate_points."""
    try:
        strat = build_feedback_strategy(model, alpha, T, T / 100)
    except CacheProbeFailed:
        return
    assert strat.probe_error < PROBE_TOL
    rows = [strat._row(i) for i in range(strat.n + 1)]
    assert all(np.isfinite(row).all() for row in rows)

    rng = np.random.default_rng(seed)
    steps = rng.integers(0, strat.n + 1, size=8)
    # y where the cubic has its full stencil: no clamping
    lo = (strat.band_lo[steps] + 1) * strat.h
    hi = (strat.band_hi[steps] - 2) * strat.h
    y = rng.uniform(lo, hi)
    # n dt may round past T, which evaluate_points rejects
    direct, _, failed, _ = evaluate_points(model, alpha, np.minimum(steps * strat.dt, T), T, y)
    assert not failed.any()
    table = np.array([strat(i * strat.dt, y[k : k + 1])[0] for k, i in enumerate(steps.tolist())])
    assert strat.clamped == 0
    assert np.max(np.abs(table - direct)) < PROBE_TOL


@FIXED
@given(
    model=markets(max_d=8),
    alpha=st.one_of(st.floats(-50.0, -5.0), st.floats(-5.0, 0.9), st.floats(0.9, 0.999)),
    T=st.floats(0.01, 1e3),
    frac=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    y=st.lists(st.floats(-30.0, 30.0), min_size=4, max_size=4),
)
def test_evaluator_stays_in_the_drift_hull(model, alpha, T, frac, y):
    """u* lies in [gamma_1, gamma_d] / (sigma (1 - alpha)) and f on the simplex."""
    t = T * np.array(frac)
    u, f, failed, _ = evaluate_points(model, alpha, t, T, np.array(y))
    scale = model.sigma * (1.0 - alpha)
    gam = model.gammas
    slack = 1e-12 * np.abs(gam).max() / scale
    ok = ~failed
    assert np.all(u[ok] >= gam[0] / scale - slack)
    assert np.all(u[ok] <= gam[-1] / scale + slack)
    assert np.all(f[ok] >= 0.0)
    np.testing.assert_allclose(f[ok].sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@FIXED
@given(
    model=markets(max_d=5),
    alpha=st.floats(-3.0, 0.9).filter(lambda a: a != 0.0),
    t=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    y=st.floats(-5.0, 5.0),
)
def test_hedging_vanishes_at_maturity(model, alpha, t, y):
    """The hedging demand tends to 0 as T -> t, like T - t, at t = 0 as elsewhere.

    Bounded by (T - t) max gamma^2 |alpha| / (1 - alpha) times the span of u*,
    (gamma_d - gamma_1) / (sigma (1 - alpha)), plus a roundoff floor; 5000
    random examples stayed below 0.19 of that bound.
    """
    gam = model.gammas
    span = (gam[-1] - gam[0]) / (model.sigma * (1.0 - alpha))
    for tau in (1e-6, 1e-9):
        sv = optimal_fraction(model, alpha, StrategyQuery(t, t + tau, y))
        bound = tau * span * np.max(gam**2) * abs(alpha) / (1.0 - alpha)
        assert abs(sv.hedging) <= bound + 1e-12 * (1.0 + abs(sv.u_star))


def four_floats(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=4, max_size=4)


@FIXED
@given(
    model=markets(max_d=20),
    b=st.integers(2, 4),
    T=st.floats(0.01, 1e4),
    frac=four_floats(0.0, 1.0),
    where=four_floats(0.0, 1.0),
    z=four_floats(-3.0, 3.0),
)
def test_evaluator_matches_integer_b_closed_form(model, b, T, frac, where, z):
    """At alpha = 1 - 1/b, u* matches the exact multinomial sum to 1e-10 relative.

    y is where paths go: a drift in [gamma_1, gamma_d] times t, plus z sqrt(t).
    """
    t = T * np.array(frac)
    gam = model.gammas
    y = (gam[0] + np.array(where) * (gam[-1] - gam[0])) * t + np.array(z) * np.sqrt(t)
    u, _, failed, _ = evaluate_points(model, 1.0 - 1.0 / b, t, T, y)
    assert not failed.any()
    np.testing.assert_allclose(u, integer_b_fraction(model, b, t, T, y), rtol=1e-10, atol=0)


def state_weights(model, alpha, t, T, y):
    """f at one point, from the evaluator; the point must converge."""
    _, f, failed, _ = evaluate_points(model, alpha, t, T, y)
    assert not failed
    return f


#: Slack for the evaluator's f, which converges with u* to about 1e-9 relative.
F_TOL = 1e-9


@FIXED
@given(
    model=markets(max_d=5, above_r=True),
    alphas=st.lists(st.floats(-5.0, 0.95), min_size=2, max_size=4, unique=True),
    T=st.floats(0.1, 20.0),
    frac=st.floats(0.0, 1.0),
    y=st.floats(-5.0, 5.0),
)
def test_extreme_weights_monotone_in_alpha(model, alphas, T, frac, y):
    """With r < mu_1, f_1 is nonincreasing and f_d nondecreasing in alpha."""
    f = np.array([state_weights(model, a, frac * T, T, y) for a in sorted(alphas)])
    assert np.all(np.diff(f[:, 0]) <= F_TOL)
    assert np.all(np.diff(f[:, -1]) >= -F_TOL)


@FIXED
@given(
    model=markets(max_d=5),
    alpha=st.floats(0.01, 0.95),
    T=st.floats(0.1, 50.0),
    frac=st.floats(0.0, 1.0),
    y=st.floats(-5.0, 5.0),
)
def test_jensen_bound_below_f_d(model, alpha, T, frac, y):
    """For alpha in (0, 1) the Jensen bound sits below f_d."""
    f_d = state_weights(model, alpha, frac * T, T, y)[-1]
    assert jensen_lower_bound_fd(model, alpha, frac * T, T, y) <= f_d * (1.0 + F_TOL)


@FIXED
@given(
    model=markets(max_d=5, above_r=True),
    alpha=st.floats(-5.0, -0.01),
    T=st.floats(0.1, 50.0),
    frac=st.floats(0.0, 0.99),
    y=st.floats(-5.0, 5.0),
    where=st.floats(0.01, 0.99),
)
def test_pessimist_bound_below_f_1(model, alpha, T, frac, y, where):
    """For alpha < 0 the pessimist bound sits below f_1 at any admissible lambda."""
    gam = model.gammas
    lam = 1.0 + where * 0.5 * (gam[1] / gam[0] - 1.0)
    f_1 = state_weights(model, alpha, frac * T, T, y)[0]
    assert pessimist_lower_bound_f1(model, alpha, frac * T, T, y, lam=lam) <= f_1 * (1.0 + F_TOL)


def test_pessimist_bound_counterexample():
    """A random example of the property test above, run wider: the bound's earlier form
    read 0.977906 here against f_1 0.977041 (mpmath 0.97704123176); it now reads 0.67526."""
    model = new_market(0.0, 1.0, (0.25, 1.0, 2.0, 3.0, 4.0), (0.2,) * 5)
    f_1 = state_weights(model, -4.0, 0.0, 20.0, 1.0)[0]
    assert pessimist_lower_bound_f1(model, -4.0, 0.0, 20.0, 1.0, lam=1.1875) <= f_1 * (1.0 + F_TOL)
