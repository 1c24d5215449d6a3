"""Property tests: the strategy table and the point evaluator on random markets.

Every test runs a fixed, derandomized set of examples and keeps no example
database, so the suite stays deterministic and writes no files.
"""

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from bayesmerton import new_market
from bayesmerton.simkit import PROBE_TOL, CacheProbeFailed, build_feedback_strategy
from bayesmerton.strategy import evaluate_points

from oracles import integer_b_fraction

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=50)


# Hypothesis caches the constants it finds in local source files under its
# storage directory while collecting; with the null device as that directory
# the cache writes fail quietly, and the suite writes no .hypothesis/ directory.
set_hypothesis_home_dir(os.devnull)


@st.composite
def markets(draw, max_d):
    """r, sigma and d increasing drifts with gaps from near-tied to wide, and a random prior."""
    d = draw(st.integers(2, max_d))
    sigma = draw(st.floats(0.3, 2.0))
    first = draw(st.floats(-1.0, 1.0))
    gaps = draw(st.lists(st.floats(0.01, 1.5), min_size=d - 1, max_size=d - 1))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    r = draw(st.floats(0.0, 0.05))
    return new_market(r, sigma, first + np.cumsum([0.0, *gaps]), weights / weights.sum())


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
