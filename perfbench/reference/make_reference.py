"""Generate the sweep reference table with arbitrary-precision quadrature.

The optimal fraction is the ratio of two Gaussian expectations over
W ~ N(0, T - t),

    u* = E[F^(1/(1-a)) * g_bar] / (E[F^(1/(1-a))] * sigma * (1 - a)),
    F(x)     = sum_k p_k exp(g_k x - g_k^2 T / 2),   evaluated at x = y + W,
    g_bar(x) = sum_k p_k g_k exp(g_k x - g_k^2 T / 2) / F(x),

with g_k = (mu_k - r) / sigma.  This script integrates both expectations
directly in W with mpmath at 25 significant digits, using none of
bayesmerton's code, and accepts a value only when the tanh-sinh and
Gauss-Legendre rules agree on it.  The integrand of state k peaks at
W = g_k (T - t) / (1 - a) with spread sqrt(T - t), so the real line is cut
at those peaks, and only the neighbourhood of peaks that carry mass is
integrated (see the bound in ``u_star``).

Run from the repository root (slow: tens of minutes on one core):

    python3 perfbench/reference/make_reference.py

It rewrites perfbench/reference/sweep_reference.json, which also defines
the sweep workload's grid: markets, alphas, (t, y) pairs and horizons.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("sweep_reference.json")

MARKETS = {
    "toy": {"r": 0.0, "sigma": 1.0, "mus": [1.0, 2.0, 3.0], "prior": [0.3, 0.3, 0.4]},
    "d8": {
        "r": 0.0,
        "sigma": 0.3,
        "mus": [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37],
        "prior": [0.125] * 8,
    },
    "wide": {"r": 0.0, "sigma": 0.5, "mus": [0.5, 2.5, 5.0], "prior": [0.3, 0.3, 0.4]},
}
ALPHAS = [-5.0, -1.0, -0.25, 0.25, 0.5, 0.9]
POINTS = [[0.0, 0.0], [0.2, 0.5], [0.1, -0.8]]
N_HORIZONS = 48
#: Relative agreement required between the two quadrature rules.
AGREE = 1e-14
H_MIN, H_MAX = 0.25, 1.0e4


def horizons() -> list[float]:
    """Geometric grid H_MIN .. H_MAX, rounded to 12 significant digits."""
    ratio = (H_MAX / H_MIN) ** (1.0 / (N_HORIZONS - 1))
    return [float(f"{H_MIN * ratio**i:.12g}") for i in range(N_HORIZONS)]


def u_star(market: dict, alpha: float, t: float, y: float, T: float) -> mp.mpf:
    """u*(t, T, y) for one market and alpha, at the working precision."""
    r = mp.mpf(market["r"])
    sigma = mp.mpf(market["sigma"])
    gam = [(mp.mpf(m) - r) / sigma for m in market["mus"]]
    logp = [mp.log(mp.mpf(p)) for p in market["prior"]]
    a = mp.mpf(alpha)
    b = 1 / (1 - a)
    T = mp.mpf(T)
    V = T - mp.mpf(t)
    y = mp.mpf(y)

    def log_terms(w):
        x = y + w
        return [lp + g * x - g * g * T / 2 for lp, g in zip(logp, gam)]

    def den(w):
        return mp.exp(b * mp.log(mp.fsum(mp.exp(e) for e in log_terms(w))) - w * w / (2 * V))

    def num(w):
        terms = [mp.exp(e) for e in log_terms(w)]
        F = mp.fsum(terms)
        g_bar = mp.fsum(g * e for g, e in zip(gam, terms)) / F
        return mp.exp(b * mp.log(F) - w * w / (2 * V)) * g_bar

    # Each state's term, raised to 1/(1-a) and times the N(0, V) density,
    # is a parabola in log space peaking at c_k with width sqrt(V).  Since
    # F^(1/(1-a)) <= d^(1/(1-a)) max_k term_k^(1/(1-a)), states whose peak
    # sits 72 nats under the highest one, and everything 12 widths from the
    # kept peaks, change either integral by less than exp(-50) relative.
    sd = mp.sqrt(V)
    peaks = []
    for lp, g in zip(logp, gam):
        c = g * V * b
        top = b * (lp + g * (y + c) - g * g * T / 2) - c * c / (2 * V)
        peaks.append((c, top))
    best = max(top for _, top in peaks)
    spans: list[list] = []
    for c in sorted(c for c, top in peaks if top > best - 72):
        if spans and c - 12 * sd <= spans[-1][1]:
            spans[-1][1] = c + 12 * sd
        else:
            spans.append([c - 12 * sd, c + 12 * sd])

    # Integrate on pieces of `width` spreads with tanh-sinh and with
    # Gauss-Legendre at a fixed degree (mpmath's own error estimate never
    # meets the working precision here, so the adaptive default only burns
    # time); halve the pieces until the two rules agree.
    width = 2
    while True:
        ratios = []
        for method in ("tanh-sinh", "gauss-legendre"):
            n = d = mp.mpf(0)
            for lo, hi in spans:
                cuts = mp.linspace(lo, hi, int(mp.ceil((hi - lo) / (width * sd))) + 1)
                n += mp.quad(num, cuts, method=method, maxdegree=3)
                d += mp.quad(den, cuts, method=method, maxdegree=3)
            ratios.append(n / d)
        if abs(ratios[0] - ratios[1]) <= AGREE * abs(ratios[0]):
            return ratios[0] / (sigma * (1 - a))
        if width < 0.1:
            raise ArithmeticError(f"no agreement at T={T}: {ratios}")
        width /= 2


def main() -> int:
    mp.mp.dps = 25
    hs = horizons()
    rows = []
    for name, market in MARKETS.items():
        for alpha in ALPHAS:
            for t, y in POINTS:
                u = [float(u_star(market, alpha, t, y, T)) for T in hs]
                rows.append({"market": name, "alpha": alpha, "t": t, "y": y, "u_star": u})
                print(name, alpha, t, y, file=sys.stderr, flush=True)
    doc = {
        "generator": "perfbench/reference/make_reference.py (mpmath, 25 digits)",
        "markets": MARKETS,
        "horizons": hs,
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
