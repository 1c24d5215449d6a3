"""Command-line interface: evaluation, horizon sweeps, filter demo, optimality check.

One JSON config file carries the market and all run settings; a handful of
flags override individual values (flag > file > documented default).  Every
command is a pure function of the resolved config, so repeated runs write
byte-identical CSV/JSON/SVG outputs.

Config schema (all keys except "market" and "alpha" optional)::

    {
      "market": {"r": 0.0, "sigma": 1.0, "mus": [1, 2, 3], "prior": [0.3, 0.3, 0.4]},
      "alpha": 0.5,
      "query": {"t": 0.0, "T": 1.0, "y": 0.0},
      "quadrature": {"nodes": 64, "rel_tol": 1e-9, "half_width": 10.0},
      "sweep": {"horizons": [1, 2, 4, ..., 1024]},
      "sim": {"step": 0.001, "n_paths": 100000, "seed": 0},
      "optcheck": {"perturbations": [0.5, 0.8, 1.25, 2.0], "reference_scale": 1.0},
      "out_dir": "."
    }

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 optimality violation.
Errors are reported on stderr as one JSON object naming the failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotics import SweepResult, default_horizons, export_sweep_csv, horizon_sweep
from .filtering import StepTooLarge, posterior_weights, simulate_filter_sde
from .model import MarketModel, StrategyQuery, new_market
from .simkit import CacheProbeFailed, export_report_json, optimality_check
from .strategy import (
    DegenerateHorizon,
    QuadratureConfig,
    QuadratureNotConverged,
    evaluate_points,
    optimal_fraction,
)

_NUMERICAL_ERRORS = (
    QuadratureNotConverged, StepTooLarge, DegenerateHorizon, CacheProbeFailed, FloatingPointError
)


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings; no hidden defaults survive past loading."""

    model: MarketModel
    alpha: float
    t: float
    T: float
    y: float
    quad: QuadratureConfig
    horizons: tuple[float, ...]
    step: float
    n_paths: int
    seed: int
    perturbations: tuple[float, ...]
    reference_scale: float
    out_dir: Path


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def load_config(path: str | Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Read the JSON config, apply flag overrides, and resolve all defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    market = _section(raw, "market")
    for key in ("r", "sigma", "mus", "prior"):
        if key not in market:
            raise ConfigError(f"config is missing market.{key}")
    if "alpha" not in raw:
        raise ConfigError("config is missing alpha")

    def field(name: str, convert, fallback):
        """``convert`` of the flag override, else of the config value, at ``name``.

        The flag is the last part of ``name``; a failed conversion is a
        ConfigError that names the field.
        """
        flag = getattr(overrides, name.rpartition(".")[2], None)
        try:
            return convert(fallback if flag is None else flag)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    query = _section(raw, "query")
    quad_raw = _section(raw, "quadrature")
    sweep_raw = _section(raw, "sweep")
    sim = _section(raw, "sim")
    opt = _section(raw, "optcheck")

    model = new_market(
        field("market.r", float, market["r"]),
        field("market.sigma", float, market["sigma"]),
        field("market.mus", _float_array, market["mus"]),
        field("market.prior", _float_array, market["prior"]),
    )
    alpha = field("alpha", float, raw["alpha"])
    t = field("query.t", float, query.get("t", 0.0))
    T = field("query.T", float, query.get("T", 1.0))
    y = field("query.y", float, query.get("y", 0.0))
    nodes = field("quadrature.nodes", int, quad_raw.get("nodes", 64))
    half_width = field("quadrature.half_width", float, quad_raw.get("half_width", 10.0))
    rel_tol = field("quadrature.rel_tol", float, quad_raw.get("rel_tol", 1e-9))
    try:
        quad = QuadratureConfig(nodes=nodes, half_width=half_width, rel_tol=rel_tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    horizons = field(
        "sweep.horizons", _floats, sweep_raw.get("horizons", default_horizons().tolist())
    )
    step = field("sim.step", float, sim.get("step", 1e-3 * T))
    n_paths = field("sim.n_paths", int, sim.get("n_paths", 100_000))
    seed = field("sim.seed", int, sim.get("seed", 0))
    perturbations = field(
        "optcheck.perturbations", _floats, opt.get("perturbations", [0.5, 0.8, 1.25, 2.0])
    )
    reference_scale = field("optcheck.reference_scale", float, opt.get("reference_scale", 1.0))
    out_dir = field("out_dir", Path, raw.get("out_dir", "."))

    if n_paths < 1:
        raise ConfigError(f"sim.n_paths must be >= 1, got {n_paths}")
    return RunConfig(
        model=model,
        alpha=alpha,
        t=t,
        T=T,
        y=y,
        quad=quad,
        horizons=horizons,
        step=step,
        n_paths=n_paths,
        seed=seed,
        perturbations=perturbations,
        reference_scale=reference_scale,
        out_dir=out_dir,
    )


def _sim_step(config: RunConfig) -> float:
    """The simulation step, checked only by the commands that simulate.

    Its default 1e-3 T is 0 at T = 0, where eval and sweep still run.
    """
    if config.step <= 0.0:
        raise ConfigError(f"sim.step must be positive, got {config.step}")
    return config.step


def cmd_eval(config: RunConfig) -> int:
    """Print u*, v*, f_k, myopic term, and hedging demand at the query point."""
    query = StrategyQuery(t=config.t, T=config.T, y=config.y)
    if config.alpha == 0.0:
        # log utility: the horizon-free closed form at (t, t, y)
        u, f, _, _ = evaluate_points(config.model, 0.0, query.t, query.t, query.y)
        u, v = float(u), float(f @ config.model.gammas)
        myopic, hedging = u, 0.0
    else:
        sv = optimal_fraction(config.model, config.alpha, query, config.quad)
        u, v, f, myopic, hedging = sv.u_star, sv.v_star, sv.f, sv.myopic, sv.hedging
    print(f"u_star  = {u:.12g}")
    print(f"v_star  = {v:.12g}")
    print("f       = " + " ".join(f"{x:.12g}" for x in f))
    print(f"myopic  = {myopic:.12g}")
    print(f"hedging = {hedging:.12g}")
    return 0


def _svg_axis_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_sweep_svg(result: SweepResult, width: int = 720, height: int = 480) -> str:
    """Standalone SVG line chart of the sweep with the limit as a horizontal rule.

    The data-to-pixel transform is affine and recorded in the header comment,
    so the polyline can be checked against the CSV rows.
    """
    margin = 70.0
    ok = ~result.failed & np.isfinite(result.u_values)
    xs = result.horizons[ok]
    ys = result.u_values[ok]
    x_lo, x_hi = float(result.horizons.min()), float(result.horizons.max())
    vals = np.concatenate((ys, [result.limit])) if ys.size else np.array([result.limit])
    y_lo, y_hi = float(vals.min()), float(vals.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    sx = (width - 2.0 * margin) / (x_hi - x_lo)
    bx = margin - x_lo * sx
    sy = -(height - 2.0 * margin) / (y_hi - y_lo)
    by = (height - margin) - y_lo * sy

    points = " ".join(
        f"{float(sx * x + bx)!r},{float(sy * u + by)!r}" for x, u in zip(xs, ys)
    )
    limit_px = sy * result.limit + by

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- x_px = {sx!r} * T + {bx!r}; y_px = {sy!r} * u_star + {by!r} -->",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin!r}" y1="{height - margin!r}" x2="{width - margin!r}" '
        f'y2="{height - margin!r}" stroke="black"/>',
        f'<line x1="{margin!r}" y1="{margin!r}" x2="{margin!r}" '
        f'y2="{height - margin!r}" stroke="black"/>',
    ]
    for xv in _svg_axis_ticks(x_lo, x_hi):
        px = sx * xv + bx
        lines.append(
            f'<line x1="{px!r}" y1="{height - margin!r}" x2="{px!r}" '
            f'y2="{height - margin + 6!r}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{px!r}" y="{height - margin + 22!r}" font-size="12" '
            f'text-anchor="middle">{xv:.6g}</text>'
        )
    for yv in _svg_axis_ticks(y_lo, y_hi):
        py = sy * yv + by
        lines.append(
            f'<line x1="{margin - 6!r}" y1="{py!r}" x2="{margin!r}" y2="{py!r}" stroke="black"/>'
        )
        lines.append(
            f'<text x="{margin - 10!r}" y="{py + 4!r}" font-size="12" '
            f'text-anchor="end">{yv:.6g}</text>'
        )
    lines.append(
        f'<line x1="{margin!r}" y1="{limit_px!r}" x2="{width - margin!r}" y2="{limit_px!r}" '
        f'stroke="gray" stroke-dasharray="6 4"/>'
    )
    if points:
        lines.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>')
    lines.append(
        f'<text x="{width / 2!r}" y="{height - 20!r}" font-size="13" text-anchor="middle">'
        "horizon T</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_sweep(config: RunConfig) -> int:
    """Write sweep.csv and sweep.svg into the output directory."""
    result = horizon_sweep(
        config.model, config.alpha, config.t, config.y, config.horizons, config.quad
    )
    if bool(result.failed.all()):
        print(
            json.dumps({"error": "QuadratureNotConverged", "message": "every horizon failed"}),
            file=sys.stderr,
        )
        return 3
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "sweep.csv", "w", newline="") as fh:
        export_sweep_csv(result, fh)
    (config.out_dir / "sweep.svg").write_text(render_sweep_svg(result))
    n_failed = int(result.failed.sum())
    print(
        f"sweep: {result.horizons.size - n_failed}/{result.horizons.size} horizons, "
        f"limit {result.limit:.12g}, final gap {result.gaps[~result.failed][-1]:.12g}"
    )
    return 0


def cmd_filter_demo(config: RunConfig) -> int:
    """Simulate one filter path; write Euler and closed-form posteriors side by side."""
    model = config.model
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    true_index = int(rng.choice(model.d, p=model.prior))
    path = simulate_filter_sde(model, true_index, config.T, _sim_step(config), config.seed)

    closed = posterior_weights(model, path.times, path.y)
    closed[0] = model.prior  # posterior() pins t = 0 to the prior
    discrepancy = float(np.max(np.abs(path.probs - closed)))

    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "filter_demo.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time", "y"]
            + [f"euler_p_{k + 1}" for k in range(model.d)]
            + [f"closed_p_{k + 1}" for k in range(model.d)]
        )
        for i in range(path.times.size):
            writer.writerow(
                [repr(float(path.times[i])), repr(float(path.y[i]))]
                + [repr(float(v)) for v in path.probs[i]]
                + [repr(float(v)) for v in closed[i]]
            )
    print(f"true_drift_index = {true_index}")
    print(f"max_discrepancy  = {discrepancy:.12g}")
    return 0


def cmd_optcheck(config: RunConfig) -> int:
    """Run the perturbation study; write optcheck.json; exit 4 if dominated."""
    report = optimality_check(
        config.model,
        config.alpha,
        config.T,
        config.perturbations,
        step=_sim_step(config),
        n_paths=config.n_paths,
        seed=config.seed,
        quad=config.quad,
        reference_scale=config.reference_scale,
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "optcheck.json", "w") as fh:
        export_report_json(report, fh)
    print(f"undominated = {report['undominated']}")
    return 0 if report["undominated"] else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesmerton",
        description="Optimal stock fraction for a Bayesian power-utility investor",
    )
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--alpha", type=float, help="override utility coefficient")
    parser.add_argument("--t", type=float, help="override query time t")
    parser.add_argument("--T", type=float, help="override horizon T")
    parser.add_argument("--y", type=float, help="override observation y")
    parser.add_argument("--nodes", type=int, help="override quadrature nodes")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, help="override quadrature rel_tol")
    parser.add_argument(
        "--half-width", dest="half_width", type=float, help="override quadrature half_width"
    )
    parser.add_argument(
        "--horizons", type=lambda s: [float(v) for v in s.split(",")],
        help="override sweep horizons (comma-separated)",
    )
    parser.add_argument("--step", type=float, help="override simulation step")
    parser.add_argument("--n-paths", dest="n_paths", type=int, help="override path count")
    parser.add_argument("--seed", type=int, help="override RNG seed")
    parser.add_argument(
        "--perturbations", type=lambda s: [float(v) for v in s.split(",")],
        help="override optcheck perturbations (comma-separated)",
    )
    parser.add_argument(
        "--reference-scale", dest="reference_scale", type=float,
        help="override optcheck reference scale",
    )
    parser.add_argument("--out-dir", dest="out_dir", help="override output directory")
    parser.add_argument(
        "command", choices=["eval", "sweep", "filter-demo", "optcheck"],
        help="what to run",
    )
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "filter-demo": cmd_filter_demo,
    "optcheck": cmd_optcheck,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, overrides=args)
        return _COMMANDS[args.command](config)
    except _NUMERICAL_ERRORS as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 3
    except ValueError as exc:
        # ConfigError and the model's named input errors are ValueErrors, as
        # are the library's own input checks; other exception types propagate
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
