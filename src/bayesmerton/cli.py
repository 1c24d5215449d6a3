"""Command-line interface: evaluation, horizon sweeps, filter demo, optimality check.

One JSON config file carries the market and all run settings; flags
override individual values (flag > file > documented default).  Every
command is a pure function of the resolved config, so repeated runs write
byte-identical CSV/JSON/SVG outputs.

This module owns every output file format (sweep.csv, sweep.svg,
filter_demo.csv, optcheck.json); the library only computes.

The table ``_FIELDS`` is the schema: every field's dotted name, converter
and default, and from it every flag.  Numbers must be finite JSON numbers;
bools, strings, NaN and infinities are ConfigErrors naming the field, and so
is a key the table does not know.  All keys except "market" and "alpha" are
optional; with the defaults::

    {
      "market": {"r": 0.0, "sigma": 1.0, "mus": [1, 2, 3], "prior": [0.3, 0.3, 0.4]},
      "alpha": 0.5,
      "query": {"t": 0.0, "T": 1.0, "y": 0.0},
      "quadrature": {"nodes": 64},
      "sweep": {"horizons": [1, 2, 4, ..., 1024]},
      "sim": {"step": 0.001 * T, "n_paths": 100000, "seed": 0},
      "optcheck": {"perturbations": [0.5, 0.8, 1.25, 2.0]},
      "out_dir": "."
    }

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 optimality violation.
Errors are reported on stderr as one JSON object naming the failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .asymptotics import SweepResult, default_horizons, horizon_sweep
from .filtering import StepTooLarge, _theta_indices, posterior_weights, simulate_filter_sde
from .model import MarketModel, StrategyQuery, new_market
from .simkit import CacheProbeFailed, optimality_check
from .strategy import QuadratureConfig, QuadratureNotConverged, optimal_fraction

_NUMERICAL_ERRORS = (QuadratureNotConverged, StepTooLarge, CacheProbeFailed, FloatingPointError)


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
    out_dir: Path


def _number(value) -> int | float:
    """A finite int or float, as given; bools, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _real(value) -> float:
    return float(_number(value))


def _integer(value) -> int:
    """An int or an integral float; fractions are rejected, not truncated."""
    value = _number(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _numbers(values) -> tuple[float, ...]:
    """A list of numbers; a string or a scalar is rejected, not iterated."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    return tuple(_real(v) for v in values)


#: Default of a field the config must set.
_REQUIRED = object()
#: Default of sim.step: 1e-3 of the resolved horizon query.T.
_STEP_OF_T = object()

#: Every config field: dotted name, converter, default.  The last part of the
#: name is the flag's dest and the RunConfig field (or market/quadrature
#: argument); every field outside "market" has a flag.
_FIELDS = (
    ("market.r", _real, _REQUIRED),
    ("market.sigma", _real, _REQUIRED),
    ("market.mus", _numbers, _REQUIRED),
    ("market.prior", _numbers, _REQUIRED),
    ("alpha", _real, _REQUIRED),
    ("query.t", _real, 0.0),
    ("query.T", _real, 1.0),
    ("query.y", _real, 0.0),
    ("quadrature.nodes", _integer, 64),
    ("sweep.horizons", _numbers, tuple(default_horizons().tolist())),
    ("sim.step", _real, _STEP_OF_T),
    ("sim.n_paths", _integer, 100_000),
    ("sim.seed", _integer, 0),
    ("optcheck.perturbations", _numbers, (0.5, 0.8, 1.25, 2.0)),
    ("out_dir", Path, "."),
)


def load_config(path: str | Path, overrides: argparse.Namespace | None = None) -> RunConfig:
    """Read the JSON config, apply flag overrides, and resolve all defaults.

    A key outside _FIELDS is a ConfigError.  Each field takes its flag, else
    its config value, else its default, and its converter checks whichever
    wins; a failed conversion is a ConfigError that names the field.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    fields = {name for name, _, _ in _FIELDS}
    known = fields | {name.rpartition(".")[0] for name in fields} - {""}
    for key, node in raw.items():
        nested = key in known - fields and isinstance(node, dict)
        for name in [f"{key}.{k}" for k in node] if nested else [key]:
            if name not in known or "." in key:  # "query.t" at the root is not query.t
                raise ConfigError(f"unknown config key {name}")

    v = {}  # keyed by the last part of the field name
    for name, convert, default in _FIELDS:
        section, _, key = name.rpartition(".")
        node = raw.get(section, {}) if section else raw
        if not isinstance(node, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        value = getattr(overrides, key, None)
        if value is None:
            value = node.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"config is missing {name}")
        if value is _STEP_OF_T:
            value = 1e-3 * v["T"]
        try:
            v[key] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    model = new_market(v.pop("r"), v.pop("sigma"), v.pop("mus"), v.pop("prior"))
    try:
        quad = QuadratureConfig(nodes=v.pop("nodes"))
    except ValueError as exc:
        raise ConfigError(f"quadrature.nodes: {exc}") from exc
    if v["n_paths"] < 1:
        raise ConfigError(f"sim.n_paths must be >= 1, got {v['n_paths']}")
    if v["seed"] < 0:
        raise ConfigError(f"sim.seed must be >= 0, got {v['seed']}")
    return RunConfig(model=model, quad=quad, **v)


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
    sv = optimal_fraction(config.model, config.alpha, query, config.quad)
    print(f"u_star  = {sv.u_star:.12g}")
    print(f"v_star  = {sv.v_star:.12g}")
    print("f       = " + " ".join(f"{x:.12g}" for x in sv.f))
    print(f"myopic  = {sv.myopic:.12g}")
    print(f"hedging = {sv.hedging:.12g}")
    return 0


#: Rows that :func:`write_columns` and its helper interpreter convert at a
#: time.  Each process holds one chunk of values and text, and each
#: ``stream.write`` passes at most one chunk or 1 MiB of the helper's text,
#: so memory stays bounded whatever the row count.
CHUNK_ROWS = 2048
#: Bytes of the helper's text copied into the stream per ``write``.
_COPY_BYTES = 1 << 20


def write_columns(stream: IO[str], header: Sequence[str], columns: Sequence) -> None:
    """Write a header line, then one row per index of the equal-length float columns.

    Cells are ``repr(float)``, exact and never quoted: no such string holds
    a comma, a quote or a newline, so the bytes equal those of ``csv.writer``
    given the same strings.

    The rows are formatted on two CPUs.  This process formats the first
    half, rounded up to whole chunks of :data:`CHUNK_ROWS`.  One helper
    interpreter (``python -I -S``, standard library only) runs
    ``_rows.py`` on the rest.  It reads their float64 values from one
    temporary file and writes its text to another, which is copied into the
    stream after this process's rows.  Both use ``_rows.format_rows``, so
    the bytes do not depend on the split.  No helper starts for
    :data:`CHUNK_ROWS` rows or fewer.

    Header and column counts are checked before anything is written.  On
    any later error the helper is killed and reaped, and rows may already
    be on the stream; a helper that fails raises
    ``subprocess.CalledProcessError`` with its exit code.
    """
    from . import _rows  # imported here, as is subprocess, so cli loads no slower

    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or len(header) != len(columns):
        raise ValueError(
            f"need one header per column, got {len(header)} headers for {len(columns)} columns"
        )
    n_rows = columns[0].size
    if any(c.shape != (n_rows,) for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    half = min(n_rows, -(-n_rows // (2 * CHUNK_ROWS)) * CHUNK_ROWS)

    def write_rows(stop: int) -> None:
        for start in range(0, stop, CHUNK_ROWS):
            chunk = [c[start : start + CHUNK_ROWS].tolist() for c in columns]
            stream.write(_rows.format_rows(chunk))

    stream.write(",".join(header) + "\n")
    if half == n_rows:
        write_rows(n_rows)
        return

    import subprocess
    import tempfile

    with tempfile.TemporaryFile() as values, tempfile.TemporaryFile() as text:
        for start in range(half, n_rows, CHUNK_ROWS):
            values.write(np.column_stack([c[start : start + CHUNK_ROWS] for c in columns]))
        values.seek(0)
        helper = subprocess.Popen(
            [sys.executable, "-I", "-S", _rows.__file__, str(len(columns)), str(CHUNK_ROWS)],
            stdin=values,
            stdout=text,
        )
        try:
            write_rows(half)
            status = helper.wait()
        finally:
            if helper.returncode is None:
                helper.kill()
                helper.wait()
        if status:
            raise subprocess.CalledProcessError(status, helper.args)
        text.seek(0)
        while piece := text.read(_COPY_BYTES):
            stream.write(piece.decode("ascii"))


def export_sweep_csv(result: SweepResult, stream: IO[str]) -> None:
    """Write a sweep as CSV: T, u_star, limit, gap, converged_flag.

    Numbers are ``repr(float)`` and flags ``true`` or ``false``, joined as in
    :func:`write_columns`.
    """
    limit = repr(float(result.limit))
    stream.write("T,u_star,limit,gap,converged_flag\n")
    columns = (result.horizons, result.u_values, result.gaps, result.within_gap)
    for T, u, gap, ok in zip(*(c.tolist() for c in columns)):
        stream.write(f"{T!r},{u!r},{limit},{gap!r},{'true' if ok else 'false'}\n")


def export_report_json(report: dict, stream: IO[str]) -> None:
    """Write an optimality report as sorted JSON; NaN or inf raise ValueError, writing nothing."""
    stream.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _svg_axis_ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def render_sweep_svg(result: SweepResult) -> str:
    """Standalone SVG line chart of the sweep with the limit as a horizontal rule.

    The data-to-pixel transform is affine and recorded in the header comment,
    so the polyline can be checked against the CSV rows.
    """
    width, height, margin = 720, 480, 70.0  # pixels
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
        raise QuadratureNotConverged("every horizon failed")
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
    # path 0's drift, and so at one path its Y path, as terminal_wealth draws them
    true_index = int(_theta_indices(model, 1, config.seed)[0])
    path = simulate_filter_sde(model, true_index, config.T, _sim_step(config), config.seed)

    closed = posterior_weights(model, path.times, path.y)
    discrepancy = float(np.max(np.abs(path.probs - closed)))

    import os

    config.out_dir.mkdir(parents=True, exist_ok=True)
    target = config.out_dir / "filter_demo.csv"
    # written whole beside the target, then renamed: no half-written CSV is left
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", newline="") as fh:
            write_columns(
                fh,
                ["time", "y"]
                + [f"euler_p_{k + 1}" for k in range(model.d)]
                + [f"closed_p_{k + 1}" for k in range(model.d)],
                [path.times, path.y, *path.probs.T, *closed.T],
            )
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)
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
    )
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "optcheck.json", "w") as fh:
        export_report_json(report, fh)
    print(f"undominated = {report['undominated']}")
    return 0 if report["undominated"] else 4


#: How a flag's text is parsed before its field's converter checks it.
_FLAG_TYPES = {
    _real: float,
    _integer: int,
    _numbers: lambda text: [float(v) for v in text.split(",")],
    Path: str,
}


def build_parser() -> argparse.ArgumentParser:
    """One --flag per _FIELDS entry outside "market", named after its last part."""
    parser = argparse.ArgumentParser(
        prog="bayesmerton",
        description="Optimal stock fraction for a Bayesian power-utility investor",
    )
    parser.add_argument("--config", required=True, help="JSON config file")
    for name, convert, _ in _FIELDS:
        section, _, dest = name.rpartition(".")
        if section != "market":
            parser.add_argument(
                "--" + dest.replace("_", "-"),
                dest=dest,
                type=_FLAG_TYPES[convert],
                help=f"override {name}" + (" (comma-separated)" if convert is _numbers else ""),
            )
    parser.add_argument("command", choices=list(_COMMANDS), help="what to run")
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
    except (*_NUMERICAL_ERRORS, ValueError) as exc:
        # ConfigError and the model's named input errors are ValueErrors, as
        # are the library's own input checks; other exception types propagate
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3 if isinstance(exc, _NUMERICAL_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
