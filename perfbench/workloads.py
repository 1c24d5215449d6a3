"""The benchmark's workloads: generated configs, CLI commands and output checks.

Every workload drives one ``bayesmerton`` command with configs written here;
the workload seed becomes each config's ``sim.seed`` and the program sees
only those files.  Each output check returns the reason for a failure, or
an empty string, plus the accuracy figures and counts it measured on the way.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference" / "sweep_reference.json"

TOY = {"r": 0.0, "sigma": 1.0, "mus": [1.0, 2.0, 3.0], "prior": [0.3, 0.3, 0.4]}
S03 = {"r": 0.0, "sigma": 0.3, "mus": [0.3, 0.6, 0.9], "prior": [0.3, 0.3, 0.4]}

# Output tolerances, fixed before any measurement; a miss fails the command.
#: Sweep u* against the mpmath reference.  The engine's doubling target is
#: rel_tol = 1e-9 between levels, which does not bound the error itself, so
#: the check allows ten times that.
SWEEP_REL_TOL = 1e-8
#: optcheck probe_error must stay under the package's documented cache
#: interpolation bound (simkit.PROBE_TOL at the time the benchmark was written).
PROBE_TOL = 1e-4
#: filter-demo compares the closed-form columns with an independent
#: evaluation at sampled rows to this absolute tolerance.
CLOSED_FORM_TOL = 1e-12
#: filter-demo's max_discrepancy must stay under this many sqrt(step).  The
#: Euler scheme converges with strong order 1/2 but with no known constant;
#: over 250 seeds at step 1e-4 the largest discrepancy was 2.4 sqrt(step).
EULER_SQRT_STEPS = 5.0

SIM = {"T": 1.0, "step": 1e-3, "n_paths": 20_000, "perturbations": [0.5, 2.0]}
TINY_SIM = {"T": 1.0, "step": 1e-2, "n_paths": 500, "perturbations": [0.5, 2.0]}


@dataclass
class Command:
    """One CLI invocation and the size of the work it does."""

    argv: list[str]
    config: dict
    out_dir: Path
    work: int
    expected: list[float] | None = None  # reference u* per sweep horizon


@dataclass
class Outcome:
    reason: str = ""
    values: dict = field(default_factory=dict)  # accuracy figures; runs keep the worst
    counts: dict = field(default_factory=dict)  # runs add these up


def _write_config(workdir: Path, name: str, config: dict) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config, indent=1))
    return path


def _command(workdir: Path, name: str, config: dict, verb: str, work: int) -> Command:
    out_dir = workdir / name
    config = dict(config, out_dir=str(out_dir))
    path = _write_config(workdir, name, config)
    return Command(["--config", str(path), verb], config, out_dir, work)


def _steps(T: float, step: float) -> int:
    return max(1, int(round(T / step)))


class Sweep:
    """``sweep`` over the committed reference grid: single-point u* per horizon."""

    name = "sweep"
    throughput = "evals_per_s"
    work_unit = "horizon rows"

    def commands(self, seed: int, workdir: Path, tiny: bool = False) -> list[Command]:
        ref = json.loads(REFERENCE.read_text())
        rows = ref["rows"][:2] if tiny else ref["rows"]
        horizons = ref["horizons"][:4] if tiny else ref["horizons"]
        out = []
        for i, row in enumerate(rows):
            config = {
                "market": ref["markets"][row["market"]],
                "alpha": row["alpha"],
                "query": {"t": row["t"], "T": horizons[-1], "y": row["y"]},
                "sweep": {"horizons": horizons},
                "sim": {"seed": seed},
            }
            cmd = _command(workdir, f"sweep-{i:02d}", config, "sweep", len(horizons))
            cmd.expected = row["u_star"][: len(horizons)]
            out.append(cmd)
        return out

    def check(self, cmd: Command, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(f"exit code {rc}")
        with open(cmd.out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        horizons = cmd.config["sweep"]["horizons"]
        if [float(r["T"]) for r in rows] != horizons:
            return Outcome("sweep.csv horizons differ from the config")
        u = np.array([float(r["u_star"]) for r in rows])
        ref = np.array(cmd.expected)
        failed = int(np.count_nonzero(~np.isfinite(u)))
        rel = np.abs(u - ref) / np.abs(ref)
        worst = float(np.nanmax(rel)) if failed < u.size else math.inf
        values, counts = {"max_rel_err": worst}, {"failed_rows": failed}
        if failed:
            return Outcome(f"{failed} horizon rows failed", values, counts)
        if worst > SWEEP_REL_TOL:
            return Outcome(f"u* off the reference by {worst:.3e} relative", values, counts)
        return Outcome("", values, counts)


class Optcheck:
    """``optcheck``: cached strategy table, then a 3-strategy paired simulation."""

    throughput = "path_steps_per_s"
    work_unit = "path-steps x strategies"

    def __init__(self, name: str, market: dict, alpha: float) -> None:
        self.name = name
        self.market = market
        self.alpha = alpha

    def config(self, seed: int, sim: dict) -> dict:
        return {
            "market": self.market,
            "alpha": self.alpha,
            "query": {"t": 0.0, "T": sim["T"], "y": 0.0},
            "sim": {"step": sim["step"], "n_paths": sim["n_paths"], "seed": seed},
            "optcheck": {"perturbations": sim["perturbations"]},
        }

    def work(self, config: dict) -> int:
        sim = config["sim"]
        strategies = 1 + sum(c != 1.0 for c in config["optcheck"]["perturbations"])
        return sim["n_paths"] * _steps(config["query"]["T"], sim["step"]) * strategies

    def commands(self, seed: int, workdir: Path, tiny: bool = False) -> list[Command]:
        config = self.config(seed, TINY_SIM if tiny else SIM)
        return [_command(workdir, self.name, config, "optcheck", self.work(config))]

    def check(self, cmd: Command, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(f"exit code {rc}")
        report = json.loads((cmd.out_dir / "optcheck.json").read_text())
        values = {
            "probe_error": report["probe_error"],
            "paired_se": max(p["delta_std_error"] for p in report["paired"]),
        }
        if report["undominated"] is not True or "undominated = True" not in stdout:
            return Outcome("reference strategy dominated", values)
        if not report["probe_error"] < PROBE_TOL:
            return Outcome(f"probe_error {report['probe_error']:.3e} >= {PROBE_TOL}", values)
        if report["n_paths"] != cmd.config["sim"]["n_paths"]:
            return Outcome("report n_paths differs from the config", values)
        return Outcome("", values)


class FilterDemo:
    """``filter-demo``: Euler posterior SDE beside the closed form, written as CSV."""

    name = "filter-demo"
    throughput = "filter_steps_per_s"
    work_unit = "filter steps"

    def config(self, seed: int, T: float) -> dict:
        return {
            "market": TOY,
            "alpha": 0.5,
            "query": {"t": 0.0, "T": T, "y": 0.0},
            "sim": {"step": 1e-4, "seed": seed},
        }

    def commands(self, seed: int, workdir: Path, tiny: bool = False) -> list[Command]:
        config = self.config(seed, 0.5 if tiny else 10.0)
        steps = _steps(config["query"]["T"], config["sim"]["step"])
        return [_command(workdir, self.name, config, "filter-demo", steps)]

    def check(self, cmd: Command, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(f"exit code {rc}")
        match = re.search(r"max_discrepancy\s*=\s*(\S+)", stdout)
        if match is None:
            return Outcome("no max_discrepancy printed")
        discrepancy = float(match.group(1))
        values = {"max_discrepancy": discrepancy}
        step = cmd.config["sim"]["step"]
        if not discrepancy < EULER_SQRT_STEPS * math.sqrt(step):
            return Outcome(f"max_discrepancy {discrepancy:.3e} >= {EULER_SQRT_STEPS} sqrt(step)", values)

        lines = (cmd.out_dir / "filter_demo.csv").read_bytes().split(b"\n")
        n_rows = _steps(cmd.config["query"]["T"], step) + 1
        if len(lines) != n_rows + 2 or lines[-1] != b"":
            return Outcome(f"filter_demo.csv has {len(lines) - 2} rows, expected {n_rows}", values)
        market = cmd.config["market"]
        gam = (np.array(market["mus"]) - market["r"]) / market["sigma"]
        log_prior = np.log(market["prior"])
        d = gam.size
        rng = np.random.default_rng(cmd.config["sim"]["seed"])
        for i in rng.choice(n_rows, size=min(64, n_rows), replace=False):
            row = np.array(lines[i + 1].split(b","), dtype=float)
            t, y, euler, closed = row[0], row[1], row[2 : 2 + d], row[2 + d :]
            log_w = log_prior + gam * y - 0.5 * gam * gam * t
            w = np.exp(log_w - log_w.max())
            if np.max(np.abs(closed - w / w.sum())) > CLOSED_FORM_TOL:
                return Outcome(f"closed-form posterior wrong at row {i}", values)
            # the printed maximum carries 12 significant digits
            gap = np.max(np.abs(euler - closed))
            if abs(euler.sum() - 1.0) > 1e-9 or gap > discrepancy * (1.0 + 1e-11):
                return Outcome(f"Euler posterior inconsistent at row {i}", values)
        return Outcome("", values)


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(),
        Optcheck("optcheck", TOY, 0.5),
        Optcheck("optcheck-log", S03, 0.0),
        FilterDemo(),
    )
}

#: Run once per traced invocation, outside the timed workloads, and recorded
#: rather than counted: on the sigma = 0.3 market the strategy cache's y span
#: (10 sigma sqrt(T)) is too narrow, the probe check fails after the full
#: table build, and the CLI exits 1 on an uncaught RuntimeError although a
#: numerical failure is documented as exit code 3.
KNOWN_FAILURE = Optcheck("optcheck-s03-power", S03, 0.5)
KNOWN_FAILURE_EXIT = {"documented": 3, "when_recorded": 1}
