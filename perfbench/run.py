"""Benchmark of the bayesmerton CLI: time to a checked result, per workload.

Run from the repository root.  One measured run:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

drives ``bayesmerton.cli.main(argv)`` in this process, closed loop (one
command after another, no concurrency), on configs generated from the seed,
and checks every output.  With ``--trace 0`` the last line of standard
output is a JSON object carrying every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` a further, traced pass runs after the
untraced one and the object carries every per-layer metric instead.  The
full record of the run (environment, samples, failures, known failures) is
written to perfbench/out/results/.

    python3 perfbench/run.py --report    # every workload; every metric by name and unit
    python3 perfbench/run.py --smoke     # tiny sizes; checks the result schema

A run measures passes over the workload's commands until ``--seconds`` have
elapsed (at least one pass), after one untimed warm-up pass.  Pass and command
times cover ``cli.main`` only; output checks run between commands, untimed.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy loads; child processes
# inherit it.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import LOOKUP, WRITE, Tracer
from workloads import KNOWN_FAILURE, KNOWN_FAILURE_EXIT, WORKLOADS, FilterDemo, Optcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = HERE / "out"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 7
#: Path-law probes for the strategy table's lookup error.
TABLE_PROBES = 128

WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import bayesmerton, bayesmerton.cli; "
    "bayesmerton.cli.load_config(sys.argv[2])"
)


def load_package():
    """Import bayesmerton from this checkout's src/, or exit without a result."""
    if not (SRC / "bayesmerton" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC}/bayesmerton not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bayesmerton
    import bayesmerton.cli

    if Path(bayesmerton.__file__).resolve().parent != (SRC / "bayesmerton").resolve():
        sys.exit(f"perfbench: imported bayesmerton from {bayesmerton.__file__}, not {SRC}")
    return bayesmerton


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def measure_setup(config_path: str) -> float:
    """Median wall time of a fresh interpreter importing the package and loading a config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), config_path],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Runs commands, checks their outputs and counts failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.values: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def run(self, main, cmd) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(cmd.argv)
            except SystemExit as exc:  # argparse exits on a bad command line
                rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # an uncaught error is what exit code 1 reports
                traceback.print_exc()
                rc = 1
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        try:
            outcome = self.workload.check(cmd, rc, out.getvalue())
        except Exception as exc:  # output missing or in an unexpected format
            reason = f"output unreadable: {exc!r}"
        else:
            reason = outcome.reason
            for key, value in outcome.values.items():
                self.values[key] = max(value, self.values.get(key, value))
            for key, value in outcome.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
        if reason:
            detail = err.getvalue().strip().splitlines()[-1:] or [""]
            self.failures.append(f"{cmd.argv[1]} {cmd.argv[-1]}: {reason} {detail[0]}".strip())
        return elapsed


def measure(main, commands, seconds: float, tally: Tally) -> tuple[list[float], list[float]]:
    """Whole passes over ``commands`` until ``seconds`` have elapsed; pass and command times."""
    passes: list[float] = []
    cmd_times: list[float] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        times = [tally.run(main, cmd) for cmd in commands]
        passes.append(sum(times))
        cmd_times += times
    return passes, cmd_times


def table_max_err(pkg, strat, quad, seed: int) -> float:
    """Worst |lookup - direct u*| at probes drawn from the path law Y_t ~ N(gamma_theta t, t)."""
    model, T, alpha = strat.model, strat.T, strat.alpha
    rng = np.random.default_rng([seed, TABLE_PROBES])
    theta = rng.choice(model.d, size=TABLE_PROBES, p=model.prior)
    t = rng.uniform(0.0, T, TABLE_PROBES)
    y = rng.normal(model.gammas[theta] * t, np.sqrt(t))
    worst = 0.0
    for ti, yi in zip(t.tolist(), y.tolist()):
        if alpha == 0.0:
            direct = pkg.log_utility_fraction(model, ti, yi)
        else:
            direct = pkg.optimal_fraction(model, alpha, pkg.StrategyQuery(ti, T, yi), quad).u_star
        worst = max(worst, abs(float(strat(ti, np.array([yi]))[0]) - direct))
    return worst


def layer_metrics(pkg, workload, commands, tracer: Tracer, tally: Tally, seed: int) -> dict:
    s = tracer.stats()
    of, build, tw = "strategy.optimal_fraction", "simkit.build_feedback_strategy", "simkit.terminal_wealth"
    sde, post = "filtering.simulate_filter_sde", "filtering.posterior"
    work = sum(cmd.work for cmd in commands)
    path_steps = work if isinstance(workload, Optcheck) else 0
    filter_steps = work if isinstance(workload, FilterDemo) else 0

    probe_s = s.children_total(build)
    build_self = s.total_self(build)
    strat = tracer.last.get(build)
    entries, table_err = 0, 0.0
    if strat is not None:
        config = pkg.cli.load_config(commands[-1].argv[1])
        d = config.model.d
        s_grid, y_grid = getattr(strat, "_s_grid", None), getattr(strat, "_y_grid", None)
        if config.alpha != 0.0 and d > 1 and s_grid is not None and y_grid is not None:
            # computed: every s-row but s = 0 runs the kernel on all y points,
            # d panels of `nodes` Gauss-Legendre nodes, d states each
            entries = (s_grid.size - 1) * y_grid.size * d * config.quad.nodes * d
        table_err = table_max_err(pkg, strat, config.quad, seed)
    lookups = s.select(LOOKUP, parent=tw)
    return {
        "strategy.optimal_fraction_calls": s.count(of),
        "strategy.optimal_fraction_us": s.median(of) * 1e6,
        "strategy.optimal_fraction_self_s": s.total_self(of),
        "strategy.max_rel_err": tally.values.get("max_rel_err", 0.0),
        "strategy.kernel_ns_per_entry": build_self * 1e9 / entries if entries else 0.0,
        "simkit.build_feedback_strategy_s": s.total(build),
        "simkit.build_self_s": build_self,
        "simkit.probe_s": probe_s,
        "simkit.probe_error": tally.values.get("probe_error", 0.0),
        "simkit.terminal_wealth_s": s.total(tw),
        "simkit.sim_ns_per_path_step": s.total(tw) * 1e9 / path_steps if path_steps else 0.0,
        "simkit.lookup_calls": len(lookups),
        "simkit.lookup_s": sum(s.duration[i] for i in lookups),
        "simkit.step_self_s": s.total_self(tw),
        "simkit.lookup_clamped_frac": (
            tracer.lookup_clamped / tracer.lookup_entries if tracer.lookup_entries else 0.0
        ),
        "simkit.table_max_err": table_err,
        "simkit.paired_se": tally.values.get("paired_se", 0.0),
        "filtering.simulate_filter_sde_s": s.total(sde),
        "filtering.euler_us_per_step": s.total(sde) * 1e6 / filter_steps if filter_steps else 0.0,
        "filtering.posterior_calls": s.count(post),
        "filtering.posterior_us": s.median(post) * 1e6,
        "filtering.max_discrepancy": tally.values.get("max_discrepancy", 0.0),
        "asymptotics.horizon_sweep_self_ms": s.total_self("asymptotics.horizon_sweep") * 1e3,
        "asymptotics.failed_rows": tally.counts.get("failed_rows", 0),
        "cli.load_config_ms": s.total("cli.load_config") * 1e3,
        "cli.write_ms": s.total(WRITE) * 1e3,
        "cli.write_bytes": tracer.bytes_written,
    }


def run_known_failure(seed: int, workdir: Path) -> dict:
    """Run the recorded sigma != 1 optcheck crash as a user would, in its own process."""
    cmd = KNOWN_FAILURE.commands(seed, workdir)[0]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bayesmerton.cli", *cmd.argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        code, error = proc.returncode, (proc.stderr.strip().splitlines() or [""])[-1]
    except subprocess.TimeoutExpired:
        code, error = None, "timed out after 150 s"
    config = {k: v for k, v in cmd.config.items() if k != "out_dir"}
    return {
        "name": KNOWN_FAILURE.name,
        "command": "optcheck",
        "config": config,
        "exit_code": code,
        "documented_exit_code": KNOWN_FAILURE_EXIT["documented"],
        "exit_code_when_recorded": KNOWN_FAILURE_EXIT["when_recorded"],
        "error": error,
        "seconds": time.perf_counter() - t0,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    workload = WORKLOADS[workload_name]
    pkg = load_package()
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        commands = workload.commands(seed, workdir, tiny=tiny)
        setup_s = measure_setup(commands[0].argv[1])
        tally = Tally(workload)
        # one untimed pass fills the quadrature rule cache and settles the
        # allocator: the first full-size pass in a process runs slower
        for cmd in commands:
            tally.run(pkg.cli.main, cmd)
        passes, cmd_times = measure(pkg.cli.main, commands, seconds, tally)
        wall = statistics.median(passes)
        work = sum(cmd.work for cmd in commands)
        # p90 needs ten samples beyond it; with fewer than 100 commands no
        # tail percentile is estimable and cmd_ms_p90 reports the median
        tail_q = 90 if len(cmd_times) >= 100 else 50
        e2e = {
            "setup_s": setup_s,
            "wall_s": wall,
            "cmd_ms_p50": float(np.percentile(cmd_times, 50)) * 1e3,
            "cmd_ms_p90": float(np.percentile(cmd_times, tail_q)) * 1e3,
            "work_per_s": work * len(passes) / sum(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record = {
            "end_to_end": e2e,
            "work_per_s_is": f"{workload.throughput} ({workload.work_unit} per second)",
            "known_failures": [],
        }
        metrics = e2e
        if trace:
            tracer = Tracer()
            traced_tally = Tally(workload)
            with tracer.installed(pkg):
                traced_main = tracer.wrap("cli.main", pkg.cli.main)
                traced_wall = sum(traced_tally.run(traced_main, cmd) for cmd in commands)
            metrics = layer_metrics(pkg, workload, commands, tracer, traced_tally, seed)
            metrics["trace_overhead_frac"] = traced_wall / wall - 1.0
            tally.attempted += traced_tally.attempted
            tally.failures += traced_tally.failures
            metrics["failed_frac"] = len(tally.failures) / tally.attempted
            record["per_layer"] = metrics
            record["per_layer_notes"] = {
                "traced_wall_s": traced_wall,
                "strategy.kernel_ns_per_entry": "computed: build self time / (non-zero s-rows x y points x d*nodes x d)",
                "simkit.sim_ns_per_path_step": "computed: terminal_wealth time / (paths x steps x strategies)",
                "zero": "a layer the workload does not run reports 0",
                "untraced_names": tracer.missing,
            }
            record["known_failures"].append(run_known_failure(seed, workdir))
        declared = SPEC["per_layer" if trace else "end_to_end"]
        mismatch = {m["name"] for m in declared} ^ set(metrics)
        if mismatch:
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
        result = {
            "correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
        record.update(
            workload=workload_name,
            why=WHY[workload_name],
            work_unit=workload.work_unit,
            work_per_pass=work,
            seconds=seconds,
            trace=int(trace),
            tiny=tiny,
            environment=environment(seed),
            samples={
                "passes": len(passes),
                "commands": len(cmd_times),
                "setup_runs": SETUP_REPEATS,
                "cmd_ms_p90_percentile": tail_q,
            },
            pass_s=passes,
            failures=tally.failures[:20],
            checks={**tally.values, **tally.counts},
            result=result,
        )
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {tag}: {len(passes)} passes, {len(cmd_times)} commands, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for failure in tally.failures[:5]:
        print(f"  FAILED {failure}")
    for kf in record["known_failures"]:
        print(f"  known failure {kf['name']}: exit {kf['exit_code']} "
              f"(documented {kf['documented_exit_code']}): {kf['error']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def invoke(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict | None:
    """Run one measured run in a child process; its last stdout line, parsed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(lines[-1])


def schema_errors(result: dict, trace: int) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted is not a positive integer")
    if not isinstance(result.get("failed"), int):
        errors.append("failed is not an integer")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{name} value {value!r}")
        if m.get("unit") != declared.get(name):
            errors.append(f"{name} unit {m.get('unit')!r}")
    return errors


def report(seed: int, seconds: float, tiny: bool) -> int:
    """Every workload in both modes; prints every metric, or checks the schema when tiny."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result = invoke(name, seed, seconds, trace, tiny)
            if result is None:
                ok = False
                continue
            errors = schema_errors(result, trace)
            ok = ok and not errors
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"{name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}: {status}")
            for metric, m in result["metrics"].items():
                print(f"  {name:13s} {metric:40s} {m['value']:14.6g} {m['unit']}")
            record = OUT / "results" / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}.json"
            for kf in json.loads(record.read_text())["known_failures"]:
                print(f"  {name:13s} known failure {kf['name']}: exit {kf['exit_code']} "
                      f"(documented {kf['documented_exit_code']}): {kf['error']}")
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (used by --smoke)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true", help="run every workload, print every metric")
    mode.add_argument("--smoke", action="store_true", help="tiny run of every workload; check the schema")
    args = parser.parse_args(argv)
    if args.report or args.smoke:
        return report(args.seed, 1.0 if args.smoke else args.seconds, tiny=args.smoke)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
