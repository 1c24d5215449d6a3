import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bayesmerton.cli as cli
import bayesmerton.filtering as filtering
import bayesmerton.simkit as simkit
import bayesmerton.strategy as strategy
from bayesmerton import new_market, optimality_check, posterior_weights
from bayesmerton.asymptotics import horizon_sweep
from bayesmerton.cli import (
    CHUNK_ROWS,
    column_writer,
    export_report_json,
    export_sweep_csv,
    main,
    write_columns,
)
from bayesmerton.filtering import _theta_indices, simulate_filter_sde


TOY_MARKET = {"r": 0.0, "sigma": 1.0, "mus": [1.0, 2.0, 3.0], "prior": [0.3, 0.3, 0.4]}


def write_config(tmp_path, out_dir, **extra):
    config = {"market": TOY_MARKET, "alpha": 0.5, "out_dir": str(out_dir)}
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def csv_of_reprs(header, columns):
    """The reference bytes: ``csv.writer`` given the header and the reprs of every row."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([repr(float(v)) for v in row])
    return expected.getvalue()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def toy():
    return new_market(**TOY_MARKET)


@pytest.fixture
def out_dir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d


class TestEval:
    def test_value_within_convex_bounds(self, tmp_path, out_dir, capsys):
        cfg = write_config(tmp_path, out_dir, query={"t": 0.0, "T": 5.0, "y": 0.0})
        assert main(["--config", cfg, "eval"]) == 0
        out = capsys.readouterr().out
        values = {line.split("=")[0].strip(): line.split("=")[1].strip()
                  for line in out.strip().splitlines()}
        u = float(values["u_star"])
        assert 2.0 <= u <= 6.0
        assert float(values["v_star"]) == pytest.approx(u * 0.5, rel=1e-10)
        assert len(values["f"].split()) == 3

    def test_single_state_prints_merton(self, tmp_path, out_dir, capsys):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps({
            "market": {"r": 0.0, "sigma": 1.0, "mus": [1.0], "prior": [1.0]},
            "alpha": 0.5,
        }))
        assert main(["--config", str(cfg), "eval"]) == 0
        out = capsys.readouterr().out
        assert "u_star  = 2" in out
        assert "hedging = 0" in out

    def test_log_utility_route(self, tmp_path, out_dir, capsys):
        cfg = write_config(tmp_path, out_dir, alpha=0.0, query={"t": 0.0, "T": 1.0, "y": 0.0})
        assert main(["--config", cfg, "eval"]) == 0
        out = capsys.readouterr().out
        assert "u_star  = 2.1" in out  # prior mean 2.1, r=0, sigma=1
        assert "hedging = 0" in out

    def test_flag_overrides_file(self, tmp_path, out_dir, capsys):
        cfg = write_config(tmp_path, out_dir, query={"t": 0.0, "T": 5.0, "y": 0.0})
        assert main(["--config", cfg, "--alpha", "-0.5", "--T", "1.0", "eval"]) == 0
        out = capsys.readouterr().out
        u = float(out.splitlines()[0].split("=")[1])
        assert u == pytest.approx(1.13230301161, rel=1e-9)

    def test_zero_horizon_needs_no_sim_step(self, tmp_path, out_dir, capsys, toy):
        # the default sim.step 1e-3 T is 0 here, and eval simulates nothing
        cfg = write_config(tmp_path, out_dir, query={"t": 0.0, "T": 0.0, "y": 1.2})
        assert main(["--config", cfg, "eval"]) == 0
        out = capsys.readouterr().out
        # the closed form at (0, 1.2): weights p_k exp(gamma_k y), over sigma (1 - alpha)
        w = toy.prior * np.exp(toy.gammas * 1.2)
        expected = (float(w @ toy.mus / w.sum()) - toy.r) / (toy.sigma**2 * 0.5)
        assert f"u_star  = {expected:.12g}\n" in out

    def test_malformed_prior_exits_2_naming_error(self, tmp_path, out_dir, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "market": {"r": 0, "sigma": 1, "mus": [1, 2], "prior": [0.9, 0.4]},
            "alpha": 0.5,
        }))
        assert main(["--config", str(cfg), "eval"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidPrior"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "eval"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("text, message", [
        ("{", "is not valid JSON"),
        ("[1, 2]", "config root must be a JSON object"),
        (json.dumps({"market": TOY_MARKET, "alpha": 0.5, "sim": 3}),
         "config section 'sim' must be an object"),
        (json.dumps({"market": 3, "alpha": 0.5}), "config section 'market' must be an object"),
        (json.dumps({"market": TOY_MARKET}), "config is missing alpha"),
        (json.dumps({"market": {"r": 0.0, "sigma": 1.0, "prior": [1.0]}, "alpha": 0.5}),
         "config is missing market.mus"),
        (json.dumps({"market": TOY_MARKET, "alpha": 0.5, "sim": {"n_paths": 0}}),
         "sim.n_paths must be >= 1, got 0"),
    ], ids=["bad-json", "list-root", "sim-not-object", "market-not-object", "no-alpha",
            "no-mus", "no-paths"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "eval"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert message in err["message"]

    def test_null_field_exits_2_naming_field(self, tmp_path, out_dir, capsys):
        for name, extra in (
            ("sim.n_paths", {"sim": {"n_paths": None}}),
            ("sim.step", {"sim": {"step": None}}),  # null is not the 1e-3 T default
            ("market.sigma", {"market": dict(TOY_MARKET, sigma=None)}),
        ):
            cfg = write_config(tmp_path, out_dir, **extra)
            assert main(["--config", cfg, "eval"]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert err["message"].startswith(f"{name}: ")

    @pytest.mark.parametrize("name, extra", [
        ("sim.n_paths", {"sim": {"n_paths": 2.7}}),
        ("sim.seed", {"sim": {"seed": 1.9}}),
        ("sim.seed", {"sim": {"seed": True}}),
        ("sim.seed", {"sim": {"seed": "7"}}),
        ("quadrature.nodes", {"quadrature": {"nodes": 64.5}}),
        ("sweep.horizons", {"sweep": {"horizons": "124"}}),
        ("sweep.horizons", {"sweep": {"horizons": 4.0}}),
        ("optcheck.perturbations", {"optcheck": {"perturbations": "0.5"}}),
        ("market.mus", {"market": dict(TOY_MARKET, mus="123")}),
        ("market.prior", {"market": dict(TOY_MARKET, prior=1.0)}),
        ("alpha", {"alpha": 10**400}),  # too large for a float
    ])
    def test_mistyped_field_exits_2_naming_field(self, tmp_path, out_dir, capsys, name, extra):
        # no truncation of fractional counts, no iteration over a string's characters
        cfg = write_config(tmp_path, out_dir, **extra)
        assert main(["--config", cfg, "eval"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{name}: ")

    def test_integral_float_counts_load(self, tmp_path, out_dir):
        cfg = write_config(
            tmp_path, out_dir, sim={"n_paths": 20.0, "seed": 3.0}, quadrature={"nodes": 32.0}
        )
        config = cli.load_config(cfg)
        assert (config.n_paths, config.seed, config.quad.nodes) == (20, 3, 32)
        assert type(config.seed) is int

    def test_node_count_above_cap_rejected(self, tmp_path, out_dir):
        # leggauss(n) builds an n x n matrix, so an unbounded count is an
        # unbounded allocation; loading alone runs no quadrature
        cap = strategy.NODE_CAP
        config = cli.load_config(write_config(tmp_path, out_dir, quadrature={"nodes": cap}))
        assert config.quad.nodes == cap
        with pytest.raises(cli.ConfigError, match=r"^quadrature\.nodes: "):
            cli.load_config(write_config(tmp_path, out_dir, quadrature={"nodes": 2 * cap}))

    def test_type_error_in_a_command_propagates(self, tmp_path, out_dir, monkeypatch):
        # a bug of the wrong type inside a command is not a config error
        def broken(*args, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr(cli, "horizon_sweep", broken)
        cfg = write_config(tmp_path, out_dir, sweep={"horizons": [1, 2]})
        with pytest.raises(TypeError, match="planted"):
            main(["--config", cfg, "sweep"])

    @pytest.mark.parametrize("command", ["eval", "filter-demo", "optcheck"])
    def test_negative_seed_exits_2_naming_field(self, tmp_path, out_dir, capsys, command):
        # numpy's SeedSequence would reject it later without naming the field,
        # and eval, which draws nothing, would not reject it at all
        for extra, flags in (({"sim": {"seed": -1}}, []), ({}, ["--seed", "-1"])):
            cfg = write_config(tmp_path, out_dir, **extra)
            assert main(["--config", cfg, *flags, command]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert err["message"].startswith("sim.seed")

    @pytest.mark.parametrize("name, extra", [
        ("sim.n_path", {"sim": {"n_path": 10}}),
        ("seeed", {"seeed": 3}),
        ("quadrature.node", {"quadrature": {"node": 8}}),
        ("optchek", {"optchek": {"perturbations": [0.5]}}),
        ("market.rate", {"market": dict(TOY_MARKET, rate=0.0)}),
        ("query.t", {"query.t": 0.5}),  # a dotted key is not the nested field
        # removed settings: an old config carrying one exits 2, it is not ignored
        ("quadrature.rel_tol", {"quadrature": {"rel_tol": 1e-9}}),
        ("quadrature.half_width", {"quadrature": {"half_width": 10.0}}),
        ("optcheck.reference_scale", {"optcheck": {"reference_scale": 1.0}}),
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, out_dir, capsys, name, extra):
        # a misspelt key would otherwise leave its field at the default
        cfg = write_config(tmp_path, out_dir, **extra)
        assert main(["--config", cfg, "eval"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": f"unknown config key {name}"}


#: Every numeric field, scalar or list, with a valid value; a list field is
#: spoiled in its middle element.
NUMERIC_FIELDS = {
    "market.r": 0.0,
    "market.sigma": 1.0,
    "market.mus": [1.0, 2.0, 3.0],
    "market.prior": [0.3, 0.3, 0.4],
    "alpha": 0.5,
    "query.t": 0.0,
    "query.T": 1.0,
    "query.y": 0.0,
    "quadrature.nodes": 64,
    "sweep.horizons": [1.0, 2.0, 4.0],
    "sim.step": 1e-3,
    "sim.n_paths": 10,
    "sim.seed": 0,
    "optcheck.perturbations": [0.5, 2.0],
}

#: Config keys that were settings once and are now constants of the engine.
REMOVED_KEYS = ("quadrature.rel_tol", "quadrature.half_width", "optcheck.reference_scale")


def config_with(tmp_path, out_dir, name, value):
    """The toy config with the dotted field ``name`` set to ``value``."""
    config = {"market": dict(TOY_MARKET), "alpha": 0.5, "out_dir": str(out_dir)}
    section, _, key = name.rpartition(".")
    (config.setdefault(section, {}) if section else config)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # NaN and Infinity as Python's json writes them
    return str(path)


class TestStrictNumbers:
    @pytest.mark.parametrize("bad", [True, "0.5", math.nan, math.inf, -math.inf],
                             ids=["true", "string", "NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("name", [*NUMERIC_FIELDS, *REMOVED_KEYS])
    def test_non_number_exits_2_naming_field(self, tmp_path, out_dir, capsys, name, bad):
        value = NUMERIC_FIELDS.get(name, bad)
        if isinstance(value, list):
            value = value[:1] + [bad] + value[2:]
        else:
            value = bad
        cfg = config_with(tmp_path, out_dir, name, value)
        assert main(["--config", cfg, "eval"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        if name in REMOVED_KEYS:
            # the key check comes before any value check
            assert err["message"] == f"unknown config key {name}"
        else:
            assert err["message"].startswith(f"{name}: ")

    @pytest.mark.parametrize("flag, text, name", [
        ("--step", "inf", "sim.step"),
        ("--alpha", "nan", "alpha"),
        ("--horizons", "1,nan", "sweep.horizons"),
    ])
    def test_non_finite_flag_exits_2_naming_field(self, tmp_path, out_dir, capsys, flag, text, name):
        cfg = write_config(tmp_path, out_dir)
        assert main(["--config", cfg, flag, text, "filter-demo"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{name}: ")

    def test_infinite_step_filter_demo_exits_2(self, tmp_path, out_dir, capsys):
        # one step of length T would otherwise run and exit 0
        cfg = config_with(tmp_path, out_dir, "sim.step", math.inf)
        assert main(["--config", cfg, "filter-demo"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("sim.step: ")
        assert not (out_dir / "filter_demo.csv").exists()

    @pytest.mark.parametrize("command", ["optcheck", "filter-demo"])
    def test_overflowing_step_count_exits_2(self, tmp_path, out_dir, capsys, command):
        # T / step is inf: the step count check, not an OverflowError traceback
        cfg = write_config(tmp_path, out_dir)
        assert main(["--config", cfg, "--step", "1e-320", command]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "T=1.0, step=1e-320" in err["message"]
        assert not any(out_dir.iterdir())

    def test_default_step_follows_flag_horizon(self, tmp_path, out_dir):
        cfg = write_config(tmp_path, out_dir, query={"T": 2.0})
        args = cli.build_parser().parse_args(["--config", cfg, "--T", "4", "eval"])
        assert cli.load_config(cfg, overrides=args).step == 1e-3 * 4.0


#: Each flag: its text, the RunConfig value it reaches, and the reader of it.
FLAGS = {
    "--alpha": ("-0.5", -0.5, lambda c: c.alpha),
    "--t": ("0.25", 0.25, lambda c: c.t),
    "--T": ("3", 3.0, lambda c: c.T),
    "--y": ("-1.5", -1.5, lambda c: c.y),
    "--nodes": ("16", 16, lambda c: c.quad.nodes),
    "--horizons": ("3,5", (3.0, 5.0), lambda c: c.horizons),
    "--step": ("0.002", 0.002, lambda c: c.step),
    "--n-paths": ("7", 7, lambda c: c.n_paths),
    "--seed": ("11", 11, lambda c: c.seed),
    "--perturbations": ("0.9,1.1", (0.9, 1.1), lambda c: c.perturbations),
    "--out-dir": ("elsewhere", Path("elsewhere"), lambda c: c.out_dir),
}

#: A file value for every flag's field, each different from its flag's value.
FILE_VALUES = {
    "query": {"t": 0.1, "T": 2.0, "y": 0.3},
    "quadrature": {"nodes": 32},
    "sweep": {"horizons": [1, 2]},
    "sim": {"step": 0.01, "n_paths": 10, "seed": 4},
    "optcheck": {"perturbations": [0.5]},
}


class TestFlags:
    @pytest.mark.parametrize("flag", list(FLAGS))
    def test_flag_overrides_only_its_field(self, tmp_path, out_dir, flag):
        cfg = write_config(tmp_path, out_dir, **FILE_VALUES)
        base = cli.load_config(cfg)
        text, expected, _ = FLAGS[flag]
        args = cli.build_parser().parse_args(["--config", cfg, flag, text, "eval"])
        config = cli.load_config(cfg, overrides=args)
        for other, (_, _, read) in FLAGS.items():
            if other == flag:
                assert read(config) == expected != read(base)
            else:
                assert read(config) == read(base)

    def test_help_lists_exactly_the_non_market_fields(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == {"--help", "--config", *FLAGS}
        fields = {name for name, _, _ in cli._FIELDS if not name.startswith("market.")}
        assert {"--" + name.rpartition(".")[2].replace("_", "-") for name in fields} == set(FLAGS)

    @pytest.mark.parametrize("flag", ["--rel-tol", "--half-width", "--reference-scale"])
    def test_removed_flag_exits_2(self, tmp_path, out_dir, capsys, flag):
        cfg = write_config(tmp_path, out_dir)
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, f"{flag}=1", "eval"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}=1" in capsys.readouterr().err


def run_module(*args):
    """``python -m bayesmerton.cli`` in a fresh interpreter, on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "bayesmerton.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )


class TestEntryPoint:
    def test_malformed_prior_exits_2(self, tmp_path, out_dir):
        cfg = write_config(tmp_path, out_dir, market=dict(TOY_MARKET, prior=[0.9, 0.4, 0.1]))
        proc = run_module("--config", cfg, "eval")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "InvalidPrior"

    def test_eval_exits_0(self, tmp_path, out_dir):
        cfg = write_config(tmp_path, out_dir, query={"t": 0.0, "T": 1.0, "y": 0.0})
        proc = run_module("--config", cfg, "eval")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("u_star  = ")


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    out = tmp / "out"
    cfg = write_config(tmp, out, sweep={"horizons": [1, 2, 4, 8, 16, 32]})
    code = main(["--config", cfg, "sweep"])
    return code, out


class TestSweep:

    def test_exit_and_files(self, sweep_out):
        code, out = sweep_out
        assert code == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.svg").exists()

    def test_csv_schema(self, sweep_out):
        _, out = sweep_out
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert rows[0] == ["T", "u_star", "limit", "gap", "converged_flag"]
        assert len(rows) == 7
        assert all(float(r[2]) == 6.0 for r in rows[1:])

    def test_svg_is_valid_xml_with_limit_rule(self, sweep_out):
        _, out = sweep_out
        svg = (out / "sweep.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert 'stroke-dasharray' in svg  # the horizontal limit rule

    def test_polyline_matches_csv_through_documented_affine(self, sweep_out):
        _, out = sweep_out
        svg = (out / "sweep.svg").read_text()
        comment = svg.splitlines()[1]
        # "<!-- x_px = sx * T + bx; y_px = sy * u_star + by -->"
        match = re.match(
            r"<!-- x_px = (\S+) \* T \+ (\S+); y_px = (\S+) \* u_star \+ (\S+) -->",
            comment,
        )
        assert match is not None
        sx, bx, sy, by = (float(g) for g in match.groups())

        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))[1:]
        expected = [
            (sx * float(r[0]) + bx, sy * float(r[1]) + by) for r in rows
        ]
        poly = ET.fromstring(svg).find(".//{http://www.w3.org/2000/svg}polyline")
        points = [tuple(map(float, p.split(","))) for p in poly.attrib["points"].split()]
        assert len(points) == len(expected)
        for (px, py), (ex, ey) in zip(points, expected):
            assert px == pytest.approx(ex, abs=1e-9)
            assert py == pytest.approx(ey, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path, out_dir):
        cfg = write_config(tmp_path, out_dir, sweep={"horizons": [1, 2, 4]})
        assert main(["--config", cfg, "sweep"]) == 0
        first = (out_dir / "sweep.csv").read_bytes(), (out_dir / "sweep.svg").read_bytes()
        assert main(["--config", cfg, "sweep"]) == 0
        second = (out_dir / "sweep.csv").read_bytes(), (out_dir / "sweep.svg").read_bytes()
        assert first == second

    def test_every_horizon_failed_exits_3(self, tmp_path, out_dir, capsys, monkeypatch):
        monkeypatch.setattr(strategy, "NODE_CAP", 16)
        monkeypatch.setattr(strategy, "REL_TOL", 1e-15)
        cfg = write_config(
            tmp_path, out_dir, quadrature={"nodes": 8}, sweep={"horizons": [1, 2, 4]},
        )
        assert main(["--config", cfg, "sweep"]) == 3
        assert capsys.readouterr().err == (
            '{"error": "QuadratureNotConverged", "message": "every horizon failed"}\n'
        )
        assert not (out_dir / "sweep.csv").exists()

    def test_single_horizon_widens_x_range(self, tmp_path, out_dir):
        """One horizon T plots over [T, T + 1], so its one point sits on the left margin."""
        cfg = write_config(tmp_path, out_dir, sweep={"horizons": [4]})
        assert main(["--config", cfg, "sweep"]) == 0
        rows = list(csv.reader((out_dir / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 2 and float(rows[1][0]) == 4.0
        poly = ET.fromstring((out_dir / "sweep.svg").read_text()).find(
            ".//{http://www.w3.org/2000/svg}polyline"
        )
        points = poly.attrib["points"].split()
        assert len(points) == 1 and float(points[0].split(",")[0]) == 70.0

    def test_single_state_flat_line(self, tmp_path, out_dir):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps({
            "market": {"r": 0.0, "sigma": 1.0, "mus": [1.0], "prior": [1.0]},
            "alpha": 0.5, "sweep": {"horizons": [1, 2, 4]}, "out_dir": str(out_dir),
        }))
        assert main(["--config", str(cfg), "sweep"]) == 0
        rows = list(csv.reader((out_dir / "sweep.csv").read_text().splitlines()))[1:]
        assert all(float(r[1]) == 2.0 for r in rows)
        assert all(float(r[3]) == 0.0 for r in rows)


class TestFilterDemo:
    def test_writes_csv_and_prints_discrepancy(self, tmp_path, out_dir, capsys):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 2.0, "y": 0.0},
            sim={"step": 1e-3, "n_paths": 10, "seed": 7},
        )
        assert main(["--config", cfg, "filter-demo"]) == 0
        out = capsys.readouterr().out
        assert "max_discrepancy" in out
        header = (out_dir / "filter_demo.csv").read_text().splitlines()[0]
        assert header == "time,y,euler_p_1,euler_p_2,euler_p_3,closed_p_1,closed_p_2,closed_p_3"

    def test_byte_identical_reruns(self, tmp_path, out_dir):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 1e-3, "n_paths": 10, "seed": 3},
        )
        assert main(["--config", cfg, "filter-demo"]) == 0
        first = (out_dir / "filter_demo.csv").read_bytes()
        assert main(["--config", cfg, "filter-demo"]) == 0
        assert first == (out_dir / "filter_demo.csv").read_bytes()

    def test_closed_columns_match_posterior(self, tmp_path, out_dir):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 1e-3, "n_paths": 10, "seed": 3},
        )
        assert main(["--config", cfg, "filter-demo"]) == 0
        model = new_market(**TOY_MARKET)
        with open(out_dir / "filter_demo.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1001
        for row in rows:
            probs = posterior_weights(model, float(row["time"]), float(row["y"]))
            assert [row[f"closed_p_{k + 1}"] for k in range(3)] == [repr(float(p)) for p in probs]

    def test_discrepancy_shrinks_with_step(self, tmp_path, out_dir, capsys):
        def run(step):
            cfg = write_config(
                tmp_path, out_dir,
                query={"t": 0.0, "T": 2.0, "y": 0.0},
                sim={"step": step, "n_paths": 10, "seed": 7},
            )
            assert main(["--config", cfg, "filter-demo"]) == 0
            out = capsys.readouterr().out
            return float(out.splitlines()[-1].split("=")[1])

        coarse = run(1e-3)
        fine = run(2.5e-4)
        assert coarse / fine >= 1.5

    @pytest.mark.parametrize(
        "n_rows",
        [CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS, 3 * CHUNK_ROWS + 1, 10_001],
        ids=["chunk", "chunk+1", "3chunk", "3chunk+1", "10001"],
    )
    def test_csv_across_the_two_process_split(self, tmp_path, out_dir, n_rows):
        # past CHUNK_ROWS rows the chunks go to the helper interpreter while the loop runs
        T = (n_rows - 1) * 1e-4
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": T, "y": 0.0},
            sim={"step": 1e-4, "n_paths": 10, "seed": 5},
        )
        assert main(["--config", cfg, "filter-demo"]) == 0
        model = new_market(**TOY_MARKET)
        true_index = int(_theta_indices(model, 1, 5)[0])
        path = simulate_filter_sde(model, true_index, T, 1e-4, 5)
        closed = posterior_weights(model, path.times, path.y)
        assert path.times.size == n_rows
        header = "time,y,euler_p_1,euler_p_2,euler_p_3,closed_p_1,closed_p_2,closed_p_3".split(",")
        columns = [path.times, path.y, *path.probs.T, *closed.T]
        assert (out_dir / "filter_demo.csv").read_text() == csv_of_reprs(header, columns)

    def test_failed_write_leaves_no_csv_and_no_child(self, tmp_path, out_dir, monkeypatch):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 1e-4, "n_paths": 10, "seed": 5},
        )
        monkeypatch.setattr(sys, "executable", "/bin/false")
        with pytest.raises(subprocess.CalledProcessError):
            main(["--config", cfg, "filter-demo"])
        assert list(out_dir.iterdir()) == []  # neither the CSV nor its partial sibling
        assert_no_child_left()

    def test_step_too_large_past_the_first_chunk_leaves_no_csv_and_no_child(
        self, tmp_path, out_dir, capsys, monkeypatch
    ):
        # one wild increment at step 3000: the guard trips after the helper has started
        noise = filtering._noise

        def spiked(seed):
            def standard_normal(n):
                z = noise(seed).standard_normal(n)
                z[3000] = 1e6
                return z

            return SimpleNamespace(standard_normal=standard_normal)

        monkeypatch.setattr(filtering, "_noise", spiked)
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 1e-4, "n_paths": 10, "seed": 5},
        )
        assert main(["--config", cfg, "filter-demo"]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "StepTooLarge" and "at step 3000" in error["message"]
        assert list(out_dir.iterdir()) == []  # neither the CSV nor its partial sibling
        assert_no_child_left()

    def test_single_state_zero_discrepancy(self, tmp_path, out_dir, capsys):
        cfg = tmp_path / "d1.json"
        cfg.write_text(json.dumps({
            "market": {"r": 0.0, "sigma": 1.0, "mus": [1.0], "prior": [1.0]},
            "alpha": 0.5, "query": {"t": 0.0, "T": 1.0, "y": 0.0},
            "sim": {"step": 0.01, "n_paths": 1, "seed": 0}, "out_dir": str(out_dir),
        }))
        assert main(["--config", str(cfg), "filter-demo"]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[-1].split("=")[1]) == 0.0

    def test_nonpositive_step_exits_2(self, tmp_path, out_dir, capsys):
        for command in ("filter-demo", "optcheck"):
            cfg = write_config(tmp_path, out_dir, sim={"step": 0.0, "n_paths": 10, "seed": 1})
            assert main(["--config", cfg, command]) == 2
            error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert error["error"] == "ConfigError"
            assert "sim.step" in error["message"]

    def test_unstable_step_exits_3(self, tmp_path, out_dir, capsys):
        cfg = tmp_path / "wild.json"
        cfg.write_text(json.dumps({
            "market": {"r": 0.0, "sigma": 0.2, "mus": [-5.0, 5.0], "prior": [0.5, 0.5]},
            "alpha": 0.5, "query": {"t": 0.0, "T": 2.0, "y": 0.0},
            "sim": {"step": 0.5, "n_paths": 1, "seed": 0}, "out_dir": str(out_dir),
        }))
        assert main(["--config", str(cfg), "filter-demo"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "StepTooLarge"


class TestOptcheck:
    def test_trivial_perturbations_exit_0(self, tmp_path, out_dir, capsys):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 2000, "seed": 5},
            optcheck={"perturbations": [1.0]},
        )
        assert main(["--config", cfg, "optcheck"]) == 0
        report = json.loads((out_dir / "optcheck.json").read_text())
        assert report["undominated"] is True

    def test_byte_identical_reruns_with_table_points(self, tmp_path, out_dir, capsys):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 200, "seed": 5},
            optcheck={"perturbations": [1.0]},
        )
        assert main(["--config", cfg, "optcheck"]) == 0
        first = (out_dir / "optcheck.json").read_bytes()
        assert main(["--config", cfg, "optcheck"]) == 0
        assert (out_dir / "optcheck.json").read_bytes() == first
        report = json.loads(first)
        assert report["table_step"] > 0.0
        assert isinstance(report["table_points"], int) and report["table_points"] > 0

    def test_wrong_reference_exit_4(self, tmp_path, out_dir, monkeypatch):
        # planted wrong candidate: the simulated reference is twice the table
        lookup = simkit.CachedStrategy.__call__
        monkeypatch.setattr(
            simkit.CachedStrategy, "__call__", lambda self, t, y: 2.0 * lookup(self, t, y)
        )
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 20000, "seed": 5},
            optcheck={"perturbations": [0.5]},
        )
        assert main(["--config", cfg, "optcheck"]) == 4
        report = json.loads((out_dir / "optcheck.json").read_text())
        assert report["undominated"] is False

    def test_single_path_exits_2(self, tmp_path, out_dir, capsys):
        cfg = write_config(
            tmp_path, out_dir, alpha=0.0,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.1, "n_paths": 1, "seed": 1},
        )
        assert main(["--config", cfg, "optcheck"]) == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "ValueError"
        assert not (out_dir / "optcheck.json").exists()

    def test_sigma_not_one_power_utility_exits_0(self, tmp_path, out_dir, capsys):
        # sigma 0.3, alpha 0.5: rows uniform in sqrt(T - t) missed PROBE_TOL here (3.28e-4)
        cfg = write_config(
            tmp_path, out_dir, alpha=0.5,
            market={"r": 0.0, "sigma": 0.3, "mus": [0.3, 0.6, 0.9], "prior": [0.3, 0.3, 0.4]},
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 1e-3, "n_paths": 2000, "seed": 1},
            optcheck={"perturbations": [0.5, 2.0]},
        )
        assert main(["--config", cfg, "optcheck"]) == 0
        assert capsys.readouterr().out.strip() == "undominated = True"
        report = json.loads((out_dir / "optcheck.json").read_text())
        assert report["undominated"] is True and report["clamped_frac"] == 0.0
        assert report["probe_error"] < simkit.PROBE_TOL

    def test_cache_probe_failure_exits_3(self, tmp_path, out_dir, capsys, monkeypatch):
        # a zero tolerance fails every probe, at every lattice step
        monkeypatch.setattr(simkit, "PROBE_TOL", 0.0)
        cfg = write_config(
            tmp_path, out_dir, alpha=0.0,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 100, "seed": 5},
        )
        assert main(["--config", cfg, "optcheck"]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "CacheProbeFailed"
        assert not (out_dir / "optcheck.json").exists()

    def test_probes_not_converged_exits_3(self, tmp_path, out_dir, capsys, monkeypatch):
        def unsettled(model, alpha, t, T, y, n_nodes):
            return np.full((t.size, model.d), np.nan)

        monkeypatch.setattr(strategy, "_fk_level", unsettled)
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 100, "seed": 5},
        )
        assert main(["--config", cfg, "optcheck"]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "QuadratureNotConverged", "message": "31 cache probes did not converge",
        }
        assert not (out_dir / "optcheck.json").exists()

    def test_utility_overflow_exits_3(self, tmp_path, out_dir, capsys):
        # 200x the alpha = -5 fraction drives X_T^alpha past double range
        cfg = write_config(
            tmp_path, out_dir, alpha=-5.0,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 200, "seed": 5},
            optcheck={"perturbations": [200.0]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning may escape
            assert main(["--config", cfg, "optcheck"]) == 3
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "FloatingPointError"
        assert "overflow" in error["message"]
        assert not (out_dir / "optcheck.json").exists()


class TestWriteColumns:
    SPECIAL = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 1 / 3, 2.0, -7.0, float("inf"), float("-inf")]

    @pytest.mark.parametrize(
        "n_rows",
        [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 37, 5 * CHUNK_ROWS + 1],
        ids=["0", "1", "chunk", "2chunk+37", "5chunk+1"],
    )
    def test_bytes_match_csv_writer_of_reprs(self, n_rows):
        # the larger sizes cross chunk boundaries and the split into two processes,
        # with every special value on both sides of it
        special = self.SPECIAL + [float("nan")]
        rng = np.random.default_rng(8)
        columns = [
            np.resize(special, n_rows),
            np.resize(special[::-1], n_rows),
            rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
            np.arange(n_rows, dtype=float),
        ]
        header = ["a", "b", "c", "d"]
        got = io.StringIO()
        write_columns(got, header, columns)
        assert got.getvalue() == csv_of_reprs(header, columns)

    def test_memory_bounded_per_chunk(self):
        class Sink:
            """Keeps only the length of what is written, so only the writer's memory counts."""

            longest = total = 0

            def write(self, text):
                self.longest = max(self.longest, len(text))
                self.total += len(text)
                return len(text)

        n_rows = 100_001
        rng = np.random.default_rng(3)
        columns = [rng.standard_normal(n_rows) for _ in range(8)]
        stream = Sink()
        tracemalloc.start()
        try:
            write_columns(stream, list("abcdefgh"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.total > 14_000_000
        assert peak < 4 << 20
        assert stream.longest <= 1 << 20

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            write_columns(io.StringIO(), ["a", "b"], [np.zeros(3), np.zeros(4)])

    @pytest.mark.parametrize("header", [["a", "b", "c"], ["a"]])
    def test_header_column_mismatch_rejected_before_writing(self, header):
        stream = io.StringIO()
        with pytest.raises(ValueError):
            write_columns(stream, header, [np.zeros(2), np.ones(2)])
        assert stream.getvalue() == ""

    def test_no_columns_rejected(self):
        stream = io.StringIO()
        with pytest.raises(ValueError):
            write_columns(stream, [], [])
        assert stream.getvalue() == ""

    def test_failing_helper_raises_with_exit_code(self, monkeypatch):
        monkeypatch.setattr(sys, "executable", "/bin/false")
        with pytest.raises(subprocess.CalledProcessError) as info:
            write_columns(io.StringIO(), ["x"], [np.zeros(2 * CHUNK_ROWS + 1)])
        assert info.value.returncode == 1
        assert "exit status 1" in str(info.value)
        assert_no_child_left()

    def test_helper_dying_mid_run_raises_with_exit_code(self, tmp_path, monkeypatch):
        # the helper takes one grant and exits 5; later grants meet a closed pipe
        helper = tmp_path / "helper"
        helper.write_text("#!/bin/sh\nhead -c 1 > /dev/null\nexit 5\n")
        helper.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(helper))
        chunk = [np.zeros(CHUNK_ROWS)]
        with pytest.raises(subprocess.CalledProcessError) as info:
            with column_writer(io.StringIO(), ["x"], 8 * CHUNK_ROWS) as add:
                add(chunk)
                time.sleep(0.5)
                for _ in range(7):
                    add(chunk)
        assert info.value.returncode == 5
        assert_no_child_left()

    def test_stream_error_kills_helper(self):
        class Failing(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise OSError("disk full")
                return super().write(text)

        stream = Failing()
        with pytest.raises(OSError, match="disk full"):
            write_columns(stream, ["x"], [np.zeros(2 * CHUNK_ROWS + 37)])
        assert stream.getvalue() == "x\n"
        assert_no_child_left()

    def test_no_warning_while_a_thread_runs(self):
        # Python 3.12+ warns when os.fork() runs beside a live thread, but under
        # an "error" filter it drops that warning silently: record every warning
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = io.StringIO()
                columns = [np.arange(2 * CHUNK_ROWS + 37, dtype=float)]
                write_columns(got, ["x"], columns)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [str(w.message) for w in caught] == []
        assert got.getvalue() == csv_of_reprs(["x"], columns)


class TestSweepExport:
    def test_csv_schema_and_determinism(self, toy):
        sweep = horizon_sweep(toy, 0.5, 0.0, 0.0, [1.0, 2.0, 4.0])
        a, b = io.StringIO(), io.StringIO()
        export_sweep_csv(sweep, a)
        export_sweep_csv(sweep, b)
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert lines[0] == "T,u_star,limit,gap,converged_flag"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == 6.0


class TestExports:
    def test_report_json_round_trip(self, toy):
        report = optimality_check(toy, -0.5, 0.5, [0.8], step=0.01, n_paths=1_000, seed=9)
        buf = io.StringIO()
        export_report_json(report, buf)
        parsed = json.loads(buf.getvalue())
        assert parsed["undominated"] == report["undominated"]
        assert parsed["strategies"][0]["scale"] == 1.0

    def test_report_json_rejects_nan(self):
        buf = io.StringIO()
        with pytest.raises(ValueError):
            export_report_json({"mean": float("nan")}, buf)
        assert buf.getvalue() == ""
