import csv
import json
import re
import warnings
import xml.etree.ElementTree as ET

import pytest

import bayesmerton.cli as cli
import bayesmerton.simkit as simkit
from bayesmerton import new_market, posterior
from bayesmerton.cli import main


TOY_MARKET = {"r": 0.0, "sigma": 1.0, "mus": [1.0, 2.0, 3.0], "prior": [0.3, 0.3, 0.4]}


def write_config(tmp_path, out_dir, **extra):
    config = {"market": TOY_MARKET, "alpha": 0.5, "out_dir": str(out_dir)}
    config.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


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

    def test_zero_horizon_needs_no_sim_step(self, tmp_path, out_dir, capsys):
        # the default sim.step 1e-3 T is 0 here, and eval simulates nothing
        cfg = write_config(tmp_path, out_dir, query={"t": 0.0, "T": 0.0, "y": 1.2})
        assert main(["--config", cfg, "eval"]) == 0
        out = capsys.readouterr().out
        assert "u_star  = 4.2\n" in out  # prior mean 2.1 / (sigma (1 - alpha)), for any y

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

    def test_null_field_exits_2_naming_field(self, tmp_path, out_dir, capsys):
        for name, extra in (
            ("sim.n_paths", {"sim": {"n_paths": None}}),
            ("market.sigma", {"market": dict(TOY_MARKET, sigma=None)}),
        ):
            cfg = write_config(tmp_path, out_dir, **extra)
            assert main(["--config", cfg, "eval"]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ConfigError"
            assert err["message"].startswith(f"{name}: ")

    def test_type_error_in_a_command_propagates(self, tmp_path, out_dir, monkeypatch):
        # a bug of the wrong type inside a command is not a config error
        def broken(*args, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr(cli, "horizon_sweep", broken)
        cfg = write_config(tmp_path, out_dir, sweep={"horizons": [1, 2]})
        with pytest.raises(TypeError, match="planted"):
            main(["--config", cfg, "sweep"])


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
            probs = posterior(model, float(row["time"]), float(row["y"])).probs
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

    def test_byte_identical_reruns_with_table_nodes(self, tmp_path, out_dir, capsys):
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
        nodes = json.loads(first)["table_nodes"]
        assert nodes[0] == 0 and all(n in (8, 16, 32, 64) for n in nodes[1:])

    def test_wrong_reference_exit_4(self, tmp_path, out_dir):
        cfg = write_config(
            tmp_path, out_dir,
            query={"t": 0.0, "T": 1.0, "y": 0.0},
            sim={"step": 0.01, "n_paths": 20000, "seed": 5},
            optcheck={"perturbations": [0.5], "reference_scale": 2.0},
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

    def test_cache_probe_failure_exits_3(self, tmp_path, out_dir, capsys, monkeypatch):
        # alpha = 0 keeps the table closed-form; a zero tolerance fails any probe
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
