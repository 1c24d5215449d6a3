"""The package's public names, the entry points the benchmark harness calls, and the README's code."""

import importlib.util
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import bayesmerton
import bayesmerton.cli as cli
from bayesmerton.strategy import evaluate_points

#: Names the benchmark's span tracer replaces as module globals, by module.
#: A name that no longer resolves is skipped there, and the layer metrics
#: built on it silently read 0.
TRACED = {
    "cli": [
        "load_config",
        "render_sweep_svg",
        "horizon_sweep",
        "export_sweep_csv",
        "optimality_check",
        "export_report_json",
        "simulate_filter_sde",
        "optimal_fraction",
    ],
    "asymptotics": ["limit_fraction"],
    "simkit": ["build_feedback_strategy", "terminal_wealth"],
}

#: Targets of perfbench/spans.py's PATCHES that the package no longer has;
#: the layer metrics built on them read 0 until the benchmark is updated.
STALE_PATCH_TARGETS = {
    "cli.posterior",
    "cli.log_utility_fraction",
    "asymptotics.optimal_fraction",
    "simkit.optimal_fraction",
    "simkit.log_utility_fraction",
    "strategy.posterior",
    "strategy.posterior_mean",
    "filtering.posterior",
}


#: Every public callable that takes alpha, called on the toy market with
#: otherwise valid arguments.
ALPHA_ENTRIES = {
    "merton_fraction": lambda m, a: bayesmerton.merton_fraction(m, 2.0, a),
    "limit_fraction": lambda m, a: bayesmerton.limit_fraction(m, a),
    "jensen_lower_bound_fd": lambda m, a: bayesmerton.jensen_lower_bound_fd(m, a, 0.0, 1.0, 0.0),
    "pessimist_lower_bound_f1": lambda m, a: bayesmerton.pessimist_lower_bound_f1(
        m, a, 0.0, 1.0, 0.0
    ),
    "evaluate_points": lambda m, a: evaluate_points(m, a, 0.0, 1.0, 0.0),
    "optimal_fraction": lambda m, a: bayesmerton.optimal_fraction(
        m, a, bayesmerton.StrategyQuery(0.0, 1.0, 0.0)
    ),
    "horizon_sweep": lambda m, a: bayesmerton.horizon_sweep(m, a, 0.0, 0.0, [1.0, 2.0]),
    "build_feedback_strategy": lambda m, a: bayesmerton.build_feedback_strategy(m, a, 1.0, 1e-2),
    "CachedStrategy": lambda m, a: bayesmerton.CachedStrategy(m, a, 1.0, 100),
    "optimality_check": lambda m, a: bayesmerton.optimality_check(
        m, a, 1.0, [0.5], 1e-2, 4, 1
    ),
}


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", list(ALPHA_ENTRIES))
def test_alpha_checked_at_every_entry(entry, alpha, monkeypatch):
    """alpha must be a finite number < 1, checked before any strategy table is built."""

    def no_table(*args):
        raise AssertionError(f"a strategy table was built at alpha = {alpha}")

    # the entries reach the table through simkit; bayesmerton.CachedStrategy stays the class
    monkeypatch.setattr(bayesmerton.simkit, "CachedStrategy", no_table)
    toy = bayesmerton.new_market(0.0, 1.0, (1.0, 2.0, 3.0), (0.3, 0.3, 0.4))
    with pytest.raises(bayesmerton.InvalidAlpha):
        ALPHA_ENTRIES[entry](toy, alpha)


def test_every_listed_name_resolves():
    assert len(set(bayesmerton.__all__)) == len(bayesmerton.__all__)
    for name in bayesmerton.__all__:
        assert hasattr(bayesmerton, name), name


def test_every_public_import_is_listed():
    public = {
        name
        for name, value in vars(bayesmerton).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(bayesmerton.__all__)


def test_benchmark_entry_points(tmp_path):
    """perfbench/ calls or patches these names; an API trim must keep them."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "market": {"r": 0.0, "sigma": 1.0, "mus": [1.0, 2.0, 3.0], "prior": [0.3, 0.3, 0.4]},
        "alpha": 0.5,
        "quadrature": {"nodes": 32},
    }))
    config = cli.load_config(str(path))
    assert config.quad.nodes == 32 and config.alpha == 0.5
    query = bayesmerton.StrategyQuery(0.2, 1.0, 0.1)
    sv = bayesmerton.optimal_fraction(config.model, config.alpha, query, config.quad)
    assert isinstance(sv.u_star, float)
    assert isinstance(bayesmerton.log_utility_fraction(config.model, 0.2, 0.1), float)
    assert callable(cli.main)
    for module, names in TRACED.items():
        for name in names:
            assert callable(getattr(getattr(bayesmerton, module), name)), f"{module}.{name}"
    assert cli._COMMANDS and all(callable(fn) for fn in cli._COMMANDS.values())

    # the tracer wraps the lookup and reads the table's market
    strat = bayesmerton.simkit.build_feedback_strategy(config.model, 0.0, 1.0, 1e-3)
    assert "__call__" in vars(bayesmerton.simkit.CachedStrategy)
    assert strat.model is config.model and (strat.alpha, strat.T) == (0.0, 1.0)
    assert strat(0.5, np.array([0.0, 1.0])).shape == (2,)


def test_benchmark_patch_targets_resolve():
    """Every (module, name) that perfbench/spans.py patches exists, bar the known stale ones.

    The tracer skips a target it cannot find, so a rename or deletion would
    otherwise zero its layer metric without failing anything.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        f"{module}.{name}"
        for module, name, _ in spans.PATCHES
        if not hasattr(importlib.import_module(f"bayesmerton.{module}"), name)
    }
    assert missing - STALE_PATCH_TARGETS == set()


def test_readme_python_blocks_run(capsys):
    """Every ```python block of README.md runs as written, in order, in one namespace."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[-1] == "True"  # the optcheck verdict
