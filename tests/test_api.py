"""The package's public names, and the entry points the benchmark harness calls."""

import json
import types

import bayesmerton
import bayesmerton.cli as cli


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
    """perfbench/run.py calls these names; an API trim must keep them."""
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
