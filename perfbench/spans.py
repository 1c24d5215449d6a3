"""In-memory span tracer that wraps bayesmerton's public functions from outside.

Each public name is replaced where its caller looks it up (a module global
or a class attribute), so the package itself is never edited.  A span
records its name, start, end and parent; spans stay in memory until the
benchmark reads them.  A span's self time is its duration minus the time
its children cover.  The module names are the layers: model, filtering,
strategy, asymptotics, simkit, cli.
"""

from __future__ import annotations

import builtins
import functools
import os
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

#: (module whose global is replaced, global name, span name).  One function
#: is patched at every module that calls it, under a single span name.
PATCHES = [
    ("cli", "load_config", "cli.load_config"),
    ("cli", "render_sweep_svg", "cli.render_sweep_svg"),
    ("cli", "horizon_sweep", "asymptotics.horizon_sweep"),
    ("cli", "export_sweep_csv", "asymptotics.export_sweep_csv"),
    ("cli", "optimality_check", "simkit.optimality_check"),
    ("cli", "export_report_json", "simkit.export_report_json"),
    ("cli", "simulate_filter_sde", "filtering.simulate_filter_sde"),
    ("cli", "posterior", "filtering.posterior"),
    ("cli", "optimal_fraction", "strategy.optimal_fraction"),
    ("cli", "log_utility_fraction", "strategy.log_utility_fraction"),
    ("asymptotics", "limit_fraction", "asymptotics.limit_fraction"),
    ("asymptotics", "optimal_fraction", "strategy.optimal_fraction"),
    ("simkit", "build_feedback_strategy", "simkit.build_feedback_strategy"),
    ("simkit", "terminal_wealth", "simkit.terminal_wealth"),
    ("simkit", "optimal_fraction", "strategy.optimal_fraction"),
    ("simkit", "log_utility_fraction", "strategy.log_utility_fraction"),
    ("strategy", "posterior", "filtering.posterior"),
    ("strategy", "posterior_mean", "filtering.posterior_mean"),
    ("filtering", "posterior", "filtering.posterior"),
]

LOOKUP = "simkit.CachedStrategy.__call__"
WRITE = "cli.write"


class Tracer:
    """Collects spans as ``[name, start_ns, end_ns, parent_index]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.last: dict[str, object] = {}  # latest return value per span name
        self.lookup_entries = 0  # y values looked up inside terminal_wealth
        self.lookup_clamped = 0  # of those, outside the table's y span
        self.bytes_written = 0
        self.missing: list[str] = []  # patch targets the package no longer has
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, last = self.spans, self._stack, self.last

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            last[name] = result
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_clamped(self, args, result) -> None:
        # runs after the lookup span has closed, so it costs no span time
        grid = getattr(args[0], "_y_grid", None)
        in_sim = self._stack and self.spans[self._stack[-1]][0] == "simkit.terminal_wealth"
        if grid is not None and in_sim and len(args) == 3:
            y = np.asarray(args[2])
            self.lookup_entries += y.size
            self.lookup_clamped += int(np.count_nonzero((y < grid[0]) | (y > grid[-1])))

    def _open(self, file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if not any(c in mode for c in "wax"):
            return handle
        return _WriteSpan(self, handle, file)

    @contextmanager
    def installed(self, package):
        """Patch every traced name in ``package`` for the duration of the block.

        A name the package no longer has is skipped and listed in ``missing``;
        the layer metrics built on it then read 0.
        """
        undo = []
        try:
            for mod_name, attr, span in PATCHES:
                mod = getattr(package, mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                undo.append(functools.partial(setattr, mod, attr, fn))
                setattr(mod, attr, self.wrap(span, fn))
            commands = getattr(package.cli, "_COMMANDS", {})
            for key, fn in list(commands.items()):
                undo.append(functools.partial(commands.__setitem__, key, fn))
                commands[key] = self.wrap(f"cli.{fn.__name__}", fn)
            cached = getattr(package.simkit, "CachedStrategy", None)
            if cached is None:
                self.missing.append("simkit.CachedStrategy")
            else:
                lookup = cached.__call__
                undo.append(functools.partial(setattr, cached, "__call__", lookup))
                cached.__call__ = self.wrap(LOOKUP, lookup, after=self._count_clamped)
            # cli resolves ``open`` through its module globals before builtins
            undo.append(functools.partial(delattr, package.cli, "open"))
            package.cli.open = self._open
            yield self
        finally:
            for step in reversed(undo):
                step()

    def stats(self) -> "SpanStats":
        return SpanStats(self.spans)


class _WriteSpan:
    """File handle whose lifetime, from open to close, is one ``cli.write`` span."""

    def __init__(self, tracer: Tracer, handle, path) -> None:
        self._tracer = tracer
        self._handle = handle
        self._path = path
        self.write = handle.write
        stack = tracer._stack
        self._span = [WRITE, perf_counter_ns(), 0, stack[-1] if stack else -1]
        tracer.spans.append(self._span)
        stack.append(len(tracer.spans) - 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def close(self) -> None:
        if self._handle.closed:
            return
        self._handle.close()
        self._span[2] = perf_counter_ns()
        self._tracer._stack.pop()
        self._tracer.bytes_written += os.path.getsize(self._path)


class SpanStats:
    """Durations and self times of a finished trace, in seconds."""

    def __init__(self, spans: list[list]) -> None:
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.duration = [(s[2] - s[1]) * 1e-9 for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child)]

    def select(self, name: str, parent: str | None = None) -> list[int]:
        return [
            i
            for i, n in enumerate(self.names)
            if n == name
            and (parent is None or (self.parents[i] >= 0 and self.names[self.parents[i]] == parent))
        ]

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.select(name, parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.duration[i] for i in self.select(name, parent))

    def total_self(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.select(name))

    def median(self, name: str) -> float:
        durations = [self.duration[i] for i in self.select(name)]
        return float(np.median(durations)) if durations else 0.0

    def children_total(self, name: str) -> float:
        """Time covered by the direct children of every span called ``name``."""
        return sum(
            self.duration[i]
            for i, p in enumerate(self.parents)
            if p >= 0 and self.names[p] == name
        )
