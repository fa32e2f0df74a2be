"""Spans and counts around trajbounds' public functions, kept in memory.

``install`` rebinds each traced function, in every trajbounds module that
holds a reference to it, to a wrapper that records a span (name, start, end,
parent span).  A layer's self time is its span's duration minus the time its
child spans cover.  Nothing in the program changes; the wrappers live here.

Counts that need the call's result (vertices, stop wins, bytes written) are
taken after the call and recorded as a ``trace`` span under the caller, so
their cost is kept out of every layer's self time.  Peak memory is taken
with ``tracemalloc`` only while ``Tracer.memory`` is set, because tracing
allocations slows the calls it watches.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import trajbounds as tb
from trajbounds import charts, cli, engine, grid, hedge, model, oracle

_MODULES = (tb, model, grid, engine, hedge, cli, charts, oracle)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)  # MiB
        self.memory = False
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn, after=None, peak: bool = False):
        """Wrap ``fn`` in a span; ``after(counts, result, *args)`` runs after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            mem = peak and self.memory and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                if mem:
                    used = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], used)
                self._stack.pop()
            if after is not None:
                t = time.perf_counter()
                after(self.counts, out, *args)
                self.spans.append(["trace", t, time.perf_counter(), parent])
            return out

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call only bumps ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(self seconds, inclusive seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
            calls[name] += 1
        return own, total, calls


def _rebind(orig, new) -> None:
    for mod in _MODULES:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _after_validate(counts, report, spec, *_):
    js = np.arange(spec.n2 + 1)
    counts["model.vertices_in_cone"] += int((2 * np.minimum(spec.n1, spec.p * js) + 1).sum())
    counts["model.vertices_reachable"] += sum(report.counts.values())
    counts["model.nodes_arbitrage"] += len(report.arbitrage_vertices)


def _after_bounds(counts, bounds, *_):
    counts["engine.vertices"] += bounds.grid.n_vertices
    counts["engine.stop_wins"] += int(np.count_nonzero(bounds.prov == grid.PROV_Q_MAX))


def _after_sample(counts, traj, *_):
    counts["hedge.steps"] += len(traj) - 1


def _bytes_of(key, path_arg):
    def after(counts, _result, *args):
        counts[key] += os.path.getsize(args[path_arg])
    return after


def install(tracer: Tracer) -> None:
    """Rebind the traced public functions of every trajbounds module."""
    functions = [
        ("model.validate_model", model.validate_model, _after_validate, True),
        ("model.reachable_masks", model.reachable_masks, None, False),
        ("grid.build_grid", grid.build_grid, None, False),
        ("engine.price", engine.price, None, False),
        ("engine.compute_bounds", engine.compute_bounds, _after_bounds, True),
        ("hedge.sample_trajectory", hedge.sample_trajectory, _after_sample, False),
        ("hedge.simulate_pnl", hedge.simulate_pnl, None, False),
        ("cli.write_csv", cli.write_csv, _bytes_of("cli.write_csv.bytes", 0), False),
        ("charts.emit_svg", charts.emit_svg, _bytes_of("charts.emit_svg.bytes", 3), False),
        ("cli.main", cli.main, None, False),
    ]
    for name, fn, after, peak in functions:
        _rebind(fn, tracer.span(name, fn, after, peak))
    model.ModifiedRule.selection = tracer.span("model.selection", model.ModifiedRule.selection)
    grid.BoundsGrid.to_csv = tracer.span("grid.to_csv", grid.BoundsGrid.to_csv,
                                         _bytes_of("grid.to_csv.bytes", 1))
    # Only the engine's per-vertex fallback; hedge sampling also calls reachable.
    engine.reachable = tracer.counter("engine.fallback_vertices", engine.reachable)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round per-layer figures from the spans and counts of ``rounds`` rounds."""
    own, total, calls = tracer.layer_times()
    c = tracer.counts
    out: dict[str, float] = {}
    for name in ("model.validate_model", "model.reachable_masks", "model.selection",
                 "engine.price", "engine.compute_bounds", "hedge.sample_trajectory"):
        out[f"{name}.calls"] = calls[name] / rounds
    for name in ("model.validate_model", "model.reachable_masks", "model.selection",
                 "grid.build_grid", "engine.price", "engine.compute_bounds",
                 "hedge.sample_trajectory", "hedge.simulate_pnl", "grid.to_csv",
                 "cli.write_csv", "charts.emit_svg", "cli.main"):
        out[f"{name}.s"] = own[name] / rounds
    for name in ("model.vertices_in_cone", "model.vertices_reachable", "model.nodes_arbitrage",
                 "engine.fallback_vertices", "engine.stop_wins", "hedge.steps",
                 "grid.to_csv.bytes", "cli.write_csv.bytes", "charts.emit_svg.bytes"):
        out[name] = c[name] / rounds
    bounds_s = total["engine.compute_bounds"]
    out["engine.compute_bounds.vertices_per_s"] = c["engine.vertices"] / bounds_s if bounds_s else 0.0
    hedge_s = total["hedge.sample_trajectory"] + total["hedge.simulate_pnl"]
    out["hedge.ledgers_per_s"] = calls["hedge.simulate_pnl"] / hedge_s if hedge_s else 0.0
    for name in ("model.validate_model", "engine.compute_bounds"):
        out[f"{name}.peak_mib"] = tracer.peaks[name]
    return out
