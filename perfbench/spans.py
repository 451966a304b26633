"""Span tracing of spikemap from outside the package.

install() replaces the public functions of every spikemap module, a few
private ones the per-layer metrics need, and a short list of methods with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  The CLI imports functions by name
(``from .frozen_solver import shoot_radial``), so a function is rebound in
every spikemap module that holds it, not only where it is defined.

Spans live in flat arrays while the program runs; summary() folds them into
per-name call counts, inclusive time and self time (inclusive minus the time
covered by child spans).  The tracer assumes one thread, which is how the
CLI runs with SPIKEMAP_WORKERS unset.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

MODULES = {
    "model": "spikemap.model",
    "fields": "spikemap.fields",
    "frozen": "spikemap.frozen_solver",
    "magnetic": "spikemap.magnetic_solver",
    "landscape": "spikemap.landscape",
    "diagnostics": "spikemap.diagnostics",
    "cli": "spikemap.cli",
}

# private functions that carry a layer boundary a metric is defined on
PRIVATE = {"magnetic._seed_field", "landscape._newton"}

# (module short name, class, method): the point and grid evaluators of the
# expression layer, the link-phase quadrature and the nonlinearity
METHODS = [
    ("model", "PotentialExpr", "value"),
    ("model", "PotentialExpr", "value_and_gradient"),
    ("model", "PotentialExpr", "on_grid"),
    ("model", "ModelSpec", "link_phases"),
    ("model", "Nonlinearity", "f"),
    ("model", "Nonlinearity", "F"),
]


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: dict = defaultdict(float)
        # name -> fn(args, result) run after the call; counts read from
        # results the program already returns
        self.hooks = {
            "magnetic.solve_magnetic": lambda a, r: self._add("magnetic.iterations", r.iterations),
            "fields.apply_link_kinetic": lambda a, r: self._add("fields.kinetic_nodes", r.size),
            "fields.write_snapshot": lambda a, r: self._add("fields.snapshot_bytes", _path_size(a[0])),
            "fields.read_snapshot": lambda a, r: self._add("fields.snapshot_bytes", _path_size(a[0])),
            "landscape.sweep_sigma": lambda a, r: self._add("landscape.sweep_points", len(r.samples)),
            "landscape.find_S": self._roots,
            "landscape.find_Sp": self._roots,
            "landscape.crit_K": self._roots,
        }

    def _add(self, key, value):
        self.counters[key] += value

    def _roots(self, args, result):
        self.counters["landscape.roots"] += len(result.points)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        stack, s_name, s_parent = self.stack, self.span_name, self.span_parent
        s_start, s_end, clock = self.span_start, self.span_end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {short: importlib.import_module(path) for short, path in MODULES.items()}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if not attr.startswith("_") or name in PRIVATE:
                    wrapped[obj] = self.wrap(name, obj)
        holders = list(mods.values()) + [importlib.import_module("spikemap")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; per
        (parent name, name) pair: calls and seconds; plus the counters."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            par = self.span_parent[i]
            if par >= 0:
                child[par] += dur[i]
        per_name: dict = {}
        per_edge: dict = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            rec = per_name.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
            par = self.span_parent[i]
            pname = self.names[self.span_name[par]] if par >= 0 else ""
            edge = per_edge.setdefault(f"{pname}>{name}", [0, 0.0])
            edge[0] += 1
            edge[1] += dur[i]
        return {
            "spans": n,
            "names": {k: {"calls": c, "s": t, "self_s": s} for k, (c, t, s) in per_name.items()},
            "edges": {k: {"calls": c, "s": t} for k, (c, t) in per_edge.items()},
            "counters": dict(self.counters),
        }
