"""Per-layer attribution of a traced pass: host self-time and calls by
``repro`` package, plus the work counters the benchmark reports.

A layer is a package under ``src/repro`` (``sim``, ``kernel``, ...),
``repro`` for the top-level modules (``primitives``, ``units``,
``errors``), or one of three pseudo-layers for code outside the
package: ``py.heapq`` (the C heap the engine runs on), ``py.enum``
(``Block(...)`` coercion lands here) and ``py.other`` (everything
else, the benchmark's own loop included).

A module under ``src/repro`` that maps to no named layer raises
:class:`UnmappedModule`: new packages must be named here, never
silently folded into ``py.other``.
"""

from __future__ import annotations

import cProfile
import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

#: the packages of ``src/repro``, each its own layer
PACKAGES = ("sim", "kernel", "hw", "mem", "codoms", "core", "ipc", "apps",
            "load", "topo", "fault", "recovery", "check", "runner",
            "trace", "experiments", "arch", "shard")
TOP = "repro"
PSEUDO = ("py.heapq", "py.enum", "py.other")
LAYERS = PACKAGES + (TOP,) + PSEUDO

#: the traced pass's layer self-times must add up to its wall time
#: within this share; the rest is the profiler's own bookkeeping
ATTRIBUTION_TOLERANCE = 0.05

_HOP_BUILD = re.compile(r"^_\w+Hop\.build$")
_RESUMES = ("<method 'send' of 'generator' objects>",
            "<method 'throw' of 'generator' objects>")


class UnmappedModule(RuntimeError):
    """A module under ``src/repro`` belongs to no named layer."""


class LayerMap:
    """Maps code locations to layer names."""

    def __init__(self, package_dir: str):
        self.package_dir = os.path.abspath(package_dir)
        self._prefix = self.package_dir + os.sep
        self._stdlib = os.path.dirname(os.__file__) + os.sep

    def relpath(self, filename: str):
        """Path relative to the package, or None outside it."""
        if filename.startswith(self._prefix):
            return filename[len(self._prefix):]
        return None

    def layer_of_file(self, filename: str) -> str:
        rel = self.relpath(filename)
        if rel is not None:
            parts = rel.split(os.sep)
            if len(parts) == 1:
                return TOP
            if parts[0] in PACKAGES:
                return parts[0]
            raise UnmappedModule(
                f"{filename}: package {parts[0]!r} maps to no layer; "
                f"name it in hostbench/layers.py PACKAGES")
        if filename == self._stdlib + "heapq.py":
            return "py.heapq"
        if filename == self._stdlib + "enum.py":
            return "py.enum"
        return "py.other"

    def layer_of_code(self, code) -> str:
        if isinstance(code, str):   # a C function
            return "py.heapq" if "_heapq." in code else "py.other"
        return self.layer_of_file(code.co_filename)

    def check_complete(self) -> int:
        """Map every module of the package; returns how many there are.
        Raises :class:`UnmappedModule` on the first one that fails."""
        count = 0
        for dirpath, dirnames, filenames in os.walk(self.package_dir):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in filenames:
                if filename.endswith(".py"):
                    self.layer_of_file(os.path.join(dirpath, filename))
                    count += 1
        return count


@contextmanager
def event_census():
    """Count engine events by wrapping the runner's point entry: after
    each point, the events of every engine it built are added up."""
    from repro.runner import pool
    from repro.sim.engine import Engine

    totals = {"events": 0}
    engines: List = []
    init, execute = Engine.__init__, pool.execute_spec

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    def counting_execute(spec):
        try:
            return execute(spec)
        finally:
            totals["events"] += sum(e.events_processed for e in engines)
            engines.clear()

    Engine.__init__ = counting_init
    pool.execute_spec = counting_execute
    try:
        yield totals
    finally:
        Engine.__init__ = init
        pool.execute_spec = execute


def traced(fn):
    """Run ``fn()`` under cProfile and the event census.

    Returns ``(value, wall_s, profile_entries, events)``.
    """
    profiler = cProfile.Profile()
    with event_census() as census:
        start = time.perf_counter()
        profiler.enable()
        try:
            value = fn()
        finally:
            profiler.disable()
        wall = time.perf_counter() - start
    return value, wall, profiler.getstats(), census["events"]


def attribute(layer_map: LayerMap, entries) -> Dict[str, float]:
    """Per-layer ``<layer>.self_s`` / ``<layer>.calls`` and the named
    counters, from one profile."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    by_name: Dict[tuple, object] = {}
    for entry in entries:
        code = entry.code
        layer = layer_map.layer_of_code(code)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if not isinstance(code, str):
            rel = layer_map.relpath(code.co_filename)
            if rel is not None:
                by_name[(rel, code.co_qualname)] = entry

    def count(rel: str, qualname: str) -> int:
        entry = by_name.get((rel, qualname))
        return entry.callcount if entry is not None else 0

    def inclusive_s(rel: str, pattern) -> float:
        return sum(entry.totaltime for (path, qualname), entry
                   in by_name.items()
                   if path == rel and pattern.match(qualname))

    advance = by_name.get((os.path.join("kernel", "scheduler.py"),
                           "Scheduler._advance"))
    resumes = sum(sub.callcount for sub in (advance.calls or ())
                  if sub.code in _RESUMES) if advance is not None else 0

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    sim = os.path.join("sim", "engine.py")
    effects = os.path.join("kernel", "effects.py")
    metrics.update({
        "sim.posts": count(sim, "Engine.post_at"),
        "sim.cancels": count(sim, "Engine.cancel"),
        "kernel.charges": count(os.path.join("kernel", "scheduler.py"),
                                "Scheduler._do_charge"),
        "kernel.blocks": count(effects, "BlockThread.__init__"),
        "kernel.handoffs": count(effects, "Handoff.__init__"),
        "kernel.resumes": resumes,
        "topo.build_s": inclusive_s(os.path.join("topo", "instantiate.py"),
                                    _HOP_BUILD),
        "core.proxy_calls": count(os.path.join("core", "proxy.py"),
                                  "Proxy.call"),
        "core.kcs_unwinds": count(os.path.join("core", "kcs.py"),
                                  "KernelControlStack.unwind_dead"),
        "fault.audit_s": inclusive_s(os.path.join("fault", "auditor.py"),
                                     re.compile(r"^InvariantAuditor\.audit$")),
    })
    return metrics
