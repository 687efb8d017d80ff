"""The four workloads: which points each runs, how ``--seed`` reaches
them, and the correctness gate every pass must clear.

* ``oltp`` — fig8 quick OLTP at concurrency 4: every config and both
  storages in four points. Closed loop: few, long simulations over the
  simulated kernel; scheduler, engine heap and ``Block(...)`` coercion
  dominate.
* ``topo`` — fig10 quick: 5 scenarios x 7 primitives x 2 rungs x 2
  reps. Open-loop Poisson arrivals; a fresh kernel and domains per
  point, the seven ``_Hop`` implementations and the dIPC proxy path.
* ``storm`` — the 25-kops half of the ``topo`` points under a seeded
  ``ChaosSession`` plus ``RecoverySession``, audited, then the full
  105-cell kill-point conformance matrix: the same layers on the
  failure path, so a cost that shows on ``storm`` and not on ``topo``
  is a failure-path cost.
* ``load`` — fig9 quick, single hop: the only workload that runs the
  seven ``repro.load.transports`` transports. The lightest and the
  overloaded open-loop rung plus one closed-loop client population.

The subsets keep a pass within a run. Host speed on a shared machine
swings by tens of percent within seconds, so every timed step is
bracketed by a fixed calibration loop and reported at a reference pace
(:class:`Timing`).
Every chaos storm is seeded per kernel, so ``storm``'s work varies with
``--seed``; the fixed conformance matrix is about half of its pass.

Every point runs serially through the runner's public entry
(:func:`repro.runner.pool.run_points`) with no result cache.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import math
import os
import re
import signal
import statistics
import time
import traceback
from typing import Dict, List, Optional

from repro.runner import registry
from repro.runner.points import PointSpec
from repro.runner.pool import run_points

NAMES = ("oltp", "topo", "storm", "load")

#: the point seed fig9 and fig10 use: ``--seed 42`` runs the figures'
#: own inputs. A point's seed moves by ``--seed - DEFAULT_SEED``, which
#: keeps fig10's per-rep seed offsets.
DEFAULT_SEED = 42
#: a seed with stored references that was not used while the benchmark
#: was tuned, for re-checking a claim on inputs it was not tuned on
HELD_OUT_SEED = 9

#: the oltp subset, fig8 quick at its cheapest concurrency: every
#: config, every storage
OLTP_POINTS = (("on-disk", "linux"), ("on-disk", "ideal"),
               ("in-memory", "dipc"), ("in-memory", "ideal"))
OLTP_CONCURRENCY = 4
#: the storm's offered-load rung, kops
STORM_RUNG = 25.0
#: the load subset: fig9's open-loop rungs, kops, and closed-loop
#: client counts
LOAD_RUNGS = (400.0, 6400.0)
LOAD_CLIENTS = (16,)

#: conformance cells keep the CI seed; the storm's chaos and recovery
#: seeds follow ``--seed``
CONFORMANCE_SEED = 0

#: seconds between pace samples taken while a step runs
PACE_INTERVAL_S = 0.025

#: the calibration loop's time on an idle host of the kind the stored
#: results come from (Intel Xeon, 2 vCPUs, Python 3.11): corrected
#: times are seconds at this pace
CALIBRATION_REF_S = 1.2e-3

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


@dataclasses.dataclass
class Plan:
    name: str
    seed: int
    specs: List[PointSpec]
    #: storm only: the conformance matrix, run after the chaos sweep
    cells: List[PointSpec] = dataclasses.field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.specs) + len(self.cells)

    def prefix(self) -> "Plan":
        """The leading point, for a same-seed rerun when a run made a
        single pass (storm: its first stormed kernel)."""
        return Plan(self.name, self.seed, self.specs[:1])


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def total(self):
        return self.key + self.value


def _calibration_loop() -> int:
    """Fixed work in the simulator's own idiom: heap traffic, small
    objects, method calls."""
    heap = []
    for i in range(1500):
        heapq.heappush(heap, (i * 7919 % 1000, i))
    total = 0
    while heap:
        total += _Pair(*heapq.heappop(heap)).total()
    return total


def host_pace() -> float:
    """Seconds the calibration loop takes right now."""
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


@dataclasses.dataclass
class Timing:
    """One timed step and the host's pace around it."""

    seconds: float
    #: calibration-loop seconds, the mean of samples taken just before,
    #: during and just after the step
    pace: float

    @property
    def corrected_s(self) -> float:
        """The step's seconds at the reference pace: a host slowed by
        its neighbours slows the calibration loop alike."""
        return self.seconds * CALIBRATION_REF_S / self.pace


class _Clock:
    """Times the ``with`` body into ``self.timing``.

    Collects garbage first and freezes what survives, so the collector
    works, inside a step, only on what that step allocates: otherwise a
    storm's kernels, kept alive until its session ends, are rescanned by
    every later step. :func:`run_pass` unfreezes at the end.

    ``paced`` samples the host's pace around the step and, from a
    timer signal, every :data:`PACE_INTERVAL_S` inside it; the samples'
    own time is taken out of the step's. Unpaced (under the profiler,
    whose counts the samples would pollute) steps keep raw seconds.
    """

    def __init__(self, paced: bool):
        self.paced = paced
        self.paces: List[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.paces.append(host_pace())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "_Clock":
        gc.collect()
        gc.freeze()
        if self.paced:
            self.paces += [host_pace(), host_pace()]
            self.handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S,
                             PACE_INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if not self.paced:
            seconds = time.perf_counter() - self.start
            self.timing = Timing(seconds, CALIBRATION_REF_S)
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - self.start - self.spent
        signal.signal(signal.SIGALRM, self.handler)
        self.paces += [host_pace(), host_pace()]
        self.timing = Timing(seconds, statistics.mean(self.paces))


@dataclasses.dataclass
class PassResult:
    """One pass over a plan's points."""

    wall_s: float = 0.0
    points: List[Timing] = dataclasses.field(default_factory=list)
    #: per point, a digest of its JSON result (storm: plus its kernels'
    #: injection log); None where the point raised
    digests: List[Optional[str]] = dataclasses.field(default_factory=list)
    #: point index -> why the point failed
    errors: Dict[int, str] = dataclasses.field(default_factory=dict)
    #: storm: the post-sweep chaos and recovery audits
    audit: Optional[Timing] = None
    #: simulated counters (storm and goodput)
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def raw_s(self) -> float:
        """Uncorrected seconds of every timed step."""
        steps = self.points + ([self.audit] if self.audit else [])
        return sum(t.seconds for t in steps)


def oltp_point(*, storage: str, config: str, concurrency: int,
               scale: float, seed: int) -> dict:
    """fig8's ``compute_point`` with the workload seed applied (fig8
    points have no seed kwarg; at seed 42 the two are identical)."""
    from repro.apps.oltp import params_for, run_oltp
    params = dataclasses.replace(
        params_for(config, storage, concurrency, scale=scale), seed=seed)
    return {"throughput_ops_min": run_oltp(params).throughput_ops_min}


def _reseed(spec: PointSpec, seed: int) -> PointSpec:
    kwargs = dict(spec.kwargs)
    kwargs["seed"] += seed - DEFAULT_SEED
    return dataclasses.replace(spec, kwargs=kwargs)


def plan(name: str, seed: int) -> Plan:
    """Build a workload's points (imports and spec generation, the
    work ``setup_s`` times)."""
    if name == "oltp":
        return Plan(name, seed, [
            PointSpec("fig8", __name__, {**spec.kwargs, "seed": seed},
                      func="oltp_point")
            for spec in registry.specs_for("fig8", True)
            if spec.kwargs["concurrency"] == OLTP_CONCURRENCY
            and (spec.kwargs["storage"], spec.kwargs["config"])
            in OLTP_POINTS])
    if name in ("topo", "storm"):
        specs = [_reseed(spec, seed)
                 for spec in registry.specs_for("fig10", True)]
        if name == "topo":
            return Plan(name, seed, specs)
        from repro.recovery import conformance
        return Plan(name, seed, [spec for spec in specs
                                 if spec.kwargs["offered_kops"]
                                 == STORM_RUNG],
                    conformance.specs_for(conformance.matrix(),
                                          seed=CONFORMANCE_SEED))
    if name == "load":
        return Plan(name, seed, [
            _reseed(spec, seed) for spec in registry.specs_for("fig9", True)
            if spec.kwargs.get("offered_kops") in LOAD_RUNGS
            or spec.kwargs.get("n_clients") in LOAD_CLIENTS])
    raise ValueError(f"unknown workload {name!r} "
                     f"(choose from {', '.join(NAMES)})")


def _digest(result, log: str = "") -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((text + log).encode()).hexdigest()[:16]


def _implausible(result) -> Optional[str]:
    """Why a point's simulated result cannot be right, if it cannot."""
    if not isinstance(result, dict):
        return f"result is {type(result).__name__}, not a dict"
    for key, value in result.items():
        if isinstance(value, float) and not math.isfinite(value):
            return f"{key} = {value}"
    if "throughput_ops_min" in result and result["throughput_ops_min"] <= 0:
        return "no OLTP throughput"
    if "goodput_ratio" in result:
        if not 0.0 <= result["goodput_ratio"] <= 1.0:
            return f"goodput_ratio {result['goodput_ratio']} outside [0, 1]"
        if result["reclamation_violations"]:
            return (f"{result['reclamation_violations']} reclamation "
                    f"violation(s)")
    return None


class _Sweep:
    """Times points one at a time into a :class:`PassResult`."""

    def __init__(self, out: PassResult, paced: bool):
        self.out = out
        self.paced = paced

    def run(self, spec: PointSpec, index: int, log=None):
        clock = _Clock(self.paced)
        try:
            with clock:
                (result,), _stats = run_points([spec])
        except Exception:  # a failing point is counted, not fatal
            self.out.points.append(clock.timing)
            self.out.digests.append(None)
            self.out.errors[index] = traceback.format_exc(limit=3)
            return None
        self.out.points.append(clock.timing)
        self.out.digests.append(_digest(result, log() if log else ""))
        why = _implausible(result)
        if why is not None:
            self.out.errors[index] = why
        return result


def _goodput(results) -> float:
    offered = sum(r.get("offered_seen", 0) for r in results if r)
    completed = sum(r.get("completed", 0) for r in results if r)
    return completed / offered if offered else 0.0


def run_pass(plan: Plan, *, paced: bool = True) -> PassResult:
    """Compute every point of ``plan`` once, timing each."""
    out = PassResult()
    sweep = _Sweep(out, paced)
    start = time.perf_counter()
    try:
        if plan.name == "storm":
            _storm(plan, sweep)
        else:
            results = [sweep.run(spec, i)
                       for i, spec in enumerate(plan.specs)]
            out.counters["load.goodput_ratio"] = _goodput(results)
    finally:
        gc.unfreeze()
    out.wall_s = time.perf_counter() - start
    return out


_KERNEL = re.compile(r"^kernel (\d+):")


def _owner(spans, violation: str) -> Optional[int]:
    """The point whose kernel a ``kernel N: ...`` violation names."""
    match = _KERNEL.match(violation)
    if match:
        kernel = int(match.group(1))
        for index, (first, end) in enumerate(spans):
            if first <= kernel < end:
                return index
    return None


def _storm(plan: Plan, sweep: _Sweep) -> None:
    from repro.fault.plan import render_log
    from repro.fault.session import ChaosSession
    from repro.recovery.session import RecoverySession

    out = sweep.out
    kernel_spans, supervisor_spans, results = [], [], []
    with ChaosSession(seed=plan.seed) as chaos, \
            RecoverySession(seed=plan.seed) as recovery:
        for index, spec in enumerate(plan.specs):
            kernels = len(chaos.injectors)
            supervisors = len(recovery.supervisors)

            def log(first=kernels):
                return "".join(render_log(injector.records)
                               for injector in chaos.injectors[first:])

            results.append(sweep.run(spec, index, log))
            kernel_spans.append((kernels, len(chaos.injectors)))
            supervisor_spans.append((supervisors,
                                     len(recovery.supervisors)))
    with _Clock(sweep.paced) as clock:
        audits = ((kernel_spans, chaos.audit_kernels()),
                  (supervisor_spans, recovery.audit_violations()))
    out.audit = clock.timing
    for spans, violations in audits:
        for violation in violations:
            owner = _owner(spans, violation)
            out.errors.setdefault(0 if owner is None else owner,
                                  f"audit: {violation}")
    failing_cells = 0
    for offset, cell in enumerate(plan.cells):
        index = len(plan.specs) + offset
        result = sweep.run(cell, index)
        if result is not None and result["findings"]:
            failing_cells += 1
            out.errors[index] = "conformance: " + "; ".join(
                result["findings"])
    out.counters.update({
        "fault.injections": chaos.total_injections,
        "recovery.pool_rebuilds": recovery.total_pool_rebuilds,
        "recovery.worker_restarts": recovery.total_worker_restarts,
        "recovery.fast_fails": recovery.total_fast_fails,
        "check.failing_cells": failing_cells,
        "load.goodput_ratio": _goodput(results),
    })


def costs(passes: List[PassResult]) -> tuple:
    """Each point's median corrected seconds over the passes, and the
    workload's total (points plus storm's audits)."""
    per_point = [statistics.median(t.corrected_s for t in timings)
                 for timings in zip(*(p.points for p in passes))]
    audits = [p.audit.corrected_s for p in passes if p.audit]
    return per_point, sum(per_point) + (statistics.median(audits)
                                        if audits else 0.0)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def gate(plan: Plan, passes: List[PassResult],
         rerun: Optional[PassResult],
         reference: Optional[List[str]]) -> Dict[tuple, str]:
    """Every failed (pass, point) pair, with the reason.

    A point fails if it raised or its result is implausible (storm: an
    audit violation or a failing conformance cell), if its digest
    differs from the stored reference for this seed, or from the same
    point in the first pass. A run of one pass reruns its first point
    (``rerun``), which must reproduce it.
    """
    failed: Dict[tuple, str] = {}
    first = passes[0].digests
    for number, result in enumerate(passes):
        for index, digest in enumerate(result.digests):
            if index in result.errors:
                failed[number, index] = result.errors[index]
            elif reference is not None and len(reference) != plan.size:
                failed[number, index] = (f"the reference holds "
                                         f"{len(reference)} digests for "
                                         f"{plan.size} points")
            elif reference is not None and digest != reference[index]:
                failed[number, index] = (f"digest {digest} != reference "
                                         f"{reference[index]}")
            elif digest != first[index]:
                failed[number, index] = "differs from the first pass"
    for index, digest in enumerate(rerun.digests if rerun else ()):
        if digest != first[index]:
            failed.setdefault((0, index), "same-seed rerun differs")
    return failed
