"""Host-time benchmark of the dIPC simulator.

Times what the simulator costs the host, not what it simulates: four
workloads built from the figure drivers (see ``workloads.py``), each
point run serially in this process through the runner's public entry,
with no result cache and no ``TraceSession``.

    python3 hostbench/run.py --workload topo --seed 42 --seconds 24 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` and prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs it once
untraced and once under cProfile and prints the per-layer metrics.
Simulated statistics are a correctness gate, never a metric. The last
stdout line is the result object; the line before it is the full record,
host fingerprint included, so numbers from different hosts can be told
apart. Run from the root of a checkout: the program is imported from
``src/`` beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed from start to first point ready, per run
SETUP_SAMPLES = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        raise ProgramMissing(f"cannot import repro from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise ProgramMissing(f"repro imported from {where}, not {SRC}")


def host_record() -> dict:
    """CPU model, cores, RAM, Python and source revision."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    from repro.runner.cache import package_fingerprint
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "ram_gb": round(ram / 2 ** 30, 1),
            "python": platform.python_version(), "git_sha": git_sha,
            "source_fingerprint": package_fingerprint()}


def setup_seconds(workload: str, seed: int) -> float:
    """Median corrected seconds from interpreter start to the
    workload's first point being ready (imports plus spec generation)."""
    from workloads import Timing, host_pace
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = host_pace()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 workload, str(seed)],
                stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline().strip()
            seconds = time.perf_counter() - start
            probe.stdout.read()
            if probe.wait(timeout=120) != 0 or line != "ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
        timing = Timing(seconds, (before + host_pace()) / 2)
        samples.append(timing.corrected_s)
    return statistics.median(samples)


def measure(plan, seconds: float):
    """Untraced passes until the next would overrun ``seconds``.

    Returns the passes and the peak RSS at the end of the first, which
    every run reaches in the same state.
    """
    import workloads
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workloads.run_pass(plan))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            return passes, peak_rss_mb


def end_to_end(plan, passes, peak_rss_mb) -> dict:
    import workloads
    per_point, wall = workloads.costs(passes)
    return {
        "setup_s": setup_seconds(plan.name, plan.seed),
        "wall_s": wall,
        "point_p50_ms": 1e3 * statistics.median(per_point),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(plan, layer_map):
    """One untraced pass, then one traced pass of the same points."""
    import layers
    import workloads
    gc.collect()
    untraced = workloads.run_pass(plan)
    gc.collect()
    traced, wall, entries, events = layers.traced(
        lambda: workloads.run_pass(plan, paced=False))
    metrics = layers.attribute(layer_map, entries)
    attributed = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    _, untraced_s = workloads.costs([untraced])
    metrics.update({
        "sim.events": events,
        "sim.host_ns_per_event": (untraced_s * 1e9 / events
                                  if events else 0.0),
        "bench.trace_overhead_x": traced.raw_s / untraced.raw_s,
        "bench.attributed_frac": attributed / wall,
        "fault.injections": 0, "recovery.pool_rebuilds": 0,
        "recovery.worker_restarts": 0, "recovery.fast_fails": 0,
        "check.failing_cells": 0,
    })
    metrics.update(traced.counters)
    if abs(metrics["bench.attributed_frac"] - 1.0) > \
            layers.ATTRIBUTION_TOLERANCE:
        raise RuntimeError(
            f"layer self-times sum to {attributed:.3f}s of a {wall:.3f}s "
            f"traced pass, outside +-{layers.ATTRIBUTION_TOLERANCE:.0%}")
    return metrics, [untraced, traced]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bootstrap()
    except ProgramMissing as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import layers
    import workloads
    if sys.gettrace() is not None:
        print("hostbench: refusing to time under a tracer", file=sys.stderr)
        return 2
    layer_map = layers.LayerMap(os.path.join(SRC, "repro"))
    layer_map.check_complete()

    plan = workloads.plan(args.workload, args.seed)
    if args.trace:
        metrics, passes = per_layer(plan, layer_map)
        wanted = spec["per_layer"]
    else:
        passes, peak_rss_mb = measure(plan, args.seconds)
        metrics = end_to_end(plan, passes, peak_rss_mb)
        wanted = spec["end_to_end"]
    reference = workloads.load_references().get(args.workload, {}).get(
        str(args.seed))
    rerun = None
    if len(passes) == 1:
        gc.collect()
        rerun = workloads.run_pass(plan.prefix())
    failed = workloads.gate(plan, passes, rerun, reference)
    attempted = plan.size * len(passes)

    for (number, index), why in sorted(failed.items()):
        print(f"FAILED pass {number} point {index}: {why}")
    if args.workload == "storm":
        status = "storm: audits + conformance + same-seed rerun"
    elif reference is not None:
        status = f"digests vs stored reference for seed {args.seed}"
    else:
        status = (f"no stored reference for seed {args.seed}: repeat "
                  f"determinism and plausibility only")
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) x "
          f"{plan.size} points, fail_frac {len(failed)}/{attempted} = "
          f"{len(failed) / attempted:.3f}; gate: {status}")
    out = {}
    for metric in wanted:
        out[metric["name"]] = {"value": metrics[metric["name"]],
                               "unit": metric["unit"]}
        print(f"  {metric['name']:<28} {metrics[metric['name']]:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps({"record": {
        "host": host_record(), "workload": args.workload,
        "seed": args.seed, "trace": args.trace,
        "pass_wall_s": [p.wall_s for p in passes],
        "points_per_pass": plan.size, "fail_frac": len(failed) / attempted,
        "gate": status, "metrics": metrics}}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
