"""The benchmark's own checks; run from the root of a checkout:

    python3 hostbench/selftest.py

1. Every module under ``src/repro`` maps to a named layer.
2. One short point per workload, traced in two processes under
   different ``PYTHONHASHSEED`` values: every metric ``BENCHMARK.json``
   gives the unit ``count`` must repeat exactly, and so must the point
   digests. A count that does not repeat is reported as a timing, and
   the check fails until its unit says so.
3. The oltp point at the default seed equals fig8's own
   ``compute_point``.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def child(workload: str) -> None:
    """Trace the workload's first point; print metrics and digests."""
    run.bootstrap()
    import layers
    import workloads
    layer_map = layers.LayerMap(os.path.join(run.SRC, "repro"))
    plan = workloads.plan(workload, workloads.DEFAULT_SEED).prefix()
    metrics, passes = run.per_layer(plan, layer_map)
    print(json.dumps({"metrics": metrics,
                      "digests": [p.digests for p in passes],
                      "errors": [p.errors for p in passes]}))


def _traced_in(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload],
        env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    run.bootstrap()
    import layers
    import workloads
    problems = []

    modules = layers.LayerMap(os.path.join(run.SRC, "repro")) \
        .check_complete()
    print(f"layer map: all {modules} modules under src/repro mapped")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in workloads.NAMES:
        first, second = (_traced_in(workload, seed) for seed in ("1", "2"))
        for label, result in (("PYTHONHASHSEED=1", first),
                              ("PYTHONHASHSEED=2", second)):
            if any(result["errors"]):
                problems.append(f"{workload} {label}: {result['errors']}")
        if first["digests"] != second["digests"]:
            problems.append(f"{workload}: point digests differ across "
                            f"hash seeds")
        moved = [name for name in counts
                 if first["metrics"][name] != second["metrics"][name]]
        for name in moved:
            problems.append(
                f"{workload}: {name} = {first['metrics'][name]} vs "
                f"{second['metrics'][name]}: a timing, not a count")
        print(f"{workload}: {len(counts) - len(moved)}/{len(counts)} "
              f"counts repeat exactly")

    from repro.experiments.fig08_oltp import compute_point
    kwargs = {"storage": "in-memory", "config": "ideal",
              "concurrency": workloads.OLTP_CONCURRENCY, "scale": 0.25}
    if workloads.oltp_point(seed=workloads.DEFAULT_SEED, **kwargs) \
            != compute_point(**kwargs):
        problems.append("oltp_point at the default seed differs from "
                        "fig8 compute_point")
    else:
        print("oltp_point: equals fig8 compute_point at the default seed")

    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main())
