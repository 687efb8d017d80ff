"""Regenerate ``references.json``: the per-point result digests the
gate compares against, for the digest-gated workloads and every
reference seed. Run from the root of a checkout, only when a change is
meant to alter simulated results, and say so where the change is
described:

    python3 hostbench/make_references.py
"""

from __future__ import annotations

import json
import sys

import run

#: besides the default and the held-out seed, the seeds a ten-run
#: steadiness check draws
CHECK_SEEDS = tuple(range(16))
#: storm is gated on audits, conformance and reruns, never on digests
GATED = ("oltp", "topo", "load")


def main() -> int:
    run.bootstrap()
    import workloads
    seeds = sorted(set(CHECK_SEEDS) | {workloads.DEFAULT_SEED,
                                       workloads.HELD_OUT_SEED})
    references = {}
    for name in GATED:
        references[name] = {}
        for seed in seeds:
            result = workloads.run_pass(workloads.plan(name, seed))
            if result.errors:
                print(f"{name} seed {seed}: {result.errors}",
                      file=sys.stderr)
                return 1
            references[name][str(seed)] = result.digests
            print(f"{name} seed {seed}: {len(result.digests)} points",
                  flush=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
