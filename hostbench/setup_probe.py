"""One set-up sample for ``setup_s``: import the program and build one
workload's points, then print ``ready``. ``run.py`` starts this in a
fresh interpreter and times it from start to that line.

    python3 hostbench/setup_probe.py <workload> <seed>
"""

import sys

import run

run.bootstrap()

import workloads  # noqa: E402  (needs the program on sys.path)

workloads.plan(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
