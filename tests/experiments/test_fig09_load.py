"""fig09_load: decomposition, rendering, and the dIPC-wins verdict."""

import json

from repro import units
from repro.experiments import fig09_load
from repro.load.transports import PRIMITIVES
from repro.runner.points import execute_spec


def _cheap_specs():
    return fig09_load.points(open_rungs=(400.0, 1600.0, 4800.0),
                             closed_clients=(4,),
                             window_ns=1.0 * units.MS,
                             warmup_ns=0.5 * units.MS)


def test_points_cover_every_primitive_and_are_json_safe():
    specs = _cheap_specs()
    assert len(specs) == len(PRIMITIVES) * (3 + 1)
    for spec in specs:
        assert spec.driver == "fig9"
        json.dumps(spec.kwargs)  # cache-key contract
    assert {s.kwargs["primitive"] for s in specs} == set(PRIMITIVES)


def test_assembled_report_shows_curves_and_dipc_saturates_last():
    specs = _cheap_specs()
    report = fig09_load.assemble(specs,
                                 [execute_spec(s) for s in specs])
    for primitive in PRIMITIVES:
        assert f"-- {primitive} " in report
    for column in ("offered[kops]", "tput[kops]", "goodput",
                   "p50[us]", "p95[us]", "p99[us]"):
        assert column in report
    assert "saturation knees" in report
    assert "Closed loop" in report
    # the headline claim: dIPC's knee strictly above every baseline
    assert "dIPC saturates above every baseline: PASS" in report


def test_knees_pick_highest_goodput_rung():
    rows = {"pipe": [
        {"offered_kops": 400.0, "goodput_ratio": 1.0},
        {"offered_kops": 800.0, "goodput_ratio": 0.95},
        {"offered_kops": 1600.0, "goodput_ratio": 0.5},
    ], "dipc": [
        {"offered_kops": 400.0, "goodput_ratio": 0.2},
    ]}
    knees = fig09_load.knees(rows)
    assert knees["pipe"] == 800.0
    assert knees["dipc"] == 0.0  # overloaded even at the lowest rung


def _synthetic_row(spec, completed):
    latency = 5_000.0 if completed else 0.0
    return {"offered_kops": spec.kwargs.get("offered_kops", 0.0),
            "n_clients": spec.kwargs.get("n_clients", 0),
            "completed": completed, "shed": 0 if completed else 9,
            "failed": 0 if completed else 2,
            "throughput_kops": 25.0 if completed else 0.0,
            "goodput_ratio": 1.0 if completed else 0.0,
            "p50_ns": latency, "p95_ns": latency, "p99_ns": latency,
            "p999_ns": latency}


def test_a_point_that_completed_nothing_prints_collapsed():
    specs = _cheap_specs()
    rows = [_synthetic_row(spec, 0 if spec.kwargs["primitive"] == "pipe"
                           else 40) for spec in specs]
    report = fig09_load.assemble(specs, rows)
    lines = report.splitlines()
    start = lines.index(next(line for line in lines
                             if line.startswith("-- pipe ")))
    open_rows = lines[start + 2:start + 5]
    closed_row = next(line for line in lines if line.startswith("pipe "))
    for line in open_rows + [closed_row]:
        assert line.endswith("  collapsed (shed 9, failed 2)"), line
    dipc_row = next(line for line in lines if line.startswith("dipc "))
    assert dipc_row.endswith("5.0      5.0       5.0")
