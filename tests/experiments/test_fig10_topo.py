"""fig10_topo: decomposition, rendering, and the compounding verdict."""

import json

from repro import units
from repro.experiments import fig10_topo
from repro.load.transports import PRIMITIVES
from repro.runner.points import execute_spec


def _cheap_specs():
    return fig10_topo.points(scenarios=("chain-4", "chain-9"),
                             rungs=(50.0,), reps=2,
                             window_ns=0.6 * units.MS,
                             warmup_ns=0.3 * units.MS)


def test_points_embed_the_topology_and_are_json_safe():
    specs = _cheap_specs()
    assert len(specs) == 2 * len(PRIMITIVES) * 1 * 2
    for spec in specs:
        assert spec.driver == "fig10"
        json.dumps(spec.kwargs)  # cache-key contract
        assert spec.kwargs["topo"]["pattern"] == "chain_branch"
    scenarios = {s.kwargs["scenario"] for s in specs}
    assert scenarios == {"chain-4", "chain-9"}
    # the graph itself keys the cache: scenarios differ in their topo
    hashes = {json.dumps(s.kwargs["topo"], sort_keys=True)
              for s in specs}
    assert len(hashes) == 2


def test_rep_seeds_differ_so_cis_measure_real_variance():
    specs = _cheap_specs()
    seeds = {s.kwargs["rep"]: s.kwargs["seed"] for s in specs}
    assert len(set(seeds.values())) == 2


def test_assembled_report_states_the_compounding_verdict():
    specs = _cheap_specs()
    report = fig10_topo.assemble(specs,
                                 [execute_spec(s) for s in specs])
    for column in ("tput[kops]", "goodput", "p50[us]", "p99[us]",
                   "p999[us]"):
        assert column in report
    assert "-- chain-4: chain_branch n=4 depth=3" in report
    assert "-- chain-9: chain_branch n=9 depth=8" in report
    assert "mean +- 95% CI" in report
    assert "end-to-end p50 speedup vs socket" in report
    # chain-9 is depth 8: the >=5x compounding claim must hold there
    assert "dIPC compounding: PASS (chain-9, depth 8:" in report


def test_verdict_fails_without_a_deep_scenario():
    specs = fig10_topo.points(scenarios=("chain-4",), rungs=(50.0,),
                              reps=1, window_ns=0.6 * units.MS,
                              warmup_ns=0.3 * units.MS)
    report = fig10_topo.assemble(specs,
                                 [execute_spec(s) for s in specs])
    assert "dIPC compounding: FAIL (no scenario of depth >= 8" in report


def _synthetic_row(completed, shed=0, failed=0):
    latency = 5_000.0 if completed else 0.0
    return {"completed": completed, "shed": shed, "failed": failed,
            "throughput_kops": 25.0 if completed else 0.0,
            "goodput_ratio": 1.0 if completed else 0.0,
            "p50_ns": latency, "p99_ns": latency, "p999_ns": latency}


def test_a_cell_where_nothing_completed_prints_collapsed():
    specs = fig10_topo.points(scenarios=("chain-4",), rungs=(25.0,),
                              reps=2)
    rows = [_synthetic_row(0, shed=7, failed=2)
            if spec.kwargs["primitive"] == "pipe"
            else _synthetic_row(40) for spec in specs]
    report = fig10_topo.assemble(specs, rows)
    pipe_line = next(line for line in report.splitlines()
                     if line.startswith("pipe "))
    assert pipe_line.endswith("collapsed (shed 14, failed 4)")
    assert "0.0+-0.0" not in report
    dipc_line = next(line for line in report.splitlines()
                     if line.startswith("dipc "))
    assert "collapsed" not in dipc_line
    assert "5.0+-0.0" in dipc_line


def _rows_for(specs, pick):
    """One synthetic row per spec: ``pick(primitive, rep)`` gives the
    rep's completion count (0 = collapsed) and latency in ns."""
    rows = []
    for spec in specs:
        completed, latency = pick(spec.kwargs["primitive"],
                                  spec.kwargs["rep"])
        row = _synthetic_row(completed, failed=0 if completed else 3)
        for field in ("p50_ns", "p99_ns", "p999_ns"):
            row[field] = latency if completed else 0.0
        rows.append(row)
    return rows


def test_collapsed_reps_stay_out_of_latency_means():
    # rep 1 of every dipc cell collapsed: its p50 of 0 is not a latency
    specs = fig10_topo.points(scenarios=("chain-9",), rungs=(25.0,),
                              reps=2)
    rows = _rows_for(specs, lambda primitive, rep:
                     (0, 0.0) if primitive == "dipc" and rep == 1
                     else (40, 8_000.0 if primitive == "dipc"
                           else 50_000.0))
    report = fig10_topo.assemble(specs, rows)
    dipc_line = next(line for line in report.splitlines()
                     if line.startswith("dipc "))
    # the mean is the completed rep's 8.0 us, not (8.0 + 0) / 2
    assert "     8.0 (1 rep)" in dipc_line
    assert "+-" not in dipc_line
    speedup = next(line for line in report.splitlines()
                   if line.startswith("chain-9 "))
    assert "8.00 (1 rep)" in speedup
    assert speedup.endswith("    6.2x (1 rep)")
    assert "dIPC compounding: PASS (chain-9, depth 8: 6.2x (1 rep) " \
        in report


def test_a_collapsed_subject_prints_collapsed_not_a_zero_speedup():
    specs = fig10_topo.points(scenarios=("chain-9",), rungs=(25.0,),
                              reps=2)
    rows = _rows_for(specs, lambda primitive, rep:
                     (0, 0.0) if primitive == "dipc" else (40, 50_000.0))
    report = fig10_topo.assemble(specs, rows)
    speedup = next(line for line in report.splitlines()
                   if line.startswith("chain-9 "))
    assert speedup.endswith("  dipc collapsed (shed 0, failed 6)")
    assert "0.0x" not in report
    # no measured speedup at depth >= 8 is no claim at all
    assert "dIPC compounding: FAIL (no scenario of depth >= 8" in report


def test_speedups_pair_only_reps_where_both_sides_completed():
    base = [_synthetic_row(40), _synthetic_row(0)]
    subject = [_synthetic_row(40), _synthetic_row(40)]
    subject[0]["p50_ns"] = 1_000.0
    assert fig10_topo._speedups(base, subject) == [5.0]
    assert fig10_topo._speedup_text([5.0]) == "5.0x (1 rep)"
    assert fig10_topo._speedup_text([5.0, 5.0]) == "5.0x +- 0.0"
    assert fig10_topo._speedup_text([5.0, 5.0], table=True) \
        == "    5.0x+-0.0 "
