"""fig12_bracket: point structure, dispatch, and the assembled report."""

import json

from repro import units
from repro.experiments import fig12_bracket
from repro.runner.points import execute_spec


def _cheap_specs():
    return fig12_bracket.points(rungs=(800.0,), scenarios=("chain-4",),
                                reps=2, window_ns=0.6 * units.MS,
                                warmup_ns=0.3 * units.MS)


def test_points_split_into_load_and_chain_parts():
    specs = _cheap_specs()
    for spec in specs:
        assert spec.driver == "fig12"
        json.dumps(spec.kwargs)  # cache-key contract
    load = [s for s in specs if s.kwargs["part"] == "load"]
    chain = [s for s in specs if s.kwargs["part"] == "chain"]
    assert {s.kwargs["primitive"] for s in load} == \
        set(fig12_bracket._bracket())
    assert {s.kwargs["primitive"] for s in chain} == \
        set(fig12_bracket._chain_members())
    # Part A sweeps requests big enough to exercise the DMA offload
    assert all(s.kwargs["req_size"] == fig12_bracket.REQ_SIZE
               for s in load)
    assert fig12_bracket.REQ_SIZE >= 16384


def test_chain_rep_seeds_differ():
    specs = [s for s in _cheap_specs() if s.kwargs["part"] == "chain"]
    seeds = {s.kwargs["rep"]: s.kwargs["seed"] for s in specs}
    assert len(set(seeds.values())) == 2


def test_assembled_report_has_both_parts_and_verdicts():
    specs = _cheap_specs()
    report = fig12_bracket.assemble(specs,
                                    [execute_spec(s) for s in specs])
    assert "Part A: open-loop sweep" in report
    assert "Part B: chain compounding" in report
    assert "saturation knees" in report
    for primitive in fig12_bracket._bracket():
        assert f"-- {primitive} " in report
    # a single shallow scenario cannot satisfy the depth floor: the
    # verdict machinery must say so rather than crash or pass vacuously
    for headline in ("dIPC", "dpti", "odIPC"):
        assert (f"{headline} compounding: FAIL (no scenario of depth "
                in report)


def _synthetic(spec, completed, p50_ns):
    return {"offered_kops": spec.kwargs["offered_kops"],
            "completed": completed, "shed": 0,
            "failed": 0 if completed else 5,
            "throughput_kops": 1.0, "goodput_ratio": 1.0,
            "p50_ns": p50_ns if completed else 0.0,
            "p99_ns": p50_ns if completed else 0.0,
            "p999_ns": p50_ns if completed else 0.0}


def test_part_b_renders_collapsed_cells_and_single_rep_speedups():
    specs = fig12_bracket.points(rungs=(800.0,), scenarios=("chain-9",),
                                 reps=2)

    def row(spec):
        primitive = spec.kwargs["primitive"]
        if spec.kwargs["part"] == "load":
            return _synthetic(spec, 10, 5_000.0)
        if primitive == "dipc":
            return _synthetic(spec, 0, 0.0)         # collapsed
        if primitive == "socket" and spec.kwargs["rep"] == 1:
            return _synthetic(spec, 0, 0.0)         # one rep collapsed
        return _synthetic(spec, 10, 50_000.0 if primitive == "socket"
                          else 5_000.0)

    report = fig12_bracket.assemble(specs, [row(s) for s in specs])
    chain = next(line for line in report.splitlines()
                 if line.startswith("chain-9 "))
    # socket's mean is its one completed rep, not (50 + 0) / 2
    assert "50.0 (1 rep)" in chain
    assert "collapsed" in chain
    assert "  chain-9 dipc: collapsed (shed 0, failed 10)" in report
    # a collapsed subject makes no speedup claim; a one-pair one says so
    assert "dIPC compounding: FAIL (no scenario of depth >= 8" in report
    assert "odIPC compounding: PASS (chain-9, depth 8: 10.0x (1 rep) " \
        in report
    assert "+- 0.0" not in report


def test_part_a_prints_collapsed_for_a_point_that_completed_nothing():
    specs = fig12_bracket.points(rungs=(800.0,), scenarios=("chain-9",),
                                 reps=2)

    def row(spec):
        if spec.kwargs["part"] == "load" \
                and spec.kwargs["primitive"] == "dpti":
            return _synthetic(spec, 0, 0.0)
        return _synthetic(spec, 10, 5_000.0)

    report = fig12_bracket.assemble(specs, [row(s) for s in specs])
    lines = report.splitlines()
    start = lines.index(next(line for line in lines
                             if line.startswith("-- dpti ")))
    assert lines[start + 2].endswith("  collapsed (shed 0, failed 5)")
    assert "     0.0" not in lines[start + 2]
    dipc = lines.index(next(line for line in lines
                            if line.startswith("-- dipc ")))
    assert lines[dipc + 2].endswith("      5.0      5.0       5.0")
