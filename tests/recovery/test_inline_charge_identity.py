"""Inlined charges keep every fault coordinate where it was.

``Engine.advance_inline`` counts each inlined charge as a processed
event, so the global event index — what ``at_event`` fault rules, the
injection log's ``ev=`` column and the conformance kill-points address
— must be exactly the index the posted event would have had. Two real
workloads pin that: a fig10 point under a chaos storm, and a
conformance kill cell (probe run, then kills armed at probed event
indices). Each runs with inlining on and with ``advance_inline``
patched to refuse every charge; the injection log and the result must
be byte-identical.

The same two workloads pin composite charges: run once as is and once
with every :class:`~repro.kernel.effects.Charges` run yielded as
separate charges (the ``separate_charges`` fixture), the injection log
and the result must again be byte-identical.
"""

import json

from repro.experiments import fig10_topo
from repro.fault.injector import FaultInjector
from repro.fault.plan import render_log
from repro.fault.session import ChaosSession
from repro.recovery import conformance
from repro.sim.engine import Engine


def _injection_log(monkeypatch, run):
    """Run ``run()``, returning its result and the injection log of
    every fault injector it armed."""
    injectors = []
    arm = FaultInjector.arm

    def recording_arm(self):
        injectors.append(self)
        return arm(self)

    monkeypatch.setattr(FaultInjector, "arm", recording_arm)
    result = run()
    log = render_log(record for injector in injectors
                     for record in injector.records)
    return json.dumps(result, sort_keys=True), log


def _both_ways(monkeypatch, run):
    """``(inlined, posted)`` outcomes of ``run``."""
    inlined = _injection_log(monkeypatch, run)
    monkeypatch.setattr(Engine, "advance_inline", lambda self, ns: False)
    posted = _injection_log(monkeypatch, run)
    return inlined, posted


def _fig10_chaos_point():
    spec = next(s for s in fig10_topo.points(
        **fig10_topo.Fig10Driver.cli_params(True))
        if (s.kwargs["scenario"], s.kwargs["primitive"],
            s.kwargs["offered_kops"], s.kwargs["rep"])
        == ("chain-4", "dipc", 25.0, 0))
    # seed 10 fires both a grant revocation and a kill at this point
    with ChaosSession(seed=10):
        return fig10_topo.compute_point(**dict(spec.kwargs))


def _conformance_kill_cell():
    return conformance.run_cell(phase="midcallee", primitive="dipc",
                                pattern="chain", seed=0)


def test_fig10_chaos_point_is_byte_identical(monkeypatch):
    inlined, posted = _both_ways(monkeypatch, _fig10_chaos_point)
    assert "revoke_grant" in inlined[1] and "kill_process" in inlined[1]
    assert inlined == posted


def test_conformance_kill_cell_is_byte_identical(monkeypatch):
    inlined, posted = _both_ways(monkeypatch, _conformance_kill_cell)
    cell = json.loads(inlined[0])
    assert cell["kill_events"] and cell["findings"] == []
    assert "kill_process" in inlined[1]
    assert inlined == posted


def _composite_and_separate(monkeypatch, separate_charges, run):
    """``(composite, separate)`` outcomes of ``run``."""
    composite = _injection_log(monkeypatch, run)
    separate_charges()
    separate = _injection_log(monkeypatch, run)
    return composite, separate


def test_fig10_chaos_point_is_byte_identical_with_separate_charges(
        monkeypatch, separate_charges):
    composite, separate = _composite_and_separate(
        monkeypatch, separate_charges, _fig10_chaos_point)
    assert "revoke_grant" in composite[1] and "kill_process" in composite[1]
    assert composite == separate


def test_conformance_kill_cell_is_byte_identical_with_separate_charges(
        monkeypatch, separate_charges):
    composite, separate = _composite_and_separate(
        monkeypatch, separate_charges, _conformance_kill_cell)
    assert json.loads(composite[0])["kill_events"]
    assert "kill_process" in composite[1]
    assert composite == separate
