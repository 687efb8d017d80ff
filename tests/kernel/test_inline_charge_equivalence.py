"""Property test: inlining a thread's charges changes nothing observable.

``Scheduler._do_charge`` runs a charge in place through
``Engine.advance_inline`` when no other event, count trigger or stop
condition could come first, instead of posting an ``_after_charge``
event. Each inlined charge still counts as one processed event, so the
run must be indistinguishable from one where every charge is posted.

A random script of threads on 2 CPUs runs once to find the event
indices that were inlined. Its ops: ``Charge``, a charge that ends
exactly on the timeslice boundary, the three-charge syscall path, timer
sleeps, bare ``BlockThread``, ``YieldCPU``, wakes and process kills,
under a short timeslice so preemption happens. Count triggers
(``Engine.at_event_count``) are then armed at some of those indices —
each wakes or kills a thread — and the script runs twice more: as is,
and with ``Engine.advance_inline`` patched to refuse. Per-thread logs
and results, CPU time breakdowns, ``events_processed``, the final
clock, the trigger firing order and the interleaving of all threads'
ops must all agree.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel
from repro.hw.machine import Machine
from repro.kernel import Kernel
from repro.sim.engine import Engine

_N_THREADS = 4
#: short enough that scripts preempt; charges that end exactly on the
#: slice boundary exercise the after-charge preemption check
_TIMESLICE = 300.0

op_strategy = st.one_of(
    st.tuples(st.just("charge"),
              st.sampled_from([0.0, 3.0, 40.0, 150.0, 250.0, _TIMESLICE])),
    st.tuples(st.just("fill"), st.just(0)),    # charge to the slice end
    st.tuples(st.just("syscall"), st.sampled_from([0.0, 20.0])),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 5.0, 100.0])),
    st.tuples(st.just("block"), st.just(0)),
    st.tuples(st.just("yield"), st.just(0)),
    st.tuples(st.just("wake"), st.integers(0, _N_THREADS - 1)),
    st.tuples(st.just("kill"), st.integers(0, _N_THREADS - 1)),
)

script_strategy = st.fixed_dictionaries({
    "threads": st.lists(
        st.tuples(st.sampled_from([None, 0, 0, 1]),   # pin: CPU0 contended
                  st.lists(op_strategy, max_size=12)),
        min_size=1, max_size=_N_THREADS),
    "until_ns": st.sampled_from([None, None, 300.0, 1500.0]),
    "jitter": st.sampled_from([0.0, 0.2]),
    "controlled": st.booleans(),
})


class _AlwaysFirst:
    """Baseline schedule controller: ``_run_controlled``, seq order."""

    def choose(self, kind, n):
        return 0


def _play(script, triggers=(), *, inline=True):
    """Run ``script``; returns the observable outcome and the event
    indices whose charge ran inline (``inline=False`` patches
    ``Engine.advance_inline`` to refuse every charge)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _play_patched(script, triggers, inline, monkeypatch)


def _play_patched(script, triggers, inline, monkeypatch):
    costs = replace(CostModel.default(), TIMESLICE=_TIMESLICE,
                    JITTER=script["jitter"])
    kernel = Kernel(Machine(2, costs=costs))
    engine = kernel.engine
    if script["controlled"]:
        engine.controller = _AlwaysFirst()
    inlined = []
    if inline:
        advance = Engine.advance_inline

        def recording(self, ns):
            accepted = advance(self, ns)
            if accepted:
                inlined.append(self.events_processed)
            return accepted
        monkeypatch.setattr(Engine, "advance_inline", recording)
    else:
        monkeypatch.setattr(Engine, "advance_inline",
                            lambda self, ns: False)

    threads = []
    order = []      # every thread's ops, as they complete

    def body_for(ops):
        def body(t):
            log = []
            for op, arg in ops:
                if op == "charge":
                    yield t.compute(arg)
                elif op == "fill":
                    yield t.compute(max(0.0, _TIMESLICE - t.slice_used))
                elif op == "syscall":
                    yield from t.syscall(arg)
                elif op == "sleep":
                    yield from t.sleep(arg)
                elif op == "block":
                    yield t.block("script")
                elif op == "yield":
                    yield t.yield_cpu()
                elif op == "wake" and arg < len(threads):
                    kernel.wake(threads[arg], from_thread=t)
                elif op == "kill" and arg < len(threads):
                    kernel.kill_process(threads[arg].process)
                log.append((op, t.now(), engine.events_processed))
                order.append(t.name)
            return log
        return body

    for index, (pin, ops) in enumerate(script["threads"]):
        process = kernel.spawn_process(f"p{index}")
        threads.append(kernel.spawn(process, body_for(ops),
                                    name=f"t{index}", pin=pin))

    fired = []
    for count, action, target in triggers:
        def fire(count=count, action=action, target=target):
            # len(order): how far the threads had got when it fired
            fired.append((count, engine.events_processed, engine.now(),
                          len(order)))
            thread = threads[target % len(threads)]
            if action == "wake":
                kernel.wake(thread)
            else:
                kernel.kill_process(thread.process)
        engine.at_event_count(count, fire)

    kernel.run(until_ns=script["until_ns"])
    outcome = {
        "threads": [(t.state, t.result, repr(t.exception))
                    for t in threads],
        "cpus": [dict(cpu.account.ns) for cpu in kernel.machine.cpus],
        "events": engine.events_processed,
        "now": engine.now(),
        "fired": fired,
        "order": order,
        "preemptions": kernel.scheduler.preemptions,
    }
    return outcome, inlined


@settings(max_examples=200, deadline=None)
@given(script=script_strategy, data=st.data())
def test_inlined_charges_are_indistinguishable_from_posted_ones(
        script, data):
    _, inlined = _play(script)
    triggers = []
    if inlined:
        picks = data.draw(st.lists(st.sampled_from(inlined), max_size=3,
                                   unique=True))
        triggers = [(count, data.draw(st.sampled_from(["wake", "kill"])),
                     data.draw(st.integers(0, _N_THREADS - 1)))
                    for count in picks]
    on, _ = _play(script, triggers)
    off, _ = _play(script, triggers, inline=False)
    assert on == off


def test_a_busy_script_inlines_and_still_matches():
    # a fixed script that exercises every path at once: the property
    # above is only meaningful if charges really do run inline
    script = {
        "threads": [
            (0, [("syscall", 20.0), ("charge", 250.0), ("charge", 250.0),
                 ("sleep", 5.0), ("charge", 40.0), ("wake", 1),
                 ("charge", 3.0)]),
            (0, [("charge", 250.0), ("charge", 50.0), ("block", 0),
                 ("syscall", 0.0), ("yield", 0), ("charge", 40.0)]),
            (None, [("syscall", 20.0), ("syscall", 20.0),
                    ("sleep", 500.0), ("kill", 1), ("charge", 3.0)]),
        ],
        "until_ns": None, "jitter": 0.0, "controlled": False,
    }
    plain, inlined = _play(script)
    assert len(inlined) >= 5
    assert plain["preemptions"] > 0
    triggers = [(inlined[1], "kill", 2), (inlined[-1], "wake", 1)]
    on, _ = _play(script, triggers)
    off, _ = _play(script, triggers, inline=False)
    assert on == off
    assert [fired[0] for fired in on["fired"]] \
        == sorted(count for count, _, _ in triggers)
