"""Property test: a composite charge is indistinguishable from its blocks
yielded one by one.

A :class:`~repro.kernel.effects.Charges` run is charged from the
scheduler's per-thread queue, one ``_do_charge`` call and one event per
block, without resuming the generator between blocks. A kill or an
injected exception that would have landed between two blocks drops the
rest of the run and is thrown at the run's ``yield``; a timeslice-split
remainder still runs first.

A random script of threads on 2 CPUs, under a short timeslice with
CPU0 contended so that blocks split, runs once with separate
``Charge``s to count its events. Count triggers are armed at some of
those indices — each kills a thread, injects an exception into it or
wakes it — and the script runs twice more: yielding each run as one
``Charges``, and as separate ``Charge``s. Per-thread logs, results and
exceptions, CPU breakdowns, ``events_processed``, the clock, the
trigger firing order and the interleaving of all threads' ops must
agree.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.costs import CostModel
from repro.hw.machine import Machine
from repro.kernel import Kernel
from repro.kernel.effects import Charge, Charges
from repro.sim.stats import Block

_N_THREADS = 4
_TIMESLICE = 300.0

block_strategy = st.tuples(
    st.sampled_from([0.0, 3.0, 40.0, 150.0, 250.0]),
    st.sampled_from([Block.USER, Block.KERNEL, Block.SYSCALL]))

op_strategy = st.one_of(
    st.tuples(st.just("run"), st.lists(block_strategy, min_size=1,
                                       max_size=4)),
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
                  st.lists(op_strategy, max_size=10)),
        min_size=1, max_size=_N_THREADS),
    "until_ns": st.sampled_from([None, None, 1500.0]),
    "jitter": st.sampled_from([0.0, 0.2]),
})


class _Injected(Exception):
    """The exception a trigger injects; bodies catch it and go on."""


def _play(script, triggers=(), *, composite):
    costs = replace(CostModel.default(), TIMESLICE=_TIMESLICE,
                    JITTER=script["jitter"])
    kernel = Kernel(Machine(2, costs=costs))
    engine = kernel.engine
    threads = []
    order = []      # every thread's ops, as they complete

    def body_for(ops):
        def body(t):
            log = []
            for op, arg in ops:
                try:
                    if op == "run" and composite:
                        yield Charges(arg)
                    elif op == "run":
                        for ns, block in arg:
                            yield Charge(ns, block)
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
                except _Injected:
                    log.append(("injected", t.now(),
                                engine.events_processed))
                    continue
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
            thread = threads[target % len(threads)]
            fired.append((count, engine.events_processed, engine.now(),
                          len(order), thread.state))
            if action == "wake":
                kernel.wake(thread)
            elif action == "inject":
                if not thread.is_done:
                    thread.pending_exception = _Injected("injected")
                    kernel.wake(thread)
            else:
                kernel.kill_process(thread.process)
        engine.at_event_count(count, fire)

    kernel.run(until_ns=script["until_ns"])
    return {
        "threads": [(t.state, t.result, repr(t.exception))
                    for t in threads],
        "cpus": [dict(cpu.account.ns) for cpu in kernel.machine.cpus],
        "billed": [t.process.cpu_ns for t in threads],
        "events": engine.events_processed,
        "now": engine.now(),
        "fired": fired,
        "order": order,
        "preemptions": kernel.scheduler.preemptions,
    }


@settings(max_examples=200, deadline=None)
@given(script=script_strategy, data=st.data())
def test_a_charges_run_is_indistinguishable_from_its_blocks(script, data):
    events = _play(script, composite=False)["events"]
    triggers = []
    if events:
        picks = data.draw(st.lists(st.integers(1, events), max_size=3,
                                   unique=True))
        triggers = [(count,
                     data.draw(st.sampled_from(["kill", "inject", "wake"])),
                     data.draw(st.integers(0, _N_THREADS - 1)))
                    for count in picks]
    composite = _play(script, triggers, composite=True)
    separate = _play(script, triggers, composite=False)
    assert composite == separate


def _busy_script():
    runs = [(150.0, Block.USER), (250.0, Block.KERNEL),
            (40.0, Block.SYSCALL), (250.0, Block.USER)]
    return {
        "threads": [
            (0, [("run", runs), ("run", runs), ("syscall", 20.0)]),
            (0, [("run", runs), ("block", 0), ("run", runs)]),
            (None, [("run", runs[:2]), ("sleep", 500.0), ("wake", 1),
                    ("run", runs)]),
        ],
        "until_ns": None, "jitter": 0.0,
    }


def _mid_run_count(script):
    """The first event index at which an injection lands between two
    blocks of thread t0's first run (the body catches it there)."""
    for count in range(1, 40):
        hit = _play(script, [(count, "inject", 0)], composite=True)
        state, log, exception = hit["threads"][0]
        if exception == "None" and log[0][0] == "injected":
            return count
    raise AssertionError("no event index lands inside the first run")


@pytest.mark.parametrize("action", ["kill", "inject"])
def test_a_trigger_between_two_blocks_drops_the_rest_of_the_run(action):
    script = _busy_script()
    plain = _play(script, composite=True)
    assert plain["preemptions"] > 0
    count = _mid_run_count(script)
    hit = _play(script, [(count, action, 0)], composite=True)
    assert hit == _play(script, [(count, action, 0)], composite=False)
    assert hit["fired"][0][-1] == "running"
    # the blocks left in the run were never charged to t0's process
    assert 0 < hit["billed"][0] < plain["billed"][0]
    if action == "kill":
        assert hit["threads"][0][:2] == ("done", None)


def test_charges_validate_once_on_construction():
    run = Charges([(3.0, Block.USER), (4.0, 4)])
    assert run == ((3.0, Block.USER), (4.0, Block.KERNEL))
    with pytest.raises(ValueError):
        Charges([(1.0, Block.USER), (-1.0, Block.USER)])
    with pytest.raises(ValueError):
        Charges([])
    with pytest.raises(ValueError):
        Charges([(1.0, 999)])
