"""Property test: the three ways of draining the engine agree on order.

A random script of ``post``, ``post_at`` (drawn from a few absolute
timestamps, so ties are common), ``cancel`` and cancel bursts large
enough to trigger the lazy prune is played against a fresh engine
three times: under ``run()``, under repeated ``step()``, and under
``_run_controlled`` with a controller that always picks 0; a fourth
pass drains it in short ``run(until_ns=..., max_events=2)`` slices,
so the clamp path that skips cancelled heads runs between callbacks. Every fired
callback consumes the next script op, so callbacks post and cancel
while the queue drains. All three must fire the same callbacks in the
same order, and the cancelled-event count must stay exact throughout.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

#: ops applied before the engine starts; the rest run from callbacks
_PRELUDE = 6
#: events posted by one flood op: enough to pass the 64-entry prune floor
_FLOOD = 70

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("post"), st.sampled_from([0, 0, 1, 2, 5])),
        st.tuples(st.just("post_at"), st.sampled_from([0, 3, 3, 3, 7, 10])),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("flood"), st.integers(0, 3)),
        st.tuples(st.just("burst"), st.integers(0, 2)),
    ),
    min_size=1, max_size=40)


class _AlwaysFirst:
    """Baseline schedule: every tie-break takes the lowest seq."""

    def choose(self, kind, n):
        return 0


def _bookkeeping_exact(engine):
    return sum(1 for entry in engine._queue if entry[2].cancelled) \
        == engine._cancelled_in_queue


def _play(script, drive):
    engine = Engine()
    fired = []
    handles = []
    ops = iter(script)

    def callback(label):
        def fn():
            assert _bookkeeping_exact(engine)
            fired.append((label, engine.now()))
            for op in islice(ops, 1):
                apply(op)
        return fn

    def apply(op):
        kind, arg = op
        if kind == "post":
            handles.append(engine.post(arg, callback(len(handles))))
        elif kind == "post_at":
            at = max(arg, engine.now())
            handles.append(engine.post_at(at, callback(len(handles))))
        elif kind == "cancel" and handles:
            engine.cancel(handles[arg % len(handles)])
        elif kind == "flood":
            for i in range(_FLOOD):
                handles.append(engine.post((i + arg) % 4,
                                           callback(len(handles))))
        elif kind == "burst":             # two in three: past the prune bar
            for i, event in enumerate(handles):
                if i % 3 != arg:
                    engine.cancel(event)
        assert _bookkeeping_exact(engine)

    for op in islice(ops, _PRELUDE):
        apply(op)
    drive(engine)
    assert _bookkeeping_exact(engine)
    assert engine.pending() == 0
    return fired, engine.events_processed


def _run(engine):
    engine.run()


def _step(engine):
    while engine.step():
        pass


def _controlled(engine):
    engine.controller = _AlwaysFirst()
    engine.run()


def _sliced(engine):
    for _ in range(10_000):
        if not engine.pending():
            return
        engine.run(until_ns=engine.now() + 2, max_events=2)


@settings(max_examples=200, deadline=None)
@given(script=ops_strategy)
def test_run_step_and_baseline_schedule_fire_the_same_order(script):
    expected = _play(script, _run)
    assert _play(script, _step) == expected
    assert _play(script, _controlled) == expected
    assert _play(script, _sliced) == expected
