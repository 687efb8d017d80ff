"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now() == 0.0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.post(30, lambda: fired.append("c"))
    engine.post(10, lambda: fired.append("a"))
    engine.post(20, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_posting_order():
    engine = Engine()
    fired = []
    for name in "abcde":
        engine.post(5, lambda n=name: fired.append(n))
    engine.run()
    assert fired == list("abcde")


def test_posting_order_alone_breaks_ties():
    # the tie-break is the posting counter alone: it holds across
    # post/post_at and for events recycled through the freelist
    engine = Engine()
    engine.post_at(1.0, lambda: None)
    engine.run()
    fired = []
    engine.post(4.0, lambda: fired.append("a"))
    engine.post_at(5.0, lambda: fired.append("b"))
    engine.post(4.0, lambda: fired.append("c"))
    engine.run()
    assert fired == list("abc")


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.post(42.5, lambda: seen.append(engine.now()))
    engine.run()
    assert seen == [42.5]
    assert engine.now() == 42.5


def test_post_during_run_is_processed():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.post(5, lambda: fired.append("second"))

    engine.post(10, first)
    engine.run()
    assert fired == ["first", "second"]
    assert engine.now() == 15


def test_cancel_prevents_firing():
    engine = Engine()
    fired = []
    event = engine.post(10, lambda: fired.append("x"))
    engine.post(5, lambda: engine.cancel(event))
    engine.run()
    assert fired == []


def test_cancel_twice_is_harmless():
    engine = Engine()
    event = engine.post(10, lambda: None)
    engine.cancel(event)
    engine.cancel(event)
    engine.run()


def test_run_until_stops_and_advances_clock():
    engine = Engine()
    fired = []
    engine.post(10, lambda: fired.append("early"))
    engine.post(100, lambda: fired.append("late"))
    engine.run(until_ns=50)
    assert fired == ["early"]
    assert engine.now() == 50
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_queue_drains():
    engine = Engine()
    engine.post(10, lambda: None)
    engine.run(until_ns=1000)
    assert engine.now() == 1000


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.post(-1, lambda: None)


def test_post_at_in_past_rejected():
    engine = Engine()
    engine.post(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.post_at(5, lambda: None)


def test_pending_counts_only_live_events():
    engine = Engine()
    keep = engine.post(10, lambda: None)
    drop = engine.post(20, lambda: None)
    engine.cancel(drop)
    assert engine.pending() == 1
    assert keep is not drop


def test_max_events_budget():
    engine = Engine()
    fired = []
    for i in range(5):
        engine.post(i + 1, lambda i=i: fired.append(i))
    engine.run(max_events=2)
    assert fired == [0, 1]


def test_step_returns_false_on_empty_queue():
    assert Engine().step() is False


def test_events_processed_counter():
    engine = Engine()
    for i in range(3):
        engine.post(i, lambda: None)
    engine.run()
    assert engine.events_processed == 3


def test_run_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.post(1, reenter)
    engine.run()
    assert len(errors) == 1


def test_max_events_does_not_skip_clock_past_pending_work():
    # A max_events stop must not advance the clock to until_ns when
    # events before until_ns are still queued — resuming would otherwise
    # fire them "in the past".
    engine = Engine()
    fired = []
    for i in range(4):
        engine.post(10 * (i + 1), lambda i=i: fired.append(i))
    engine.run(until_ns=100, max_events=2)
    assert fired == [0, 1]
    assert engine.now() == 30  # clamped to the next pending event (t=30)
    engine.run(until_ns=100)
    assert fired == [0, 1, 2, 3]
    assert engine.now() == 100


def test_max_events_with_until_advances_when_queue_drains():
    engine = Engine()
    engine.post(10, lambda: None)
    engine.run(until_ns=500, max_events=5)
    assert engine.now() == 500


def test_run_until_skips_cancelled_head_when_advancing():
    engine = Engine()
    dead = engine.post(20, lambda: None)
    engine.post(80, lambda: None)
    engine.cancel(dead)
    engine.run(until_ns=50, max_events=0)
    # the cancelled event at t=20 must not pin the clock
    assert engine.now() == 50


def test_cancel_after_fire_is_harmless():
    engine = Engine()
    fired = []
    event = engine.post(5, lambda: fired.append("x"))
    engine.run()
    engine.cancel(event)  # too late; must not corrupt bookkeeping
    assert fired == ["x"]
    assert engine.pending() == 0
    engine.post(1, lambda: None)
    assert engine.pending() == 1


def test_pending_is_exact_under_heavy_cancellation():
    engine = Engine()
    events = [engine.post(i + 1, lambda: None) for i in range(200)]
    for event in events[::2]:
        engine.cancel(event)
    assert engine.pending() == 100
    engine.run()
    assert engine.events_processed == 100


def test_prune_shrinks_internal_queue():
    engine = Engine()
    events = [engine.post(i + 1, lambda: None) for i in range(128)]
    for event in events[:100]:
        engine.cancel(event)
    # >half cancelled on a >=64-entry queue triggers the lazy prune
    assert len(engine._queue) < 128
    assert engine.pending() == 28
    fired = []
    engine.post(1000, lambda: fired.append("tail"))
    engine.run()
    assert fired == ["tail"]
    assert engine.events_processed == 29


# -- hot-path hardening: handles, bookkeeping, clamp interleaving -----------

def _bookkeeping_exact(engine):
    return sum(1 for entry in engine._queue if entry[2].cancelled) \
        == engine._cancelled_in_queue


def test_clamp_cancel_interleaving():
    """_next_live_time, run(), step() and _prune() share the cancelled-
    event accounting; interleaving them must keep it exact."""
    engine = Engine()
    fired = []
    events = [engine.post(10 * (i + 1), lambda i=i: fired.append(i))
              for i in range(40)]
    for event in events[:5]:          # cancel the whole leading edge
        engine.cancel(event)
    engine.run(until_ns=5, max_events=0)   # clamp discards dead heads
    assert engine.now() == 5
    assert _bookkeeping_exact(engine)
    assert engine.pending() == 35
    engine.run(max_events=3)               # fire 5..7 (t=60..80)
    assert fired == [5, 6, 7]
    for event in events[10:30]:            # cancel a mid-queue band
        engine.cancel(event)
    assert _bookkeeping_exact(engine)
    engine.run(until_ns=95, max_events=0)  # clamp again: head t=90 live
    assert engine.now() == 90
    assert engine.step()                   # fires 8 (t=90)
    assert fired == [5, 6, 7, 8]
    for event in events[30:]:              # push past the prune threshold
        engine.cancel(event)
    assert _bookkeeping_exact(engine)
    engine.run(until_ns=10_000)
    assert fired == [5, 6, 7, 8, 9]
    assert engine.pending() == 0
    assert _bookkeeping_exact(engine)


def test_callback_triggered_prune_does_not_stall_run():
    """A callback may cancel enough events to trigger _prune() while
    run() is mid-loop; the rebuilt heap must keep draining."""
    engine = Engine()
    fired = []
    victims = [engine.post(50 + i, lambda: fired.append("victim"))
               for i in range(100)]

    def massacre():
        fired.append("massacre")
        for event in victims:
            engine.cancel(event)

    engine.post(1, massacre)
    engine.post(200, lambda: fired.append("tail"))
    engine.run()
    assert fired == ["massacre", "tail"]
    assert engine.pending() == 0
    assert _bookkeeping_exact(engine)


def test_held_handles_are_never_recycled():
    engine = Engine()
    held = [engine.post(i + 1, lambda: None) for i in range(20)]
    engine.run()
    assert len({id(e) for e in held}) == len(held)   # distinct objects
    assert all(e.popped for e in held)
    later = engine.post(1, lambda: None)
    for event in held:                     # cancelling late is a no-op
        engine.cancel(event)
    assert not any(e.cancelled for e in held)
    assert not later.cancelled
    assert engine.pending() == 1
    assert _bookkeeping_exact(engine)


def test_stale_cancel_cannot_kill_a_recycled_event():
    """A handle kept after its event fired must stay inert even once
    the freelist is in play and new events are being scheduled."""
    engine = Engine()
    fired = []
    stale = engine.post(1, lambda: fired.append("old"))
    engine.post(2, lambda: fired.append("churn"))   # unheld -> recyclable
    engine.run()
    fresh = engine.post(5, lambda: fired.append("new"))
    engine.cancel(stale)                   # must be a no-op
    assert not fresh.cancelled
    engine.run()
    assert fired == ["old", "churn", "new"]
    assert _bookkeeping_exact(engine)


def test_recycled_event_reuse_preserves_order_and_identity():
    engine = Engine()
    fired = []

    def burst(tag, n):
        for i in range(n):
            engine.post(float(i), lambda t=tag, i=i: fired.append((t, i)))

    burst("a", 50)
    engine.run()
    burst("b", 50)                         # reuses pooled events
    engine.run()
    assert fired == [("a", i) for i in range(50)] \
        + [("b", i) for i in range(50)]


# -- advance_inline: every refusal, and the exact step when it accepts ------

def _inline_from_callback(engine, ns, *, at=10.0, **run_kwargs):
    """Call ``advance_inline(ns)`` from inside an event at ``at``;
    returns ``(accepted, now, events_processed)`` seen right after."""
    seen = []

    def fn():
        accepted = engine.advance_inline(ns)
        seen.append((accepted, engine.now(), engine.events_processed))

    engine.post_at(at, fn)
    engine.run(**run_kwargs)
    return seen[0]


def test_advance_inline_accepts_and_steps_exactly_once():
    engine = Engine()
    engine.post_at(100.0, lambda: None)
    assert _inline_from_callback(engine, 5.0) == (True, 15.0, 2)
    # the later event still fires, and counts after the inlined one
    assert engine.events_processed == 3
    assert engine.now() == 100.0


def test_advance_inline_refuses_a_head_at_exactly_now_plus_ns():
    engine = Engine()
    engine.post_at(15.0, lambda: None)
    assert _inline_from_callback(engine, 5.0) == (False, 10.0, 1)


def test_advance_inline_refuses_a_cancelled_head_before_now_plus_ns():
    engine = Engine()
    engine.cancel(engine.post_at(12.0, lambda: None))
    assert _inline_from_callback(engine, 5.0) == (False, 10.0, 1)


def test_advance_inline_refuses_a_count_trigger_at_the_next_index():
    engine = Engine()
    engine.at_event_count(2, lambda: None)
    assert _inline_from_callback(engine, 5.0) == (False, 10.0, 1)


def test_advance_inline_refuses_the_running_event_s_own_trigger():
    # the trigger for the event now running has not fired yet
    engine = Engine()
    engine.at_event_count(1, lambda: None)
    assert _inline_from_callback(engine, 5.0) == (False, 10.0, 1)


def test_advance_inline_accepts_a_later_count_trigger():
    engine = Engine()
    fired = []
    engine.at_event_count(3, lambda: fired.append(engine.events_processed))
    assert _inline_from_callback(engine, 5.0) == (True, 15.0, 2)
    assert fired == []


def test_advance_inline_refuses_past_until_ns():
    engine = Engine()
    assert _inline_from_callback(engine, 5.0, until_ns=14.0) \
        == (False, 10.0, 1)
    engine = Engine()
    assert _inline_from_callback(engine, 5.0, until_ns=15.0) \
        == (True, 15.0, 2)


def test_advance_inline_refuses_in_a_max_events_run():
    engine = Engine()
    assert _inline_from_callback(engine, 5.0, max_events=10) \
        == (False, 10.0, 1)


def test_advance_inline_refuses_outside_run_and_under_step():
    engine = Engine()
    assert engine.advance_inline(5.0) is False
    assert (engine.now(), engine.events_processed) == (0.0, 0)
    seen = []
    engine.post(1.0, lambda: seen.append(engine.advance_inline(5.0)))
    assert engine.step()
    assert seen == [False]
    assert (engine.now(), engine.events_processed) == (1.0, 1)
    # a finished run() closes the window again
    engine.run()
    assert engine.advance_inline(5.0) is False


def test_advance_inline_works_under_a_controller():
    engine = Engine()
    engine.controller = _BaselineController()
    engine.post_at(100.0, lambda: None)
    assert _inline_from_callback(engine, 5.0) == (True, 15.0, 2)


class _BaselineController:
    def choose(self, kind, n):
        return 0
