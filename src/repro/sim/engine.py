"""Discrete-event simulation engine.

The engine owns the global simulated clock (nanoseconds, float) and a
priority queue of timestamped callbacks. Everything above it — CPUs,
scheduler, IPC blocking, disk I/O — is expressed as events posted here.

Determinism: events at equal timestamps fire in posting order (a
monotonically increasing sequence number breaks ties, and nothing else
does), so simulations are fully reproducible. Only an installed
schedule controller (``repro.check``) reorders ties, and it records
each choice.

Hot-path notes (``benchmarks/test_engine_micro.py`` keeps the floor):

* the heap holds ``(time, seq, event)`` tuples, so ``heapq`` orders
  entries by comparing a float and an int in C; ``seq`` is unique, so
  a comparison never reaches the :class:`Event`, which is only the
  cancel handle;
* :meth:`Engine.run` inlines the pop/fire loop (no per-event
  :meth:`step` call) and skips the count-trigger heap peek entirely
  while no triggers are armed;
* every posted event is a fresh :class:`Event`, and a popped one only
  drops its callback, so a stale handle can never alias a new event;
* :meth:`Engine.advance_inline` lets the scheduler run a thread's
  back-to-back charges without a post/pop round trip when no other
  event, count trigger or stop condition could come first. Each inlined
  step still counts in :attr:`Engine.events_processed`, so the global
  event index (``at_event`` fault rules, conformance kill-points) is
  exactly what the posted event would have produced.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.trace.tracer import NULL_TRACER


class Event:
    """A scheduled callback. Returned by :meth:`Engine.post` for cancelling.

    The engine queues it as ``(time, seq, event)``: ``seq`` is the
    engine-wide posting counter, so same-timestamp events fire in
    posting order.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "popped")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.popped = False

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.1f} seq={self.seq} {state}>"


class Engine:
    """Event queue + simulated clock."""

    def __init__(self):
        #: heap of (time, seq, event) entries
        self._queue: list[tuple[float, int, Event]] = []
        self._now = 0.0
        self._seq = 0
        self._running = False
        #: latest time advance_inline() may reach: until_ns (or +inf)
        #: inside an unbudgeted run(), -inf otherwise
        self._inline_until = float("-inf")
        #: cancelled events still sitting in the heap (pruned lazily)
        self._cancelled_in_queue = 0
        self.events_processed = 0
        #: (count, seq, fn) heap fired when events_processed reaches count
        self._count_triggers: list = []
        #: span/counter recorder; NULL_TRACER unless a TraceSession (or a
        #: caller) installs a live repro.trace.Tracer
        self.tracer = NULL_TRACER
        #: schedule-exploration hook (repro.check.ScheduleController);
        #: when set, run() routes through _run_controlled so every
        #: same-timestamp tie-break becomes a recorded decision point.
        #: None keeps the inlined hot loop below completely untouched.
        self.controller = None
        #: zero-arg callable invoked when run() drains the queue with no
        #: live event left; raises DeadlockError if threads are wedged
        #: (installed by Kernel.enable_deadlock_detection)
        self.deadlock_detector = None

    # -- clock --------------------------------------------------------------

    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def post(self, delay_ns: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn()`` to run ``delay_ns`` from now.

        Events that land on the same timestamp fire in the order they
        were posted; nothing else breaks the tie (see :attr:`controller`
        for the schedule-exploration exception).
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot post event in the past ({delay_ns})")
        return self.post_at(self._now + delay_ns, fn)

    def post_at(self, time_ns: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn()`` at absolute simulated time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot post event at {time_ns} before now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time_ns, seq, fn)
        heapq.heappush(self._queue, (time_ns, seq, event))
        return event

    def at_event_count(self, count: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` right after the ``count``-th event executes.

        Used by the fault injector for event-count triggers: unlike a
        timestamped post, the firing point is a position in the
        deterministic event order, so it is invariant under cost-model
        changes. Triggers whose count is never reached simply never fire;
        they do not keep :meth:`run` alive.
        """
        if count <= self.events_processed:
            raise SimulationError(
                f"event-count trigger at {count} already passed "
                f"({self.events_processed} processed)")
        heapq.heappush(self._count_triggers, (count, self._seq, fn))
        self._seq += 1

    def advance_inline(self, ns: float) -> bool:
        """Run a ``post(ns, ...)`` event in place, if that is exact.

        Moves the clock to ``now + ns`` and counts one processed event,
        exactly as popping a freshly posted event would, and returns
        True — the caller then does the event's work itself. Refuses
        (returns False; the caller posts as usual) unless all hold:

        * no heap entry, live or cancelled, is due at or before
          ``now + ns`` (an entry at the same time has a lower ``seq``
          and would fire first);
        * no count trigger is due at ``events_processed + 1`` or
          earlier (that includes one still pending for the event now
          running);
        * ``now + ns`` is within the running :meth:`run`'s ``until_ns``;
        * the engine is inside :meth:`run` with ``max_events=None``
          (:meth:`step` and budgeted runs never inline).

        Tail position only: the caller must have no work left at the
        old ``now`` once this returns True, because that work would
        otherwise run after the clock moved.
        """
        time_ns = self._now + ns
        if time_ns > self._inline_until:
            return False
        queue = self._queue
        if queue and queue[0][0] <= time_ns:
            return False
        count = self.events_processed + 1
        triggers = self._count_triggers
        if triggers and triggers[0][0] <= count:
            return False
        self._now = time_ns
        self.events_processed = count
        return True

    def cancel(self, event: Event) -> None:
        """Cancel a pending event; cancelling twice is harmless.

        Cancelled events stay in the heap until popped, but once they
        outnumber half the queue the heap is rebuilt without them — long
        runs that cancel heavily (timeouts that rarely fire) would
        otherwise grow the queue without bound.
        """
        if event.cancelled or event.popped:
            return
        event.cancelled = True
        self._cancelled_in_queue += 1
        if self._cancelled_in_queue > len(self._queue) // 2 \
                and len(self._queue) >= 64:
            self._prune()

    def _prune(self) -> None:
        """Rebuild the heap without cancelled events.

        The rebuild is in place (slice assignment): ``run()`` holds a
        local alias of the queue list across callbacks, and a callback
        is allowed to cancel enough events to trigger this prune —
        rebinding ``self._queue`` would silently split the two views.
        """
        self._queue[:] = [entry for entry in self._queue
                          if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_queue = 0

    def _pop(self) -> Event:
        """Pop the head entry's event and mark it popped."""
        event = heapq.heappop(self._queue)[2]
        event.popped = True
        if event.cancelled:
            self._cancelled_in_queue -= 1
        return event

    # -- running -------------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event. Returns False if the queue is empty."""
        while self._queue:
            event = self._pop()
            fn = event.fn
            event.fn = None
            if event.cancelled:
                continue
            self._now = event.time
            self.events_processed += 1
            fn()
            while self._count_triggers and \
                    self._count_triggers[0][0] <= self.events_processed:
                _count, _seq, trigger_fn = heapq.heappop(
                    self._count_triggers)
                trigger_fn()
            return True
        return False

    def run(self, until_ns: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the queue, optionally stopping at a time or event budget.

        When ``until_ns`` is given, the clock is advanced toward that
        time on return (even if the queue drained earlier), so
        utilization accounting over a fixed window is well defined. If
        ``max_events`` stops the run first, the clock only advances to
        the next still-pending event — never past work that has yet to
        execute — keeping time monotonic across resumed runs.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        if max_events is None:
            self._inline_until = float("inf") if until_ns is None \
                else until_ns
        try:
            if self.controller is not None:
                self._run_controlled(until_ns, max_events)
                return
            # local aliases for the hot loop; _prune() and
            # at_event_count() mutate these lists in place, never rebind
            queue = self._queue
            triggers = self._count_triggers
            heappop = heapq.heappop
            processed = 0
            while queue:
                if max_events is not None and processed >= max_events:
                    break
                time_ns, _seq, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    event.popped = True
                    event.fn = None
                    self._cancelled_in_queue -= 1
                    continue
                if until_ns is not None and time_ns > until_ns:
                    break
                heappop(queue)
                event.popped = True
                self._now = time_ns
                self.events_processed += 1
                fn = event.fn
                event.fn = None
                fn()
                processed += 1
                if triggers:
                    while triggers and \
                            triggers[0][0] <= self.events_processed:
                        _count, _seq, trigger_fn = heappop(triggers)
                        trigger_fn()
            if until_ns is not None and self._now < until_ns:
                target = until_ns
                head = self._next_live_time()
                if head is not None:
                    target = min(target, head)
                if target > self._now:
                    self._now = target
            self._check_drained()
        finally:
            self._running = False
            self._inline_until = float("-inf")

    def _check_drained(self) -> None:
        """Run the deadlock detector when the queue has fully drained.

        Only a *true* drain counts: after a ``max_events`` or
        ``until_ns`` stop, pending events may still wake blocked
        threads, so the detector stays quiet.
        """
        if self.deadlock_detector is not None \
                and self._next_live_time() is None:
            self.deadlock_detector()

    def _run_controlled(self, until_ns: Optional[float],
                        max_events: Optional[int]) -> None:
        """The :meth:`run` loop with schedule exploration enabled.

        Semantically identical to the inlined hot loop except that when
        several live events share the earliest timestamp, the installed
        controller picks which one fires — every such tie-break is a
        recorded decision point. With a baseline controller (always
        picks 0) the event order is exactly the hot loop's seq order,
        which is what makes schedule 0 reproduce the untouched run.
        """
        queue = self._queue
        triggers = self._count_triggers
        heappop = heapq.heappop
        heappush = heapq.heappush
        controller = self.controller
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            now_ns, _seq, head = queue[0]
            if head.cancelled:
                heappop(queue)
                head.popped = True
                head.fn = None
                self._cancelled_in_queue -= 1
                continue
            if until_ns is not None and now_ns > until_ns:
                break
            # gather every live event at the head timestamp: each is a
            # legal next step under the simulated-time semantics
            batch = [heappop(queue)]
            while queue and queue[0][0] == now_ns:
                entry = heappop(queue)
                event = entry[2]
                if event.cancelled:
                    event.popped = True
                    event.fn = None
                    self._cancelled_in_queue -= 1
                    continue
                batch.append(entry)
            if len(batch) > 1:
                choice = controller.choose("event", len(batch))
                event = batch.pop(choice)[2]
                for other in batch:
                    # the original (time, seq) entry: order stays stable
                    heappush(queue, other)
            else:
                event = batch[0][2]
            event.popped = True
            self._now = now_ns
            self.events_processed += 1
            fn = event.fn
            event.fn = None
            fn()
            processed += 1
            while triggers and triggers[0][0] <= self.events_processed:
                _count, _seq, trigger_fn = heappop(triggers)
                trigger_fn()
        if until_ns is not None and self._now < until_ns:
            target = until_ns
            head_time = self._next_live_time()
            if head_time is not None:
                target = min(target, head_time)
            if target > self._now:
                self._now = target
        self._check_drained()

    def _next_live_time(self) -> Optional[float]:
        """Timestamp of the earliest non-cancelled queued event.

        Discards cancelled heads through the same ``_pop`` path as
        ``step()``, so ``_cancelled_in_queue`` stays exact no matter how
        often the clamp path re-enters here between cancels and prunes
        (see
        ``tests/sim/test_engine.py::test_clamp_cancel_interleaving``).
        """
        while self._queue:
            time_ns, _seq, head = self._queue[0]
            if head.cancelled:
                self._pop().fn = None
                continue
            return time_ns
        return None

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return len(self._queue) - self._cancelled_in_queue

    def __repr__(self) -> str:
        return f"<Engine now={self._now:.1f} pending={self.pending()}>"
