"""The effect protocol between simulated thread bodies and the scheduler.

A thread body is a Python generator. It ``yield``s effect objects; the
scheduler interprets them, advances simulated time on the thread's CPU,
and resumes the generator with a value when appropriate:

* :class:`Charge` — consume CPU time, attributed to a Figure-2 block;
* :class:`Charges` — several charges back to back, from one resume;
* :class:`BlockThread` — deschedule until someone calls ``thread.wake``;
  the value passed to ``wake`` becomes the result of the ``yield``;
* :class:`YieldCPU` — voluntarily move to the back of the runqueue.

Composite operations (system calls, IPC primitives, dIPC proxies) are
sub-generators used with ``yield from``, so a blocking semaphore wait is
written exactly like straight-line code.

The paper's fast paths are fixed sequences of small cost fragments
(Figure 2's syscall, trampoline and kernel blocks; the proxy steps of
§6.1 and Figure 5). Where such a sequence runs straight through — no
statement between two of its charges reads or writes simulator state —
the body yields it as one :class:`Charges`, built once where its costs
are fixed. The scheduler still charges each block separately (one
``Scheduler._do_charge`` call and one engine event per block), so the
event stream is the same as yielding the blocks one by one; only the
generator resumes between them go. A kill or an injected exception
that would have landed between two blocks drops the rest of the run
and is thrown at the ``yield`` of the :class:`Charges` — the same
statement, since nothing ran in between (DESIGN §8, "Composite
charges").
"""

from __future__ import annotations

from repro.sim.stats import Block


class Charge:
    """Consume ``ns`` of CPU time attributed to ``block``."""

    __slots__ = ("ns", "block")

    def __init__(self, ns: float, block: Block = Block.USER):
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self.ns = ns
        # the enum call is skipped on the hot path, where callers
        # already pass a Block; anything else is still coerced/checked
        self.block = block if block.__class__ is Block else Block(block)

    def __repr__(self) -> str:
        return f"<Charge {self.ns}ns {self.block.name}>"


class Charges(tuple):
    """Charge several Figure-2 blocks back to back from one resume: a
    tuple of ``(ns, Block)`` pairs, validated once on construction.

    Build it once where the costs are fixed (per proxy, per kernel and
    syscall work value) and yield the same object on every call.
    """

    __slots__ = ()

    def __new__(cls, pairs):
        checked = []
        for ns, block in pairs:
            if ns < 0:
                raise ValueError(f"negative charge: {ns}")
            checked.append((ns, block if block.__class__ is Block
                            else Block(block)))
        if not checked:
            raise ValueError("a Charges run needs at least one block")
        return super().__new__(cls, checked)

    def __repr__(self) -> str:
        inner = ", ".join(f"{ns}ns {block.name}" for ns, block in self)
        return f"<Charges {inner}>"


class BlockThread:
    """Deschedule the thread until ``thread.wake(value)`` is called.

    ``reason`` is a debugging label ("futex", "pipe-read", "disk", ...).
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = ""):
        self.reason = reason

    def __repr__(self) -> str:
        return f"<BlockThread {self.reason}>"


class YieldCPU:
    """Voluntarily yield the CPU (sched_yield)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<YieldCPU>"


class Handoff:
    """Block this thread and switch the CPU *directly* to another thread,
    delivering ``value`` — L4's direct thread switch, bypassing the
    general scheduler pass (the reason L4 IPC beats POSIX primitives in
    Figure 2). The target must be blocked and runnable on this CPU."""

    __slots__ = ("to", "value")

    def __init__(self, to, value=None):
        self.to = to
        self.value = value

    def __repr__(self) -> str:
        return f"<Handoff to={self.to.name}>"


def charge_user(ns: float):
    """Sub-generator: consume user time (block 1)."""
    yield Charge(ns, Block.USER)


def charge_kernel(ns: float, block: Block = Block.KERNEL):
    """Sub-generator: consume kernel time."""
    yield Charge(ns, block)
