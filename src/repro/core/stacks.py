"""Data stacks for dIPC threads (§5.2.1, §5.2.3).

Each primary thread gets a thread-private data stack, protected by a
synchronous capability. Stack *confidentiality* gives the callee a
separate per-(thread, domain) stack, located (and lazily allocated) by
the proxy; stack *integrity* is implemented in the caller's stub by
minting capabilities over the in-stack arguments and the unused stack
area, revoked on return.

Stacks are recycled the way NPTL caches an exited thread's stack: when
a thread exits, each of its stacks goes to a free list of the process
it lives in, and the next miss in that process takes one from there
instead of mapping fresh pages. The handoff revokes the old guard
capability (and with it everything derived from it) and mints a fresh
one for the new owner.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import units
from repro.codoms.apl import Permission
from repro.codoms.capability import Capability, mint_from_apl
from repro.errors import DipcError

DEFAULT_STACK_PAGES = 4  # 16 KiB per stack


class DataStack:
    """One downward-growing data stack."""

    __slots__ = ("base", "size", "sp", "owner_thread", "guard_cap")

    def __init__(self, base: int, size: int, owner_thread):
        self.base = base
        self.size = size
        self.sp = base + size  # x86 stacks grow down from the top
        self.owner_thread = owner_thread
        #: the thread-private synchronous capability guarding the stack
        self.guard_cap: Optional[Capability] = None

    @property
    def top(self) -> int:
        return self.base + self.size

    def contains(self, pointer: int) -> bool:
        return self.base <= pointer <= self.top

    def push_frame(self, nbytes: int) -> int:
        aligned = units.align_up(nbytes, 16)
        if self.sp - aligned < self.base:
            raise DipcError("data stack overflow")
        self.sp -= aligned
        return self.sp

    def pop_frame(self, nbytes: int) -> None:
        aligned = units.align_up(nbytes, 16)
        if self.sp + aligned > self.top:
            raise DipcError("data stack underflow")
        self.sp += aligned


class StackManager:
    """Allocates, caches and recycles per-(thread, process) stacks."""

    def __init__(self, manager):
        self.manager = manager
        self.kernel = manager.kernel
        self._stacks: Dict[Tuple[int, int], DataStack] = {}
        #: tid -> the processes the thread holds a stack in
        self._held: Dict[int, List[object]] = {}
        #: pid -> stacks released by exited threads, ready for reuse
        self._free: Dict[int, List[DataStack]] = {}
        #: stacks mapped fresh (a reuse does not count)
        self.lazy_allocations = 0
        self.kernel.on_process_kill(self._drop_free)

    def primary_stack(self, thread) -> DataStack:
        """The thread's home stack (created on first dIPC use)."""
        return self.stack_for(thread, thread.process)

    def stack_for(self, thread, process) -> DataStack:
        """Locate — lazily allocating — the stack this thread uses while
        executing inside ``process`` (same mechanism as process tracking,
        §6.1.2)."""
        key = (thread.tid, process.pid)
        stack = self._stacks.get(key)
        if stack is None:
            free = self._free.get(process.pid) if process.alive else None
            if free:
                stack = free.pop()
                stack.sp = stack.top
                stack.owner_thread = thread
            else:
                # a dead process raises DeadProcessError here
                base = process.alloc_pages(DEFAULT_STACK_PAGES)
                stack = DataStack(base, DEFAULT_STACK_PAGES * units.PAGE_SIZE,
                                  thread)
                self.lazy_allocations += 1
            stack.guard_cap = mint_from_apl(
                Permission.WRITE, stack.base, stack.size, Permission.WRITE,
                synchronous=True, owner_thread=thread)
            self._stacks[key] = stack
            held = self._held.get(thread.tid)
            if held is None:
                held = self._held[thread.tid] = []
                thread.on_exit.append(self._release)
            held.append(process)
        return stack

    def _release(self, thread) -> None:
        """``thread.on_exit`` hook: revoke the exited thread's stacks and
        cache them in their processes for the next thread."""
        for process in self._held.pop(thread.tid):
            stack = self._stacks.pop((thread.tid, process.pid))
            stack.guard_cap.revoke()
            stack.owner_thread = None
            if process.alive:
                self._free.setdefault(process.pid, []).append(stack)

    def _drop_free(self, process) -> None:
        """A killed process's cached stacks die with it."""
        self._free.pop(process.pid, None)

    def mint_argument_caps(self, thread,
                           stack: DataStack,
                           arg_bytes: int) -> Tuple[Capability, Capability]:
        """Stack integrity (stub side): one capability for the in-stack
        arguments, one for the unused stack area below them. Both are
        derived from the stack's guard capability so revoking them cannot
        outlive the stack, and both are revoked by deisolate_call."""
        if stack.guard_cap is None:
            raise DipcError("stack has no guard capability")
        arg_bytes = max(arg_bytes, 16)
        # arguments sit at [sp, sp+arg_bytes); the unused area is below sp
        arg_top = min(stack.sp + arg_bytes, stack.top)
        args_cap = stack.guard_cap.derive(
            base=stack.sp, size=max(arg_top - stack.sp, 16),
            perm=Permission.WRITE)
        unused_size = max(stack.sp - stack.base, 16)
        unused_cap = stack.guard_cap.derive(
            base=stack.base, size=min(unused_size, stack.size),
            perm=Permission.WRITE)
        return args_cap, unused_cap
