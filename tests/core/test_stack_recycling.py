"""Data stacks of exited threads are recycled within their process.

When a thread exits, each of its dIPC data stacks goes to a free list of
the process it lives in; the next thread that misses in that process
takes one from there, reset and guarded by a fresh capability. The old
guard (and every capability derived from it) is revoked at release, and
a dead process never hands out a cached stack.
"""

import pytest

from repro.core.policies import IsolationPolicy
from repro.errors import DeadProcessError

from tests.core.conftest import wire_up_call


def _idle(t):
    yield t.compute(1)


def _exit(kernel, process, body=_idle):
    """Spawn a thread in ``process``, take a stack there, run it to exit."""
    taken = []

    def wrapped(t):
        taken.append(t.kernel.dipc.stacks.stack_for(t, process))
        yield from body(t)

    thread = kernel.spawn(process, wrapped, pin=0)
    kernel.run()
    assert thread.is_done
    return thread, taken[0]


class TestReuse:
    def test_reused_stack_is_reset_and_freshly_guarded(self, kernel,
                                                       manager, web):
        old_thread, stack = _exit(kernel, web)
        old_guard = stack.guard_cap
        base = stack.base
        thread = kernel.spawn(web, _idle, start=False)
        again = manager.stacks.stack_for(thread, web)
        assert again is stack
        assert again.base == base
        assert again.sp == again.top
        assert again.owner_thread is thread
        assert again.guard_cap is not old_guard
        assert again.guard_cap.is_valid()
        assert again.guard_cap.owner_thread is thread
        assert again.guard_cap.synchronous
        assert again.guard_cap.covers(again.base, again.size)
        assert old_thread is not thread

    def test_release_revokes_guard_and_derived_caps(self, kernel, manager,
                                                    web):
        derived = []

        def body(t):
            stack = t.kernel.dipc.stacks.stack_for(t, web)
            stack.push_frame(64)
            derived.extend(t.kernel.dipc.stacks.mint_argument_caps(
                t, stack, 64))
            yield t.compute(1)

        _thread, stack = _exit(kernel, web, body)
        assert not stack.guard_cap.is_valid()
        assert derived and not any(cap.is_valid() for cap in derived)

    def test_reuse_is_not_a_lazy_allocation(self, kernel, manager, web):
        _exit(kernel, web)
        assert manager.stacks.lazy_allocations == 1
        frames = kernel.phys.allocated()
        thread = kernel.spawn(web, _idle, start=False)
        manager.stacks.stack_for(thread, web)
        assert manager.stacks.lazy_allocations == 1
        assert kernel.phys.allocated() == frames

    def test_stacks_go_to_the_process_they_live_in(self, kernel, manager,
                                                   web, database):
        _old, cached = _exit(kernel, database)
        thread = kernel.spawn(web, _idle, start=False)
        assert manager.stacks.stack_for(thread, web) is not cached
        assert manager.stacks.lazy_allocations == 2
        assert manager.stacks.stack_for(thread, database) is cached
        assert manager.stacks.lazy_allocations == 2

    def test_live_threads_never_share_a_stack(self, kernel, manager, web):
        t1 = kernel.spawn(web, _idle, start=False)
        t2 = kernel.spawn(web, _idle, start=False)
        assert manager.stacks.stack_for(t1, web) is not \
            manager.stacks.stack_for(t2, web)
        assert manager.stacks.lazy_allocations == 2

    def test_thread_killed_mid_call_is_reclaimed_and_reset(
            self, kernel, manager, web, database):
        held = {}

        def stuck(t, key):
            held["database"] = t.kernel.dipc.stacks.stack_for(t, database)
            yield t.block("never-returns")

        address, proxy = wire_up_call(
            manager, web, database, func=stuck,
            caller_policy=IsolationPolicy.high(),
            callee_policy=IsolationPolicy.high())
        assert proxy.policy.stack_confidentiality

        def body(t):
            stack = t.kernel.dipc.stacks.stack_for(t, web)
            stack.push_frame(64)
            held["web"] = stack
            yield from t.kernel.dipc.call(t, address, "k")

        victim = kernel.spawn(web, body, pin=0)
        # late enough for the cold track_process upcall to finish
        kernel.engine.post(50_000, lambda: kernel.scheduler.cancel(victim))
        kernel.run()
        assert "database" in held and victim.is_done
        stack = held["web"]
        assert stack.sp < stack.top  # the kill left the caller frame
        assert not stack.guard_cap.is_valid()
        # both stacks (web's and the callee's) went to the free lists
        fresh = kernel.spawn(web, _idle, start=False)
        assert manager.stacks.stack_for(fresh, web) is stack
        assert stack.sp == stack.top
        assert stack.owner_thread is fresh
        assert stack.guard_cap.is_valid()
        assert manager.stacks.stack_for(fresh, database) is \
            held["database"]
        assert manager.stacks.lazy_allocations == 2


class TestDeadProcess:
    def test_killed_process_drops_its_cached_stacks(self, kernel, manager,
                                                    web, database):
        _exit(kernel, database)
        assert database.pid in manager.stacks._free
        visitor = kernel.spawn(web, _idle, start=False)
        kernel.kill_process(database)
        assert database.pid not in manager.stacks._free
        with pytest.raises(DeadProcessError):
            manager.stacks.stack_for(visitor, database)

    def test_exited_process_never_hands_out_a_cached_stack(
            self, kernel, manager, web, database):
        _exit(kernel, database)
        database.exit(0)
        visitor = kernel.spawn(web, _idle, start=False)
        with pytest.raises(DeadProcessError):
            manager.stacks.stack_for(visitor, database)

    def test_stack_released_into_a_dead_process_is_dropped(
            self, kernel, manager, web, database):
        visitor = kernel.spawn(web, _idle, start=False)
        manager.stacks.stack_for(visitor, database)
        kernel.kill_process(database)
        kernel.kill_process(web)  # the visitor exits after its callee
        assert visitor.is_done
        assert manager.stacks._free == {}
