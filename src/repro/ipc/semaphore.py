"""POSIX semaphores, futex-backed — the "Sem." bars of Figures 2/5/6."""

from __future__ import annotations

from repro.kernel.futex import Futex
from repro.kernel.thread import Thread


class Semaphore:
    """sem_t: a counting semaphore whose slow path is a futex."""

    def __init__(self, kernel, value: int = 0):
        self.kernel = kernel
        self._futex = Futex(kernel, value)

    # post and wait return the futex sub-generator itself, so a ``yield
    # from`` chain gets no pass-through frame for them

    def post(self, thread: Thread):
        """sem_post, as a sub-generator. glibc's fast path is a
        user-space atomic, but with a waiter present it always enters
        FUTEX_WAKE — the synchronous ping-pong of the benchmarks is all
        slow path."""
        return self._futex.wake(thread)

    def wait(self, thread: Thread):
        """sem_wait (FUTEX_WAIT slow path), as a sub-generator."""
        return self._futex.wait(thread)

    @property
    def value(self) -> int:
        return self._futex.value

    @property
    def waiters(self) -> int:
        return self._futex.waiter_count
