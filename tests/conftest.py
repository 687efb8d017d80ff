"""Suite-wide fixtures."""

import pytest

from repro.kernel.effects import Charge, Charges
from repro.kernel.thread import Thread


def expand_charges(gen):
    """Run the thread body ``gen``, yielding each block of a
    :class:`Charges` run as its own :class:`Charge`.

    This is the reference semantics of a composite charge: one resume
    per block, so a kill or an injected exception that lands between
    two blocks is thrown into ``gen`` at the ``yield`` of the run,
    exactly where the scheduler's queue delivers it.
    """
    method, arg = gen.send, None
    while True:
        try:
            effect = method(arg)
        except StopIteration as stop:
            return stop.value
        method, arg = gen.send, None
        if isinstance(effect, Charges):
            steps = [Charge(ns, block) for ns, block in effect]
        else:
            steps = [effect]
        try:
            for step in steps:
                arg = yield step
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 — forwarded as is
            method, arg = gen.throw, exc


@pytest.fixture
def separate_charges(monkeypatch):
    """Call the returned function to make every thread created after
    it run each :class:`Charges` as separate charges (see
    :func:`expand_charges`)."""
    def install():
        init = Thread.__init__

        def expanding_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.gen = expand_charges(self.gen)
        monkeypatch.setattr(Thread, "__init__", expanding_init)
    return install
