"""A finished point unwinds its leftover threads before it returns.

Threads still suspended when a point's run stops (workers blocked on
their endpoints, callers waiting for a reply) keep their generators.
Left to the cyclic garbage collector, they are finalized during
whatever runs next, and their cleanup handlers post and cancel events
on the finished engine from inside the next point. ``Kernel.release``
runs those handlers when the driver has built its result, so a point's
engine work does not depend on what ran before it in the process.
"""

import gc

from repro.experiments import fig10_topo
from repro.kernel import Kernel
from repro.sim.engine import Engine


def _spec(scenario, primitive, rep):
    return next(s for s in fig10_topo.points(
        **fig10_topo.Fig10Driver.cli_params(True))
        if (s.kwargs["scenario"], s.kwargs["primitive"],
            s.kwargs["offered_kops"], s.kwargs["rep"])
        == (scenario, primitive, 25.0, rep))


def _posts_and_cancels(monkeypatch, spec):
    counts = {"post_at": 0, "cancel": 0}
    for name in counts:
        original = getattr(Engine, name)

        def counting(self, *args, _name=name, _original=original,
                     **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(Engine, name, counting)
    fig10_topo.compute_point(**dict(spec.kwargs))
    gc.collect()    # finalize whatever the point left behind, counted
    monkeypatch.undo()
    return counts


def test_a_point_posts_the_same_alone_and_after_another(monkeypatch):
    point = _spec("fanout-par-8", "pipe", 1)
    # an l4 point leaves callers blocked in deadline-bounded calls
    before = _spec("mesh-12", "l4", 0)
    gc.collect()
    alone = _posts_and_cancels(monkeypatch, point)
    gc.disable()
    try:
        fig10_topo.compute_point(**dict(before.kwargs))
        after = _posts_and_cancels(monkeypatch, point)
    finally:
        gc.enable()
    assert alone == after
    assert alone["cancel"] > 0


def test_release_unwinds_every_unfinished_thread_once():
    kernel = Kernel(num_cpus=1)
    process = kernel.spawn_process("p")
    unwound = []

    def stuck(t):
        try:
            yield t.block("forever")
        finally:
            unwound.append(t.name)

    def stubborn(t):
        try:
            yield t.block("forever")
        except BaseException:
            unwound.append(t.name)
            yield t.compute(1.0)    # tries to go on: dropped

    threads = [kernel.spawn(process, stuck, name="a"),
               kernel.spawn(process, stubborn, name="b")]
    kernel.run()
    threads.append(kernel.spawn(process, stuck, name="never-ran"))
    kernel.release()
    assert unwound == ["a", "b"]
    assert all(thread.is_done for thread in threads)
    kernel.release()
    assert unwound == ["a", "b"]
    assert kernel.crashed_threads == []
