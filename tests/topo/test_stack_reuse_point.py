"""A fig10 point whose per-request helper threads visit dIPC processes
keeps its data stacks bounded: each helper's stacks are recycled when it
exits, so the point neither piles up stacks nor runs the simulated
machine out of frames."""

import pytest

import repro.kernel.kernel as kernel_mod
from repro.core.stacks import StackManager
from repro.experiments.fig10_topo import compute_point
from repro.mem.phys import PhysicalMemory
from repro.runner import registry

#: frames left to the whole point once RAM is capped (4 MiB): enough
#: for recycled stacks, far too few for a fresh stack per helper visit
CAPPED_FRAMES = 1024


def _fanout_point():
    """The quick fanout-par-8 dIPC point at 100 kops, rep 0: every
    request spawns seven helper threads, each visiting one service."""
    for spec in registry.specs_for("fig10", True):
        kw = spec.kwargs
        if (kw["scenario"], kw["primitive"], kw["offered_kops"],
                kw["rep"]) == ("fanout-par-8", "dipc", 100.0, 0):
            return dict(kw)
    raise AssertionError("fanout-par-8 dipc point not in fig10 quick")


def _run(monkeypatch, frames=None):
    managers = []
    init = StackManager.__init__

    def recording_init(self, manager):
        init(self, manager)
        managers.append(self)

    monkeypatch.setattr(StackManager, "__init__", recording_init)
    if frames is not None:
        monkeypatch.setattr(
            kernel_mod, "PhysicalMemory",
            lambda total_frames: PhysicalMemory(total_frames=frames))
    point = compute_point(**_fanout_point())
    monkeypatch.undo()
    (stacks,) = managers
    return point, stacks


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        full = _run(monkeypatch)
        capped = _run(monkeypatch, CAPPED_FRAMES)
    return full, capped


def test_helper_threads_recycle_their_stacks(runs):
    (point, stacks), _capped = runs
    assert point["completed"] > 0 and point["failed"] == 0
    # one fresh stack per helper visit would be ~2,000
    assert stacks.lazy_allocations <= 64


def test_point_fits_in_capped_ram_unchanged(runs):
    (point, _), (capped, stacks) = runs
    assert stacks.kernel.phys.total_frames == CAPPED_FRAMES
    assert capped["failed"] == 0
    assert capped == point
