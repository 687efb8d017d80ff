"""Physical memory: a pool of 4 KiB frames with byte-level contents.

Frames are reference counted so copy-on-write (fork) and shared library
"virtual copies" (§6.1.3) can share physical pages. A frame is
zero-filled on first touch: its bytes are allocated on the first access
to :attr:`Frame.data`, so mapped but never-touched pages (most data
stack pages) cost the host no buffer.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import units
from repro.errors import ResourceError


class Frame:
    """One 4 KiB physical frame."""

    __slots__ = ("number", "_data", "refcount", "cap_slots")

    def __init__(self, number: int):
        self.number = number
        self._data: Optional[bytearray] = None
        self.refcount = 1
        #: capability-storage side table: offset -> Capability. CODOMs keeps
        #: capabilities unforgeable, so they live beside the bytes; a plain
        #: byte write over a slot invalidates it (see PhysicalMemory.write).
        self.cap_slots: Dict[int, object] = {}

    @property
    def data(self) -> bytearray:
        """The frame's bytes, zero-filled on first touch."""
        if self._data is None:
            self._data = bytearray(units.PAGE_SIZE)
        return self._data

    def __repr__(self) -> str:
        return f"<Frame {self.number} refs={self.refcount}>"


class PhysicalMemory:
    """Frame allocator for a :class:`repro.hw.Machine`."""

    def __init__(self, total_frames: int = 4 * units.MB // units.PAGE_SIZE * 16):
        # default: 64 MiB of simulated RAM; plenty for the workloads and
        # small enough that leaks show up in tests.
        self.total_frames = total_frames
        self._next = 0
        self._free: list[int] = []
        self._frames: Dict[int, Frame] = {}

    def allocated(self) -> int:
        return len(self._frames)

    def alloc(self) -> Frame:
        """Allocate a zeroed frame."""
        if self._free:
            number = self._free.pop()
        else:
            if self._next >= self.total_frames:
                raise ResourceError("out of physical frames")
            number = self._next
            self._next += 1
        frame = Frame(number)
        self._frames[number] = frame
        return frame

    def get(self, number: int) -> Frame:
        frame = self._frames.get(number)
        if frame is None:
            raise ResourceError(f"no such frame: {number}")
        return frame

    def share(self, frame: Frame) -> Frame:
        """Take an extra reference (COW, shared read-only mappings)."""
        frame.refcount += 1
        return frame

    def release(self, frame: Frame) -> None:
        """Drop a reference; frees the frame when it hits zero."""
        if frame.refcount <= 0:
            raise ResourceError(f"double free of {frame}")
        frame.refcount -= 1
        if frame.refcount == 0:
            del self._frames[frame.number]
            self._free.append(frame.number)

    def copy_frame(self, frame: Frame) -> Frame:
        """Deep-copy a frame (COW break). Capability slots are copied too:
        CODOMs capabilities are values, not aliases."""
        fresh = self.alloc()
        if frame._data is not None:
            fresh._data = bytearray(frame._data)
        fresh.cap_slots = dict(frame.cap_slots)
        return fresh
