"""Frames are zero-filled on first touch: a frame gets its 4 KiB of bytes
on the first access to ``Frame.data``, and until then reads as zeros."""

from repro import units
from repro.kernel import Kernel
from repro.mem.addrspace import AddressSpace
from repro.mem.pagetable import PageTable
from repro.mem.phys import PhysicalMemory


def _space(pages=2):
    phys = PhysicalMemory()
    table = PageTable(phys)
    for vpn in range(pages):
        table.map_page(vpn)
    return phys, table, AddressSpace(table)


def test_fresh_frame_holds_no_buffer():
    assert PhysicalMemory().alloc()._data is None


def test_first_touch_allocates_zeros_once():
    frame = PhysicalMemory().alloc()
    data = frame.data
    assert data == bytearray(units.PAGE_SIZE)
    assert frame.data is data


def test_untouched_page_reads_zeros_through_the_address_space():
    _phys, _table, space = _space()
    assert space.read(units.PAGE_SIZE - 8, 16) == b"\x00" * 16


def test_mapping_touches_no_frame():
    _phys, table, _space_ = _space(4)
    assert all(table.lookup(vpn).frame._data is None for vpn in range(4))


def test_write_then_read_returns_the_bytes():
    _phys, table, space = _space()
    space.write(4090, b"straddle")
    assert space.read(4090, 8) == b"straddle"
    assert space.read(0, 4) == b"\x00" * 4
    assert table.lookup(0).frame._data is not None
    assert table.lookup(1).frame._data is not None


def test_copy_of_untouched_frame_stays_untouched():
    phys = PhysicalMemory()
    frame = phys.alloc()
    dup = phys.copy_frame(frame)
    assert frame._data is None and dup._data is None
    assert bytes(dup.data) == b"\x00" * units.PAGE_SIZE


def test_copy_of_touched_frame_is_deep():
    phys = PhysicalMemory()
    frame = phys.alloc()
    frame.data[7] = 0x5A
    dup = phys.copy_frame(frame)
    assert dup._data is not None and dup.data[7] == 0x5A
    dup.data[7] = 0
    assert frame.data[7] == 0x5A


def test_library_loading_reads_back_its_bytes():
    kernel = Kernel(num_cpus=1)
    code = bytes(range(256)) * 20  # 5,120 bytes: spans two code pages
    kernel.libraries.register("libz", code_pages=2, code_bytes=code)
    proc = kernel.spawn_process("p", dipc=True)
    mapped = kernel.libraries.map_into(proc, "libz")
    assert proc.space.read(mapped.base, len(code)) == code


def test_cap_slots_are_unchanged_by_lazy_bytes():
    phys, table, space = _space()
    space.store_capability(64, "cap-object")
    frame = table.lookup(0).frame
    assert frame._data is None  # a capability store is not a byte access
    assert space.load_capability(64) == "cap-object"
    dup = phys.copy_frame(frame)
    assert dup.cap_slots == {64: "cap-object"} and dup._data is None
    space.write(70, b"x")  # a byte write over the slot destroys it
    assert space.load_capability(64) is None
