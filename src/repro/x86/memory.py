"""Flat, paged byte-addressable memory with a bump allocator.

The simulated applications allocate their image buffers from this memory; the
instrumentation tools dump pages of it (paper section 4.1 collects a
page-granularity memory dump of all memory touched by candidate instructions).
"""

from __future__ import annotations

import struct

PAGE_SIZE = 4096
PAGE_MASK = ~(PAGE_SIZE - 1)

#: Default placement of the simulated process address space.
STACK_TOP = 0x0200_0000
HEAP_BASE = 0x0A00_0000
MODULE_BASE = 0x0240_0000


class MemoryError_(Exception):
    """Raised on invalid simulated memory accesses."""


class Memory:
    """Sparse paged memory.

    Pages materialize on first touch.  All multi-byte accesses are
    little-endian, matching x86.
    """

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self._heap_next = HEAP_BASE
        self._alloc_count = 0
        self.allocations: dict[str, tuple[int, int]] = {}

    # -- page management -------------------------------------------------

    def _page(self, address: int) -> tuple[bytearray, int]:
        base = address & PAGE_MASK
        page = self._pages.get(base)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[base] = page
        return page, address - base

    # -- raw byte access -------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray()
        remaining = length
        cursor = address
        while remaining > 0:
            page, offset = self._page(cursor)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes | bytearray) -> None:
        cursor = address
        view = memoryview(bytes(data))
        while len(view) > 0:
            page, offset = self._page(cursor)
            chunk = min(len(view), PAGE_SIZE - offset)
            page[offset:offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    # -- typed access ----------------------------------------------------

    def read_uint(self, address: int, width: int) -> int:
        return int.from_bytes(self.read_bytes(address, width), "little")

    def write_uint(self, address: int, width: int, value: int) -> None:
        mask = (1 << (width * 8)) - 1
        self.write_bytes(address, (value & mask).to_bytes(width, "little"))

    def read_float(self, address: int, width: int) -> float:
        raw = self.read_bytes(address, width)
        return struct.unpack("<f" if width == 4 else "<d", raw)[0]

    def write_float(self, address: int, width: int, value: float) -> None:
        self.write_bytes(address, struct.pack("<f" if width == 4 else "<d", value))

    # -- allocation ------------------------------------------------------

    def alloc(self, size: int, align: int = 16, name: str | None = None) -> int:
        """Allocate ``size`` bytes on the simulated heap and return the address."""
        address = (self._heap_next + align - 1) & ~(align - 1)
        self._heap_next = address + size
        # Leave an unmapped guard gap between allocations so distinct buffers
        # never become adjacent, and vary its size so that equally-sized
        # allocations are not equally spaced (a real heap's metadata and
        # fragmentation produce the same effect).  Buffer structure
        # reconstruction would otherwise link separate buffers into one
        # strided region.
        self._alloc_count += 1
        self._heap_next += PAGE_SIZE + 256 * ((self._alloc_count * 7919) % 13 + 1)
        if name is not None:
            self.allocations[name] = (address, size)
        return address

    def snapshot(self) -> "MemorySnapshot":
        """An immutable, serializable copy of every touched page."""
        return MemorySnapshot({base: bytes(page) for base, page in self._pages.items()})


class MemorySnapshot:
    """A read-only copy of a :class:`Memory`'s touched pages.

    Stage artifacts persist one of these instead of the live emulator memory:
    it supports the same read API the analyses use (``read_uint`` /
    ``read_bytes``), serializes cleanly, and reads from unmapped pages fail
    loudly instead of silently materializing zero pages.
    """

    def __init__(self, pages: dict[int, bytes]) -> None:
        self._pages = dict(pages)

    def read_bytes(self, address: int, length: int) -> bytes:
        out = bytearray()
        cursor = address
        remaining = length
        while remaining > 0:
            base = cursor & PAGE_MASK
            page = self._pages.get(base)
            if page is None:
                raise MemoryError_(f"address {cursor:#x} not in memory snapshot")
            offset = cursor - base
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def read_uint(self, address: int, width: int) -> int:
        return int.from_bytes(self.read_bytes(address, width), "little")

    def read_float(self, address: int, width: int) -> float:
        raw = self.read_bytes(address, width)
        return struct.unpack("<f" if width == 4 else "<d", raw)[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MemorySnapshot) and self._pages == other._pages

    def __len__(self) -> int:
        return len(self._pages)
