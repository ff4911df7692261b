"""Buffer structure reconstruction (paper sections 3.2 and 4.2, Figure 3).

The memory trace is reduced to *regions*: per static instruction the accessed
addresses are coalesced when immediately adjacent, duplicate addresses are
removed and the regions sorted; regions of different instructions are then
merged (so unrolled loops whose individual instructions each touch a strided
subset still produce one region); finally groups of three or more regions
separated by a constant stride are linked into a single larger region,
recursively, which is what exposes the dimensionality of multi-dimensional
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..x86.registers import is_register_address


@dataclass
class RegionLevel:
    """One level of recursive coalescing: ``count`` groups spaced ``stride`` apart."""

    stride: int
    count: int
    span: int          # bytes covered by one group at this level


@dataclass
class MemoryRegion:
    """A reconstructed memory region."""

    start: int
    end: int                       # one past the last accessed byte
    instructions: set[int] = field(default_factory=set)
    access_widths: dict[int, int] = field(default_factory=dict)
    read: bool = False
    written: bool = False
    levels: list[RegionLevel] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.end - self.start

    @property
    def element_size(self) -> int:
        """Most common access width (paper: the tool uses the most common width)."""
        if not self.access_widths:
            return 1
        return max(self.access_widths, key=self.access_widths.get)

    @property
    def dimensionality(self) -> int:
        """Innermost contiguous dimension plus one per level of coalescing."""
        return len(self.levels) + 1

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRegion({self.start:#x}..{self.end:#x}, size={self.size}, "
                f"dims={self.dimensionality}, elem={self.element_size})")


@dataclass(frozen=True)
class AccessSample:
    """A normalized memory access used as reconstruction input."""

    instruction_address: int
    address: int
    width: int
    is_write: bool


def _coalesce_sorted(addresses: list[int]) -> list[tuple[int, int]]:
    """Coalesce a sorted, de-duplicated address list into [start, end) ranges."""
    ranges: list[tuple[int, int]] = []
    start = prev = addresses[0]
    for addr in addresses[1:]:
        if addr <= prev + 1:
            prev = max(prev, addr)
            continue
        ranges.append((start, prev + 1))
        start = prev = addr
    ranges.append((start, prev + 1))
    return ranges


def _group_by_stride(ranges: list[tuple[int, int]], min_group: int = 3
                     ) -> tuple[list[tuple[int, int]], list[RegionLevel]]:
    """Link >=3 equally-sized ranges separated by a constant stride (one level)."""
    if len(ranges) < min_group:
        return ranges, []
    out: list[tuple[int, int]] = []
    levels: list[RegionLevel] = []
    index = 0
    while index < len(ranges):
        start, end = ranges[index]
        size = end - start
        # Try to extend a run of same-size ranges at constant stride.
        run = 1
        stride = None
        while index + run < len(ranges):
            nstart, nend = ranges[index + run]
            nsize = nend - nstart
            if nsize != size:
                break
            this_stride = nstart - ranges[index + run - 1][0]
            if stride is None:
                stride = this_stride
            elif this_stride != stride:
                break
            run += 1
        if stride is not None and run >= min_group:
            last_start, last_end = ranges[index + run - 1]
            out.append((start, last_end))
            levels.append(RegionLevel(stride=stride, count=run, span=size))
            index += run
        else:
            out.append((start, end))
            index += 1
    return out, levels


def reconstruct_regions(samples: Iterable[AccessSample],
                        include_registers: bool = False) -> list[MemoryRegion]:
    """Run buffer structure reconstruction over a set of memory accesses."""
    per_instruction: dict[int, set[int]] = {}
    widths: dict[int, dict[int, int]] = {}
    read_addresses: set[int] = set()
    written_addresses: set[int] = set()
    instr_for_addr: dict[int, set[int]] = {}
    for sample in samples:
        if not include_registers and is_register_address(sample.address):
            continue
        bucket = per_instruction.setdefault(sample.instruction_address, set())
        for offset in range(sample.width):
            address = sample.address + offset
            bucket.add(address)
            instr_for_addr.setdefault(address, set()).add(sample.instruction_address)
            if sample.is_write:
                written_addresses.add(address)
            else:
                read_addresses.add(address)
        width_bucket = widths.setdefault(sample.instruction_address, {})
        width_bucket[sample.width] = width_bucket.get(sample.width, 0) + 1

    if not per_instruction:
        return []

    # Step 1: per-instruction coalescing, then merge across instructions.
    all_addresses = sorted(set().union(*per_instruction.values()))
    ranges = _coalesce_sorted(all_addresses)

    # Step 2: recursively link ranges separated by constant strides.
    levels_per_range: dict[tuple[int, int], list[RegionLevel]] = {}
    while True:
        grouped, new_levels = _group_by_stride(ranges)
        if grouped == ranges:
            break
        # Attach the discovered level to every merged range (the merged range
        # spans the whole group, so record the level against it).
        for new_range, level in zip([r for r in grouped if r not in ranges], new_levels):
            levels_per_range.setdefault(new_range, []).append(level)
        # Carry forward levels from ranges that were merged into bigger ones.
        carried: dict[tuple[int, int], list[RegionLevel]] = {}
        for new_range in grouped:
            inherited: list[RegionLevel] = []
            for old_range, old_levels in levels_per_range.items():
                if old_range[0] >= new_range[0] and old_range[1] <= new_range[1]:
                    for level in old_levels:
                        if level not in inherited:
                            inherited.append(level)
            if inherited:
                carried[new_range] = inherited
        levels_per_range = carried
        ranges = grouped

    regions: list[MemoryRegion] = []
    for start, end in ranges:
        region = MemoryRegion(start=start, end=end)
        region.levels = sorted(levels_per_range.get((start, end), []),
                               key=lambda level: level.stride)
        for address in range(start, end):
            if address in instr_for_addr:
                region.instructions.update(instr_for_addr[address])
            if address in read_addresses:
                region.read = True
            if address in written_addresses:
                region.written = True
        for instruction in region.instructions:
            for width, count in widths.get(instruction, {}).items():
                region.access_widths[width] = region.access_widths.get(width, 0) + count
        regions.append(region)
    return merge_nearby_regions(regions)


def merge_nearby_regions(regions: list[MemoryRegion], max_gap: int = 256,
                         size_ratio: float = 0.5) -> list[MemoryRegion]:
    """Fold small fringe regions into an adjacent, much larger neighbour.

    Stencils read a partial row of ghost pixels above and below the image;
    those reads form small regions separated from the main image region only
    by alignment slack.  They belong to the same buffer, so they are merged —
    but only when one side is much smaller than the other, so that genuinely
    periodic structures (rows of a 3-D grid separated by padding) keep their
    gaps and remain visible to generic dimensionality inference.
    """
    if not regions:
        return []
    ordered = sorted(regions, key=lambda r: r.start)
    merged: list[MemoryRegion] = [ordered[0]]
    for region in ordered[1:]:
        previous = merged[-1]
        gap = region.start - previous.end
        small = min(previous.size, region.size)
        large = max(previous.size, region.size)
        if 0 <= gap <= max_gap and large > 0 and small / large < size_ratio:
            keeper = previous if previous.size >= region.size else region
            previous.end = max(previous.end, region.end)
            previous.start = min(previous.start, region.start)
            previous.instructions |= region.instructions
            for width, count in region.access_widths.items():
                previous.access_widths[width] = previous.access_widths.get(width, 0) + count
            previous.read = previous.read or region.read
            previous.written = previous.written or region.written
            previous.levels = keeper.levels
        else:
            merged.append(region)
    return merged


def region_containing(regions: Iterable[MemoryRegion], address: int) -> MemoryRegion | None:
    for region in regions:
        if region.contains(address):
            return region
    return None


def samples_from_memtrace(records) -> list[AccessSample]:
    """Adapt :class:`~repro.dynamo.records.MemoryTraceRecord` objects."""
    return [AccessSample(r.instruction_address, r.address, r.width, r.is_write)
            for r in records]


def samples_from_itrace(trace) -> list[AccessSample]:
    """Adapt an :class:`~repro.dynamo.records.InstructionTrace`."""
    samples: list[AccessSample] = []
    for record in trace.records:
        for access in record.accesses:
            samples.append(AccessSample(record.address, access.address,
                                        access.width, access.is_write))
    return samples
