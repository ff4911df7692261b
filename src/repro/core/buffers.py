"""Dimensionality, stride and extent inference, and buffer inference.

Implements paper section 4.3 (inference using known input/output data, with a
generic fall-back based on the recursive region coalescing) and the
address-to-index conversion of section 4.8 ("buffer inference"), which turns
absolute addresses in concrete trees into buffer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..apps.base import KnownDataArray
from ..dynamo.records import InstructionTrace
from ..ir import DType, FLOAT64, unsigned_of_width
from ..x86.memory import PAGE_SIZE
from .regions import MemoryRegion

_PAGE_MASK = ~(PAGE_SIZE - 1)


@dataclass
class BufferDim:
    """One dimension of a buffer: byte stride and extent, innermost first."""

    stride: int
    extent: int


@dataclass
class BufferSpec:
    """A reconstructed buffer: base address plus per-dimension strides/extents."""

    name: str
    base: int
    element_size: int
    dims: list[BufferDim]
    dtype: DType
    role: str = "unknown"            # input / output / table
    region: Optional[MemoryRegion] = None
    #: Where the user-provided data was located (if known-data inference ran).
    data_base: Optional[int] = None

    @property
    def dimensionality(self) -> int:
        return len(self.dims)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(dim.extent for dim in self.dims)

    def contains(self, address: int) -> bool:
        if self.region is not None:
            return self.region.contains(address)
        span = self.dims[-1].stride * self.dims[-1].extent if self.dims else 0
        return self.base <= address < self.base + span

    def indices_of(self, address: int) -> tuple[int, ...]:
        """Convert an absolute address into buffer coordinates (innermost first)."""
        offset = address - self.base
        indices = []
        remaining = offset
        for dim in reversed(self.dims):
            indices.append(remaining // dim.stride)
            remaining %= dim.stride
        indices.reverse()
        return tuple(indices)

    def address_of(self, indices: tuple[int, ...]) -> int:
        return self.base + sum(i * d.stride for i, d in zip(indices, self.dims))

    def read_array(self, reader) -> np.ndarray:
        """Materialize the buffer contents as a numpy array.

        ``reader(address, width)`` returns the unsigned integer stored at an
        address; typically it is bound to the trace's memory dump or to the
        emulator memory.  The returned array has shape ``extents`` reversed
        (outermost dimension first), matching numpy convention.
        """
        shape = tuple(dim.extent for dim in reversed(self.dims))
        out = np.zeros(shape, dtype=self.dtype.to_numpy())
        for index in np.ndindex(shape):
            inner_first = tuple(reversed(index))
            address = self.address_of(inner_first)
            raw = reader(address, self.element_size)
            if self.dtype.is_float:
                data = int(raw).to_bytes(self.element_size, "little")
                out[index] = np.frombuffer(data, dtype=self.dtype.to_numpy())[0]
            else:
                out[index] = raw
        return out


# ---------------------------------------------------------------------------
# Known-data search
# ---------------------------------------------------------------------------


def _dump_bytes(trace: InstructionTrace, start: int, length: int) -> bytes | None:
    """Read bytes out of the memory dump, or ``None`` if a page is missing."""
    out = bytearray()
    for i in range(length):
        page = (start + i) & _PAGE_MASK
        data = trace.memory_dump.get(page)
        if data is None:
            return None
        out.append(data[(start + i) - page])
    return bytes(out)


def search_known_data(trace: InstructionTrace, known: KnownDataArray,
                      regions: list[MemoryRegion]) -> Optional[tuple[int, int]]:
    """Locate known data in the memory dump; returns (data_base, row_stride).

    The first row of the known array is searched for inside the reconstructed
    regions; the row stride is recovered by locating the second row at a
    constant offset.  Alignment padding shows up as the difference between the
    row stride and the row length (paper section 4.3's Photoshop example).
    """
    array = np.asarray(known.array, dtype=np.uint8)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    first_row = array[0].tobytes()
    for region in regions:
        data = _dump_bytes(trace, region.start, region.size)
        if data is None:
            continue
        position = data.find(first_row)
        while position != -1:
            data_base = region.start + position
            if array.shape[0] == 1:
                return data_base, len(first_row)
            second_row = array[1].tobytes()
            # Try plausible strides: distance to the next occurrence of row 1.
            next_pos = data.find(second_row, position + 1)
            while next_pos != -1:
                stride = next_pos - position
                if _rows_match(trace, array, data_base, stride):
                    return data_base, stride
                next_pos = data.find(second_row, next_pos + 1)
            position = data.find(first_row, position + 1)
    return None


def _rows_match(trace: InstructionTrace, array: np.ndarray, base: int, stride: int) -> bool:
    for row_index in range(array.shape[0]):
        expected = array[row_index].tobytes()
        actual = _dump_bytes(trace, base + row_index * stride, len(expected))
        if actual != expected:
            return False
    return True


def infer_buffer_with_known_data(name: str, region: MemoryRegion,
                                 trace: InstructionTrace, known: KnownDataArray,
                                 role: str) -> Optional[BufferSpec]:
    """Dimensionality/stride/extent inference when input or output data is known."""
    regions = [region]
    located = search_known_data(trace, known, regions)
    if located is None:
        return None
    data_base, stride = located
    array = np.asarray(known.array)
    rows = array.shape[0] if array.ndim > 1 else 1
    row_bytes = array.shape[-1]
    # Ghost/alignment padding around the known data.  Image buffers pad every
    # edge symmetrically (paper section 4.3: Photoshop pads each edge by one
    # pixel); the number of pad pixels is recovered from how far the accessed
    # region extends before the located data.
    lead = data_base - region.start
    pixel_bytes = known.channels * known.element_size
    pad = int(round(lead / (stride + pixel_bytes))) if lead > 0 else 0
    base = data_base - pad * stride - pad * pixel_bytes
    dims: list[BufferDim] = []
    if known.channels > 1:
        dims.append(BufferDim(stride=1, extent=known.channels))
        dims.append(BufferDim(stride=known.channels,
                              extent=row_bytes // known.channels + 2 * pad))
        dims.append(BufferDim(stride=stride, extent=rows + 2 * pad))
    else:
        dims.append(BufferDim(stride=known.element_size, extent=row_bytes + 2 * pad))
        dims.append(BufferDim(stride=stride, extent=rows + 2 * pad))
    return BufferSpec(name=name, base=base, element_size=known.element_size,
                      dims=dims, dtype=unsigned_of_width(known.element_size),
                      role=role, region=region, data_base=data_base)


# ---------------------------------------------------------------------------
# Generic inference
# ---------------------------------------------------------------------------


def infer_buffer_generic(name: str, region: MemoryRegion, role: str,
                         is_float: bool = False) -> BufferSpec:
    """Generic inference from the recursive coalescing structure.

    The dimensionality is the number of coalescing levels plus the innermost
    contiguous run; for the innermost dimension the stride is the access width
    and the extent the number of adjacent elements in one group; for the other
    dimensions the stride is the distance between group starts and the extent
    the number of groups (paper section 4.3, "Generic inference").
    """
    element_size = region.element_size
    dtype = FLOAT64 if (is_float and element_size == 8) else unsigned_of_width(element_size)
    dims: list[BufferDim] = []
    if region.levels:
        # Levels inherited from partially-covered constituents can repeat a
        # stride; keep the widest extent observed per stride.
        by_stride: dict[int, int] = {}
        span_by_stride: dict[int, int] = {}
        for level in region.levels:
            by_stride[level.stride] = max(by_stride.get(level.stride, 0), level.count)
            span_by_stride[level.stride] = max(span_by_stride.get(level.stride, 0), level.span)
        strides = sorted(by_stride)
        innermost_span = span_by_stride[strides[0]]
        dims.append(BufferDim(stride=element_size, extent=innermost_span // element_size))
        for stride in strides:
            dims.append(BufferDim(stride=stride, extent=by_stride[stride]))
    else:
        # No gaps: treat the buffer as one-dimensional (paper: "If there are
        # no gaps ... this inference will treat the buffer as single
        # dimensional, regardless of the actual dimensionality").
        dims.append(BufferDim(stride=element_size, extent=region.size // element_size))
    return BufferSpec(name=name, base=region.start, element_size=element_size,
                      dims=dims, dtype=dtype, role=role, region=region)
