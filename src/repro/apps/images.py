"""Image generation and in-memory layouts for the simulated applications.

The Photoshop-like application stores the R, G and B planes separately, pads
every edge by one pixel and rounds each scanline up to a 16-byte boundary
(paper section 4.3's example).  The IrfanView-like application stores the
channels interleaved.  Both layouts are written into the emulator's memory and
read back after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..x86.memory import Memory

SCANLINE_ALIGN = 16
PAD = 1


def make_test_planes(width: int, height: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic pseudo-random R/G/B planes used throughout the tests."""
    rng = np.random.default_rng(seed)
    return {channel: rng.integers(0, 256, size=(height, width), dtype=np.uint8)
            for channel in ("r", "g", "b")}


def make_gradient_planes(width: int, height: int) -> dict[str, np.ndarray]:
    """Smooth gradient planes (useful for eyeballing filter output)."""
    ys, xs = np.mgrid[0:height, 0:width]
    r = ((xs * 255) // max(width - 1, 1)).astype(np.uint8)
    g = ((ys * 255) // max(height - 1, 1)).astype(np.uint8)
    b = (((xs + ys) * 255) // max(width + height - 2, 1)).astype(np.uint8)
    return {"r": r, "g": g, "b": b}


def pad_plane(plane: np.ndarray, pad: int = PAD) -> np.ndarray:
    """Replicate-pad a plane by ``pad`` pixels on every edge."""
    return np.pad(plane, pad, mode="edge")


def aligned_stride(row_bytes: int, align: int = SCANLINE_ALIGN) -> int:
    return (row_bytes + align - 1) // align * align


@dataclass
class PlaneBuffer:
    """One plane written into simulated memory."""

    name: str
    base: int                    # address of padded row 0, column 0
    interior: int                # address of interior pixel (0, 0)
    stride: int                  # bytes between scanlines
    width: int                   # interior width in pixels
    height: int                  # interior height in pixels
    pad: int = PAD

    def read_interior(self, memory: Memory) -> np.ndarray:
        out = np.empty((self.height, self.width), dtype=np.uint8)
        for y in range(self.height):
            row = memory.read_bytes(self.interior + y * self.stride, self.width)
            out[y] = np.frombuffer(row, dtype=np.uint8)
        return out


@dataclass
class PlanarLayout:
    """Planar RGB layout: three padded input planes, three output planes."""

    width: int
    height: int
    stride: int
    inputs: dict[str, PlaneBuffer] = field(default_factory=dict)
    outputs: dict[str, PlaneBuffer] = field(default_factory=dict)
    extras: dict[str, PlaneBuffer] = field(default_factory=dict)

    @classmethod
    def create(cls, memory: Memory, planes: dict[str, np.ndarray],
               pad: int = PAD) -> "PlanarLayout":
        sample = next(iter(planes.values()))
        height, width = sample.shape
        stride = aligned_stride(width + 2 * pad)
        layout = cls(width=width, height=height, stride=stride)
        for name, plane in planes.items():
            layout.inputs[name] = _write_plane(memory, f"in_{name}", plane, stride, pad)
        for name, plane in planes.items():
            layout.outputs[name] = _alloc_plane(memory, f"out_{name}",
                                                width, height, stride, pad)
        return layout

    def alloc_extra(self, memory: Memory, name: str) -> PlaneBuffer:
        buffer = _alloc_plane(memory, name, self.width, self.height, self.stride, PAD)
        self.extras[name] = buffer
        return buffer

    def read_outputs(self, memory: Memory) -> dict[str, np.ndarray]:
        return {name: buf.read_interior(memory) for name, buf in self.outputs.items()}


def _write_plane(memory: Memory, name: str, plane: np.ndarray,
                 stride: int, pad: int) -> PlaneBuffer:
    height, width = plane.shape
    padded = pad_plane(plane, pad)
    base = memory.alloc(stride * (height + 2 * pad), align=SCANLINE_ALIGN, name=name)
    for y in range(height + 2 * pad):
        memory.write_bytes(base + y * stride, padded[y].tobytes())
    return PlaneBuffer(name=name, base=base, interior=base + pad * stride + pad,
                       stride=stride, width=width, height=height, pad=pad)


def _alloc_plane(memory: Memory, name: str, width: int, height: int,
                 stride: int, pad: int) -> PlaneBuffer:
    base = memory.alloc(stride * (height + 2 * pad), align=SCANLINE_ALIGN, name=name)
    return PlaneBuffer(name=name, base=base, interior=base + pad * stride + pad,
                       stride=stride, width=width, height=height, pad=pad)


@dataclass
class InterleavedBuffer:
    """One interleaved RGB image written into simulated memory."""

    name: str
    base: int
    interior: int
    stride: int
    width: int
    height: int
    channels: int = 3
    pad: int = PAD

    @property
    def interior_row_bytes(self) -> int:
        return self.width * self.channels

    def read_interior(self, memory: Memory) -> np.ndarray:
        out = np.empty((self.height, self.interior_row_bytes), dtype=np.uint8)
        for y in range(self.height):
            row = memory.read_bytes(self.interior + y * self.stride, self.interior_row_bytes)
            out[y] = np.frombuffer(row, dtype=np.uint8)
        return out


@dataclass
class InterleavedLayout:
    """Interleaved RGB layout: one input image and one output image."""

    width: int
    height: int
    stride: int
    channels: int
    input: InterleavedBuffer = None
    output: InterleavedBuffer = None

    @classmethod
    def create(cls, memory: Memory, planes: dict[str, np.ndarray],
               pad: int = PAD) -> "InterleavedLayout":
        interleaved = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        height, width, channels = interleaved.shape
        stride = aligned_stride((width + 2 * pad) * channels)
        layout = cls(width=width, height=height, stride=stride, channels=channels)
        padded = np.pad(interleaved, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
        flat = padded.reshape(height + 2 * pad, (width + 2 * pad) * channels)
        base = memory.alloc(stride * (height + 2 * pad), align=SCANLINE_ALIGN, name="in_rgb")
        for y in range(height + 2 * pad):
            memory.write_bytes(base + y * stride, flat[y].tobytes())
        layout.input = InterleavedBuffer(
            name="in_rgb", base=base, interior=base + pad * stride + pad * channels,
            stride=stride, width=width, height=height, channels=channels, pad=pad)
        out_base = memory.alloc(stride * (height + 2 * pad), align=SCANLINE_ALIGN, name="out_rgb")
        layout.output = InterleavedBuffer(
            name="out_rgb", base=out_base,
            interior=out_base + pad * stride + pad * channels,
            stride=stride, width=width, height=height, channels=channels, pad=pad)
        return layout


def interleave(planes: dict[str, np.ndarray]) -> np.ndarray:
    """Interleave R/G/B planes into an (H, W*3) byte array."""
    stacked = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
    height, width, channels = stacked.shape
    return stacked.reshape(height, width * channels)
