"""Execution-model of the original (legacy) applications' filter runtimes.

The paper times Adobe Photoshop and IrfanView binaries on the authors'
hardware; neither is available here, so this module models how those binaries
execute their filters — the *structure* that determines the shape of
Figures 7-9, not the absolute milliseconds:

* Photoshop runs each filter per colour channel, tile by tile through a
  common driver (section 2), without fusing consecutive filters; its kernels
  are mostly unvectorized (the paper's VTune profile of blur) and work through
  intermediate copies.  Box blur, however, uses a sliding-window formulation
  whose cost is independent of the radius — which is why the lifted, window-
  cancelled version loses to it.
* IrfanView converts to floating point, applies one filter at a time and pays
  a per-invocation preparation cost.
* miniGMG's smoother walks the grid plane by plane.

All models are NumPy-based so benchmarks run quickly, with the legacy
structural overheads (per-tile dispatch, per-channel passes, float temporaries,
materialized intermediates) expressed explicitly.
"""

from __future__ import annotations

import numpy as np

from ..apps.photoshop import FILTER_SPECS as PS_SPECS
from ..apps.irfanview import FILTER_SPECS as IV_SPECS
from ..kgen import build_brightness_lut
from ..kgen.stencil2d import Conv2DSpec

#: Photoshop's tile granularity (bytes of a tile edge in our model).
PHOTOSHOP_TILE = 64
#: Per-tile driver/dispatch overhead of the legacy tile driver, in relative
#: work units (extra float temporaries allocated per tile).
_TILE_OVERHEAD_COPIES = 3


def _iter_tiles(height: int, width: int, tile: int):
    for y0 in range(0, height, tile):
        for x0 in range(0, width, tile):
            yield y0, min(y0 + tile, height), x0, min(x0 + tile, width)


def _legacy_conv_tile(spec: Conv2DSpec, padded: np.ndarray, y0, y1, x0, x1) -> np.ndarray:
    """One tile of a legacy convolution.

    The legacy kernels are unvectorized (the paper's VTune profile of
    Photoshop's blur), which is modelled by walking the tile scanline by
    scanline with float64 temporaries, tap by tap.
    """
    acc = np.full((y1 - y0, x1 - x0), float(spec.bias), dtype=np.float64)
    for row in range(y0, y1):
        row_acc = acc[row - y0]
        for (dy, dx), weight in spec.taps.items():
            window = padded[1 + row + dy, 1 + x0 + dx:1 + x1 + dx].astype(np.float64)
            row_acc += weight * window
    for _ in range(_TILE_OVERHEAD_COPIES):
        acc = acc.copy()
    if spec.reciprocal is not None:
        out = (acc.astype(np.int64) * spec.reciprocal) >> 16
    elif spec.shift:
        out = acc.astype(np.int64) >> spec.shift
    else:
        out = acc.astype(np.int64)
    if spec.clamp:
        out = np.clip(out, 0, 255)
    return (out & 0xFF).astype(np.uint8)


def legacy_photoshop_filter(name: str, planes: dict[str, np.ndarray],
                            params: dict | None = None) -> dict[str, np.ndarray]:
    """Run one Photoshop filter the way the legacy binary runs it."""
    params = params or {}
    outputs: dict[str, np.ndarray] = {}
    if name == "threshold":
        threshold = params.get("threshold", 128)
        height, width = planes["r"].shape
        value = np.zeros((height, width), dtype=np.uint8)
        # Unvectorized scanline-at-a-time model, like the other legacy kernels.
        for y0, y1, x0, x1 in _iter_tiles(height, width, PHOTOSHOP_TILE):
            for row in range(y0, y1):
                r = planes["r"][row, x0:x1].astype(np.float64)
                g = planes["g"][row, x0:x1].astype(np.float64)
                b = planes["b"][row, x0:x1].astype(np.float64)
                luma = (r * 77 + g * 150 + b * 29).astype(np.int64) >> 8
                value[row, x0:x1] = np.where(luma > threshold, 255, 0)
        return {channel: value.copy() for channel in ("r", "g", "b")}
    for channel, plane in planes.items():
        height, width = plane.shape
        out = np.zeros_like(plane)
        if name == "invert":
            for y0, y1, x0, x1 in _iter_tiles(height, width, PHOTOSHOP_TILE):
                tile = plane[y0:y1, x0:x1].astype(np.float64)
                for row in range(tile.shape[0]):
                    tile[row] = 255.0 - tile[row]
                for _ in range(_TILE_OVERHEAD_COPIES):
                    tile = tile.copy()
                out[y0:y1, x0:x1] = tile.astype(np.uint8)
        elif name == "brightness":
            lut = build_brightness_lut(params.get("brightness", 40))
            for y0, y1, x0, x1 in _iter_tiles(height, width, PHOTOSHOP_TILE):
                tile = plane[y0:y1, x0:x1]
                mapped = lut[tile].astype(np.float64)
                for _ in range(_TILE_OVERHEAD_COPIES):
                    mapped = mapped.copy()
                out[y0:y1, x0:x1] = mapped.astype(np.uint8)
        elif name == "box_blur":
            # Sliding-window (summed-column) implementation: work independent
            # of the window size, which is what the lifted version cannot beat.
            padded = np.pad(plane, 1, mode="edge").astype(np.int64)
            colsum = padded[0:height, :] + padded[1:height + 1, :] + padded[2:height + 2, :]
            window = np.cumsum(colsum, axis=1)
            left = np.concatenate([np.zeros((height, 1), dtype=np.int64),
                                   window[:, :-3]], axis=1)
            sums = window[:, 2:] - left
            out = (((sums * 0x1C72) >> 16) & 0xFF).astype(np.uint8)
        elif name in ("blur", "blur_more", "sharpen", "sharpen_more",
                      "sharpen_edges", "despeckle"):
            spec = PS_SPECS["blur_more"] if name == "despeckle" else PS_SPECS[name]
            padded = np.pad(plane, 1, mode="edge")
            for y0, y1, x0, x1 in _iter_tiles(height, width, PHOTOSHOP_TILE):
                out[y0:y1, x0:x1] = _legacy_conv_tile(spec, padded, y0, y1, x0, x1)
        elif name == "equalize":
            hist = np.bincount(plane.ravel(), minlength=256).astype(np.float64)
            cdf = np.cumsum(hist)
            mapping = ((cdf * 255) // max(cdf[-1], 1)).astype(np.uint8)
            for y0, y1, x0, x1 in _iter_tiles(height, width, PHOTOSHOP_TILE):
                tile = mapping[plane[y0:y1, x0:x1]].astype(np.float64)
                out[y0:y1, x0:x1] = tile.astype(np.uint8)
        else:
            raise KeyError(name)
        outputs[channel] = out
    return outputs


#: IrfanView is compiled for maximal processor compatibility and executes the
#: stencils as scalar x87 code with heavy partial-register traffic (paper
#: section 6.1).  Element-granularity simulation is too slow in Python, so the
#: scanline-granularity model below repeats each scanline's work this many
#: times to account for the per-element overhead it cannot express directly.
IRFANVIEW_SCALAR_OVERHEAD = 3


def legacy_irfanview_filter(name: str, image: np.ndarray) -> np.ndarray:
    """Run one IrfanView filter the way the legacy binary runs it.

    ``image`` is an interleaved (H, W, 3) uint8 array.  IrfanView converts to
    floating point, walks the image one channel of one scanline at a time and
    pays a fixed preparation cost per filter invocation.
    """
    height = image.shape[0]
    as_float = image.astype(np.float64)
    # Preparation step (colour-space setup, buffer copies).
    for _ in range(4):
        as_float = as_float.copy()
    out = np.zeros_like(as_float)
    if name in ("invert", "solarize"):
        for y in range(height):
            for c in range(3):
                for _ in range(IRFANVIEW_SCALAR_OVERHEAD):
                    row = as_float[y, :, c].copy()
                    if name == "invert":
                        result = 255.0 - row
                    else:
                        result = np.where(row >= 128, 255.0 - row, row)
                out[y, :, c] = result
        return np.rint(out).astype(np.uint8)
    spec = IV_SPECS[name]
    padded = np.pad(as_float, ((1, 1), (1, 1), (0, 0)), mode="edge")
    # One channel of one scanline at a time, the way the maximally-compatible
    # x87 code walks the image.
    for y in range(height):
        for c in range(3):
            for _ in range(IRFANVIEW_SCALAR_OVERHEAD):
                acc = np.zeros(image.shape[1], dtype=np.float64)
                for (dy, dx), weight in spec.weights.items():
                    tap = padded[1 + y + dy, 1 + dx: 1 + dx + image.shape[1], c].copy()
                    acc += weight * tap
            out[y, :, c] = np.rint(acc)
    return (out.astype(np.int64) & 0xFF).astype(np.uint8)


def legacy_minigmg_smooth(grid: np.ndarray, a: float, b: float,
                          iterations: int = 4) -> np.ndarray:
    """The legacy OpenMP smoother: plane-by-plane, row-by-row traversal."""
    current = grid.copy()
    nz, ny, nx = (s - 2 for s in grid.shape)
    for _ in range(iterations):
        new = current.copy()
        for k in range(1, nz + 1):
            for j in range(1, ny + 1):
                row = current[k, j, 1:nx + 1]
                neighbours = (current[k, j, 0:nx] + current[k, j, 2:nx + 2] +
                              current[k, j - 1, 1:nx + 1] + current[k, j + 1, 1:nx + 1] +
                              current[k - 1, j, 1:nx + 1] + current[k + 1, j, 1:nx + 1])
                new[k, j, 1:nx + 1] = a * row + b * neighbours
        current = new
    return current
