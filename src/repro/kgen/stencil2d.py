"""Legacy code generator for 2-D integer convolution stencils.

Emits the planar-u8 3x3 (or 5-point) stencil kernels used by the simulated
Photoshop application: an inner loop unrolled by three with a scalar fix-up
loop, accumulators in registers, counters spilled to the stack, optional
saturation via data-dependent branches, and either a shift or a fixed-point
reciprocal multiply for the normalization divide.

Kernel signature (cdecl)::

    filter(src, dst, width, height, src_stride, dst_stride, param)

``src``/``dst`` point at the first *interior* pixel of padded planes, so the
stencil can read one pixel of padding on every side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import AsmBuilder, apply_weight, arg_offset, emit_epilogue, emit_prologue

#: Tap offsets are (dy, dx) -> integer weight.
Taps = dict[tuple[int, int], int]


@dataclass
class Conv2DSpec:
    """Specification of a 2-D integer convolution kernel."""

    name: str
    taps: Taps
    shift: int = 0
    bias: int = 0
    clamp: bool = False
    #: When set, normalize with ``(acc * reciprocal) >> 16`` instead of a shift.
    reciprocal: int | None = None
    unroll: int = 3


# Argument offsets for the standard stencil signature.
ARG_SRC, ARG_DST, ARG_WIDTH, ARG_HEIGHT = (arg_offset(i) for i in range(4))
ARG_SSTRIDE, ARG_DSTRIDE, ARG_PARAM = (arg_offset(i) for i in range(4, 7))

# Local stack slots.
LOC_WIDTH = "-0x4"
LOC_ROWS = "-0x8"
LOC_X = "-0xc"


def _emit_pixel(asm: AsmBuilder, spec: Conv2DSpec, offset: int) -> None:
    """Emit the computation of one output pixel at byte offset ``offset``."""
    row_regs = {-1: "esi", 0: "eax", 1: "edi"}
    asm.emit(f"mov ecx, {spec.bias:#x}")
    for (dy, dx), weight in sorted(spec.taps.items()):
        reg = row_regs[dy]
        disp = offset + dx
        disp_text = f"+{disp:#x}" if disp > 0 else (f"-{abs(disp):#x}" if disp < 0 else "")
        asm.emit(f"movzx edx, byte ptr [{reg}{disp_text}]")
        apply_weight(asm, "edx", "ecx", weight)
    if spec.reciprocal is not None:
        asm.emit(f"imul ecx, ecx, {spec.reciprocal:#x}")
        asm.emit("shr ecx, 16")
    elif spec.shift:
        negative_possible = any(w < 0 for w in spec.taps.values())
        asm.emit(f"{'sar' if negative_possible else 'shr'} ecx, {spec.shift}")
    if spec.clamp:
        low_ok = asm.fresh_label("clamp_low_ok")
        store = asm.fresh_label("clamp_store")
        asm.emit("cmp ecx, 0")
        asm.emit(f"jge {low_ok}")
        asm.emit("xor ecx, ecx")
        asm.emit(f"jmp {store}")
        asm.place(low_ok)
        asm.emit("cmp ecx, 0xff")
        asm.emit(f"jle {store}")
        asm.emit("mov ecx, 0xff")
        asm.place(store)
    disp_text = f"+{offset:#x}" if offset else ""
    asm.emit(f"mov byte ptr [ebx{disp_text}], cl")


def emit_conv2d(spec: Conv2DSpec) -> str:
    """Generate the assembly text for a :class:`Conv2DSpec`."""
    asm = AsmBuilder(spec.name)
    emit_prologue(asm)
    # Row pointers: eax = current source row, esi = row above, edi = row
    # below, ebx = destination row.  Counters live in stack slots so the
    # pixel body can use ecx/edx freely.
    asm.emit(f"mov eax, dword ptr [ebp+{ARG_SRC:#x}]")
    asm.emit(f"mov ebx, dword ptr [ebp+{ARG_DST:#x}]")
    asm.emit(f"mov ecx, dword ptr [ebp+{ARG_SSTRIDE:#x}]")
    asm.emit("mov esi, eax")
    asm.emit("sub esi, ecx")
    asm.emit("lea edi, [eax+ecx]")
    asm.emit(f"mov edx, dword ptr [ebp+{ARG_WIDTH:#x}]")
    asm.emit(f"mov dword ptr [ebp{LOC_WIDTH}], edx")
    asm.emit(f"mov edx, dword ptr [ebp+{ARG_HEIGHT:#x}]")
    asm.emit(f"mov dword ptr [ebp{LOC_ROWS}], edx")

    row_loop = asm.label("row_loop")
    unroll_loop = asm.label("unroll_loop")
    fixup_loop = asm.label("fixup_loop")
    row_done = asm.label("row_done")
    done = asm.label("done")

    asm.place(row_loop)
    asm.emit(f"mov edx, dword ptr [ebp{LOC_WIDTH}]")
    asm.emit(f"mov dword ptr [ebp{LOC_X}], edx")

    asm.place(unroll_loop)
    asm.emit(f"cmp dword ptr [ebp{LOC_X}], {spec.unroll}")
    asm.emit(f"jl {fixup_loop}")
    for offset in range(spec.unroll):
        _emit_pixel(asm, spec, offset)
    asm.emit(f"add eax, {spec.unroll}")
    asm.emit(f"add esi, {spec.unroll}")
    asm.emit(f"add edi, {spec.unroll}")
    asm.emit(f"add ebx, {spec.unroll}")
    asm.emit(f"sub dword ptr [ebp{LOC_X}], {spec.unroll}")
    asm.emit(f"jmp {unroll_loop}")

    asm.place(fixup_loop)
    asm.emit(f"cmp dword ptr [ebp{LOC_X}], 0")
    asm.emit(f"jz {row_done}")
    _emit_pixel(asm, spec, 0)
    asm.emit("inc eax")
    asm.emit("inc esi")
    asm.emit("inc edi")
    asm.emit("inc ebx")
    asm.emit(f"dec dword ptr [ebp{LOC_X}]")
    asm.emit(f"jmp {fixup_loop}")

    asm.place(row_done)
    asm.emit(f"mov ecx, dword ptr [ebp+{ARG_SSTRIDE:#x}]")
    asm.emit(f"sub ecx, dword ptr [ebp{LOC_WIDTH}]")
    asm.emit("add eax, ecx")
    asm.emit("add esi, ecx")
    asm.emit("add edi, ecx")
    asm.emit(f"mov ecx, dword ptr [ebp+{ARG_DSTRIDE:#x}]")
    asm.emit(f"sub ecx, dword ptr [ebp{LOC_WIDTH}]")
    asm.emit("add ebx, ecx")
    asm.emit(f"dec dword ptr [ebp{LOC_ROWS}]")
    asm.emit(f"jnz {row_loop}")

    asm.place(done)
    emit_epilogue(asm)
    return asm.text()


def reference_conv2d(spec: Conv2DSpec, padded_plane, pad: int = 1):
    """NumPy reference for a :class:`Conv2DSpec` over one padded plane.

    ``padded_plane`` is the (height + 2*pad, width + 2*pad) uint8 source; the
    result is the (height, width) interior, computed exactly the way the
    generated assembly computes it (32-bit arithmetic, truncating shift /
    reciprocal multiply, optional clamp, low-byte store).
    """
    import numpy as np

    plane = np.asarray(padded_plane, dtype=np.int64)
    height = plane.shape[0] - 2 * pad
    width = plane.shape[1] - 2 * pad
    acc = np.full((height, width), spec.bias, dtype=np.int64)
    for (dy, dx), weight in spec.taps.items():
        window = plane[pad + dy: pad + dy + height, pad + dx: pad + dx + width]
        acc += weight * window
    if spec.reciprocal is not None:
        acc = (acc * spec.reciprocal) >> 16
    elif spec.shift:
        acc = acc >> spec.shift
    if spec.clamp:
        acc = np.clip(acc, 0, 255)
    return (acc & 0xFF).astype(np.uint8)
