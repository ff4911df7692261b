"""Running lifted kernels on full-size workloads.

The Helium workflow lifts a kernel from a trace over a small image; the lifted
Halide function is then compiled (here: realized through the vectorized NumPy
backend) and applied to arbitrarily large images.  This module packages that
"standalone executable" path used throughout the evaluation (section 6.2).

The ``lift_*`` helpers resolve their scenario through the app/filter registry
(:mod:`repro.apps.registry`) and go through the **persistent artifact store**:
the first lift of a scenario on a machine performs the instrumented runs and
persists every stage artifact; every later lift — in this process (an
in-process memo keeps object identity) or any later one — deserializes the
artifacts and performs zero instrumented runs.

:func:`lifted_pipeline` chains an app's lifted filters (the fig 8 pipelines)
into one :class:`~repro.halide.pipeline.FuncPipeline`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Sequence

import numpy as np

from ..apps.photoshop import FILTER_SPECS as PS_SPECS
from ..core import LiftResult, lift_scenario
from ..halide.pipeline import FuncPipeline
from ..halide.realize import realize

_memo: dict[tuple[str, str], LiftResult] = {}
_memo_lock = threading.Lock()


def _lift_cached(app_name: str, filter_name: str) -> LiftResult:
    """Store-backed lift of a registered scenario, memoized per process."""
    key = (app_name, filter_name)
    with _memo_lock:
        cached = _memo.get(key)
    if cached is not None:
        return cached
    result = lift_scenario(app_name, filter_name)
    with _memo_lock:
        return _memo.setdefault(key, result)


def clear_lift_memo() -> None:
    """Drop the in-process lift memo (store artifacts are unaffected)."""
    with _memo_lock:
        _memo.clear()


def lift_photoshop_filter(filter_name: str) -> LiftResult:
    """Lift one Photoshop filter from its registered trace scenario (cached)."""
    return _lift_cached("photoshop", filter_name)


def lift_irfanview_filter(filter_name: str) -> LiftResult:
    return _lift_cached("irfanview", filter_name)


def lift_minigmg_smooth() -> LiftResult:
    return _lift_cached("minigmg", "smooth")


#: Photoshop and IrfanView filters whose lifted kernels read a one-pixel
#: halo (the app pads every edge by one pixel before running them).
PS_PADDED_FILTERS = ("blur", "blur_more", "sharpen", "sharpen_more",
                     "box_blur", "sharpen_edges", "despeckle")
IV_PADDED_FILTERS = ("blur", "sharpen", "emboss")
_PADDED_FILTERS = {"photoshop": PS_PADDED_FILTERS,
                   "irfanview": IV_PADDED_FILTERS}


def _halo(app_name: str, filter_name: str, ndim: int) -> tuple | None:
    """``np.pad`` widths of the halo a filter's kernel reads around an
    ``ndim``-D image, or None (an interleaved channel axis is not padded)."""
    if filter_name not in _PADDED_FILTERS[app_name]:
        return None
    return ((1, 1), (1, 1)) + ((0, 0),) * (ndim - 2)


def _pad_plane(plane: np.ndarray, pad_width: tuple | None) -> np.ndarray:
    """``plane`` edge-padded by ``pad_width``; ``plane`` itself for None."""
    return plane if pad_width is None else np.pad(plane, pad_width, mode="edge")


#: ``id(result)`` -> facts derived from a LiftResult's kernels once: lookup
#: tables, input names, reduction output shapes.  A finalizer drops the
#: entry with its LiftResult, so an id is never read after it can be
#: reused; the result itself, a pickled store artifact, never holds them.
_FACTS: dict[int, dict] = {}

#: Reduction output shapes one kernel remembers before forgetting them all.
_MAX_SHAPES = 32


def _facts(result: LiftResult) -> dict:
    facts = _FACTS.get(id(result))
    if facts is None:
        facts = _FACTS.setdefault(id(result), {})
        weakref.finalize(result, _FACTS.pop, id(result), None)
    return facts


def kernel_inputs(result: LiftResult, kernel) -> tuple[tuple[str, ...],
                                                        tuple[str, ...]]:
    """``(inputs, image inputs)`` of one of ``result``'s kernels, sorted.

    The buffers a request binds, and those of them that are frames rather
    than lookup tables (traced 1-D buffers); walked once per LiftResult.
    """
    facts = _facts(result)
    found = facts.get(("inputs", kernel.output))
    if found is None:
        names = tuple(sorted(kernel.input_names))
        images = tuple(name for name in names
                       if result.buffer_specs.get(name) is None
                       or result.buffer_specs[name].dimensionality > 1)
        found = facts.setdefault(("inputs", kernel.output), (names, images))
    return found


def reduction_output_shape(result: LiftResult, kernel,
                           source_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Output extents (innermost-first) of a lifted reduction kernel.

    A reduction kernel realizes over its *accumulator* domain, not the
    frame: a histogram's bins, a column-sum's per-column slots.  Per output
    dimension, a **data-dependent** index (one that reads buffer values,
    e.g. ``hist(input(r_0, r_1))``) keeps the traced table extent — the bin
    count is a property of the data width, not the frame size — while a
    **coordinate** index (affine in the reduction variables, e.g.
    ``colsum(r_0)``) scales with the full-size frame: its extent is the
    index's maximum over the RDom corner points, plus one.
    ``source_shape`` is the full-size RDom source in NumPy (outermost-first)
    order.  Remembered per LiftResult, kernel and source shape.
    """
    shapes = _facts(result).setdefault(("shapes", kernel.output), {})
    key = tuple(source_shape)
    shape = shapes.get(key)
    if shape is None:
        if len(shapes) >= _MAX_SHAPES:
            shapes.clear()
        shape = shapes[key] = _reduction_output_shape(result, kernel, key)
    return shape


def _reduction_output_shape(result: LiftResult, kernel,
                            source_shape: tuple[int, ...]) -> tuple[int, ...]:
    from ..ir import BufferAccess, evaluate

    func = result.funcs[kernel.output]
    rdom, index_exprs, _update = func.reduction
    spec = result.buffer_specs.get(kernel.output)
    dims = rdom.dimensions
    # r_d is innermost-first; source_shape is outermost-first.
    extents = [int(source_shape[dims - 1 - d]) for d in range(dims)]
    corners = [{f"r_{d}": choice[d] for d in range(dims)}
               for choice in _corner_points(extents)]
    shape = []
    for position, expr in enumerate(index_exprs):
        if any(isinstance(node, BufferAccess) for node in expr.walk()):
            if spec is None or position >= spec.dimensionality:
                raise ValueError(
                    f"no output spec to size dimension {position} of "
                    f"reduction kernel {kernel.output}")
            shape.append(int(spec.extents[position]))
            continue
        shape.append(max(int(evaluate(expr, env)) for env in corners) + 1)
    return tuple(shape)


def _corner_points(extents: list[int]) -> list[tuple[int, ...]]:
    points = [()]
    for extent in extents:
        points = [p + (v,) for p in points for v in (0, max(extent - 1, 0))]
    return points


def _lookup_table(result: LiftResult, name: str) -> np.ndarray:
    """Table input ``name`` of ``result``, read from the traced memory once.

    Every request of the result shares the array, so it is read-only.
    """
    facts = _facts(result)
    table = facts.get(("table", name))
    if table is None:
        table = result.buffer_specs[name].read_array(
            result.trace_run.memory.read_uint)
        table.flags.writeable = False
        table = facts.setdefault(("table", name), table)
    return table


def photoshop_kernel_request(result: LiftResult, filter_name: str,
                             kernel, channel: str,
                             planes: dict[str, np.ndarray]) -> dict:
    """Realization arguments for one Photoshop kernel on full-size planes.

    Returns ``{"shape": ..., "buffers": ...}`` — exactly the keyword form
    :func:`repro.halide.realize.realize` and
    :meth:`repro.halide.serve.PipelineServer.submit` accept.
    """
    channel_order = ("r", "g", "b")
    pad = _halo("photoshop", filter_name, 2)
    height, width = planes[channel].shape
    buffers: dict[str, np.ndarray] = {}
    names, image_inputs = kernel_inputs(result, kernel)
    for name in names:
        if name not in image_inputs:
            # A lookup table input, rebuilt from the traced run once.
            buffers[name] = _lookup_table(result, name)
            continue
        if len(image_inputs) == 1:
            source_channel = channel
        else:
            # Kernels reading several planes (threshold) bind them in
            # buffer order, which follows the r/g/b allocation order.
            source_channel = channel_order[image_inputs.index(name)]
        buffers[name] = _pad_plane(planes[source_channel], pad)
    func = result.funcs.get(kernel.output)
    if func is not None and func.reduction is not None:
        # Reduction kernels realize over their accumulator domain (bins /
        # per-column slots), never the frame shape.
        shape = reduction_output_shape(result, kernel, planes[channel].shape)
        return {"shape": shape, "buffers": buffers}
    return {"shape": (width, height), "buffers": buffers}


def apply_lifted_photoshop(result: LiftResult, filter_name: str,
                           planes: dict[str, np.ndarray],
                           params: dict | None = None,
                           engine: str | None = None) -> dict[str, np.ndarray]:
    """Apply a lifted Photoshop filter to full-size planes.

    The lifted kernels reference one input buffer per colour plane; the same
    symbolic function is applied to each plane (threshold's kernels reference
    all three planes and produce one value per plane).  They also bake in
    the parameter values the lift traced, so ``params`` may only repeat
    those (``result.app_params``); any other value raises ``ValueError``.
    """
    for name, value in (params or {}).items():
        if name not in result.app_params:
            raise ValueError(f"the lift of {result.app_name}/"
                             f"{result.filter_name} traced no parameter "
                             f"{name!r}")
        if value != result.app_params[name]:
            raise ValueError(f"the lift of {result.app_name}/"
                             f"{result.filter_name} traced {name}="
                             f"{result.app_params[name]}, not {name}={value}; "
                             "lift an app built with that value")
    outputs: dict[str, np.ndarray] = {}
    kernels = sorted(result.kernels, key=lambda k: k.output)
    for kernel, channel in zip(kernels, ("r", "g", "b")):
        if channel not in planes:
            # Callers may process a single plane at a time (e.g. per-channel
            # pipeline stages); skip the kernels of the other planes.
            continue
        func = result.funcs[kernel.output]
        request = photoshop_kernel_request(result, filter_name, kernel,
                                           channel, planes)
        outputs[channel] = realize(func, request["shape"], request["buffers"],
                                   engine=engine)
    return outputs


def irfanview_kernel_request(result: LiftResult, filter_name: str,
                             image: np.ndarray) -> dict:
    """Realization arguments for the IrfanView kernel on an interleaved image."""
    kernel = result.kernels[0]
    height, width, channels = image.shape
    padded = _pad_plane(image, _halo("irfanview", filter_name, image.ndim))
    # The lifted kernels index interleaved images as (channel, x, y), which is
    # an outermost-first (y, x, channel) NumPy array.
    buffers = dict.fromkeys(kernel_inputs(result, kernel)[0], padded)
    func = result.funcs.get(kernel.output)
    if func is not None and func.reduction is not None:
        shape = reduction_output_shape(result, kernel, padded.shape)
        return {"shape": shape, "buffers": buffers}
    return {"shape": (channels, width, height), "buffers": buffers}


def apply_lifted_irfanview(result: LiftResult, filter_name: str,
                           image: np.ndarray,
                           engine: str | None = None) -> np.ndarray:
    """Apply a lifted IrfanView filter to a full-size interleaved image."""
    kernel = result.kernels[0]
    func = result.funcs[kernel.output]
    request = irfanview_kernel_request(result, filter_name, image)
    return realize(func, request["shape"], request["buffers"], engine=engine)


def lifted_pipeline(app_name: str, filters: Sequence[str],
                    channel: str = "r") -> FuncPipeline:
    """An app's filter chain as one :class:`FuncPipeline` of its lifts.

    One stage per filter, in order: its lifted kernel (Photoshop: the one
    for ``channel``'s plane; IrfanView: the interleaved image's) reading the
    previous stage's image through the halo its request pads.  Fused or
    not, the chain equals the filters applied one at a time.  A kernel that
    reads more than one buffer (a lookup table, several planes) raises
    ``ValueError``.
    """
    pipeline = FuncPipeline()
    for name in filters:
        result = _lift_cached(app_name, name)
        kernel = sorted(result.kernels, key=lambda k: k.output)[
            "rgb".index(channel) if app_name == "photoshop" else 0]
        names = kernel_inputs(result, kernel)[0]
        if len(names) != 1:
            raise ValueError(f"{app_name}/{name} reads {names}: a chain stage "
                             "reads one image")
        func = result.funcs[kernel.output]
        pipeline.add(func, input_name=names[0], name=name,
                     pad_width=_halo(app_name, name, len(func.variables)))
    return pipeline


def apply_lifted_minigmg(result: LiftResult, grid: np.ndarray,
                         iterations: int = 4,
                         engine: str | None = None) -> np.ndarray:
    """Apply the lifted smooth stencil for several Jacobi iterations.

    Two copies of the grid take turns: each iteration reads one and writes
    its interior into the other, whose ghost zone already holds the grid's.
    """
    kernel = result.kernels[0]
    func = result.funcs[kernel.output]
    names = kernel_inputs(result, kernel)[0]
    nz, ny, nx = (s - 2 for s in grid.shape)
    current, spare = grid.copy(), grid.copy()
    for _ in range(iterations):
        spare[1:nz + 1, 1:ny + 1, 1:nx + 1] = realize(
            func, (nx, ny, nz), dict.fromkeys(names, current), engine=engine)
        current, spare = spare, current
    return current


def photoshop_reference(filter_name: str, planes: dict[str, np.ndarray],
                        params: dict | None = None) -> dict[str, np.ndarray]:
    """Bit-exact reference output for a Photoshop filter on arbitrary planes."""
    from ..kgen import (
        reference_boxblur, reference_conv2d, reference_pointwise, reference_threshold,
        build_brightness_lut,
    )

    params = params or {}
    padded = {c: np.pad(p, 1, mode="edge") for c, p in planes.items()}
    if filter_name in ("blur", "blur_more", "sharpen", "sharpen_more", "sharpen_edges"):
        spec = PS_SPECS[filter_name]
        return {c: reference_conv2d(spec, padded[c]) for c in planes}
    if filter_name == "despeckle":
        return {c: reference_conv2d(PS_SPECS["blur_more"], padded[c]) for c in planes}
    if filter_name == "invert":
        return {c: reference_pointwise(PS_SPECS["invert"], planes[c]) for c in planes}
    if filter_name == "box_blur":
        return {c: reference_boxblur(PS_SPECS["box_blur"], padded[c]) for c in planes}
    if filter_name == "brightness":
        lut = build_brightness_lut(params.get("brightness", 40))
        return {c: reference_pointwise(PS_SPECS["brightness"], planes[c], lut=lut)
                for c in planes}
    if filter_name == "threshold":
        value = reference_threshold(PS_SPECS["threshold"], planes["r"], planes["g"],
                                    planes["b"], params.get("threshold", 128))
        return {c: value.copy() for c in planes}
    raise KeyError(filter_name)
