"""Feeding freshly lifted kernels into the batched realization service.

This closes the loop the ROADMAP's serving story needs: a kernel that was
just lifted from the legacy binary (or loaded warm from the artifact store)
is handed straight to :class:`repro.halide.serve.PipelineServer`, which
compiles it once and fans a batch of full-size frames out across the shared
worker pool.  ``python -m repro serve <app> <filter>`` is a thin wrapper over
:func:`serve_lifted`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import LiftResult
from ..halide.func import Func
from ..halide.serve import BatchResult, PipelineServer
from .lifted import (irfanview_kernel_request, kernel_inputs,
                     photoshop_kernel_request)


def make_serve_requests(result: LiftResult, frames: Sequence[np.ndarray]
                        ) -> tuple[Func, list[dict]]:
    """Map full-size frames onto serving requests for one lifted kernel.

    Returns the :class:`Func` to serve plus one
    ``{"shape": ..., "buffers": ...}`` request per frame.  Frame layout is
    app-specific: a 2-D plane for Photoshop (served through the first
    kernel's channel), an interleaved ``(height, width, 3)`` image for
    IrfanView, and a ghosted ``(nz+2, ny+2, nx+2)`` grid for miniGMG.
    """
    if not frames:
        raise ValueError("need at least one frame to serve")
    if result.app_name == "photoshop":
        kernel = sorted(result.kernels, key=lambda k: k.output)[0]
        func = result.funcs[kernel.output]
        requests = []
        for frame in frames:
            planes = {channel: frame for channel in ("r", "g", "b")}
            requests.append(photoshop_kernel_request(
                result, result.filter_name, kernel, "r", planes))
        return func, requests
    if result.app_name == "irfanview":
        kernel = result.kernels[0]
        func = result.funcs[kernel.output]
        return func, [irfanview_kernel_request(result, result.filter_name, frame)
                      for frame in frames]
    if result.app_name == "minigmg":
        kernel = result.kernels[0]
        func = result.funcs[kernel.output]
        names = kernel_inputs(result, kernel)[0]
        requests = []
        for grid in frames:
            nz, ny, nx = (extent - 2 for extent in grid.shape)
            requests.append({"shape": (nx, ny, nz),
                             "buffers": dict.fromkeys(names, grid)})
        return func, requests
    raise KeyError(f"no serving request builder for app {result.app_name!r}")


def serve_lifted(result: LiftResult, frames: Sequence[np.ndarray], *,
                 max_pending: int | None = None,
                 engine: str | None = None,
                 deadline: float | None = None,
                 retries: int | None = None,
                 warm_start: bool = True,
                 store=None) -> BatchResult:
    """Serve a batch of frames through one lifted kernel, compile-once.

    The end of the lift-and-serve path: ``LiftSession.run()`` (cold or warm)
    produces the ``result``; this compiles its kernel a single time inside
    :class:`PipelineServer` and realizes every frame across the worker pool,
    returning the batch outputs plus per-request timing.  The server is
    handed the batch's frame shape so a persisted tuning record for this
    kernel + shape (``python -m repro tune``) warm-starts the schedule at
    zero timing cost; ``warm_start=False`` serves with the lifted schedule
    as-is.
    """
    func, requests = make_serve_requests(result, frames)
    # Request shapes are x-first (innermost-first); the tuning database and
    # PipelineServer speak NumPy (outermost-first) order.
    frame_shape = tuple(reversed(requests[0]["shape"]))
    with PipelineServer(func, max_pending=max_pending, engine=engine,
                        frame_shape=frame_shape, warm_start=warm_start,
                        store=store) as server:
        return server.realize_batch(requests, deadline=deadline,
                                    retries=retries)
