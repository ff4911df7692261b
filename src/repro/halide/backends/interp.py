"""The interpreter backend: the tree-walking oracle behind the interface.

Region evaluation and reduction sweeps both walk the expression tree with
vectorized NumPy ops (:mod:`repro.halide.realize`).  Every other engine is
validated bit-for-bit against this one — through the same loop nest the
compiled engine runs — and serving degrades to it, so its frames never
fire the ``kernel.execute`` fault site.
"""

from __future__ import annotations

import functools

from ..realize import realize_region_interp, reduce_region_interp
from .base import Backend


class InterpBackend(Backend):
    name = "interp"
    frame_fault_site = None

    def kernels(self, func) -> tuple:
        return (functools.partial(realize_region_interp, func),
                functools.partial(reduce_region_interp, func))
