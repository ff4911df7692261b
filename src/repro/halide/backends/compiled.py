"""The compiled backend: cached fused-NumPy kernels behind the interface.

One kernel per Func structure (:func:`repro.halide.compile.compile_func`,
codegen paid once per structural signature): a lowered ``Store`` runs the
kernel's fused, CSE'd, narrow-dtype region body at any origin, writing into
the destination view, and a ``ReduceLoop`` its region-parameterized update
sweep.  Stores whose expressions cannot be lowered fall back to the
interpreter's region evaluator, keeping ``compiled`` always safe.
"""

from __future__ import annotations

from ..compile import compile_func
from .base import Backend


class CompiledBackend(Backend):
    name = "compiled"

    def kernels(self, func) -> tuple:
        kernel = compile_func(func)
        return kernel.evaluate_region, kernel.reduce_region
