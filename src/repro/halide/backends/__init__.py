"""Execution backends behind a common interface.

Every engine — the tree-walking interpreter (the bit-exactness oracle),
the compiled fused-NumPy engine, and the native whole-nest C engine —
implements :class:`Backend`: a region evaluator and a reduction sweep,
the primitives the one shared loop-nest executor (:meth:`Backend.run`)
calls for every :class:`~repro.ir.stmt.Store` and
:class:`~repro.ir.stmt.ReduceLoop`, whether the nest is a lowered pipeline
(:meth:`Backend.execute`) or a single Func
(:func:`repro.halide.realize.realize`).  All backends are therefore
*consumers of the same lowered loop nest*: scheduling decisions
(compute_root / compute_at, tiling, parallel tiles, vectorize) live in the
nest, not in the engines.

The native backend (:mod:`.native` + :mod:`.cgen`) demonstrates the plug
point for ahead-of-time codegen: it overrides :meth:`Backend.execute` to
run whole C-compiled segments (GIL released) and degrades per frame to
the compiled engine — bit-identically — whenever a toolchain or cffi is
missing, so it is safe to select unconditionally.
"""

from .base import Backend
from .compiled import CompiledBackend
from .interp import InterpBackend
from .native import NativeBackend

_BACKENDS: dict[str, Backend] = {
    "interp": InterpBackend(),
    "compiled": CompiledBackend(),
    "native": NativeBackend(),
}


def backend_names() -> tuple[str, ...]:
    return tuple(_BACKENDS)


def get_backend(name: str) -> Backend:
    """The registered backend for an engine name (``ValueError`` if none)."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(f"unknown engine {name!r}; expected one of "
                         f"{tuple(_BACKENDS)}")
    return backend


__all__ = ["Backend", "CompiledBackend", "InterpBackend", "NativeBackend",
           "backend_names", "get_backend"]
