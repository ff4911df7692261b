"""NumPy realization of mini-Halide functions.

Evaluates a :class:`~repro.halide.func.Func` over its output domain using
vectorized NumPy: :func:`realize` runs the Func's scheduled loop nest on any
engine, :func:`realize_interp` is the schedule-free oracle.  Integer arithmetic is
performed in int64 and wrapped at casts, which reproduces the 32-bit x86
arithmetic of the original kernels bit-for-bit for the value ranges stencils
produce; floating point follows IEEE double like the x87/SSE originals.
"""

from __future__ import annotations

import os
import threading
from typing import Mapping

import numpy as np

from ..ir import (
    BinOp,
    BufferAccess,
    Call,
    Cast,
    Const,
    Expr,
    Op,
    Param,
    Select,
    Store,
    UnOp,
    Var,
)
# _strip_self_reference lives in func.py (next to the associativity test it
# underpins) and stays importable from here for the compiled backend.
from .func import Func, _strip_self_reference  # noqa: F401
from .lower import _shift_of_index, func_output_buffer, lower_func


class RealizationError(Exception):
    """Raised when an expression cannot be evaluated."""


def _wrap_cast(values: np.ndarray, dtype) -> np.ndarray:
    if dtype.is_float:
        return np.asarray(values).astype(np.float64 if dtype.bits == 64 else np.float32,
                                         copy=False)
    mask = (1 << dtype.bits) - 1
    wrapped = np.asarray(values).astype(np.int64, copy=False) & mask
    if dtype.is_signed:
        sign_bit = 1 << (dtype.bits - 1)
        wrapped = np.where(wrapped >= sign_bit, wrapped - (1 << dtype.bits), wrapped)
    return wrapped


def _evaluate(expr: Expr, env: Mapping[str, np.ndarray],
              buffers: Mapping[str, np.ndarray], params: Mapping[str, float]) -> np.ndarray:
    if isinstance(expr, Const):
        return np.asarray(expr.value)
    if isinstance(expr, Var):
        if expr.name not in env:
            raise RealizationError(f"unbound variable {expr.name}")
        return env[expr.name]
    if isinstance(expr, Param):
        if expr.name in params:
            return np.asarray(params[expr.name])
        return np.asarray(expr.value)
    if isinstance(expr, BufferAccess):
        array = buffers.get(expr.buffer)
        if array is None:
            raise RealizationError(f"no binding for buffer {expr.buffer}")
        sliced = _sliced_access(expr, array, env)
        if sliced is not None:
            return sliced.astype(np.int64) if not expr.dtype.is_float \
                else sliced.astype(np.float64)
        indices = [np.asarray(_evaluate(i, env, buffers, params)).astype(np.int64)
                   for i in expr.indices]
        # Buffer indices are innermost-first; numpy arrays are outermost-first.
        np_index = tuple(reversed([np.broadcast_arrays(*indices)[k] if len(indices) > 1 else indices[k]
                                   for k in range(len(indices))]))
        return array[np_index].astype(np.int64) if not expr.dtype.is_float \
            else array[np_index].astype(np.float64)
    if isinstance(expr, BinOp):
        a = _evaluate(expr.a, env, buffers, params)
        b = _evaluate(expr.b, env, buffers, params)
        return _apply_binop(expr.op, a, b, expr.dtype.is_float)
    if isinstance(expr, UnOp):
        a = _evaluate(expr.a, env, buffers, params)
        if expr.op == Op.NEG:
            return -a
        if expr.op == Op.NOT:
            return ~np.asarray(a).astype(np.int64)
        if expr.op == Op.ABS:
            return np.abs(a)
        raise RealizationError(f"unknown unary operator {expr.op}")
    if isinstance(expr, Cast):
        return _wrap_cast(np.asarray(_evaluate(expr.a, env, buffers, params)), expr.dtype)
    if isinstance(expr, Select):
        cond = _evaluate(expr.cond, env, buffers, params)
        a = _evaluate(expr.if_true, env, buffers, params)
        b = _evaluate(expr.if_false, env, buffers, params)
        return np.where(cond != 0, a, b)
    if isinstance(expr, Call):
        args = [_evaluate(a, env, buffers, params) for a in expr.args]
        if expr.func == "round":
            return np.rint(args[0]).astype(np.int64)
        if expr.func in ("sqrt", "floor", "ceil"):
            return getattr(np, expr.func)(args[0])
        raise RealizationError(f"unknown call {expr.func}")
    raise RealizationError(f"cannot evaluate {type(expr).__name__}")


#: Env key carrying the region an expression is evaluated over:
#: ``(var_position, origin, extent)`` with origin/extent in NumPy axis order.
_REGION = "__region__"


def _sliced_access(expr: BufferAccess, array: np.ndarray, env: Mapping) -> np.ndarray | None:
    """Fast path: shifted-window accesses become array slices.

    This is the mini-Halide equivalent of the real compiler generating dense
    vector loads for ``input(x+1, y)`` style accesses instead of gathers; it
    is what makes the realized kernels competitive in the benchmarks.  Applies
    when the access has the same rank as the output and index position ``p``
    is ``x_p + c`` — i.e. a shifted window aligned with the iteration space —
    and the window at the region's origin lies inside the buffer.
    """
    region = env.get(_REGION)
    if region is None:
        return None
    var_position, origin, extent = region
    rank = len(extent)
    if array.ndim != len(expr.indices) or array.ndim != rank:
        return None
    slices: list = [None] * rank
    for position, idx_expr in enumerate(expr.indices):
        shift = _shift_of_index(idx_expr)
        if shift is None or var_position.get(shift[0]) != position:
            return None
        offset = shift[1]
        axis = rank - 1 - position
        start = origin[axis] + offset
        if start < 0 or start + extent[axis] > array.shape[axis]:
            return None
        slices[axis] = slice(start, start + extent[axis])
    return array[tuple(slices)]


def _as_int(value):
    array = np.asarray(value)
    return array if array.dtype == np.int64 else array.astype(np.int64, copy=False)


def _trunc_divide(a, b):
    """Integer division truncating toward zero, matching x86 ``idiv``.

    Python's ``//`` floors, which differs for exactly one negative operand
    (``-7 // 2 == -4`` but ``idiv`` gives ``-3``); lifted kernels must realize
    the division the traced binary performed.

    A zero divisor raises :class:`RealizationError` — x86 ``idiv`` faults
    (``#DE``), so the one semantics both engines share is a hard error, not
    NumPy's warning-plus-garbage.  (Compiled kernels call this same helper,
    so the check cannot diverge between engines.)
    """
    b = np.asarray(b)
    if b.size and not np.all(b):
        raise RealizationError(
            "integer division by zero (x86 idiv raises #DE)")
    quotient = np.floor_divide(a, b)
    remainder = a - quotient * b
    return quotient + ((remainder != 0) & ((a < 0) != (b < 0)))


def _trunc_remainder(a, b):
    """Integer remainder with the dividend's sign, matching x86 ``idiv``.

    Shares :func:`_trunc_divide`'s zero-divisor semantics: a hard
    :class:`RealizationError` in both engines.
    """
    return a - _trunc_divide(a, b) * b


def _apply_binop(op: str, a, b, is_float: bool):
    if op == Op.ADD:
        return a + b
    if op == Op.SUB:
        return a - b
    if op == Op.MUL:
        return a * b
    if op == Op.DIV:
        return a / b if is_float else _trunc_divide(_as_int(a), _as_int(b))
    if op == Op.MOD:
        return _trunc_remainder(_as_int(a), _as_int(b))
    if op in (Op.SHR, Op.SAR):
        return _as_int(a) >> _as_int(b)
    if op == Op.SHL:
        return _as_int(a) << _as_int(b)
    if op == Op.AND:
        return _as_int(a) & _as_int(b)
    if op == Op.OR:
        return _as_int(a) | _as_int(b)
    if op == Op.XOR:
        return _as_int(a) ^ _as_int(b)
    if op == Op.MIN:
        return np.minimum(a, b)
    if op == Op.MAX:
        return np.maximum(a, b)
    if op == Op.LT:
        return (a < b).astype(np.int64)
    if op == Op.LE:
        return (a <= b).astype(np.int64)
    if op == Op.GT:
        return (a > b).astype(np.int64)
    if op == Op.GE:
        return (a >= b).astype(np.int64)
    if op == Op.EQ:
        return (a == b).astype(np.int64)
    if op == Op.NE:
        return (a != b).astype(np.int64)
    raise RealizationError(f"unknown operator {op}")


#: Engines: "interp" walks the expression tree with NumPy ops (the oracle);
#: "compiled" lowers the Func to a fused, CSE'd kernel once and caches it;
#: "native" compiles a lowered pipeline's whole loop nest to C (single Funcs,
#: and hosts without a C toolchain, run the compiled kernels).
ENGINES = ("interp", "compiled", "native")

DEFAULT_ENGINE = os.environ.get("REPRO_REALIZE_ENGINE", "compiled")


def get_default_engine() -> str:
    """The current process-wide default engine (live, not an import snapshot)."""
    return DEFAULT_ENGINE


def set_default_engine(engine: str) -> str:
    """Set the process-wide default engine; returns the previous one."""
    global DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    previous = DEFAULT_ENGINE
    DEFAULT_ENGINE = engine
    return previous


#: Bound on memoized single-Func nests (see :func:`_func_nest`); evicts the
#: least recently used beyond this.
MAX_FUNC_NESTS = 64

_NESTS: dict[tuple, tuple] = {}
#: Guards every access: a hit moves its entry to the end (most recent).
_NESTS_LOCK = threading.Lock()


def _func_nest(func: Func, out_shape: tuple[int, ...],
               source_shape: tuple[int, ...] | None):
    """The :func:`~repro.halide.lower.lower_func` nest for this call, memoized.

    The key holds the objects that define the Func — its value and
    reduction (by identity), dtype and variable names — plus its name,
    tiling, parallel flag and both shapes, so a ``define``, an ``update`` or
    an in-place schedule change lowers afresh.  The nest's nodes memoize
    their kernels, so a warm call resolves none.  Identities in the key stay
    unambiguous because the entry keeps the Func (through the nest's nodes),
    its value and its reduction alive.
    """
    schedule = func.schedule
    key = (id(func), func.name, id(func.value), id(func.reduction),
           func.dtype, tuple([var.name for var in func.variables]),
           schedule.tile_x, schedule.tile_y, schedule.parallel, out_shape,
           source_shape)
    with _NESTS_LOCK:
        entry = _NESTS.pop(key, None)
        if entry is not None:
            _NESTS[key] = entry
            return entry[0]
    nest = lower_func(func, out_shape, source_shape)
    with _NESTS_LOCK:
        _NESTS[key] = (nest, out_shape, source_shape, func.value,
                       func.reduction)
        while len(_NESTS) > MAX_FUNC_NESTS:
            del _NESTS[next(iter(_NESTS))]
    return nest


def executed_nests(func: Func) -> list[tuple]:
    """``(out_shape, source_shape, nest)`` for each nest :func:`realize`
    memoized for ``func`` (what ``python -m repro run --explain`` prints)."""
    with _NESTS_LOCK:
        return [(entry[1], entry[2], entry[0])
                for key, entry in list(_NESTS.items()) if key[0] == id(func)]


def realize(func: Func, shape: tuple[int, ...], buffers: Mapping[str, np.ndarray],
            params: Mapping[str, float] | None = None,
            engine: str | None = None) -> np.ndarray:
    """Realize a function over an output domain.

    ``shape`` gives the extent of each pure variable (innermost first, matching
    the order of ``func.variables``); ``buffers`` binds input buffer names to
    NumPy arrays indexed outermost-first.  ``engine`` selects the interpreter
    ("interp"), the cached compiled-kernel backend ("compiled", the default)
    or the native backend; all are bit-identical.  The process-wide default
    engine comes from ``REPRO_REALIZE_ENGINE`` (see :func:`set_default_engine`).

    Every engine runs the Func's schedule through the same loop nest
    (:func:`repro.halide.lower.lower_func`, memoized per definition, schedule
    and shapes, its kernels memoized on its nodes) on the shared executor: a
    tiled schedule marked ``parallel`` executes its tiles across the shared
    worker pool (``REPRO_NUM_THREADS`` sizes it, ``REPRO_PARALLEL=0``
    disables it), an associative reduction its RDom strips.  For many inputs
    through one function, see :func:`repro.halide.serve.realize_batch`.
    """
    if func.value is None and func.reduction is None:
        raise RealizationError(f"function {func.name} has no definition")
    from .backends import get_backend

    backend = get_backend(engine if engine is not None else DEFAULT_ENGINE)
    out_shape = tuple([int(e) for e in reversed(shape)])
    source_shape = None
    if func.reduction is not None:
        source = buffers.get(func.reduction[0].source)
        if source is None:
            raise RealizationError(
                f"no binding for reduction source {func.reduction[0].source}")
        source_shape = tuple(source.shape)
    nest = _func_nest(func, out_shape, source_shape)
    bound = dict(buffers)
    name = func_output_buffer(func)
    if not isinstance(nest, Store):
        # Tiles and reduction sweeps write into the output; a lone
        # whole-output Store materializes it itself.
        allocate = np.empty if func.value is not None else np.zeros
        bound[name] = allocate(out_shape, dtype=func.dtype.to_numpy())
    backend.run(nest, bound, params, frame_shape=source_shape or out_shape)
    return bound[name]


def realize_interp(func: Func, shape: tuple[int, ...], buffers: Mapping[str, np.ndarray],
                   params: Mapping[str, float] | None = None) -> np.ndarray:
    """The tree-walking NumPy realizer: every engine's bit-exactness oracle.

    A full-domain :func:`realize_region_interp` plus, for reductions, the
    full-domain :func:`reduce_region_interp` sweep — schedules play no part.
    """
    if func.value is None and func.reduction is None:
        raise RealizationError(f"function {func.name} has no definition")
    np_shape = tuple(int(e) for e in reversed(shape))
    if func.value is not None:
        output = realize_region_interp(func, (0,) * len(np_shape), np_shape,
                                       buffers, params)
    else:
        output = np.zeros(np_shape, dtype=func.dtype.to_numpy())
    if func.reduction is not None:
        rdom = func.reduction[0]
        source = buffers.get(rdom.source)
        if source is None:
            raise RealizationError(f"no binding for reduction source {rdom.source}")
        reduce_region_interp(func, output, (0,) * source.ndim, source.shape,
                             buffers, params)
    return output


def reduce_region_interp(func: Func, out: np.ndarray,
                         origin: tuple[int, ...], extent: tuple[int, ...],
                         buffers: Mapping[str, np.ndarray],
                         params: Mapping[str, float] | None = None) -> np.ndarray:
    """Apply a Func's reduction update over one RDom sub-region, in place.

    ``origin``/``extent`` restrict the sweep to a rectangle of the reduction
    source (NumPy axis order, global source coordinates); the full-domain
    call is exactly :func:`realize_interp`'s reduction phase.  Associative
    updates (``f(idx) + k``) accumulate with ``np.add.at`` so disjoint
    sub-region sweeps sum to the whole-domain result; non-associative
    updates scatter-assign and must only ever be swept whole-domain.  This
    is the interpreter backend's primitive for lowered
    :class:`~repro.ir.stmt.ReduceLoop` nodes and the fallback the compiled
    backend uses when its reduction body cannot run.
    """
    params = params or {}
    if func.reduction is None:
        raise RealizationError(f"function {func.name} has no reduction update")
    rdom, index_exprs, update = func.reduction
    grids = np.meshgrid(*[np.arange(int(o), int(o) + int(e))
                          for o, e in zip(origin, extent)], indexing="ij")
    env = {}
    for position, var in enumerate(rdom.vars()):
        env[var.name] = grids[len(extent) - 1 - position]
    buffers_with_output = dict(buffers)
    buffers_with_output[func.name] = out
    indices = [np.asarray(_evaluate(e, env, buffers_with_output, params)).astype(np.int64)
               for e in index_exprs]
    np_index = tuple(reversed(indices))
    # Evaluate the update right-hand side with the *current* output, then
    # apply increments with np.add.at so repeated bins accumulate.
    update_wo_self = _strip_self_reference(update, func.name)
    if update_wo_self is not None:
        increment = _evaluate(update_wo_self, env, buffers_with_output, params)
        np.add.at(out, np_index, np.broadcast_to(increment, indices[0].shape)
                  .astype(out.dtype))
    else:
        values = _evaluate(update, env, buffers_with_output, params)
        out[np_index] = _wrap_cast(values, func.dtype).astype(func.dtype.to_numpy())
    return out


def realize_region_interp(func: Func, origin: tuple[int, ...],
                          extent: tuple[int, ...],
                          buffers: Mapping[str, np.ndarray],
                          params: Mapping[str, float] | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a pure Func over one region via the tree-walking oracle.

    ``origin``/``extent`` are in NumPy (outermost-first) axis order; the
    variable grids start at ``origin``, so expressions see the same
    coordinates a full-frame realization would, and shifted-window loads
    that stay inside their buffer take the slice fast path.  The result is
    written into ``out`` (allocated when None) and returned.  This is the
    interpreter backend's primitive for lowered ``Store`` nodes, and the
    fallback the compiled backend uses when a store kernel cannot be
    lowered.
    """
    if func.value is None:
        raise RealizationError(f"function {func.name} has no pure definition")
    params = params or {}
    origin = tuple(int(o) for o in origin)
    np_shape = tuple(int(e) for e in extent)
    rank = len(np_shape)
    env: dict = {}
    for position, var in enumerate(func.variables):
        # variables are innermost-first; axes are outermost-first.
        axis = rank - 1 - position
        env[var.name] = np.arange(origin[axis], origin[axis] + np_shape[axis]) \
            .reshape((1,) * axis + (-1,) + (1,) * (rank - 1 - axis)) \
            if rank else np.asarray(0)
    env[_REGION] = ({var.name: position
                     for position, var in enumerate(func.variables)},
                    origin, np_shape)
    values = _evaluate(func.value, env, buffers, params)
    if out is None:
        out = np.empty(np_shape, dtype=func.dtype.to_numpy())
    np.copyto(out, _wrap_cast(values, func.dtype), casting="unsafe")
    return out
