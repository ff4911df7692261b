"""Compiled-kernel backend: lower a lifted Func to a fused NumPy kernel.

The interpreter in :mod:`repro.halide.realize` re-walks the expression tree on
every call, paying per-node dispatch, duplicate evaluation of shared subtrees,
full ``int64`` intermediates and a masked wrap for every cast.  This module
lowers a :class:`~repro.halide.func.Func` to Python source implementing one
fused region kernel (plus, for reductions, a region-parameterized update
sweep), ``compile()``s it once, and caches the result keyed on the IR's
structural signature + dtype, so repeated realizations pay codegen exactly
once.  Schedules are not part of a kernel: the shared loop-nest executor
(:mod:`repro.halide.backends.base`) calls the same region kernel for every
tile of every schedule.

The generated kernel is *bit-identical* to the interpreter by construction:

* shared subtrees are evaluated once (CSE via value numbering from
  :mod:`repro.ir.structhash`), which cannot change values;
* integer arithmetic runs in ``int32`` instead of ``int64`` only when interval
  analysis proves every intermediate fits (identical values, half the memory
  traffic), otherwise the kernel mirrors the interpreter's ``int64`` ops;
* casts whose operand provably already lies in the target range skip the
  mask-and-sign-fix wrap entirely;
* shifted-window buffer accesses compile to array slices with the same
  runtime fallback the interpreter uses;
* long integer chains accumulate in place (``np.add(..., out=...)``) when the
  destination temporary is provably dead, eliminating allocations.

Anything the lowering cannot prove or express raises :class:`LoweringError`
and the Func falls back to the interpreter's region evaluator, so
``compiled`` is always safe to use as the default engine.
"""

from __future__ import annotations

import functools
import threading
from concurrent import futures
from dataclasses import dataclass
from typing import Mapping, Optional

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
    UnOp,
    Var,
    number_subtrees,
)
from ..ir.interval import (
    dtype_bounds,
    interval_binop,
    interval_cast,
    interval_select,
    interval_unop,
)
from ..reliability.faults import fault_point
from .func import Func
from .lower import _shift_of_index
from .parallel import reset_fallback_warnings
from .realize import (
    _NESTS,
    _NESTS_LOCK,
    RealizationError,
    _strip_self_reference,
    _trunc_divide,
    _trunc_remainder,
    _wrap_cast,
    realize_region_interp,
    reduce_region_interp,
)


class LoweringError(Exception):
    """Raised when a Func cannot be lowered; the caller falls back to interp."""


#: Extents above this disable the narrow-int fast path at run time (interval
#: analysis assumes loop variables stay below it).
VAR_BOUND = 1 << 20

_INF = float("inf")


# ---------------------------------------------------------------------------
# Runtime helpers referenced by generated code
# ---------------------------------------------------------------------------


def _win(array: np.ndarray, offsets, origin, extent, dt) -> np.ndarray:
    """A shifted-window load: slice when in bounds, gather otherwise.

    ``offsets``/``origin``/``extent`` are outermost-first (NumPy axis order).
    Mirrors the interpreter's ``_sliced_access`` fast path plus its generic
    gather fallback, so both engines select values identically.
    """
    rank = len(extent)
    if array.ndim == rank:
        slices = []
        for axis in range(rank):
            offset = offsets[axis] + origin[axis]
            if offset < 0 or offset + extent[axis] > array.shape[axis]:
                break
            slices.append(slice(offset, offset + extent[axis]))
        else:
            return array[tuple(slices)].astype(dt)
    indices = []
    for position in range(rank):           # innermost-first, like expr.indices
        axis = rank - 1 - position
        start = origin[axis] + offsets[axis]
        values = np.arange(start, start + extent[axis])
        indices.append(values.reshape((1,) * axis + (-1,) + (1,) * (rank - 1 - axis)))
    return _gather(array, indices, dt)


def _gather(array: np.ndarray, indices, dt) -> np.ndarray:
    """Generic indexed load, mirroring the interpreter's gather path."""
    idx = [np.asarray(i).astype(np.int64) for i in indices]
    if len(idx) > 1:
        idx = np.broadcast_arrays(*idx)
    return array[tuple(reversed(idx))].astype(dt)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


@dataclass
class _Entry:
    """Emission state of one value-numbered subtree."""

    code: str                 # atom: a temp name, literal, or short call
    kind: str                 # 'int', 'bool', 'f32', 'f64'
    owned: bool = False       # a fresh array this kernel may overwrite
    full: bool = False        # shaped exactly like the output block
    uses_left: int = 0
    alias: Optional[int] = None   # elided casts forward to their operand


_INPLACE_OPS = {
    Op.ADD: "_np.add", Op.SUB: "_np.subtract", Op.MUL: "_np.multiply",
    Op.AND: "_np.bitwise_and", Op.OR: "_np.bitwise_or", Op.XOR: "_np.bitwise_xor",
    Op.MIN: "_np.minimum", Op.MAX: "_np.maximum",
    Op.SHR: "_np.right_shift", Op.SAR: "_np.right_shift", Op.SHL: "_np.left_shift",
}

_PLAIN_OPS = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*", Op.AND: "&", Op.OR: "|", Op.XOR: "^",
    Op.SHR: ">>", Op.SAR: ">>", Op.SHL: "<<",
    Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">=", Op.EQ: "==", Op.NE: "!=",
}


class _DomainEmitter:
    """Emits straight-line NumPy code evaluating expressions over a domain.

    ``mode='pure'`` evaluates over the output block (``origin``/``extent``
    locals, window loads enabled); ``mode='reduction'`` evaluates over the
    reduction source's full domain (``_rshape`` local, gathers only, int64
    arithmetic mirroring the interpreter exactly).
    """

    def __init__(self, func: Func, roots: list[Expr], mode: str,
                 namespace: dict) -> None:
        self.func = func
        self.roots = roots
        self.mode = mode
        self.namespace = namespace
        self.rank = len(func.variables)
        self.lines: list[str] = []
        self.entries: dict[int, _Entry] = {}
        self.buffer_vars: dict[str, str] = {}
        self.grid_vars: dict[str, str] = {}
        self.windows: dict[Expr, tuple] = {}
        if mode == "pure":
            self._classify_windows()
        self.numbering = number_subtrees(
            roots, skip_children=lambda n: n in self.windows)
        self.intervals: dict[int, Optional[tuple]] = {}
        self.kinds: dict[int, str] = {}
        self._analyze()
        self._mark_float_loads()
        self.idt_name = "_np.int64"
        self.narrow = False
        if mode == "pure":
            for bits, name in ((16, "_np.int16"), (32, "_np.int32")):
                if self._fits_int(bits):
                    self.idt_name = name
                    self.narrow = True
                    break
        self.uses_var_grid = False

    # -- analysis -----------------------------------------------------------

    def _classify_windows(self) -> None:
        var_position = {v.name: p for p, v in enumerate(self.func.variables)}
        stack = list(self.roots)
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.children)
            if not isinstance(node, BufferAccess) or node in self.windows:
                continue
            if len(node.indices) != self.rank or self.rank == 0:
                continue
            offsets = [None] * self.rank
            for position, index in enumerate(node.indices):
                shift = _shift_of_index(index)
                if shift is None:
                    break
                name, offset = shift
                if var_position.get(name) != position:
                    break
                offsets[self.rank - 1 - position] = offset
            else:
                self.windows[node] = tuple(offsets)

    def _analyze(self) -> None:
        reduction_vars = set()
        if self.mode == "reduction" and self.func.reduction is not None:
            reduction_vars = {v.name for v in self.func.reduction[0].vars()}
        pure_vars = {v.name for v in self.func.variables}
        for node in self.numbering.order:
            vid = self.numbering.ids[node]
            kind, interval = self._node_info(node, pure_vars, reduction_vars)
            self.kinds[vid] = kind
            self.intervals[vid] = interval

    def _node_info(self, node: Expr, pure_vars, reduction_vars):
        get = lambda child: self.intervals[self.numbering.ids[child]]
        kind_of = lambda child: self.kinds[self.numbering.ids[child]]
        if isinstance(node, Const):
            if isinstance(node.value, int):
                return "int", (node.value, node.value)
            return "f64", None
        if isinstance(node, Param):
            return ("f64" if node.dtype.is_float else "int"), None
        if isinstance(node, Var):
            names = reduction_vars if self.mode == "reduction" else pure_vars
            if node.name not in names:
                raise LoweringError(f"unbound variable {node.name}")
            return "int", (0, VAR_BOUND)
        if isinstance(node, BufferAccess):
            if node.dtype.is_float:
                return "f64", None
            return "int", dtype_bounds(node.dtype)
        if isinstance(node, Cast):
            operand_kind = kind_of(node.a)
            if node.dtype.is_float:
                return ("f64" if node.dtype.bits == 64 else "f32"), None
            if not node.dtype.is_integer:
                raise LoweringError(f"cannot lower cast to {node.dtype}")
            operand = get(node.a) if operand_kind in ("int", "bool") else None
            return "int", interval_cast(node.dtype, operand)
        if isinstance(node, BinOp):
            a_kind, b_kind = kind_of(node.a), kind_of(node.b)
            if node.op in Op.COMPARISONS:
                return "bool", (0, 1)
            floats = {k for k in (a_kind, b_kind) if k in ("f32", "f64")}
            if floats:
                if node.op in (Op.MOD, Op.SHR, Op.SAR, Op.SHL, Op.AND, Op.OR, Op.XOR):
                    raise LoweringError(f"integer op {node.op} on float operand")
                if node.op in (Op.MIN, Op.MAX, Op.ADD, Op.SUB, Op.MUL, Op.DIV):
                    kind = "f32" if floats == {"f32"} and a_kind == b_kind else "f64"
                    return kind, None
                raise LoweringError(f"unknown float op {node.op}")
            return "int", interval_binop(node.op, get(node.a), get(node.b))
        if isinstance(node, UnOp):
            if node.op not in (Op.NEG, Op.NOT, Op.ABS):
                raise LoweringError(f"unknown unary op {node.op}")
            operand_kind = kind_of(node.a)
            if operand_kind in ("f32", "f64") and node.op != Op.NOT:
                return operand_kind, None
            return "int", interval_unop(node.op, get(node.a))
        if isinstance(node, Select):
            t_kind, f_kind = kind_of(node.if_true), kind_of(node.if_false)
            floats = {k for k in (t_kind, f_kind) if k in ("f32", "f64")}
            if floats:
                return ("f32" if floats == {"f32"} and t_kind == f_kind else "f64"), None
            return "int", interval_select(get(node.if_true), get(node.if_false))
        if isinstance(node, Call):
            if node.func == "round":
                return "int", None
            if node.func in ("sqrt", "floor", "ceil"):
                arg_kind = kind_of(node.args[0])
                return (arg_kind if arg_kind in ("f32", "f64") else "f64"), None
            raise LoweringError(f"unknown call {node.func}")
        raise LoweringError(f"cannot lower {type(node).__name__}")

    def _mark_float_loads(self) -> None:
        """Integer loads consumed only by float64 casts load as float64.

        ``uint8 -> float64`` directly equals ``uint8 -> int64 -> float64``
        (every source dtype is exact in a double), and skipping the integer
        intermediate removes the kernel's most expensive conversion.  Chains
        of value-preserving integer casts between the load and the float cast
        (``cast<f64>(cast<u32>(load))``) are looked through and become
        pass-throughs.
        """
        parents: dict[int, list[Expr]] = {}
        for node in self.numbering.order:
            if node in self.windows:
                continue
            for child in node.children:
                parents.setdefault(self.numbering.ids[child], []).append(node)
        promotable: dict[int, bool] = {}

        def value_preserving(cast: Cast) -> bool:
            operand_vid = self.numbering.ids[cast.a]
            bounds = dtype_bounds(cast.dtype)
            interval = self.intervals[operand_vid]
            return (self.kinds[operand_vid] == "int" and interval is not None
                    and bounds[0] <= interval[0] and interval[1] <= bounds[1])

        def feeds_only_f64(vid: int) -> bool:
            cached = promotable.get(vid)
            if cached is not None:
                return cached
            promotable[vid] = False        # break cycles defensively
            consumers = parents.get(vid, [])
            verdict = bool(consumers)
            for parent in consumers:
                if isinstance(parent, Cast) and parent.dtype.is_float \
                        and parent.dtype.bits == 64:
                    continue
                if isinstance(parent, Cast) and parent.dtype.is_integer \
                        and value_preserving(parent) \
                        and feeds_only_f64(self.numbering.ids[parent]):
                    continue
                verdict = False
                break
            promotable[vid] = verdict
            return verdict

        for node in self.numbering.order:
            if not isinstance(node, BufferAccess) or node.dtype.is_float:
                continue
            vid = self.numbering.ids[node]
            if not feeds_only_f64(vid):
                continue
            self.kinds[vid] = "f64"
            # The intermediate value-preserving int casts become aliases.
            stack = [parent for parent in parents.get(vid, [])]
            while stack:
                parent = stack.pop()
                parent_vid = self.numbering.ids[parent]
                if isinstance(parent, Cast) and parent.dtype.is_integer \
                        and promotable.get(parent_vid):
                    if self.kinds[parent_vid] != "f64":
                        self.kinds[parent_vid] = "f64"
                        stack.extend(parents.get(parent_vid, []))

    def _fits_int(self, bits: int) -> bool:
        """Can every integer intermediate run exactly in this width?

        Requires every int-valued node's interval to fit, and — for casts
        that still emit a mask — the mask constant itself to be representable
        (an out-of-range Python scalar would raise under NEP 50 promotion).
        """
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        for node in self.numbering.order:
            vid = self.numbering.ids[node]
            kind = self.kinds[vid]
            if kind not in ("int", "bool"):
                continue
            interval = self.intervals[vid]
            if interval is None or interval[0] < lo or interval[1] > hi:
                return False
            if isinstance(node, Cast) and node.dtype.is_integer:
                operand_vid = self.numbering.ids[node.a]
                bounds = dtype_bounds(node.dtype)
                operand_interval = self.intervals[operand_vid]
                elided = (self.kinds[operand_vid] == "int"
                          and operand_interval is not None
                          and bounds[0] <= operand_interval[0]
                          and operand_interval[1] <= bounds[1])
                if not elided and (1 << node.dtype.bits) - 1 > hi:
                    return False
        return True

    # -- emission -----------------------------------------------------------

    def emit(self, indent: str) -> dict[Expr, str]:
        """Emit assignments for every numbered node; returns root atoms."""
        self.indent = indent
        for node in self.numbering.order:
            self._emit_node(node)
        return {root: self._resolve(self.numbering.ids[root]).code
                for root in self.roots}

    def _resolve(self, vid: int) -> _Entry:
        entry = self.entries[vid]
        while entry.alias is not None:
            entry = self.entries[entry.alias]
        return entry

    def _line(self, text: str) -> None:
        self.lines.append(f"{self.indent}{text}")

    def _buffer(self, name: str) -> str:
        var = self.buffer_vars.get(name)
        if var is None:
            var = f"_b{len(self.buffer_vars)}"
            self.buffer_vars[name] = var
            self._line(f"{var} = buffers.get({name!r})")
            self._line(f"if {var} is None:")
            if self.mode == "reduction" and name == self.func.name:
                # Self-reference: bound by the kernel body, never missing.
                self._line("    pass")
            else:
                self._line(f"    raise RealizationError('no binding for buffer {name}')")
        return var

    def _operand(self, child: Expr, allow_bool: bool = False) -> str:
        vid = self.numbering.ids[child]
        entry = self._resolve(vid)
        entry.uses_left -= 1
        if entry.kind == "bool" and not allow_bool:
            return f"{entry.code}.astype({self.idt_name})"
        return entry.code

    def _peek(self, child: Expr) -> _Entry:
        return self._resolve(self.numbering.ids[child])

    def _store(self, node: Expr, code: str, owned: bool, full: bool,
               assign: bool = True) -> None:
        vid = self.numbering.ids[node]
        uses = self.numbering.uses[vid]
        if assign:
            name = f"t{vid}"
            self._line(f"{name} = {code}")
            code = name
        self.entries[vid] = _Entry(code=code, kind=self.kinds[vid], owned=owned,
                                   full=full, uses_left=uses)

    def _alias(self, node: Expr, operand: Expr) -> None:
        vid = self.numbering.ids[node]
        operand_vid = self.numbering.ids[operand]
        root = self._resolve(operand_vid)
        # The cast's consumers use the operand directly: replace the cast's
        # single pending use of the operand with the cast's own use count.
        root.uses_left += self.numbering.uses[vid] - 1
        entry = _Entry(code="", kind=self.kinds[vid], alias=operand_vid)
        self.entries[vid] = entry

    def _emit_node(self, node: Expr) -> None:
        vid = self.numbering.ids[node]
        kind = self.kinds[vid]
        if isinstance(node, Const):
            if isinstance(node.value, int):
                code = f"({node.value!r})" if node.value < 0 else repr(node.value)
                self._store(node, code, owned=False, full=False, assign=False)
            else:
                # Matches the interpreter's np.asarray(value): a 0-d float64
                # array, so float32 promotion behaves identically.
                self._store(node, f"_np.asarray({node.value!r})",
                            owned=False, full=False, assign=False)
            return
        if isinstance(node, Param):
            self._store(node, f"_np.asarray(params.get({node.name!r}, {node.value!r}))",
                        owned=False, full=False)
            return
        if isinstance(node, Var):
            self._store(node, self._grid(node.name), owned=False,
                        full=(self.mode == "reduction"), assign=False)
            return
        if isinstance(node, BufferAccess):
            self._emit_access(node, vid)
            return
        if isinstance(node, Cast):
            self._emit_cast(node, vid)
            return
        if isinstance(node, BinOp):
            self._emit_binop(node, vid)
            return
        if isinstance(node, UnOp):
            operand = self._operand(node.a)
            if node.op == Op.NEG:
                self._emit_compute(node, f"-{operand}", node.a)
            elif node.op == Op.NOT:
                self._store(node, f"~_np.asarray({operand}).astype(_np.int64)"
                            if not self.narrow else f"~_np.asarray({operand})",
                            owned=True, full=self._peek(node.a).full)
            else:
                self._emit_compute(node, f"_np.abs({operand})", node.a)
            return
        if isinstance(node, Select):
            cond = self._operand(node.cond, allow_bool=True)
            if self._peek(node.cond).kind != "bool":
                cond = f"({cond} != 0)"
            if_true = self._operand(node.if_true)
            if_false = self._operand(node.if_false)
            full = any(self._peek(c).full for c in node.children)
            self._store(node, f"_np.where({cond}, {if_true}, {if_false})",
                        owned=True, full=full)
            return
        if isinstance(node, Call):
            args = [self._operand(a) for a in node.args]
            if node.func == "round":
                self._store(node, f"_np.rint({args[0]}).astype(_np.int64)",
                            owned=True, full=self._peek(node.args[0]).full)
            else:
                self._store(node, f"_np.{node.func}({args[0]})",
                            owned=True, full=self._peek(node.args[0]).full)
            return
        raise LoweringError(f"cannot emit {type(node).__name__}")

    def _grid(self, name: str) -> str:
        var = self.grid_vars.get(name)
        if var is not None:
            return var
        var = f"_g{len(self.grid_vars)}"
        self.grid_vars[name] = var
        if self.mode == "pure":
            position = {v.name: p for p, v in enumerate(self.func.variables)}[name]
            axis = self.rank - 1 - position
            shape = "(1,) * %d + (-1,) + (1,) * %d" % (axis, self.rank - 1 - axis)
            dt = self.idt_name if self.narrow else "_np.int64"
            self._line(f"{var} = _np.arange(origin[{axis}], origin[{axis}] "
                       f"+ extent[{axis}], dtype={dt}).reshape({shape})")
            self.uses_var_grid = True
        else:
            rdom = self.func.reduction[0]
            position = {v.name: p for p, v in enumerate(rdom.vars())}[name]
            dims = rdom.dimensions
            axis = dims - 1 - position
            shape = "(1,) * %d + (-1,) + (1,) * %d" % (axis, dims - 1 - axis)
            self._line(f"{var} = _np.broadcast_to(_np.arange(_rorigin[{axis}], "
                       f"_rorigin[{axis}] + _rextent[{axis}])"
                       f".reshape({shape}), _rextent)")
        return var

    def _emit_access(self, node: BufferAccess, vid: int) -> None:
        array = self._buffer(node.buffer)
        as_float = node.dtype.is_float or self.kinds[vid] == "f64"
        dt = "_np.float64" if as_float else self.idt_name
        if node in self.windows:
            offsets = self.windows[node]
            self._store(node, f"_win({array}, {offsets!r}, origin, extent, {dt})",
                        owned=True, full=True)
            return
        indices = ", ".join(self._operand(i) for i in node.indices)
        self._store(node, f"_gather({array}, ({indices},), {dt})",
                    owned=True, full=True)

    def _emit_cast(self, node: Cast, vid: int) -> None:
        operand_entry = self._peek(node.a)
        if node.dtype.is_integer and self.kinds[vid] == "f64":
            # A value-preserving int cast on a promoted float-load chain:
            # the wrap is a no-op on in-range values, so pass through.
            self._alias(node, node.a)
            return
        if node.dtype.is_float:
            target_kind = "f64" if node.dtype.bits == 64 else "f32"
            if operand_entry.kind == target_kind:
                # Same-dtype float cast is the identity; aliasing (instead of
                # astype(copy=False)) keeps the operand's ownership visible
                # so downstream arithmetic can still run in place.
                self._alias(node, node.a)
                return
            target = "_np.float64" if node.dtype.bits == 64 else "_np.float32"
            operand = self._operand(node.a)
            self._store(node, f"_np.asarray({operand}).astype({target}, copy=False)",
                        owned=False, full=operand_entry.full)
            return
        bounds = dtype_bounds(node.dtype)
        operand_interval = self.intervals[self.numbering.ids[node.a]]
        if operand_entry.kind == "int" and operand_interval is not None \
                and bounds[0] <= operand_interval[0] and operand_interval[1] <= bounds[1]:
            self._alias(node, node.a)
            return
        if operand_entry.kind == "bool":
            operand = self._operand(node.a)
            self._store(node, operand, owned=True, full=operand_entry.full)
            return
        operand = self._operand(node.a)
        full = operand_entry.full
        if operand_entry.kind in ("f32", "f64"):
            operand = f"_np.asarray({operand}).astype(_np.int64, copy=False)"
        elif not self.narrow:
            operand = f"_np.asarray({operand})"
        mask = (1 << node.dtype.bits) - 1
        temp = f"t{vid}"
        self._line(f"{temp} = {operand} & {mask:#x}")
        if node.dtype.is_signed:
            sign_bit = 1 << (node.dtype.bits - 1)
            modulus = 1 << node.dtype.bits
            self._line(f"{temp} = _np.where({temp} >= {sign_bit}, "
                       f"{temp} - {modulus}, {temp})")
        if self.narrow and operand_entry.kind in ("f32", "f64"):
            self._line(f"{temp} = {temp}.astype({self.idt_name})")
        self.entries[vid] = _Entry(code=temp, kind="int", owned=True, full=full,
                                   uses_left=self.numbering.uses[vid])

    def _emit_binop(self, node: BinOp, vid: int) -> None:
        kind = self.kinds[vid]
        if node.op in Op.COMPARISONS:
            a = self._operand(node.a)
            b = self._operand(node.b)
            full = self._peek(node.a).full or self._peek(node.b).full
            # asarray keeps scalar-vs-scalar comparisons numpy bools (Python
            # bools have no .astype for the later int coercion).
            self._store(node, f"_np.asarray({a}) {_PLAIN_OPS[node.op]} {b}",
                        owned=True, full=full)
            return
        if node.op == Op.DIV and kind == "int":
            a = self._operand(node.a)
            b = self._operand(node.b)
            full = self._peek(node.a).full or self._peek(node.b).full
            self._store(node, f"_trunc_divide({a}, {b})", owned=True, full=full)
            return
        if node.op == Op.MOD:
            a = self._operand(node.a)
            b = self._operand(node.b)
            full = self._peek(node.a).full or self._peek(node.b).full
            self._store(node, f"_trunc_remainder({a}, {b})", owned=True, full=full)
            return
        if node.op in (Op.MIN, Op.MAX):
            fn = "_np.minimum" if node.op == Op.MIN else "_np.maximum"
            if self._try_inplace(node, vid, _INPLACE_OPS[node.op]):
                return
            a = self._operand(node.a)
            b = self._operand(node.b)
            full = self._peek(node.a).full or self._peek(node.b).full
            self._store(node, f"{fn}({a}, {b})", owned=True, full=full)
            return
        if node.op == Op.DIV:           # float division
            a = self._operand(node.a)
            b = self._operand(node.b)
            full = self._peek(node.a).full or self._peek(node.b).full
            self._store(node, f"{a} / {b}", owned=True, full=full)
            return
        if node.op not in _PLAIN_OPS:
            raise LoweringError(f"unknown operator {node.op}")
        if node.op in _INPLACE_OPS and self._try_inplace(node, vid, _INPLACE_OPS[node.op]):
            return
        a = self._operand(node.a)
        b = self._operand(node.b)
        full = self._peek(node.a).full or self._peek(node.b).full
        self._store(node, f"{a} {_PLAIN_OPS[node.op]} {b}", owned=True, full=full)

    def _try_inplace(self, node: BinOp, vid: int, ufunc: str) -> bool:
        """Accumulate into a dead, fully-shaped operand: no allocation.

        The left operand is preferred; for commutative operators a dead right
        operand works too (the ufunc arguments keep their order, only ``out``
        targets the reusable array).
        """
        if self.mode != "pure":
            return False
        kind = self.kinds[vid]
        a_entry = self._peek(node.a)
        b_entry = self._peek(node.b)

        def compatible(entry) -> bool:
            return entry.kind == kind or (entry.kind == "bool" and kind == "int")

        def reusable(entry, other) -> bool:
            return (entry.owned and entry.full and entry.uses_left == 1
                    and entry.kind == kind and compatible(other))

        target_entry = None
        if reusable(a_entry, b_entry):
            target_entry = a_entry
        elif node.op in Op.COMMUTATIVE and reusable(b_entry, a_entry):
            target_entry = b_entry
        if target_entry is None:
            return False
        a = self._operand(node.a)
        b = self._operand(node.b)
        out = a if target_entry is a_entry else b
        self._line(f"{ufunc}({a}, {b}, out={out})")
        self.entries[vid] = _Entry(code=out, kind=kind, owned=True, full=True,
                                   uses_left=self.numbering.uses[vid])
        target_entry.owned = False     # storage now belongs to this node
        return True

    def _emit_compute(self, node: Expr, code: str, shaped_like: Expr) -> None:
        self._store(node, code, owned=True, full=self._peek(shaped_like).full)


# ---------------------------------------------------------------------------
# Kernel assembly
# ---------------------------------------------------------------------------


@dataclass
class CompiledKernel:
    """A compiled (or interpreter-fallback) kernel for one Func.

    Schedule-free: the shared loop-nest executor calls :meth:`evaluate_region`
    per ``Store`` and :meth:`reduce_region` per ``ReduceLoop``, whatever
    tiling or parallelism the schedule asks for.
    """

    engine: str                    # 'compiled' or 'interp-fallback'
    source: str = ""
    compute_dtype: str = ""
    #: The region body ``_body(origin, extent, buffers, params, out)`` (NumPy
    #: axis order) of a pure kernel, writing into and returning ``out``
    #: (allocated when None); None for reduction-only Funcs.
    body: object = None
    #: The Func this kernel realizes (for region-eval fallbacks).
    func: object = None
    #: The region-parameterized reduction body
    #: ``_reduce(out, origin, extent, buffers, params)`` applying the update
    #: sweep over one RDom sub-region in place; None for pure kernels and
    #: interpreter fallbacks.
    reduce: object = None
    #: True when the kernel narrowed its integer dtype *and* materializes
    #: variable grids: region evaluations whose coordinates reach
    #: ``VAR_BOUND`` must take the interpreter path instead (the narrow grid
    #: would overflow).
    narrow_guard: bool = False

    def evaluate_region(self, origin: tuple[int, ...], extent: tuple[int, ...],
                        buffers: Mapping[str, np.ndarray],
                        params: Mapping[str, float],
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        """Evaluate the pure body over one region (NumPy axis order) into
        ``out`` (allocated when None); returns it."""
        if self.body is None:
            raise RealizationError(
                "kernel has no pure region body (reduction-only Func)")
        if self.narrow_guard and any(o + e >= VAR_BOUND
                                     for o, e in zip(origin, extent)):
            return realize_region_interp(self.func, origin, extent,
                                         buffers, params, out)
        return self.body(origin, extent, buffers, params, out)

    def reduce_region(self, out: np.ndarray, origin: tuple[int, ...],
                      extent: tuple[int, ...],
                      buffers: Mapping[str, np.ndarray],
                      params: Mapping[str, float]) -> np.ndarray:
        """Apply the reduction update over one RDom sub-region, in place.

        The primitive behind lowered :class:`~repro.ir.stmt.ReduceLoop`
        nodes.  Falls back to the interpreter's region sweep when this
        kernel carries no compiled reduction body or the bound source's rank
        does not match the RDom — both sweeps are bit-identical.
        """
        if self.func is None or self.func.reduction is None:
            raise RealizationError("kernel has no reduction update")
        rdom = self.func.reduction[0]
        source = buffers.get(rdom.source)
        if self.reduce is None or (source is not None
                                   and source.ndim != rdom.dimensions):
            return reduce_region_interp(self.func, out, origin, extent,
                                        buffers, params)
        return self.reduce(out, origin, extent, buffers, params)


_KERNEL_CACHE: dict[tuple, CompiledKernel] = {}
#: Guards the cache, its counters, and the pending-build table:
#: ``compile_func`` may race from the worker pool (parallel batches compiling
#: distinct stages) and the counters must stay exact under that concurrency.
_CACHE_LOCK = threading.Lock()
#: Signatures currently being built, mapped to a future the builder resolves;
#: racers on the *same* signature wait here (and count as hits) while racers
#: on distinct signatures compile concurrently outside the lock.
_PENDING_BUILDS: dict[tuple, "futures.Future"] = {}
kernel_cache_stats = {"hits": 0, "misses": 0, "fallbacks": 0}


def clear_kernel_cache() -> None:
    """Drop every kernel, and with them :func:`~repro.halide.realize.realize`'s
    single-Func nests (their nodes memoize kernels): the next realization
    of a Func compiles again."""
    with _NESTS_LOCK:
        _NESTS.clear()
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()
        # Drop pending builds too: a post-clear compile must look (and count)
        # fresh rather than latch onto a pre-clear in-flight build.  An
        # orphaned builder still resolves its own future for pre-clear
        # waiters; its pop() below is tolerant of the missing entry.
        _PENDING_BUILDS.clear()
        kernel_cache_stats["hits"] = 0
        kernel_cache_stats["misses"] = 0
        kernel_cache_stats["fallbacks"] = 0
    reset_fallback_warnings()


def func_signature(func: Func) -> tuple:
    """The structural cache key: IR identity + dtype (never the schedule).

    Structural keys deliberately exclude the observed values of ``Param``
    leaves, but the generated kernel bakes them in as ``params.get``
    defaults — two lifts of the same code with different runtime constants
    must not share a kernel, so the defaults join the key explicitly.
    """
    value_key = func.value.cached_key() if func.value is not None else None
    reduction_key = None
    roots = [func.value] if func.value is not None else []
    if func.reduction is not None:
        rdom, index_exprs, update = func.reduction
        reduction_key = (rdom.name, rdom.source, rdom.dimensions,
                         tuple(e.cached_key() for e in index_exprs),
                         update.cached_key())
        roots.extend(index_exprs)
        roots.append(update)
    param_defaults = tuple(sorted(
        {(node.name, node.value) for root in roots for node in root.walk()
         if isinstance(node, Param)}))
    return (func.name, tuple(v.name for v in func.variables), func.dtype,
            value_key, reduction_key, param_defaults)


def compile_func(func: Func) -> CompiledKernel:
    """Compile (or fetch from cache) the kernel realizing ``func``.

    Thread-safe: concurrent callers racing on the same signature compile the
    kernel exactly once and ``kernel_cache_stats`` stays exact (one miss,
    every other caller a hit), while distinct signatures compile concurrently
    — codegen runs outside the cache lock, guarded per signature.
    """
    signature = func_signature(func)
    with _CACHE_LOCK:
        kernel = _KERNEL_CACHE.get(signature)
        if kernel is not None:
            kernel_cache_stats["hits"] += 1
            return kernel
        pending = _PENDING_BUILDS.get(signature)
        if pending is None:
            kernel_cache_stats["misses"] += 1
            pending = futures.Future()
            _PENDING_BUILDS[signature] = pending
            building = True
        else:
            building = False
    if building:
        try:
            try:
                kernel = _build_kernel(func)
            except LoweringError:
                with _CACHE_LOCK:
                    kernel_cache_stats["fallbacks"] += 1
                kernel = CompiledKernel(
                    engine="interp-fallback",
                    body=(None if func.value is None else
                          functools.partial(realize_region_interp, func)),
                    func=func)
        except BaseException as exc:       # unexpected codegen bug: unblock racers
            with _CACHE_LOCK:
                # Guarded like the success path: after clear_kernel_cache a
                # successor builder may own the entry — leave it alone.
                if _PENDING_BUILDS.get(signature) is pending:
                    del _PENDING_BUILDS[signature]
            pending.set_exception(exc)
            raise
        with _CACHE_LOCK:
            # Install only if this build is still current: clear_kernel_cache
            # may have run meanwhile, and re-inserting would undo the clear.
            if _PENDING_BUILDS.get(signature) is pending:
                _KERNEL_CACHE[signature] = kernel
                del _PENDING_BUILDS[signature]
        pending.set_result(kernel)       # pre-clear waiters still get a kernel
    else:
        kernel = pending.result()
        with _CACHE_LOCK:
            kernel_cache_stats["hits"] += 1
    return kernel


def _build_kernel(func: Func) -> CompiledKernel:
    fault_point("compile.kernel")
    if not func.variables:
        raise LoweringError("zero-dimensional function")
    namespace: dict = {
        "_np": np, "_win": _win, "_gather": _gather,
        "_trunc_divide": _trunc_divide, "_trunc_remainder": _trunc_remainder,
        "_wrap_cast": _wrap_cast, "RealizationError": RealizationError,
        "_odtype": func.dtype, "_odt": func.dtype.to_numpy(),
    }
    lines: list[str] = []
    compute_dtype = "int64"
    emitter = None
    if func.value is not None:
        emitter = _DomainEmitter(func, [func.value], "pure", namespace)
        compute_dtype = emitter.idt_name.replace("_np.", "")
        lines.extend(_emit_pure_body(func, emitter))
    if func.reduction is not None:
        lines.append("")
        lines.extend(_emit_reduction_body(func, namespace))

    source = "\n".join(lines) + "\n"
    code = compile(source, f"<compiled kernel {func.name}>", "exec")
    exec(code, namespace)
    narrow_guard = emitter is not None and emitter.narrow \
        and emitter.uses_var_grid
    return CompiledKernel(engine="compiled", source=source,
                          compute_dtype=compute_dtype,
                          body=namespace.get("_body"), func=func,
                          narrow_guard=narrow_guard,
                          reduce=namespace.get("_reduce"))


def _emit_pure_body(func: Func, emitter: _DomainEmitter) -> list[str]:
    """``_body(origin, extent, buffers, params, out)``: the value over one
    region, written into ``out`` (a view of the destination buffer, or None
    to allocate it) and returned."""
    lines = ["def _body(origin, extent, buffers, params, out):"]
    emitter.indent = "    "
    emitter.lines = []
    roots = emitter.emit("    ")
    root = roots[func.value]
    lines.extend(emitter.lines)
    root_vid = emitter.numbering.ids[func.value]
    root_interval = emitter.intervals[root_vid]
    root_kind = emitter.kinds[root_vid]
    bounds = dtype_bounds(func.dtype) if func.dtype.is_integer else None
    if func.dtype.is_integer and root_kind in ("int", "bool") \
            and root_interval is not None \
            and bounds[0] <= root_interval[0] and root_interval[1] <= bounds[1]:
        # Provably in range: skip the mask-and-sign-fix wrap entirely.
        lines.append(f"    _v = {root}")
    else:
        lines.append(f"    _v = _wrap_cast({root}, _odtype)")
    # A missing destination is allocated last, after the temporaries.
    lines.append("    if out is None:")
    lines.append("        return _np.broadcast_to(_np.asarray(_v), extent)"
                 ".astype(_odt)")
    lines.append("    _np.copyto(out, _v, casting='unsafe')")
    lines.append("    return out")
    return lines


def _emit_reduction_body(func: Func, namespace: dict) -> list[str]:
    """The region-parameterized update sweep ``_reduce(out, origin, extent)``.

    ``_rorigin``/``_rextent`` delimit the swept RDom sub-region in global
    source coordinates (NumPy axis order); lowered
    :class:`~repro.ir.stmt.ReduceLoop` nodes call it over the whole source
    domain or, for a two-phase parallel reduction, per strip.
    """
    rdom, index_exprs, update = func.reduction
    increment = _strip_self_reference(update, func.name)
    roots = list(index_exprs) + [increment if increment is not None else update]
    emitter = _DomainEmitter(func, roots, "reduction", namespace)
    lines = ["def _reduce(out, _rorigin, _rextent, buffers, params):"]
    lines.append("    buffers = dict(buffers)")
    lines.append(f"    buffers[{func.name!r}] = out")
    emitter.lines = []
    atoms = emitter.emit("    ")
    lines.extend(emitter.lines)
    index_atoms = []
    for position, expr in enumerate(index_exprs):
        lines.append(f"    _i{position} = _np.asarray({atoms[expr]}).astype(_np.int64)")
        index_atoms.append(f"_i{position}")
    np_index = ", ".join(reversed(index_atoms))
    value_atom = atoms[roots[-1]]
    if increment is not None:
        lines.append(f"    _np.add.at(out, ({np_index},), _np.broadcast_to("
                     f"_np.asarray({value_atom}), _i0.shape).astype(out.dtype))")
    else:
        lines.append(f"    out[({np_index},)] = _wrap_cast(_np.asarray({value_atom}), "
                     "_odtype).astype(_odt)")
    lines.append("    return out")
    return lines
