"""C code generation for the native backend.

This module turns a lowered ``Stmt`` tree — a
:class:`~repro.halide.lower.LoweredPipeline`'s nest or the
:func:`~repro.halide.lower.lower_func` nest of a single Func — plus a table
of the buffers it is bound to into one self-contained C translation unit.
The unit is split into
*segments* — maximal parallel-free subtrees compiled to one exported function
each — so the Python-side executor (:mod:`.native`) can keep fanning parallel
``For`` loops out across the shared worker pool while everything underneath
runs as native code with the GIL released (cffi ABI-mode calls drop the GIL
for the duration of the C call).

The contract is *bit-identity with the interpreter oracle*: every arithmetic
rule here mirrors ``realize._evaluate`` / ``_apply_binop`` exactly —

* integer arithmetic is int64 with two's-complement wraparound (emitted via
  unsigned arithmetic so it is defined behaviour in C);
* python float constants are always double, float32 only arises from explicit
  ``Cast`` nodes, and any mixed-kind operation promotes to double (NumPy's
  promotion lattice restricted to the three kinds the interpreter produces);
* comparisons compare in the promoted kind and yield int64 0/1;
* ``%`` is always the truncated integer remainder regardless of node dtype,
  ``/`` is a true divide only when the node dtype is floating;
* integer division by zero is not UB but return code 1, which the caller
  re-raises as the interpreter's exact ``RealizationError``;
* a load outside its buffer (where NumPy raises ``IndexError``) is return
  code 4, never a read past the end: an index built from loop variables,
  added constants and ``min``/``max`` clamps is checked once per ``Store``
  or ``ReduceLoop`` at the corners of its loop box, any other per load;
* min/max on floats propagate NaN like ``np.minimum``/``np.maximum``;
* narrowing casts wrap modulo 2**bits with a signed fix, like ``_wrap_cast``.

Segment ABI::

    int64_t rp_seg{n}(void **bufs, const int64_t *shapes, const int64_t *env,
                      const int64_t *iparams, const double *fparams);

``bufs`` holds one data pointer per :attr:`SegmentSpec.buffers` entry,
``shapes`` their concatenated extents (each buffer is C-contiguous, so its
strides follow from them), ``env`` the Python-level loop/let bindings the
segment references, and ``iparams``/``fparams`` the parameter values, one
slot per distinct ``(name, default)`` pair — two stages reading a
same-named ``Param`` with different defaults get two slots, so each falls
back to its own default as in the interpreter.  Return codes: 0 ok, 1
integer division by zero, 2 reduction scatter index out of bounds, 3
scratch allocation failure, 4 load index out of bounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ...ir import (
    AccumMerge,
    Allocate,
    BinOp,
    Block,
    BufferAccess,
    Call,
    Cast,
    Const,
    Expr,
    For,
    IfThenElse,
    Let,
    Op,
    PadEdge,
    Param,
    ProducerConsumer,
    ReduceLoop,
    Select,
    Stmt,
    Store,
    UnOp,
    Var,
)
from ...ir.types import DType
from ..func import NATURAL_VECTOR_WIDTH, _strip_self_reference, vectorize_width

__all__ = ["CGenError", "SegmentSpec", "NestProgram", "generate_nest"]


class CGenError(Exception):
    """The lowered nest contains a construct the C emitter cannot translate.

    Raised at generation time; the native backend treats it as a permanent
    degrade-to-compiled signal for this lowering.
    """


#: Computation kinds the interpreter's value domain collapses to.
_CTYPE = {"i64": "int64_t", "f32": "float", "f64": "double"}


def _promote(a: str, b: str) -> str:
    """NumPy's promotion lattice restricted to {i64, f32, f64}."""
    if a == b:
        return a
    return "f64"


def _storage_ctype(dtype: DType) -> str:
    if dtype.is_float:
        return "float" if dtype.bits == 32 else "double"
    if dtype.is_signed:
        return f"int{dtype.bits}_t"
    return f"uint{dtype.bits}_t"


def _int_literal(value: int) -> str:
    value = int(value)
    if value == -(2**63):
        return "(-INT64_C(9223372036854775807) - 1)"
    return f"INT64_C({value})"


def _float_literal(value: float) -> str:
    value = float(value)
    if value != value:
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "-INFINITY"
    if value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    # Hex float literals round-trip exactly (C99 §6.4.4.2).
    return value.hex()


_SANITIZE = re.compile(r"[^0-9A-Za-z_]")


@dataclass(frozen=True)
class SegmentSpec:
    """Call interface of one emitted segment function.

    ``int_params``/``float_params`` list the ``(name, default)`` pair of each
    parameter slot in order: a caller's value for ``name`` fills every slot
    of that name, otherwise a slot takes its own default.
    """

    name: str
    buffers: Tuple[str, ...]
    ranks: Tuple[int, ...]
    env_vars: Tuple[str, ...]
    int_params: Tuple[Tuple[str, object], ...]
    float_params: Tuple[Tuple[str, object], ...]


@dataclass
class NestProgram:
    """A whole lowered nest compiled to C source plus its call plan.

    ``segment_for`` maps ``id(stmt)`` of a parallel-free subtree to the
    segment that executes it entirely; ``parallel_body`` maps ``id(for_stmt)``
    of a parallel ``For`` to the segment executing *one iteration* of its
    body (the loop variable arrives through ``env``).
    """

    source: str
    cdef: str
    segments: List[SegmentSpec]
    segment_for: Dict[int, SegmentSpec]
    parallel_body: Dict[int, SegmentSpec]


@dataclass
class _BufView:
    """How a buffer is addressed inside one segment."""

    ptr: str
    ctype: str
    dtype: DType
    dims: List[str]
    strides: List[str]
    base: str = "0"

    @property
    def rank(self) -> int:
        return len(self.dims)


def _contains_parallel(stmt: Stmt) -> bool:
    return any(isinstance(node, For) and node.kind == "parallel" for node in stmt.walk())


class _SegmentEmitter:
    """Emits one segment function; owns its naming and slot bookkeeping."""

    def __init__(self, name: str, registry: Mapping[str, Tuple[DType, int]],
                 param_kinds: Mapping[str, str]):
        self.name = name
        self.registry = registry
        self.param_kinds = param_kinds
        self.lines: List[str] = []
        self.depth = 1
        self._counter = 0
        self._used_names: set = set()
        # name -> C identifier for loop/let variables bound inside the segment
        self.vars: Dict[str, str] = {}
        # buffer name -> view; insertion order defines the bufs[] slot order
        self.bufs: Dict[str, _BufView] = {}
        self.buf_order: List[str] = []
        # env slots by name, param slots by (name, default); first-use order
        self.env_slots: Dict[str, str] = {}
        self.env_order: List[str] = []
        self.iparam_slots: Dict[Tuple[str, object], str] = {}
        self.fparam_slots: Dict[Tuple[str, object], str] = {}
        # Store-local parameters (tile bases); scoped per Store
        self.local_params: Dict[str, str] = {}
        # restricted Var scope inside Store/ReduceLoop value expressions, and
        # each of its variables' C bounds (lo, hi) over the loop box
        self.value_scope: Optional[Dict[str, str]] = None
        self.value_ranges: Dict[str, Tuple[str, str]] = {}
        # (line index, depth, checks): load bounds checks hoisted in front
        # of the current loop box
        self.hoisted: Optional[Tuple[int, int, Dict[str, None]]] = None
        # inside a Store's dense version: loads its box check covers skip
        # the negative wrap; and whether the body emitted so far can return
        self.dense = False
        self.exits = False

    # ------------------------------------------------------------------ util

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def _fresh(self, hint: str) -> str:
        base = _SANITIZE.sub("_", hint) or "v"
        name = base
        while name in self._used_names:
            self._counter += 1
            name = f"{base}_{self._counter}"
        self._used_names.add(name)
        return name

    def _temp(self, ctype: str, expr: str) -> str:
        self._counter += 1
        name = f"t{self._counter}"
        self.emit(f"{ctype} {name} = {expr};")
        return name

    def _open_box(self, ranges: Dict[str, Tuple[str, str]]) -> tuple:
        """Enter a Store/ReduceLoop loop box: its variables' bounds, and the
        current line as the place its hoisted bounds checks go."""
        saved = (self.value_ranges, self.hoisted)
        self.value_ranges = ranges
        self.hoisted = (len(self.lines), self.depth, {})
        return saved

    def _close_box(self, saved: tuple) -> None:
        mark, depth, checks = self.hoisted
        self.lines[mark:mark] = ["    " * depth + check for check in checks]
        self.value_ranges, self.hoisted = saved

    def _index_range(self, expr: Expr) -> Optional[Tuple[str, str]]:
        """C bounds ``(lo, hi)`` of a load index over the current loop box.

        Covers loop variables, integer constants, Store-local params, their
        sums, the difference with a constant, and ``min``/``max``: such an
        index never decreases as any variable grows, so both bounds are
        attained at the box's corners and checking them is exact.  None
        for anything else (checked per load instead).
        """
        if isinstance(expr, Var):
            return self.value_ranges.get(expr.name)
        if isinstance(expr, Const):
            if type(expr.value) is not int:
                return None
            literal = _int_literal(expr.value)
            return literal, literal
        if isinstance(expr, Param):
            local = self.local_params.get(expr.name)
            return None if local is None else (local, local)
        if not isinstance(expr, BinOp) or expr.op not in (
                Op.ADD, Op.SUB, Op.MIN, Op.MAX):
            return None
        a, b = self._index_range(expr.a), self._index_range(expr.b)
        if a is None or b is None:
            return None
        if expr.op == Op.ADD:
            return f"({a[0]} + {b[0]})", f"({a[1]} + {b[1]})"
        if expr.op == Op.SUB:
            return (None if b[0] != b[1]
                    else (f"({a[0]} - {b[0]})", f"({a[1]} - {b[0]})"))
        cmp = "<" if expr.op == Op.MIN else ">"
        return tuple(f"(({x}) {cmp} ({y}) ? ({x}) : ({y}))"
                     for x, y in zip(a, b))

    # ---------------------------------------------------------------- slots

    def _view(self, buffer: str) -> _BufView:
        view = self.bufs.get(buffer)
        if view is not None:
            return view
        entry = self.registry.get(buffer)
        if entry is None:
            raise CGenError(f"segment references unknown buffer {buffer!r}")
        dtype, rank = entry
        slot = len(self.buf_order)
        ctype = _storage_ctype(dtype)
        view = _BufView(
            ptr=f"b{slot}",
            ctype=ctype,
            dtype=dtype,
            dims=[f"b{slot}_d{a}" for a in range(rank)],
            strides=[f"b{slot}_s{a}" for a in range(rank)],
        )
        self.bufs[buffer] = view
        self.buf_order.append(buffer)
        return view

    def _env_var(self, name: str) -> str:
        ident = self.env_slots.get(name)
        if ident is None:
            ident = f"ev{len(self.env_order)}_{_SANITIZE.sub('_', name)}"
            self.env_slots[name] = ident
            self.env_order.append(name)
        return ident

    def _param(self, expr: Param) -> Tuple[str, str]:
        local = self.local_params.get(expr.name)
        if local is not None:
            return local, "i64"
        kind = self.param_kinds.get(expr.name)
        if kind is None:
            kind = "float" if isinstance(expr.value, float) else "int"
        slots, prefix = ((self.fparam_slots, "fp") if kind == "float"
                         else (self.iparam_slots, "ip"))
        key = (expr.name, expr.value)
        ident = slots.get(key)
        if ident is None:
            ident = slots[key] = \
                f"{prefix}{len(slots)}_{_SANITIZE.sub('_', expr.name)}"
        return ident, "f64" if kind == "float" else "i64"

    # ------------------------------------------------------------ expr emit

    def _as_i64(self, val: str, kind: str) -> str:
        if kind == "i64":
            return val
        return f"(int64_t)({val})"

    def _cast_kind(self, val: str, kind: str, target: str) -> str:
        if kind == target:
            return val
        return f"({_CTYPE[target]})({val})"

    def _expr(self, expr: Expr) -> Tuple[str, str]:
        """Emit ``expr``; returns ``(c_value, kind)`` with kind in _CTYPE."""
        if isinstance(expr, Const):
            if isinstance(expr.value, float):
                return _float_literal(expr.value), "f64"
            return _int_literal(expr.value), "i64"
        if isinstance(expr, Var):
            if self.value_scope is not None:
                ident = self.value_scope.get(expr.name)
                if ident is None:
                    raise CGenError(f"unbound variable {expr.name!r} in value expression")
                return ident, "i64"
            ident = self.vars.get(expr.name)
            if ident is None:
                ident = self._env_var(expr.name)
            return ident, "i64"
        if isinstance(expr, Param):
            return self._param(expr)
        if isinstance(expr, BufferAccess):
            return self._buffer_load(expr)
        if isinstance(expr, BinOp):
            return self._binop(expr)
        if isinstance(expr, UnOp):
            return self._unop(expr)
        if isinstance(expr, Cast):
            val, kind = self._expr(expr.a)
            return self._wrap_cast(val, kind, expr.dtype)
        if isinstance(expr, Select):
            cond, ck = self._expr(expr.cond)
            a, ak = self._expr(expr.if_true)
            b, bk = self._expr(expr.if_false)
            k = _promote(ak, bk)
            ct = _CTYPE[k]
            zero = "0.0" if ck != "i64" else "0"
            out = self._temp(ct, f"(({cond}) != {zero}) ? "
                                 f"({ct})({a}) : ({ct})({b})")
            return out, k
        if isinstance(expr, Call):
            return self._call(expr)
        raise CGenError(f"cannot emit expression node {type(expr).__name__}")

    def _buffer_load(self, expr: BufferAccess) -> Tuple[str, str]:
        view = self._view(expr.buffer)
        if len(expr.indices) != view.rank:
            raise CGenError(
                f"access to {expr.buffer!r} has {len(expr.indices)} indices, "
                f"buffer rank is {view.rank}")
        terms = [view.base] if view.base != "0" else []
        # indices are innermost-first: position p addresses numpy axis rank-1-p
        for position, index in enumerate(expr.indices):
            axis = view.rank - 1 - position
            dim = view.dims[axis]
            val, kind = self._expr(index)
            idx = self._temp("int64_t", self._as_i64(val, kind))
            # NumPy indexing raises outside [-dim, dim): so does the load.
            span = None if self.hoisted is None else self._index_range(index)
            if span is not None and self.dense:
                # the dense version runs only when span's low is >= 0
                wrapped = idx
            else:
                # branchless numpy-style negative wrap: idx += dim when idx < 0
                wrapped = self._temp(
                    "int64_t", f"{idx} + (({idx} >> 63) & {dim})")
            if span is None:
                self.exits = True
                self.emit(f"if ((uint64_t){wrapped} >= (uint64_t){dim}) "
                          "{ return 4; }")
            else:
                self.hoisted[2].setdefault(
                    f"if ({span[0]} < -{dim} || {span[1]} >= {dim}) "
                    "{ return 4; }")
            terms.append(f"{wrapped} * {view.strides[axis]}")
        flat = self._temp("int64_t", " + ".join(terms) if terms else "0")
        raw = self._temp(view.ctype, f"{view.ptr}[{flat}]")
        if expr.dtype.is_float:
            return self._temp("double", f"(double){raw}"), "f64"
        return self._temp("int64_t", f"(int64_t){raw}"), "i64"

    def _binop(self, expr: BinOp) -> Tuple[str, str]:
        a, ak = self._expr(expr.a)
        b, bk = self._expr(expr.b)
        op = expr.op
        if op in (Op.ADD, Op.SUB, Op.MUL):
            k = _promote(ak, bk)
            if k == "i64":
                c_op = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}[op]
                out = self._temp(
                    "int64_t",
                    f"(int64_t)((uint64_t){a} {c_op} (uint64_t){b})")
                return out, "i64"
            ct = _CTYPE[k]
            ca = self._cast_kind(a, ak, k)
            cb = self._cast_kind(b, bk, k)
            return self._temp(ct, f"{ca} {op} {cb}"), k
        if op == Op.DIV:
            if expr.dtype.is_float:
                k = "f32" if (ak == "f32" and bk == "f32") else "f64"
                ct = _CTYPE[k]
                ca = self._cast_kind(a, ak, k)
                cb = self._cast_kind(b, bk, k)
                return self._temp(ct, f"{ca} / {cb}"), k
            return self._int_divmod(a, ak, b, bk, mod=False)
        if op == Op.MOD:
            return self._int_divmod(a, ak, b, bk, mod=True)
        if op in (Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE):
            k = _promote(ak, bk)
            ca = self._cast_kind(a, ak, k)
            cb = self._cast_kind(b, bk, k)
            return self._temp("int64_t", f"(int64_t)({ca} {op} {cb})"), "i64"
        if op in (Op.SHR, Op.SAR):
            ia = self._as_i64(a, ak)
            ib = self._as_i64(b, bk)
            return self._temp("int64_t", f"({ia}) >> (({ib}) & 63)"), "i64"
        if op == Op.SHL:
            ia = self._as_i64(a, ak)
            ib = self._as_i64(b, bk)
            return self._temp(
                "int64_t",
                f"(int64_t)((uint64_t)({ia}) << (({ib}) & 63))"), "i64"
        if op in (Op.AND, Op.OR, Op.XOR):
            ia = self._as_i64(a, ak)
            ib = self._as_i64(b, bk)
            return self._temp("int64_t", f"({ia}) {op} ({ib})"), "i64"
        if op in (Op.MIN, Op.MAX):
            k = _promote(ak, bk)
            ca = self._cast_kind(a, ak, k)
            cb = self._cast_kind(b, bk, k)
            if k == "i64":
                cmp = "<" if op == Op.MIN else ">"
                ta = self._temp("int64_t", ca)
                tb = self._temp("int64_t", cb)
                return self._temp(
                    "int64_t", f"({ta} {cmp} {tb}) ? {ta} : {tb}"), "i64"
            fn = "rp_fmin" if op == Op.MIN else "rp_fmax"
            bits = "32" if k == "f32" else "64"
            return self._temp(_CTYPE[k], f"{fn}{bits}({ca}, {cb})"), k
        raise CGenError(f"cannot emit binary operator {op!r}")

    def _int_divmod(self, a: str, ak: str, b: str, bk: str, mod: bool) -> Tuple[str, str]:
        ta = self._temp("int64_t", self._as_i64(a, ak))
        tb = self._temp("int64_t", self._as_i64(b, bk))
        self.exits = True
        self.emit(f"if ({tb} == 0) {{ return 1; }}")
        self._counter += 1
        out = f"t{self._counter}"
        self.emit(f"int64_t {out};")
        if mod:
            # INT64_MIN % -1 is UB in C; the truncated remainder is always 0.
            self.emit(f"if ({tb} == -1) {{ {out} = 0; }} "
                      f"else {{ {out} = {ta} % {tb}; }}")
        else:
            # INT64_MIN / -1 is UB in C; wrap like the int64 negation does.
            self.emit(f"if ({tb} == -1) {{ {out} = (int64_t)(0 - (uint64_t){ta}); }} "
                      f"else {{ {out} = {ta} / {tb}; }}")
        return out, "i64"

    def _unop(self, expr: UnOp) -> Tuple[str, str]:
        a, ak = self._expr(expr.a)
        if expr.op == Op.NEG:
            if ak == "i64":
                return self._temp(
                    "int64_t", f"(int64_t)(0 - (uint64_t){a})"), "i64"
            return self._temp(_CTYPE[ak], f"-({a})"), ak
        if expr.op == Op.NOT:
            ia = self._as_i64(a, ak)
            return self._temp("int64_t", f"~({ia})"), "i64"
        if expr.op == Op.ABS:
            if ak == "i64":
                return self._temp(
                    "int64_t",
                    f"({a} < 0) ? (int64_t)(0 - (uint64_t){a}) : {a}"), "i64"
            fn = "fabsf" if ak == "f32" else "fabs"
            return self._temp(_CTYPE[ak], f"{fn}({a})"), ak
        raise CGenError(f"cannot emit unary operator {expr.op!r}")

    def _call(self, expr: Call) -> Tuple[str, str]:
        if expr.func == "round":
            a, ak = self._expr(expr.args[0])
            if ak == "f32":
                return self._temp("int64_t", f"(int64_t)rintf({a})"), "i64"
            ca = self._cast_kind(a, ak, "f64")
            return self._temp("int64_t", f"(int64_t)rint({ca})"), "i64"
        if expr.func in ("sqrt", "floor", "ceil"):
            a, ak = self._expr(expr.args[0])
            if ak == "f32":
                return self._temp("float", f"{expr.func}f({a})"), "f32"
            ca = self._cast_kind(a, ak, "f64")
            return self._temp("double", f"{expr.func}({ca})"), "f64"
        raise CGenError(f"cannot emit call to {expr.func!r}")

    def _wrap_cast(self, val: str, kind: str, dtype: DType) -> Tuple[str, str]:
        """``realize._wrap_cast`` semantics: wrap mod 2**bits with signed fix."""
        if dtype.is_float:
            k = "f32" if dtype.bits == 32 else "f64"
            return self._cast_kind(val, kind, k), k
        iv = self._as_i64(val, kind)
        bits = dtype.bits
        if bits == 64:
            if dtype.is_signed:
                return self._temp("int64_t", iv), "i64"
            return self._temp("int64_t", f"(int64_t)(uint64_t)({iv})"), "i64"
        if dtype.is_signed:
            out = f"(int64_t)(int{bits}_t)(uint{bits}_t)({iv})"
        else:
            out = f"(int64_t)(uint{bits}_t)({iv})"
        return self._temp("int64_t", out), "i64"

    # --------------------------------------------------------- scalar exprs

    def _scalar(self, value) -> str:
        """Emit a ``Scalar`` (int or Expr) as an int64 C value."""
        if isinstance(value, int) and not isinstance(value, bool):
            return _int_literal(value)
        val, kind = self._expr(value)
        return self._as_i64(val, kind)

    # ----------------------------------------------------------- stmt emit

    def _stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._stmt(child)
        elif isinstance(stmt, For):
            self._for(stmt)
        elif isinstance(stmt, Let):
            self._let(stmt)
        elif isinstance(stmt, Allocate):
            self._allocate(stmt)
        elif isinstance(stmt, ProducerConsumer):
            self.emit(f"/* produce {stmt.name} */")
            self._stmt(stmt.produce)
            self.emit(f"/* consume {stmt.name} */")
            self._stmt(stmt.consume)
        elif isinstance(stmt, IfThenElse):
            cond = self._temp("int64_t", self._scalar(stmt.condition))
            self.emit(f"if ({cond} != 0) {{")
            self.depth += 1
            self._stmt(stmt.then_case)
            self.depth -= 1
            if stmt.else_case is not None:
                self.emit("} else {")
                self.depth += 1
                self._stmt(stmt.else_case)
                self.depth -= 1
            self.emit("}")
        elif isinstance(stmt, Store):
            self._store(stmt)
        elif isinstance(stmt, ReduceLoop):
            self._reduce(stmt)
        elif isinstance(stmt, AccumMerge):
            self._merge(stmt)
        elif isinstance(stmt, PadEdge):
            self._pad_edge(stmt)
        else:
            raise CGenError(f"cannot emit statement node {type(stmt).__name__}")

    def _for(self, stmt: For) -> None:
        self.emit("{")
        self.depth += 1
        mn = self._temp("int64_t", self._scalar(stmt.min))
        ext = self._temp("int64_t", self._scalar(stmt.extent))
        end = self._temp("int64_t", f"{mn} + {ext}")
        ident = self._fresh(f"v_{stmt.name}")
        self.emit(f"for (int64_t {ident} = {mn}; {ident} < {end}; ++{ident}) {{")
        self.depth += 1
        saved = self.vars.get(stmt.name)
        self.vars[stmt.name] = ident
        self._stmt(stmt.body)
        if saved is None:
            self.vars.pop(stmt.name, None)
        else:
            self.vars[stmt.name] = saved
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    def _let(self, stmt: Let) -> None:
        self.emit("{")
        self.depth += 1
        ident = self._fresh(f"v_{stmt.name}")
        self.emit(f"int64_t {ident} = {self._scalar(stmt.value)};")
        saved = self.vars.get(stmt.name)
        self.vars[stmt.name] = ident
        self._stmt(stmt.body)
        if saved is None:
            self.vars.pop(stmt.name, None)
        else:
            self.vars[stmt.name] = saved
        self.depth -= 1
        self.emit("}")

    def _allocate(self, stmt: Allocate) -> None:
        self.emit(f"{{ /* allocate {stmt.buffer} */")
        self.depth += 1
        rank = len(stmt.extents)
        dims = [self._temp("int64_t", self._scalar(e)) for e in stmt.extents]
        elems = dims[0]
        for d in dims[1:]:
            elems = self._temp("int64_t", f"{elems} * {d}")
        ctype = _storage_ctype(stmt.dtype)
        ptr = self._fresh(f"a_{stmt.buffer}")
        self.emit(f"{ctype} * restrict {ptr} = "
                  f"({ctype} *)malloc((size_t){elems} * sizeof({ctype}));")
        self.emit(f"if (!{ptr}) {{ return 3; }}")
        if stmt.fill is not None:
            idx = self._fresh("fill_i")
            fill = (_float_literal(stmt.fill) if isinstance(stmt.fill, float)
                    else _int_literal(stmt.fill))
            self.emit(f"for (int64_t {idx} = 0; {idx} < {elems}; ++{idx}) "
                      f"{{ {ptr}[{idx}] = ({ctype})({fill}); }}")
        strides = [""] * rank
        acc = "1"
        for axis in range(rank - 1, -1, -1):
            strides[axis] = self._temp("int64_t", acc)
            acc = f"{strides[axis]} * {dims[axis]}"
        saved = self.bufs.get(stmt.buffer)
        self.bufs[stmt.buffer] = _BufView(
            ptr=ptr, ctype=ctype, dtype=stmt.dtype,
            dims=dims, strides=strides)
        self._stmt(stmt.body)
        if saved is None:
            self.bufs.pop(stmt.buffer, None)
        else:
            self.bufs[stmt.buffer] = saved
        self.emit(f"free({ptr});")
        self.depth -= 1
        self.emit("}")

    # ------------------------------------------------------------- Store

    def _invariant(self, expr: Expr) -> bool:
        """An integer the Store's loops never change: a constant, a
        Store-local param, or a sum or difference of those."""
        if isinstance(expr, Const):
            return type(expr.value) is int
        if isinstance(expr, Param):
            return expr.name in self.local_params
        return (isinstance(expr, BinOp) and expr.op in (Op.ADD, Op.SUB)
                and self._invariant(expr.a) and self._invariant(expr.b))

    def _unit_offset(self, expr: Expr, name: str) -> bool:
        """``expr`` is the variable ``name`` plus invariant terms."""
        if isinstance(expr, Var):
            return expr.name == name
        if not isinstance(expr, BinOp) or expr.op not in (Op.ADD, Op.SUB):
            return False
        if self._unit_offset(expr.a, name):
            return self._invariant(expr.b)
        return (expr.op == Op.ADD and self._invariant(expr.a)
                and self._unit_offset(expr.b, name))

    def _pair_loads(self, expr: Expr, inner: str,
                    outer: str) -> Optional[Dict[str, None]]:
        """Buffers ``expr`` reads as ``b(inner + c0, outer + c1, ...)``.

        Such a load's flat index is affine in the fused counter of the
        ``(inner, outer)`` loop pair once the buffer's innermost extent
        equals the inner loop's.  None when either variable appears
        anywhere else: then the pair never fuses.
        """
        found: Dict[str, None] = {}

        def visit(node: Expr) -> bool:
            if isinstance(node, Var):
                return node.name not in (inner, outer)
            if (isinstance(node, BufferAccess) and len(node.indices) >= 2
                    and self._unit_offset(node.indices[0], inner)
                    and self._unit_offset(node.indices[1], outer)):
                found[node.buffer] = None
                return all(visit(index) for index in node.indices[2:])
            return all(visit(child) for child in node.children)

        return found if visit(expr) else None

    def _store(self, stmt: Store) -> None:
        """One ``Store`` as dense loops, in up to two versions.

        The dense version runs when the hoisted corner checks also prove
        every checked load index ``>= 0``: those loads skip NumPy's
        negative wrap, and when the store target and every load through the
        innermost variable pair have the inner loop's extent as their
        innermost dimension, the pair runs as one fused loop (Halide's
        ``fuse``) — an extent choice at run time, since the fused loop's
        flat indices equal the pair's.  Otherwise the wrapped, unfused
        version runs (Halide's ``specialize``).  The innermost loop carries
        ``#pragma omp simd`` (``simdlen(W)`` for an explicit width) unless
        the schedule turns vectorization off or the body can return early:
        gcc rejects an early exit from an ``omp simd`` loop.
        """
        func = stmt.func
        if func.value is None:
            raise CGenError(f"store of {func.name!r} has no pure definition")
        rank = len(stmt.extent)
        if rank == 0:
            raise CGenError("rank-0 store")
        self.emit(f"{{ /* store {stmt.label or func.name} */")
        self.depth += 1
        # Param expressions are evaluated against the *outer* parameter scope
        # (mirrors base._exec_store), so collect values first, register after.
        local_values: List[Tuple[str, str]] = []
        for pname, pexpr in stmt.param_exprs.items():
            local_values.append((pname, self._temp("int64_t", self._scalar(pexpr))))
        offs = [self._temp("int64_t", self._scalar(v)) for v in stmt.offset]
        exts = [self._temp("int64_t", self._scalar(v)) for v in stmt.extent]
        orgs = [self._temp("int64_t", self._scalar(v)) for v in stmt.eval_origin]
        guard = " && ".join(f"{e} > 0" for e in exts)
        self.emit(f"if ({guard}) {{")
        self.depth += 1
        view = self._view(stmt.buffer)
        if view.rank != rank:
            raise CGenError(
                f"store extent rank {rank} != buffer rank {view.rank} "
                f"for {stmt.buffer!r}")
        if len(func.variables) != rank:
            raise CGenError(
                f"func {func.name!r} has {len(func.variables)} variables, "
                f"store region rank is {rank}")
        box = self._open_box({
            var.name: (orgs[rank - 1 - position],
                       f"({orgs[rank - 1 - position]} + "
                       f"{exts[rank - 1 - position]} - 1)")
            for position, var in enumerate(func.variables)})
        saved_locals = dict(self.local_params)
        for pname, ident in local_values:
            self.local_params[pname] = ident
        width = vectorize_width(func.schedule)
        last = rank - 1
        # The low corner of every load index the box check covers.
        lows = {span[0]: None
                for node in func.value.walk() if isinstance(node, BufferAccess)
                for span in map(self._index_range, node.indices) if span}
        pair = None
        if rank >= 2:
            pair = self._pair_loads(func.value, func.variables[0].name,
                                    func.variables[1].name)

        def body(loop_idx: List[str]) -> None:
            coords = [self._temp("int64_t", f"{orgs[a]} + {loop_idx[a]}")
                      for a in range(rank)]
            scope = {}
            for position, var in enumerate(func.variables):
                scope[var.name] = coords[rank - 1 - position]
            saved_scope = self.value_scope
            self.value_scope = scope
            val, kind = self._expr(func.value)
            wrapped, _ = self._wrap_cast(val, kind, func.dtype)
            self.value_scope = saved_scope
            terms = ([view.base] if view.base != "0" else [])
            for a in range(rank):
                terms.append(f"({offs[a]} + {loop_idx[a]}) * {view.strides[a]}")
            flat = self._temp("int64_t", " + ".join(terms))
            self.emit(f"{view.ptr}[{flat}] = ({view.ctype})({wrapped});")

        def loops(dense: bool) -> None:
            extents = list(exts)
            if dense and pair is not None:
                inner_dims = dict.fromkeys([view.dims[last]] + [
                    self._view(name).dims[-1] for name in pair])
                fuse = self._temp("int64_t", " && ".join(
                    f"{dim} == {exts[last]}" for dim in inner_dims))
                extents[last - 1] = self._temp(
                    "int64_t", f"{fuse} ? INT64_C(1) : {exts[last - 1]}")
                extents[last] = self._temp(
                    "int64_t", f"{fuse} ? {exts[last - 1]} * {exts[last]} : "
                    f"{exts[last]}")
            idents: List[str] = []
            for a in range(rank):
                header = len(self.lines)    # ends as the innermost loop's
                ident = self._fresh(f"i{a}")
                self.emit(f"for (int64_t {ident} = 0; {ident} < {extents[a]}; "
                          f"++{ident}) {{")
                self.depth += 1
                idents.append(ident)
            self.dense, self.exits = dense, False
            body(idents)
            if width and not self.exits:
                self.lines.insert(header, "    " * (self.depth - 1) + (
                    "#pragma omp simd" if width == NATURAL_VECTOR_WIDTH
                    else f"#pragma omp simd simdlen({width})"))
            self.dense = False
            for _ in range(rank):
                self.depth -= 1
                self.emit("}")

        if lows:
            self.emit(f"if ({' && '.join(f'{lo} >= 0' for lo in lows)}) {{")
            self.depth += 1
            loops(dense=True)
            self.depth -= 1
            self.emit("} else {")
            self.depth += 1
            loops(dense=False)
            self.depth -= 1
            self.emit("}")
        else:
            loops(dense=True)
        self._close_box(box)
        self.local_params = saved_locals
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    # --------------------------------------------------------- ReduceLoop

    def _reduce(self, stmt: ReduceLoop) -> None:
        func = stmt.func
        if func.reduction is None:
            raise CGenError(f"reduce loop over {func.name!r} without a reduction")
        rdom, index_exprs, update = func.reduction
        increment = _strip_self_reference(update, func.name)
        check_exprs = list(index_exprs) + [increment if increment is not None else update]
        for e in check_exprs:
            for node in e.walk():
                if isinstance(node, BufferAccess) and node.buffer == func.name:
                    raise CGenError(
                        f"reduction over {func.name!r} reads its own accumulator; "
                        "sequential C execution would diverge from np.add.at")
        n = len(stmt.source_extent)
        rvars = rdom.vars()
        if len(rvars) != n:
            raise CGenError("reduction domain rank mismatch")
        self.emit(f"{{ /* reduce {stmt.label or func.name} */")
        self.depth += 1
        orgs = [self._temp("int64_t", self._scalar(v)) for v in stmt.source_origin]
        exts = [self._temp("int64_t", self._scalar(v)) for v in stmt.source_extent]
        guard = " && ".join(f"{e} > 0" for e in exts)
        self.emit(f"if ({guard}) {{")
        self.depth += 1
        box = self._open_box({
            var.name: (orgs[n - 1 - position],
                       f"({orgs[n - 1 - position]} + {exts[n - 1 - position]}"
                       " - 1)")
            for position, var in enumerate(rvars)})
        full = self._view(stmt.buffer)
        if stmt.target_index is not None:
            ti = self._temp("int64_t", self._scalar(stmt.target_index))
            base = self._temp(
                "int64_t",
                (f"{full.base} + " if full.base != "0" else "") +
                f"{ti} * {full.strides[0]}")
            slab = _BufView(ptr=full.ptr, ctype=full.ctype, dtype=full.dtype,
                            dims=list(full.dims[1:]),
                            strides=list(full.strides[1:]), base=base)
        else:
            slab = full
        if len(index_exprs) != slab.rank:
            raise CGenError(
                f"reduction writes {len(index_exprs)} indices, target rank "
                f"is {slab.rank}")
        # loop counters run over global source coordinates
        counters: List[str] = []
        for a in range(n):
            ident = self._fresh(f"c{a}")
            end = self._temp("int64_t", f"{orgs[a]} + {exts[a]}")
            self.emit(f"for (int64_t {ident} = {orgs[a]}; {ident} < {end}; ++{ident}) {{")
            self.depth += 1
            counters.append(ident)
        scope = {}
        for position, var in enumerate(rvars):
            scope[var.name] = counters[n - 1 - position]
        saved_scope = self.value_scope
        self.value_scope = scope
        # np_index = reversed(indices): index_exprs[p] addresses target
        # numpy axis rank-1-p, with negative wrap then a bounds check
        # (np.add.at raises IndexError; we return rc 2).
        terms = [slab.base] if slab.base != "0" else []
        for position, index in enumerate(index_exprs):
            axis = slab.rank - 1 - position
            val, kind = self._expr(index)
            idx = self._temp("int64_t", self._as_i64(val, kind))
            wrapped = self._temp(
                "int64_t", f"{idx} + (({idx} >> 63) & {slab.dims[axis]})")
            self.emit(f"if ({wrapped} < 0 || {wrapped} >= {slab.dims[axis]}) "
                      "{ return 2; }")
            terms.append(f"{wrapped} * {slab.strides[axis]}")
        flat = self._temp("int64_t", " + ".join(terms) if terms else "0")
        sto = slab.ctype
        if increment is not None:
            # np.add.at: cast the increment to the accumulator dtype first,
            # then accumulate with accumulator-dtype wraparound.
            val, kind = self._expr(increment)
            inc = self._temp(sto, f"({sto})({self._as_i64(val, kind) if func.dtype.is_integer else val})")
            if func.dtype.is_float:
                self.emit(f"{slab.ptr}[{flat}] = {slab.ptr}[{flat}] + {inc};")
            elif func.dtype.bits == 64:
                self.emit(f"{slab.ptr}[{flat}] = ({sto})((uint64_t){slab.ptr}[{flat}] "
                          f"+ (uint64_t){inc});")
            else:
                # widen to int64 for the add to dodge narrow signed-overflow
                # UB; the cast back wraps exactly like the NumPy accumulator.
                self.emit(f"{slab.ptr}[{flat}] = ({sto})((int64_t){slab.ptr}[{flat}] "
                          f"+ (int64_t){inc});")
        else:
            val, kind = self._expr(update)
            wrapped, _ = self._wrap_cast(val, kind, func.dtype)
            self.emit(f"{slab.ptr}[{flat}] = ({sto})({wrapped});")
        self.value_scope = saved_scope
        for _ in range(n):
            self.depth -= 1
            self.emit("}")
        self._close_box(box)
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    # --------------------------------------------------------- AccumMerge

    def _merge(self, stmt: AccumMerge) -> None:
        self.emit(f"{{ /* merge {stmt.label or stmt.target} */")
        self.depth += 1
        tview = self._view(stmt.target)
        sview = self._view(stmt.source)
        if sview.rank != tview.rank + 1:
            raise CGenError(
                f"merge source rank {sview.rank} != target rank {tview.rank} + 1")
        idx = self._temp("int64_t", self._scalar(stmt.index))
        sbase = self._temp(
            "int64_t",
            (f"{sview.base} + " if sview.base != "0" else "") +
            f"{idx} * {sview.strides[0]}")
        elems = tview.dims[0] if tview.rank else "1"
        for d in tview.dims[1:]:
            elems = self._temp("int64_t", f"{elems} * {d}")
        i = self._fresh("m")
        self.emit(f"for (int64_t {i} = 0; {i} < {elems}; ++{i}) {{")
        self.depth += 1
        # slab.astype(target.dtype) then in-place add with target wraparound
        src = self._temp(tview.ctype, f"({tview.ctype}){sview.ptr}[{sbase} + {i}]")
        tb = f"{tview.base} + " if tview.base != "0" else ""
        dst = f"{tview.ptr}[{tb}{i}]"
        if tview.dtype.is_float:
            self.emit(f"{dst} = {dst} + {src};")
        elif tview.dtype.bits == 64:
            self.emit(f"{dst} = ({tview.ctype})((uint64_t){dst} + (uint64_t){src});")
        else:
            self.emit(f"{dst} = ({tview.ctype})((int64_t){dst} + (int64_t){src});")
        self.depth -= 1
        self.emit("}")
        self.depth -= 1
        self.emit("}")

    # ----------------------------------------------------------- PadEdge

    def _pad_edge(self, stmt: PadEdge) -> None:
        self.emit(f"{{ /* pad_edge {stmt.buffer} */")
        self.depth += 1
        view = self._view(stmt.buffer)
        rank = view.rank
        offs = [self._temp("int64_t", self._scalar(v)) for v in stmt.offset]
        exts = [self._temp("int64_t", self._scalar(v)) for v in stmt.extent]

        def copy_loops(axis: int, lo: str, hi: str, src_term: str) -> None:
            """Rank-deep loops; ``axis`` runs [lo, hi), others full range."""
            self.emit("{")
            self.depth += 1
            idents: List[str] = []
            for a in range(rank):
                ident = self._fresh(f"p{a}")
                idents.append(ident)
                if a == axis:
                    self.emit(f"for (int64_t {ident} = {lo}; {ident} < {hi}; "
                              f"++{ident}) {{")
                else:
                    self.emit(f"for (int64_t {ident} = 0; {ident} < {view.dims[a]}; "
                              f"++{ident}) {{")
                self.depth += 1
            base = [view.base] if view.base != "0" else []
            dst_terms = base + [f"{idents[a]} * {view.strides[a]}" for a in range(rank)]
            src_terms = list(dst_terms)
            src_terms[len(base) + axis] = src_term
            dst = self._temp("int64_t", " + ".join(dst_terms))
            src = self._temp("int64_t", " + ".join(src_terms))
            self.emit(f"{view.ptr}[{dst}] = {view.ptr}[{src}];")
            for _ in range(rank):
                self.depth -= 1
                self.emit("}")
            self.depth -= 1
            self.emit("}")

        # Sequential per-axis replication: full-range inner loops copy
        # not-yet-padded ghosts on later axes, which those axes then fix —
        # exactly base._exec_pad_edge's corner propagation.
        for axis in range(rank):
            before = offs[axis]
            edge = self._temp("int64_t", f"{offs[axis]} + {exts[axis]}")
            self.emit(f"if ({before} > 0) {{")
            self.depth += 1
            copy_loops(axis, "0", before, f"{before} * {view.strides[axis]}")
            self.depth -= 1
            self.emit("}")
            self.emit(f"if ({view.dims[axis]} > {edge}) {{")
            self.depth += 1
            copy_loops(axis, edge, view.dims[axis],
                       f"({edge} - 1) * {view.strides[axis]}")
            self.depth -= 1
            self.emit("}")
        self.depth -= 1
        self.emit("}")

    # --------------------------------------------------------- assembly

    def finish(self) -> Tuple[str, SegmentSpec]:
        preamble: List[str] = [
            "    (void)bufs; (void)shapes; (void)env; "
            "(void)iparams; (void)fparams;",
        ]
        offset = 0
        ranks: List[int] = []
        for slot, name in enumerate(self.buf_order):
            view = self.bufs.get(name)
            # the view may have been popped if an Allocate shadowed it;
            # external views are never popped, and only external buffers
            # land in buf_order (Allocate views bypass _view()).
            assert view is not None and view.ptr == f"b{slot}"
            ranks.append(view.rank)
            preamble.append(
                f"    {view.ctype} * restrict b{slot} = "
                f"({view.ctype} *)bufs[{slot}];")
            for a in range(view.rank):
                preamble.append(
                    f"    const int64_t b{slot}_d{a} = shapes[{offset + a}];")
            acc = "1"
            for a in range(view.rank - 1, -1, -1):
                preamble.append(f"    const int64_t b{slot}_s{a} = {acc};")
                acc = f"b{slot}_s{a} * b{slot}_d{a}"
            offset += view.rank
        for index, name in enumerate(self.env_order):
            preamble.append(
                f"    const int64_t {self.env_slots[name]} = env[{index}];")
        for index, ident in enumerate(self.iparam_slots.values()):
            preamble.append(f"    const int64_t {ident} = iparams[{index}];")
        for index, ident in enumerate(self.fparam_slots.values()):
            preamble.append(f"    const double {ident} = fparams[{index}];")
        header = (f"int64_t {self.name}(void **bufs, const int64_t *shapes, "
                  "const int64_t *env, const int64_t *iparams, "
                  "const double *fparams) {")
        text = "\n".join([header] + preamble + self.lines + ["    return 0;", "}"])
        spec = SegmentSpec(
            name=self.name,
            buffers=tuple(self.buf_order),
            ranks=tuple(ranks),
            env_vars=tuple(self.env_order),
            int_params=tuple(self.iparam_slots),
            float_params=tuple(self.fparam_slots),
        )
        return text, spec


_PRELUDE = """\
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* NaN-propagating min/max matching np.minimum / np.maximum. */
static inline float rp_fmin32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline float rp_fmax32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
static inline double rp_fmin64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline double rp_fmax64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
"""


class _NestGenerator:
    def __init__(self, stmt: Stmt, buffers: Mapping[str, Tuple[DType, int]],
                 param_kinds: Mapping[str, str]):
        self.stmt = stmt
        self.param_kinds = dict(param_kinds)
        self.functions: List[str] = []
        self.segments: List[SegmentSpec] = []
        self.segment_for: Dict[int, SegmentSpec] = {}
        self.parallel_body: Dict[int, SegmentSpec] = {}
        self.registry: Dict[str, Tuple[DType, int]] = dict(buffers)
        for node in stmt.walk():
            if isinstance(node, Allocate):
                self.registry[node.buffer] = (node.dtype, len(node.extents))

    def _emit_segment(self, stmt: Stmt) -> SegmentSpec:
        name = f"rp_seg{len(self.segments)}"
        emitter = _SegmentEmitter(name, self.registry, self.param_kinds)
        emitter._stmt(stmt)
        text, spec = emitter.finish()
        self.functions.append(text)
        self.segments.append(spec)
        return spec

    def _plan(self, stmt: Stmt) -> None:
        if not _contains_parallel(stmt):
            self.segment_for[id(stmt)] = self._emit_segment(stmt)
            return
        if isinstance(stmt, Block):
            for child in stmt.stmts:
                self._plan(child)
        elif isinstance(stmt, Let):
            self._plan(stmt.body)
        elif isinstance(stmt, Allocate):
            self._plan(stmt.body)
        elif isinstance(stmt, ProducerConsumer):
            self._plan(stmt.produce)
            self._plan(stmt.consume)
        elif isinstance(stmt, IfThenElse):
            self._plan(stmt.then_case)
            if stmt.else_case is not None:
                self._plan(stmt.else_case)
        elif isinstance(stmt, For):
            if stmt.kind == "parallel":
                # serial fallback: the whole loop as one segment (parallel
                # loops inside are emitted as plain C for loops)
                self.segment_for[id(stmt)] = self._emit_segment(stmt)
                if not _contains_parallel(stmt.body):
                    self.parallel_body[id(stmt)] = self._emit_segment(stmt.body)
                else:
                    self._plan(stmt.body)
            else:
                self._plan(stmt.body)
        else:
            raise CGenError(
                f"parallel loop nested inside {type(stmt).__name__}")

    def generate(self) -> NestProgram:
        self._plan(self.stmt)
        source = _PRELUDE + "\n" + "\n\n".join(self.functions) + "\n"
        cdef = "\n".join(
            f"int64_t {seg.name}(void **bufs, const int64_t *shapes, "
            "const int64_t *env, const int64_t *iparams, "
            "const double *fparams);"
            for seg in self.segments)
        return NestProgram(
            source=source,
            cdef=cdef,
            segments=self.segments,
            segment_for=self.segment_for,
            parallel_body=self.parallel_body,
        )


def generate_nest(stmt: Stmt, buffers: Mapping[str, Tuple[DType, int]],
                  param_kinds: Optional[Mapping[str, str]] = None) -> NestProgram:
    """Compile a loop nest to a C translation unit.

    ``buffers`` maps the name of every buffer the nest is bound to — for a
    lowered pipeline its frame and output, for a single Func its inputs and
    output — to ``(dtype, rank)``; scratch the nest allocates itself comes
    from its ``Allocate`` nodes.  ``param_kinds`` maps parameter names to
    ``"int"``/``"float"`` (inferred from each ``Param`` node's default value
    when absent).  Raises :class:`CGenError` when the nest contains anything
    the emitter cannot translate — callers degrade to the compiled-NumPy
    backend.
    """
    return _NestGenerator(stmt, buffers, param_kinds or {}).generate()
