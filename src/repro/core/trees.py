"""Expression-forest reconstruction: concrete data-dependency trees.

This pass recovers, for every output location written by the filter function,
the expression tree that computed it (paper section 4.7).  The implementation
walks the trace forward maintaining symbolic values for every register and
memory byte (registers are pseudo-memory, section 4.5); the tree snapshotted
at each output store is exactly the backward slice the paper describes, with:

* buffer reads kept as leaves (never expanded), which also terminates
  recursive definitions such as histogram updates;
* indirect accesses represented as buffer accesses indexed by the address
  expression (Figure 4);
* predicate trees attached when a value was produced under an input-dependent
  conditional (section 4.6);
* canonicalization and simplification applied so unrolled copies, fix-up loops
  and sliding-window rewrites all collapse to comparable trees.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from ..dynamo.records import InstructionTrace, TraceRecord
from ..ir import (
    BinOp,
    BufferAccess,
    Call,
    Cast,
    Const,
    Expr,
    FirstPassMemo,
    MemLoad,
    Op,
    Param,
    UnOp,
    canonicalize,
    FLOAT64,
    INT32,
    UINT32,
    signed_of_width,
    unsigned_of_width,
)
from ..x86.instructions import CONDITIONAL_JUMPS, Imm, Label, Mem, Reg
from ..x86.registers import register_address, register_width
from .forward import ForwardAnalysis
from .opsem import compute_fpu_tops
from .regions import MemoryRegion


class TreeExtractionError(Exception):
    """Raised when the trace contains an instruction the analysis cannot model."""


@dataclass(frozen=True)
class PredicateInfo:
    """One input-dependent branch outcome a tree depends on."""

    site: int
    taken: bool
    condition: Expr      # the condition that held on this path

    def signature(self) -> tuple:
        from ..ir import structural_signature

        return (self.site, self.taken, structural_signature(self.condition))


@dataclass
class BufferEntry:
    """One named buffer known to the tree builder."""

    name: str
    region: MemoryRegion
    role: str            # "input", "output" or "table"


@dataclass
class BufferMap:
    """Lookup from absolute addresses to named buffers.

    ``lookup`` runs once per traced memory access, so the linear scan over
    entries is replaced by a bisect over the (disjoint) region intervals
    sorted by start address; the index is rebuilt lazily whenever entries are
    added.
    """

    entries: list[BufferEntry] = field(default_factory=list)
    _index: list[tuple[int, int, BufferEntry]] = field(default_factory=list, repr=False)
    _indexed_count: int = field(default=-1, repr=False)

    def lookup(self, address: int) -> Optional[BufferEntry]:
        if self._indexed_count != len(self.entries):
            self._index = sorted(
                ((e.region.start, e.region.end, e) for e in self.entries),
                key=lambda item: item[0])
            self._indexed_count = len(self.entries)
        position = bisect_right(self._index, address, key=lambda item: item[0]) - 1
        if position >= 0:
            start, end, entry = self._index[position]
            if start <= address < end:
                return entry
        return None

    def outputs(self) -> list[BufferEntry]:
        return [e for e in self.entries if e.role == "output"]

    def inputs(self) -> list[BufferEntry]:
        return [e for e in self.entries if e.role in ("input", "table")]


@dataclass
class ConcreteTree:
    """The concrete tree for one output location (plus its predicates)."""

    buffer: str
    root_address: int
    root_width: int
    expr: Expr
    predicates: tuple[PredicateInfo, ...] = ()
    #: For indirect (table/histogram) writes: the symbolic index expression.
    root_index_expr: Optional[Expr] = None
    trace_index: int = 0
    #: Node count of the tree before canonicalization (used by the ablation
    #: study: sliding-window kernels have raw trees that grow with position).
    raw_node_count: int = 0

    @property
    def node_count(self) -> int:
        return self.expr.node_count()

    @property
    def is_recursive(self) -> bool:
        return any(isinstance(node, MemLoad) and False for node in self.expr.walk()) or \
            any(isinstance(node, BufferAccess) and node.buffer == self.buffer
                for node in self.expr.walk())


@dataclass
class _EnvEntry:
    expr: Expr
    offset: int
    width: int
    tags: frozenset


@dataclass
class _FlagsState:
    kind: str            # "cmp", "test" or "result"
    a: Expr
    b: Expr
    tags: frozenset


_UNSIGNED_PREDICATES = {"ja": Op.GT, "jnbe": Op.GT, "jae": Op.GE, "jnb": Op.GE,
                        "jb": Op.LT, "jnae": Op.LT, "jbe": Op.LE, "jna": Op.LE}
_SIGNED_PREDICATES = {"jg": Op.GT, "jnle": Op.GT, "jge": Op.GE, "jnl": Op.GE,
                      "jl": Op.LT, "jnge": Op.LT, "jle": Op.LE, "jng": Op.LE}
_EQUALITY_PREDICATES = {"je": Op.EQ, "jz": Op.EQ, "jne": Op.NE, "jnz": Op.NE}
_SIGN_PREDICATES = {"js": Op.LT, "jns": Op.GE}
_NEGATED = {Op.GT: Op.LE, Op.GE: Op.LT, Op.LT: Op.GE, Op.LE: Op.GT,
            Op.EQ: Op.NE, Op.NE: Op.EQ}


class TreeBuilder:
    """Builds the forest of concrete trees from an instruction trace."""

    def __init__(self, trace: InstructionTrace, forward: ForwardAnalysis,
                 buffers: BufferMap) -> None:
        self.trace = trace
        self.forward = forward
        self.buffers = buffers
        self.env: dict[int, _EnvEntry] = {}
        self.flags: Optional[_FlagsState] = None
        self.current_conditions: dict[int, PredicateInfo] = {}
        self.trees: list[ConcreteTree] = []
        self.warnings: list[str] = []
        self._fpu_tops = forward.fpu_tops or compute_fpu_tops(trace.records)
        self._record_index = 0
        #: ``lea`` re-canonicalizes the raw pointer chains that loops grow in
        #: registers; this memo carries their first passes between calls.
        self._lea_memo = FirstPassMemo()

    # -- environment access -------------------------------------------------

    def _read_location(self, address: int, width: int, as_float: bool = False,
                       observed_value=None) -> tuple[Expr, frozenset]:
        entry = self.buffers.lookup(address)
        if entry is not None:
            dtype = FLOAT64 if as_float else unsigned_of_width(width)
            return MemLoad(address, dtype), frozenset()
        first = self.env.get(address)
        if first is None:
            return self._parameter(address, width, as_float, observed_value), frozenset()
        source = first.expr
        matches = all(
            (e := self.env.get(address + i)) is not None and e.expr is source and
            e.offset == first.offset + i
            for i in range(width))
        if not matches:
            self.warnings.append(f"mixed-source read at {address:#x}")
            return self._parameter(address, width, as_float, observed_value), frozenset()
        expr = source
        if first.offset != 0:
            expr = BinOp(Op.SHR, expr, Const(first.offset * 8, expr.dtype), expr.dtype)
        if width != first.width or first.offset != 0:
            expr = Cast(unsigned_of_width(width), expr)
        return expr, first.tags

    def _parameter(self, address: int, width: int, as_float: bool,
                   observed_value) -> Param:
        name = _register_name_for(address) or f"p_{address:x}"
        dtype = FLOAT64 if as_float else unsigned_of_width(width)
        value = observed_value
        if value is None and name.startswith("p_") is False:
            value = self.trace.entry_registers.get(name, 0)
        return Param(f"param_{name}", value if value is not None else 0, dtype)

    def _write_location(self, address: int, width: int, expr: Expr,
                        tags: frozenset) -> None:
        if expr.dtype.bytes != width and not expr.dtype.is_float:
            expr = Cast(unsigned_of_width(width), expr)
        for i in range(width):
            self.env[address + i] = _EnvEntry(expr, i, width, tags)

    def _read_register(self, name: str) -> tuple[Expr, frozenset]:
        return self._read_location(register_address(name), register_width(name))

    def _write_register(self, name: str, expr: Expr, tags: frozenset) -> None:
        self._write_location(register_address(name), register_width(name), expr, tags)

    # -- operand access -------------------------------------------------------

    def _mem_accesses(self, record: TraceRecord, is_write: bool):
        return [a for a in record.accesses if a.is_write == is_write]

    def _read_operand(self, op, record: TraceRecord, as_float: bool = False
                      ) -> tuple[Expr, frozenset]:
        if isinstance(op, Imm):
            return Const(op.value, INT32), frozenset()
        if isinstance(op, Reg):
            return self._read_register(op.name)
        if isinstance(op, Mem):
            reads = self._mem_accesses(record, is_write=False)
            if not reads:
                raise TreeExtractionError(
                    f"no read access recorded for {record.instruction}")
            access = reads[0]
            if record.address in self.forward.indirect_access_instructions:
                return self._indirect_access(access, op, as_float)
            return self._read_location(access.address, access.width, as_float,
                                       observed_value=access.value)
        if isinstance(op, Label):
            return Const(0, INT32), frozenset()
        raise TreeExtractionError(f"cannot read operand {op}")

    def _indirect_access(self, access, op: Mem, as_float: bool) -> tuple[Expr, frozenset]:
        entry = self.buffers.lookup(access.address)
        index_expr, tags = self._indirect_index_expr(access, entry)
        dtype = FLOAT64 if as_float else unsigned_of_width(access.width)
        if entry is None:
            # An indirectly-accessed region that was not promoted to a buffer;
            # fall back to a concrete leaf.
            return MemLoad(access.address, dtype), tags
        return BufferAccess(entry.name, [index_expr], dtype), tags

    def _indirect_index_expr(self, access, entry) -> tuple[Expr, frozenset]:
        expression = access.expression
        if expression is None:
            return Const(0, INT32), frozenset()
        concrete = expression.disp
        symbolic: Expr | None = None
        tags: frozenset = frozenset()
        for reg_name, reg_value, scale in ((expression.base, expression.base_value, 1),
                                           (expression.index, expression.index_value,
                                            expression.scale)):
            if reg_name is None:
                continue
            expr, reg_tags = self._read_register(reg_name)
            if _is_data_derived(expr):
                scaled = expr if scale == 1 else BinOp(Op.MUL, expr, Const(scale, INT32), INT32)
                symbolic = scaled if symbolic is None else BinOp(Op.ADD, symbolic, scaled, INT32)
                tags = tags | reg_tags
            else:
                concrete += reg_value * scale
        element = entry.region.element_size if entry is not None else access.width
        base = entry.region.start if entry is not None else 0
        offset_const = concrete - base
        if symbolic is None:
            return Const(offset_const // element, INT32), tags
        index = symbolic
        if element != 1:
            index = BinOp(Op.DIV, index, Const(element, INT32), INT32)
        if offset_const:
            index = BinOp(Op.ADD, index, Const(offset_const // element, INT32), INT32)
        return canonicalize(index), tags

    # -- predicates ------------------------------------------------------------

    def _events_for(self, static_address: int) -> frozenset:
        events = set()
        for site, taken in self.forward.annotation(static_address):
            current = self.current_conditions.get(site)
            if current is not None and current.taken == taken:
                events.add(current)
        return frozenset(events)

    def _handle_conditional(self, record: TraceRecord, taken: bool) -> None:
        site = record.address
        if site not in self.forward.input_dependent_conditionals:
            return
        condition = self._condition_expr(record.mnemonic, taken)
        if condition is None:
            return
        self.current_conditions[site] = PredicateInfo(site=site, taken=taken,
                                                      condition=condition)

    def _condition_expr(self, mnemonic: str, taken: bool) -> Optional[Expr]:
        state = self.flags
        if state is None:
            return None
        if mnemonic in _UNSIGNED_PREDICATES or mnemonic in _SIGNED_PREDICATES:
            op = _UNSIGNED_PREDICATES.get(mnemonic) or _SIGNED_PREDICATES[mnemonic]
            a, b = state.a, state.b
        elif mnemonic in _EQUALITY_PREDICATES:
            op = _EQUALITY_PREDICATES[mnemonic]
            a, b = state.a, state.b
        elif mnemonic in _SIGN_PREDICATES:
            op = _SIGN_PREDICATES[mnemonic]
            a = BinOp(Op.SUB, state.a, state.b, state.a.dtype) \
                if state.kind == "cmp" else state.a
            b = Const(0, INT32)
        else:
            return None
        if not taken:
            op = _NEGATED[op]
        return canonicalize(BinOp(op, a, b, UINT32))

    # -- main loop ---------------------------------------------------------------

    def build(self) -> list[ConcreteTree]:
        invocation_starts = {start for start, _ in self.trace.invocation_bounds}
        records = self.trace.records
        for index, record in enumerate(records):
            if index in invocation_starts:
                # Registers and locals from a previous invocation are dead.
                self.env.clear()
                self.flags = None
                self.current_conditions.clear()
            self._record_index = index
            self._process(record, index, records)
        return self.trees

    def _process(self, record: TraceRecord, index: int, records) -> None:
        mnemonic = record.mnemonic
        handler = _HANDLERS.get(mnemonic)
        if handler is not None:
            handler(self, record)
            return
        if mnemonic in CONDITIONAL_JUMPS:
            taken = True
            if index + 1 < len(records):
                taken = records[index + 1].address != record.address + 4
            self._handle_conditional(record, taken)
            return
        if mnemonic in ("jmp", "call", "ret", "nop", "cpuid"):
            return
        raise TreeExtractionError(f"unmodelled mnemonic {mnemonic!r} in filter trace")

    # -- root recording -----------------------------------------------------------

    def _store_to_memory(self, record: TraceRecord, expr: Expr, tags: frozenset) -> None:
        writes = self._mem_accesses(record, is_write=True)
        if not writes:
            raise TreeExtractionError(f"no write access for {record.instruction}")
        access = writes[0]
        if expr.dtype.bytes != access.width and not expr.dtype.is_float:
            expr = Cast(unsigned_of_width(access.width), expr)
        self._write_location(access.address, access.width, expr, tags)
        entry = self.buffers.lookup(access.address)
        if entry is None or entry.role != "output":
            return
        predicates = set(tags) | set(self._events_for(record.address))
        root_index_expr = None
        if record.address in self.forward.indirect_access_instructions:
            root_index_expr, index_tags = self._indirect_index_expr(access, entry)
            predicates |= set(index_tags)
        self.trees.append(ConcreteTree(
            buffer=entry.name, root_address=access.address, root_width=access.width,
            expr=canonicalize(expr), predicates=tuple(sorted(predicates,
                                                             key=lambda p: (p.site, p.taken))),
            root_index_expr=root_index_expr, trace_index=self._record_index,
            raw_node_count=expr.node_count()))


def _register_name_for(address: int) -> Optional[str]:
    from ..x86.registers import GPR32, X87_REGISTERS, XMM_REGISTERS

    for name in list(GPR32) + list(X87_REGISTERS) + list(XMM_REGISTERS):
        if register_address(name) == address:
            return name
    return None


def _is_data_derived(expr: Expr) -> bool:
    return any(isinstance(node, (MemLoad, BufferAccess)) for node in expr.walk())


# ---------------------------------------------------------------------------
# Per-mnemonic expression semantics
# ---------------------------------------------------------------------------


def _tags_of(*tag_sets: frozenset) -> frozenset:
    out: frozenset = frozenset()
    for tags in tag_sets:
        out = out | tags
    return out


def _dst_write(builder: TreeBuilder, record: TraceRecord, op, expr: Expr,
               tags: frozenset) -> None:
    tags = tags | builder._events_for(record.address)
    if isinstance(op, Reg):
        builder._write_register(op.name, expr, tags)
    elif isinstance(op, Mem):
        builder._store_to_memory(record, expr, tags)
    else:
        raise TreeExtractionError(f"cannot write operand {op}")


def _h_mov(builder, record):
    dst, src = record.instruction.operands
    expr, tags = builder._read_operand(src, record)
    _dst_write(builder, record, dst, expr, tags)


def _h_movzx(builder, record):
    dst, src = record.instruction.operands
    expr, tags = builder._read_operand(src, record)
    expr = Cast(unsigned_of_width(dst.width), expr)
    _dst_write(builder, record, dst, expr, tags)


def _h_movsx(builder, record):
    dst, src = record.instruction.operands
    expr, tags = builder._read_operand(src, record)
    expr = Cast(signed_of_width(dst.width), expr)
    _dst_write(builder, record, dst, expr, tags)


def _h_lea(builder, record):
    dst, src = record.instruction.operands
    expr: Expr = Const(src.disp, INT32)
    tags: frozenset = frozenset()
    if src.base:
        base_expr, base_tags = builder._read_register(src.base)
        expr = BinOp(Op.ADD, base_expr, expr, UINT32)
        tags = tags | base_tags
    if src.index:
        index_expr, index_tags = builder._read_register(src.index)
        scaled = index_expr if src.scale == 1 else \
            BinOp(Op.MUL, index_expr, Const(src.scale, INT32), UINT32)
        expr = BinOp(Op.ADD, expr, scaled, UINT32)
        tags = tags | index_tags
    _dst_write(builder, record, dst, canonicalize(expr, builder._lea_memo), tags)


def _binary(builder, record, op_name):
    dst, src = record.instruction.operands
    a, a_tags = builder._read_operand(dst, record)
    b, b_tags = builder._read_operand(src, record)
    expr = BinOp(op_name, a, b, a.dtype)
    tags = _tags_of(a_tags, b_tags)
    builder.flags = _FlagsState("result", expr, Const(0, INT32), tags)
    _dst_write(builder, record, dst, expr, tags)


def _h_add(builder, record):
    _binary(builder, record, Op.ADD)


def _h_sub(builder, record):
    _binary(builder, record, Op.SUB)


def _h_and(builder, record):
    _binary(builder, record, Op.AND)


def _h_or(builder, record):
    _binary(builder, record, Op.OR)


def _h_xor(builder, record):
    dst, src = record.instruction.operands
    if isinstance(dst, Reg) and isinstance(src, Reg) and dst.name == src.name:
        # The idiomatic zeroing xor.
        expr = Const(0, UINT32)
        builder.flags = _FlagsState("result", expr, Const(0, INT32), frozenset())
        _dst_write(builder, record, dst, expr, frozenset())
        return
    _binary(builder, record, Op.XOR)


def _h_inc(builder, record):
    (dst,) = record.instruction.operands
    expr, tags = builder._read_operand(dst, record)
    _dst_write(builder, record, dst, BinOp(Op.ADD, expr, Const(1, INT32), expr.dtype), tags)


def _h_dec(builder, record):
    (dst,) = record.instruction.operands
    expr, tags = builder._read_operand(dst, record)
    _dst_write(builder, record, dst, BinOp(Op.SUB, expr, Const(1, INT32), expr.dtype), tags)


def _h_neg(builder, record):
    (dst,) = record.instruction.operands
    expr, tags = builder._read_operand(dst, record)
    _dst_write(builder, record, dst, UnOp(Op.NEG, expr), tags)


def _h_not(builder, record):
    (dst,) = record.instruction.operands
    expr, tags = builder._read_operand(dst, record)
    _dst_write(builder, record, dst, UnOp(Op.NOT, expr), tags)


def _h_imul(builder, record):
    operands = record.instruction.operands
    if len(operands) == 3:
        dst, src, imm = operands
        a, tags = builder._read_operand(src, record)
        expr = BinOp(Op.MUL, a, Const(imm.value, INT32), a.dtype)
    elif len(operands) == 2:
        dst, src = operands
        a, a_tags = builder._read_operand(dst, record)
        b, b_tags = builder._read_operand(src, record)
        expr = BinOp(Op.MUL, a, b, a.dtype)
        tags = _tags_of(a_tags, b_tags)
    else:
        raise TreeExtractionError("one-operand imul is not modelled")
    _dst_write(builder, record, dst, expr, tags)


def _shift(builder, record, op_name):
    dst, amount = record.instruction.operands
    a, tags = builder._read_operand(dst, record)
    b, b_tags = builder._read_operand(amount, record)
    _dst_write(builder, record, dst, BinOp(op_name, a, b, a.dtype), _tags_of(tags, b_tags))


def _h_shr(builder, record):
    _shift(builder, record, Op.SHR)


def _h_sar(builder, record):
    _shift(builder, record, Op.SAR)


def _h_shl(builder, record):
    _shift(builder, record, Op.SHL)


def _h_cmp(builder, record):
    a_op, b_op = record.instruction.operands
    a, a_tags = builder._read_operand(a_op, record)
    b, b_tags = builder._read_operand(b_op, record)
    builder.flags = _FlagsState("cmp", a, b, _tags_of(a_tags, b_tags))


def _h_test(builder, record):
    a_op, b_op = record.instruction.operands
    a, a_tags = builder._read_operand(a_op, record)
    b, b_tags = builder._read_operand(b_op, record)
    combined = a if a == b else BinOp(Op.AND, a, b, a.dtype)
    builder.flags = _FlagsState("test", combined, Const(0, INT32), _tags_of(a_tags, b_tags))


def _h_push(builder, record):
    (src,) = record.instruction.operands
    expr, tags = builder._read_operand(src, record)
    writes = builder._mem_accesses(record, is_write=True)
    if writes:
        builder._write_location(writes[0].address, writes[0].width, expr, tags)


def _h_pop(builder, record):
    (dst,) = record.instruction.operands
    reads = builder._mem_accesses(record, is_write=False)
    if not reads:
        return
    expr, tags = builder._read_location(reads[0].address, reads[0].width,
                                        observed_value=reads[0].value)
    if isinstance(dst, Reg):
        builder._write_register(dst.name, expr, tags)


def _h_xchg(builder, record):
    a_op, b_op = record.instruction.operands
    a, a_tags = builder._read_operand(a_op, record)
    b, b_tags = builder._read_operand(b_op, record)
    _dst_write(builder, record, a_op, b, b_tags)
    _dst_write(builder, record, b_op, a, a_tags)


# -- x87 -----------------------------------------------------------------------


def _st_address(builder, depth: int) -> tuple[int, int]:
    top = builder._fpu_tops[builder._record_index]
    slot = (top + depth) % 8
    return register_address(f"st{slot}"), 8


def _st_address_after_push(builder, depth: int) -> tuple[int, int]:
    top = (builder._fpu_tops[builder._record_index] - 1) % 8
    slot = (top + depth) % 8
    return register_address(f"st{slot}"), 8


def _read_st(builder, depth: int) -> tuple[Expr, frozenset]:
    address, width = _st_address(builder, depth)
    return builder._read_location(address, width, as_float=True)


def _write_st(builder, depth: int, expr: Expr, tags: frozenset, after_push=False) -> None:
    address, width = (_st_address_after_push(builder, depth) if after_push
                      else _st_address(builder, depth))
    builder._write_location(address, width, expr, tags)


def _h_fld(builder, record):
    (src,) = record.instruction.operands
    if isinstance(src, Reg):
        expr, tags = _read_st(builder, 0 if src.name == "st" else int(src.name[2:]))
    else:
        expr, tags = builder._read_operand(src, record, as_float=True)
    _write_st(builder, 0, expr, tags, after_push=True)


def _h_fild(builder, record):
    (src,) = record.instruction.operands
    expr, tags = builder._read_operand(src, record)
    _write_st(builder, 0, Cast(FLOAT64, expr), tags, after_push=True)


def _h_fldz(builder, record):
    _write_st(builder, 0, Const(0.0, FLOAT64), frozenset(), after_push=True)


def _h_fld1(builder, record):
    _write_st(builder, 0, Const(1.0, FLOAT64), frozenset(), after_push=True)


def _f_arith(builder, record, op_name, pop):
    operands = record.instruction.operands
    if len(operands) == 1 and isinstance(operands[0], Mem):
        a, a_tags = _read_st(builder, 0)
        b, b_tags = builder._read_operand(operands[0], record, as_float=True)
        _write_st(builder, 0, BinOp(op_name, a, b, FLOAT64), _tags_of(a_tags, b_tags))
        return
    depth = 1
    if operands and isinstance(operands[0], Reg) and operands[0].name.startswith("st"):
        depth = 0 if operands[0].name == "st" else int(operands[0].name[2:])
    a, a_tags = _read_st(builder, depth)
    b, b_tags = _read_st(builder, 0)
    expr = BinOp(op_name, a, b, FLOAT64)
    tags = _tags_of(a_tags, b_tags)
    _write_st(builder, depth, expr, tags)
    # The pop itself is reflected in the next instruction's fpu_top.


def _h_fadd(builder, record):
    _f_arith(builder, record, Op.ADD, pop=False)


def _h_faddp(builder, record):
    _f_arith(builder, record, Op.ADD, pop=True)


def _h_fsub(builder, record):
    _f_arith(builder, record, Op.SUB, pop=False)


def _h_fsubp(builder, record):
    _f_arith(builder, record, Op.SUB, pop=True)


def _h_fmul(builder, record):
    _f_arith(builder, record, Op.MUL, pop=False)


def _h_fmulp(builder, record):
    _f_arith(builder, record, Op.MUL, pop=True)


def _h_fdiv(builder, record):
    _f_arith(builder, record, Op.DIV, pop=False)


def _h_fdivp(builder, record):
    _f_arith(builder, record, Op.DIV, pop=True)


def _h_fstp(builder, record):
    (dst,) = record.instruction.operands
    expr, tags = _read_st(builder, 0)
    if isinstance(dst, Mem):
        builder._store_to_memory(record, expr, tags)
    else:
        depth = 0 if dst.name == "st" else int(dst.name[2:])
        _write_st(builder, depth, expr, tags)


def _h_fistp(builder, record):
    (dst,) = record.instruction.operands
    expr, tags = _read_st(builder, 0)
    rounded = Call("round", [expr], INT32)
    builder._store_to_memory(record, rounded, tags)


def _h_fxch(builder, record):
    operands = record.instruction.operands
    depth = 1
    if operands:
        depth = 0 if operands[0].name == "st" else int(operands[0].name[2:])
    a, a_tags = _read_st(builder, 0)
    b, b_tags = _read_st(builder, depth)
    _write_st(builder, 0, b, b_tags)
    _write_st(builder, depth, a, a_tags)


def _h_fabs(builder, record):
    expr, tags = _read_st(builder, 0)
    _write_st(builder, 0, UnOp(Op.ABS, expr), tags)


def _h_fchs(builder, record):
    expr, tags = _read_st(builder, 0)
    _write_st(builder, 0, UnOp(Op.NEG, expr), tags)


# -- scalar SSE ------------------------------------------------------------------


def _h_movsd(builder, record):
    dst, src = record.instruction.operands
    expr, tags = builder._read_operand(src, record, as_float=True)
    if isinstance(dst, Reg):
        builder._write_register(dst.name, expr, tags)
    else:
        builder._store_to_memory(record, expr, tags)


def _sse_arith(builder, record, op_name):
    dst, src = record.instruction.operands
    a, a_tags = builder._read_register(dst.name)
    b, b_tags = builder._read_operand(src, record, as_float=True)
    builder._write_register(dst.name, BinOp(op_name, a, b, FLOAT64), _tags_of(a_tags, b_tags))


def _h_addsd(builder, record):
    _sse_arith(builder, record, Op.ADD)


def _h_subsd(builder, record):
    _sse_arith(builder, record, Op.SUB)


def _h_mulsd(builder, record):
    _sse_arith(builder, record, Op.MUL)


def _h_divsd(builder, record):
    _sse_arith(builder, record, Op.DIV)


def _h_pxor(builder, record):
    dst, src = record.instruction.operands
    if isinstance(src, Reg) and src.name == dst.name:
        builder._write_register(dst.name, Const(0.0, FLOAT64), frozenset())


def _h_cvtsi2sd(builder, record):
    dst, src = record.instruction.operands
    expr, tags = builder._read_operand(src, record)
    builder._write_register(dst.name, Cast(FLOAT64, expr), tags)


def _h_cvttsd2si(builder, record):
    dst, src = record.instruction.operands
    expr, tags = builder._read_operand(src, record, as_float=True)
    builder._write_register(dst.name, Cast(INT32, expr), tags)


def _h_comisd(builder, record):
    a_op, b_op = record.instruction.operands
    a, a_tags = builder._read_operand(a_op, record, as_float=True)
    b, b_tags = builder._read_operand(b_op, record, as_float=True)
    builder.flags = _FlagsState("cmp", a, b, _tags_of(a_tags, b_tags))


_HANDLERS = {
    "mov": _h_mov, "movzx": _h_movzx, "movsx": _h_movsx, "lea": _h_lea,
    "add": _h_add, "sub": _h_sub, "and": _h_and, "or": _h_or, "xor": _h_xor,
    "inc": _h_inc, "dec": _h_dec, "neg": _h_neg, "not": _h_not, "imul": _h_imul,
    "shr": _h_shr, "sar": _h_sar, "shl": _h_shl, "sal": _h_shl,
    "cmp": _h_cmp, "test": _h_test, "push": _h_push, "pop": _h_pop, "xchg": _h_xchg,
    "fld": _h_fld, "fild": _h_fild, "fldz": _h_fldz, "fld1": _h_fld1,
    "fadd": _h_fadd, "faddp": _h_faddp, "fsub": _h_fsub, "fsubp": _h_fsubp,
    "fmul": _h_fmul, "fmulp": _h_fmulp, "fdiv": _h_fdiv, "fdivp": _h_fdivp,
    "fst": _h_fstp, "fstp": _h_fstp, "fist": _h_fistp, "fistp": _h_fistp,
    "fxch": _h_fxch, "fabs": _h_fabs, "fchs": _h_fchs,
    "movsd": _h_movsd, "addsd": _h_addsd, "subsd": _h_subsd, "mulsd": _h_mulsd,
    "divsd": _h_divsd, "pxor": _h_pxor, "cvtsi2sd": _h_cvtsi2sd,
    "cvttsd2si": _h_cvttsd2si, "comisd": _h_comisd,
}
