"""Static operand/effect model of instructions for the dynamic analyses.

Both the forward (taint) pass and the tree-building pass need to know, for
every dynamic instruction, which locations it reads and writes.  Registers are
mapped into a reserved pseudo address space (paper section 4.5) so registers
and memory are handled uniformly and partial-register accesses become ordinary
overlapping byte ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dynamo.records import TraceRecord
from ..x86.instructions import Mem, Reg
from ..x86.registers import register_address, register_width

#: A location is a (pseudo-)address plus a width in bytes.
Location = tuple[int, int]


def register_location(name: str) -> Location:
    return (register_address(name), register_width(name))


def x87_location(depth: int, fpu_top: int) -> Location:
    """Physical x87 slot location for st(depth) given the current stack top."""
    slot = (fpu_top + depth) % 8
    return (register_address(f"st{slot}"), 8)


@dataclass
class RecordEffects:
    """Locations read/written by one dynamic instruction."""

    reads: list[Location] = field(default_factory=list)
    writes: list[Location] = field(default_factory=list)
    reads_flags: bool = False
    writes_flags: bool = False
    #: Names of registers used in memory-operand address expressions.
    address_registers: list[str] = field(default_factory=list)


_RW_DST_SRC = {"add", "sub", "adc", "sbb", "and", "or", "xor",
               "shr", "shl", "sal", "sar"}
_W_DST_SRC = {"mov", "movzx", "movsx"}
_RW_SINGLE = {"inc", "dec", "neg", "not"}
_READ_ONLY_PAIR = {"cmp", "test", "comisd", "ucomisd"}
_X87_PUSH_MEM = {"fld", "fild"}
_X87_STORE_MEM = {"fst", "fstp", "fist", "fistp"}
_X87_ARITH = {"fadd", "fsub", "fsubr", "fmul", "fdiv"}
_X87_ARITH_POP = {"faddp", "fsubp", "fmulp", "fdivp"}
_SSE_ARITH = {"addsd", "subsd", "mulsd", "divsd"}


def _operand_register_reads(operand) -> list[Location]:
    """Registers read while forming a memory operand's address."""
    reads = []
    if isinstance(operand, Mem):
        if operand.base:
            reads.append(register_location(operand.base))
        if operand.index:
            reads.append(register_location(operand.index))
    return reads


def analyze_record(record: TraceRecord, fpu_top: int = 0) -> RecordEffects:
    """Compute the locations a dynamic instruction read and wrote."""
    ins = record.instruction
    effects = RecordEffects(reads_flags=ins.reads_flags, writes_flags=ins.writes_flags)
    operands = ins.operands
    mnemonic = ins.mnemonic

    # Memory accesses recorded at execution time provide the resolved
    # addresses for every memory operand (explicit and implicit).
    for access in record.accesses:
        location = (access.address, access.width)
        if access.is_write:
            effects.writes.append(location)
        else:
            effects.reads.append(location)
        if access.expression is not None:
            if access.expression.base:
                effects.address_registers.append(access.expression.base)
            if access.expression.index:
                effects.address_registers.append(access.expression.index)

    for operand in operands:
        effects.reads.extend(_operand_register_reads(operand))

    def read_reg(op):
        if isinstance(op, Reg):
            effects.reads.append(register_location(op.name))

    def write_reg(op):
        if isinstance(op, Reg):
            effects.writes.append(register_location(op.name))

    if mnemonic in _W_DST_SRC or mnemonic == "lea":
        write_reg(operands[0])
        if len(operands) > 1:
            read_reg(operands[1])
    elif mnemonic in _RW_DST_SRC:
        read_reg(operands[0])
        write_reg(operands[0])
        if len(operands) > 1:
            read_reg(operands[1])
    elif mnemonic in _RW_SINGLE:
        read_reg(operands[0])
        write_reg(operands[0])
    elif mnemonic in _READ_ONLY_PAIR:
        for op in operands:
            read_reg(op)
    elif mnemonic == "imul":
        if len(operands) == 3:
            write_reg(operands[0])
            read_reg(operands[1])
        elif len(operands) == 2:
            read_reg(operands[0])
            write_reg(operands[0])
            read_reg(operands[1])
        else:
            effects.reads.append(register_location("eax"))
            read_reg(operands[0])
            effects.writes.extend([register_location("eax"), register_location("edx")])
    elif mnemonic in ("mul", "div", "idiv"):
        effects.reads.append(register_location("eax"))
        if mnemonic in ("div", "idiv"):
            effects.reads.append(register_location("edx"))
        read_reg(operands[0])
        effects.writes.extend([register_location("eax"), register_location("edx")])
    elif mnemonic == "cdq":
        effects.reads.append(register_location("eax"))
        effects.writes.append(register_location("edx"))
    elif mnemonic == "push":
        read_reg(operands[0])
    elif mnemonic == "pop":
        write_reg(operands[0])
    elif mnemonic == "xchg":
        for op in operands:
            read_reg(op)
            write_reg(op)
    elif mnemonic in _X87_PUSH_MEM:
        if operands and isinstance(operands[0], Reg):
            effects.reads.append(x87_location(_st_depth(operands[0]), fpu_top))
        effects.writes.append(x87_location(0, (fpu_top - 1) % 8))
    elif mnemonic in ("fldz", "fld1"):
        effects.writes.append(x87_location(0, (fpu_top - 1) % 8))
    elif mnemonic in _X87_STORE_MEM:
        effects.reads.append(x87_location(0, fpu_top))
        if operands and isinstance(operands[0], Reg):
            effects.writes.append(x87_location(_st_depth(operands[0]), fpu_top))
    elif mnemonic in _X87_ARITH or mnemonic in _X87_ARITH_POP:
        effects.reads.append(x87_location(0, fpu_top))
        depth = 1
        if len(operands) >= 1 and isinstance(operands[0], Reg) and operands[0].name.startswith("st"):
            depth = _st_depth(operands[0])
        effects.reads.append(x87_location(depth, fpu_top))
        if mnemonic in _X87_ARITH_POP:
            effects.writes.append(x87_location(depth, fpu_top))
        elif len(operands) == 1 and isinstance(operands[0], Mem):
            effects.writes.append(x87_location(0, fpu_top))
        else:
            effects.writes.append(x87_location(depth if len(operands) == 2 else 0, fpu_top))
    elif mnemonic == "fxch":
        depth = _st_depth(operands[0]) if operands else 1
        effects.reads.extend([x87_location(0, fpu_top), x87_location(depth, fpu_top)])
        effects.writes.extend([x87_location(0, fpu_top), x87_location(depth, fpu_top)])
    elif mnemonic in ("fabs", "fchs"):
        effects.reads.append(x87_location(0, fpu_top))
        effects.writes.append(x87_location(0, fpu_top))
    elif mnemonic in ("movsd", "cvtsi2sd", "cvttsd2si", "sqrtsd"):
        write_reg(operands[0])
        read_reg(operands[1])
    elif mnemonic in _SSE_ARITH:
        read_reg(operands[0])
        write_reg(operands[0])
        read_reg(operands[1])
    elif mnemonic == "pxor":
        write_reg(operands[0])
        if isinstance(operands[1], Reg) and operands[1].name != operands[0].name:
            read_reg(operands[1])
    # Branches, calls, rets, nop and cpuid carry no data-register effects that
    # matter to the analyses (the flags dependence is captured separately).
    return effects


def _st_depth(operand: Reg) -> int:
    return 0 if operand.name == "st" else int(operand.name[2:])


def compute_fpu_tops(records: list[TraceRecord]) -> list[int]:
    """Recreate the x87 stack top before each dynamic instruction.

    This is the trace preprocessing step of paper section 4.5: the floating
    point stack is replayed from the instruction mnemonics so that relative
    ``st(i)`` operands can be renamed to physical slots.
    """
    tops: list[int] = []
    top = 0
    for record in records:
        tops.append(top)
        mnemonic = record.mnemonic
        if mnemonic in ("fld", "fild", "fldz", "fld1"):
            top = (top - 1) % 8
        elif mnemonic in ("fstp", "fistp", "faddp", "fsubp", "fmulp", "fdivp"):
            top = (top + 1) % 8
    return tops
