"""Instruction and operand model for the x86 subset.

Instructions are kept at the assembly level (mnemonic + operands) rather than
as encoded bytes: the offline environment provides no disassembler library,
and none of Helium's analyses need byte-level encodings — they consume
instruction *addresses*, operand kinds/widths and the memory address
expressions of indirect operands (paper section 4.1).  The loader assigns each
instruction a unique address inside its module, so the trace artifacts look
exactly as they would coming out of DynamoRIO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .registers import register_width

#: Conditional-jump mnemonics and the flag predicate they evaluate.
CONDITIONAL_JUMPS = {
    "je": "zf", "jz": "zf",
    "jne": "!zf", "jnz": "!zf",
    "jb": "cf", "jc": "cf", "jnae": "cf",
    "jnb": "!cf", "jae": "!cf", "jnc": "!cf",
    "jbe": "cf|zf", "jna": "cf|zf",
    "ja": "!cf&!zf", "jnbe": "!cf&!zf",
    "jl": "sf!=of", "jnge": "sf!=of",
    "jge": "sf==of", "jnl": "sf==of",
    "jle": "zf|sf!=of", "jng": "zf|sf!=of",
    "jg": "!zf&sf==of", "jnle": "!zf&sf==of",
    "js": "sf", "jns": "!sf",
}

#: Mnemonics that terminate a basic block.
BLOCK_TERMINATORS = frozenset(CONDITIONAL_JUMPS) | {"jmp", "call", "ret"}

#: Mnemonics whose result depends on the flags register (other than jcc).
FLAG_READERS = frozenset({"adc", "sbb", "cmovb", "cmovnb", "cmova", "cmovbe",
                          "cmovl", "cmovge", "cmovle", "cmovg", "cmove", "cmovne",
                          "setb", "setnb", "seta", "setbe", "sete", "setne",
                          "setl", "setge", "setg", "setle"}) | frozenset(CONDITIONAL_JUMPS)

#: Mnemonics that write the arithmetic flags.
FLAG_WRITERS = frozenset({
    "add", "sub", "adc", "sbb", "inc", "dec", "neg", "and", "or", "xor", "not",
    "cmp", "test", "shr", "shl", "sal", "sar", "imul", "mul", "comisd", "ucomisd",
})


class Operand:
    """Base class for instruction operands."""

    __slots__ = ()


@dataclass(frozen=True)
class Reg(Operand):
    """A register operand."""

    name: str

    @property
    def width(self) -> int:
        return register_width(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm(Operand):
    """An immediate constant operand."""

    value: int

    @property
    def width(self) -> int:
        return 4

    def __str__(self) -> str:
        return hex(self.value) if abs(self.value) > 9 else str(self.value)


@dataclass(frozen=True)
class Mem(Operand):
    """An indirect memory operand: ``size ptr [base + index*scale + disp]``."""

    base: Optional[str] = None
    index: Optional[str] = None
    scale: int = 1
    disp: int = 0
    size: int = 4

    @property
    def width(self) -> int:
        return self.size

    def __str__(self) -> str:
        parts = []
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}" if self.scale != 1 else self.index)
        expr = "+".join(parts) if parts else ""
        if self.disp or not parts:
            sign = "+" if self.disp >= 0 and parts else ""
            expr += f"{sign}{self.disp:#x}" if self.disp >= 0 else f"-{abs(self.disp):#x}"
        names = {1: "byte", 2: "word", 4: "dword", 8: "qword"}
        return f"{names[self.size]} ptr [{expr}]"


@dataclass(frozen=True)
class Label(Operand):
    """A symbolic jump/call target; resolved to an address at load time."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Instruction:
    """One assembly instruction.

    ``address`` is assigned by the loader (module base + offset) and is what
    all of the dynamic traces and analyses refer to.
    """

    mnemonic: str
    operands: tuple[Operand, ...] = ()
    address: int = 0
    #: Labels defined at this instruction (for intra-module jump targets).
    labels: tuple[str, ...] = field(default_factory=tuple)

    @property
    def is_block_terminator(self) -> bool:
        return self.mnemonic in BLOCK_TERMINATORS

    @property
    def reads_flags(self) -> bool:
        return self.mnemonic in FLAG_READERS

    @property
    def writes_flags(self) -> bool:
        return self.mnemonic in FLAG_WRITERS

    def __str__(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} {', '.join(str(op) for op in self.operands)}"
