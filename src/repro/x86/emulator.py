"""The x86 emulator with DynamoRIO-style instrumentation hooks.

Instrumentation tools (``repro.dynamo``) attach to an :class:`Emulator` and
receive callbacks for basic blocks, calls/returns, and executed instructions
together with the memory accesses each instruction performed (address, width,
direction, value and — for indirect operands — the address expression with the
concrete register values, exactly the artifacts the paper's tracing client
records in sections 3.1 and 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cpu import CPUState
from .instructions import Imm, Instruction, Label, Mem, Operand, Reg
from .memory import Memory, STACK_TOP
from .module import Program, RETURN_SENTINEL
from .semantics import HANDLERS

MASK32 = 0xFFFF_FFFF


class EmulationError(Exception):
    """Raised when execution cannot continue."""


@dataclass(frozen=True)
class AddressExpression:
    """The components of an indirect memory operand at execution time."""

    base: Optional[str]
    base_value: int
    index: Optional[str]
    index_value: int
    scale: int
    disp: int

    def compute(self) -> int:
        return (self.base_value + self.index_value * self.scale + self.disp) & MASK32


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic memory access performed by an instruction."""

    address: int
    width: int
    is_write: bool
    value: int | float
    expression: Optional[AddressExpression] = None


class Emulator:
    """Executes a loaded :class:`~repro.x86.module.Program`."""

    def __init__(self, program: Program, memory: Memory | None = None) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.cpu = CPUState()
        self.cpu.set_reg("esp", STACK_TOP)
        self.cpuid_intercepted = False
        self.instruction_count = 0
        self.max_instructions = 500_000_000
        self._tools: list = []
        self._access_log: list[MemoryAccess] = []
        self._current_expression: Optional[AddressExpression] = None
        #: Basic-block execution cache: block start address -> list of
        #: (instruction, bound handler, is_call, is_ret, is_terminator).
        #: Decoding pre-binds the semantics handler and control-flow flags per
        #: instruction at first execution, so replay skips the per-instruction
        #: mnemonic dispatch, external lookup and terminator string tests.
        self._block_cache: dict[int, list] = {}
        self.block_cache_stats = {"hits": 0, "misses": 0}
        self._rebind_hooks()

    # -- instrumentation ----------------------------------------------------

    def attach(self, tool) -> None:
        self._tools.append(tool)
        tool.attached(self)
        self._rebind_hooks()

    def _rebind_hooks(self) -> None:
        self._block_hooks = [t.on_block for t in self._tools if hasattr(t, "on_block")]
        self._call_hooks = [t.on_call for t in self._tools if hasattr(t, "on_call")]
        self._ret_hooks = [t.on_ret for t in self._tools if hasattr(t, "on_ret")]
        self._ins_hooks = [t.on_instruction for t in self._tools if hasattr(t, "on_instruction")]
        self._done_hooks = [t.on_instruction_done for t in self._tools
                            if hasattr(t, "on_instruction_done")]
        # Memory-access artifacts (MemoryAccess records with their address
        # expressions) are only observable through on_instruction_done hooks;
        # uninstrumented runs skip building them entirely.
        self._tracing = bool(self._done_hooks)

    # -- operand helpers ------------------------------------------------------

    def operand_width(self, *operands: Operand) -> int:
        for op in operands:
            if type(op) in (Reg, Mem):
                return op.width
        return 4

    def effective_address(self, op: Mem) -> int:
        base_value = self.cpu.get_reg(op.base) if op.base else 0
        index_value = self.cpu.get_reg(op.index) if op.index else 0
        if self._tracing:
            self._current_expression = AddressExpression(
                base=op.base, base_value=base_value, index=op.index,
                index_value=index_value, scale=op.scale, disp=op.disp)
        return (base_value + index_value * op.scale + op.disp) & MASK32

    # Operand access dispatches on the concrete operand type (one dict hit
    # instead of an isinstance chain) — the pre-bound accessor table the
    # cached basic blocks execute through.

    def _read_imm(self, op: Imm) -> int:
        return op.value & MASK32

    def _read_reg(self, op: Reg) -> int:
        return self.cpu.get_reg(op.name)

    def _read_mem(self, op: Mem) -> int:
        return self.mem_read(self.effective_address(op), op.size)

    def _read_label(self, op: Label) -> int:
        return self.program.resolve(op.name)

    _READERS = {Imm: _read_imm, Reg: _read_reg, Mem: _read_mem, Label: _read_label}

    def read_operand(self, op: Operand, width: int | None = None) -> int:
        reader = self._READERS.get(type(op))
        if reader is None:
            raise EmulationError(f"cannot read operand {op}")
        return reader(self, op)

    def _write_reg(self, op: Reg, value: int) -> None:
        self.cpu.set_reg(op.name, value)

    def _write_mem(self, op: Mem, value: int) -> None:
        self.mem_write(self.effective_address(op), op.size, value)

    _WRITERS = {Reg: _write_reg, Mem: _write_mem}

    def write_operand(self, op: Operand, value: int, width: int | None = None) -> None:
        writer = self._WRITERS.get(type(op))
        if writer is None:
            raise EmulationError(f"cannot write operand {op}")
        writer(self, op, value)

    # -- memory with access logging ------------------------------------------

    def mem_read(self, address: int, width: int) -> int:
        value = self.memory.read_uint(address, width)
        if self._tracing:
            self._access_log.append(MemoryAccess(address, width, False, value,
                                                 self._take_expression()))
        return value

    def mem_write(self, address: int, width: int, value: int) -> None:
        self.memory.write_uint(address, width, value)
        if self._tracing:
            self._access_log.append(MemoryAccess(address, width, True,
                                                 value & ((1 << (width * 8)) - 1),
                                                 self._take_expression()))

    def mem_read_float(self, address: int, width: int) -> float:
        value = self.memory.read_float(address, width)
        if self._tracing:
            self._access_log.append(MemoryAccess(address, width, False, value,
                                                 self._take_expression()))
        return value

    def mem_write_float(self, address: int, width: int, value: float) -> None:
        self.memory.write_float(address, width, value)
        if self._tracing:
            self._access_log.append(MemoryAccess(address, width, True, value,
                                                 self._take_expression()))

    def _take_expression(self) -> Optional[AddressExpression]:
        expr = self._current_expression
        self._current_expression = None
        return expr

    # -- control flow ----------------------------------------------------------

    def resolve_target(self, op: Operand) -> int:
        if isinstance(op, Label):
            return self.program.resolve(op.name)
        if isinstance(op, Imm):
            return op.value & MASK32
        if isinstance(op, Reg):
            return self.cpu.get_reg(op.name)
        if isinstance(op, Mem):
            address = self.effective_address(op)
            return self.mem_read(address, op.size)
        raise EmulationError(f"cannot resolve branch target {op}")

    def next_address(self, ins: Instruction) -> int:
        return self.program.next_address(ins)

    # -- execution ---------------------------------------------------------------

    def call_function(self, entry: int | str, args: Sequence[int] = (),
                      max_instructions: int | None = None) -> int:
        """Call a function with the cdecl convention and run it to completion."""
        address = self.program.resolve(entry) if isinstance(entry, str) else entry
        esp = self.cpu.get_reg("esp")
        for arg in reversed(list(args)):
            esp = (esp - 4) & MASK32
            self.memory.write_uint(esp, 4, arg & MASK32)
        esp = (esp - 4) & MASK32
        self.memory.write_uint(esp, 4, RETURN_SENTINEL)
        self.cpu.set_reg("esp", esp)
        self.run(address, stop_address=RETURN_SENTINEL,
                 max_instructions=max_instructions)
        # cdecl: caller cleans up the arguments.
        self.cpu.set_reg("esp", (self.cpu.get_reg("esp") + 4 * len(args)) & MASK32)
        return self.cpu.get_reg("eax")

    def _decode_block(self, start: int) -> list:
        """Decode the straight-line block at ``start``, pre-binding handlers.

        The block extends until a control-transfer instruction, an unmapped
        fall-through address, or an unimplemented mnemonic (kept in the block
        so the error still fires at execution time, after its predecessors
        ran, exactly like uncached execution).
        """
        instruction_at = self.program.instruction_at
        entries: list = []
        address = start
        while True:
            ins = instruction_at.get(address)
            if ins is None:
                break
            handler = HANDLERS.get(ins.mnemonic)
            entries.append((ins, handler, ins.mnemonic == "call",
                            ins.mnemonic == "ret", ins.is_block_terminator))
            if handler is None or ins.is_block_terminator:
                break
            address = ins.address + 4
        return entries

    def run(self, start: int, stop_address: int | None = None,
            max_instructions: int | None = None) -> None:
        cpu = self.cpu
        program = self.program
        instruction_at = program.instruction_at
        external_by_address = program.external_by_address
        block_cache = self._block_cache
        block_stats = self.block_cache_stats
        access_log = self._access_log
        budget = max_instructions if max_instructions is not None else self.max_instructions
        cpu.eip = start
        current_block = start
        for hook in self._block_hooks:
            hook(start, None, self)
        while True:
            eip = cpu.eip
            if stop_address is not None and eip == stop_address:
                return
            external = external_by_address.get(eip)
            if external is not None:
                return_address = self.memory.read_uint(cpu.get_reg("esp"), 4)
                external.implementation(self)
                cpu.set_reg("esp", (cpu.get_reg("esp") + 4) & MASK32)
                for hook in self._ret_hooks:
                    hook(return_address, self)
                cpu.eip = return_address
                current_block = return_address
                continue
            block = block_cache.get(eip)
            if block is None:
                block = self._decode_block(eip)
                block_cache[eip] = block
                block_stats["misses"] += 1
            else:
                block_stats["hits"] += 1
            if not block:
                raise EmulationError(f"execution reached unmapped address {eip:#x}")
            ins_hooks = self._ins_hooks
            done_hooks = self._done_hooks
            transferred = False
            for ins, handler, is_call, is_ret, is_terminator in block:
                cpu.eip = ins.address
                if ins.address == stop_address:
                    return
                if self.instruction_count >= budget:
                    raise EmulationError("instruction budget exceeded")
                self.instruction_count += 1
                for hook in ins_hooks:
                    hook(ins, self)
                access_log.clear()
                self._current_expression = None
                if handler is None:
                    raise EmulationError(
                        f"unimplemented mnemonic {ins.mnemonic!r} at {ins.address:#x}")
                target = handler(self, ins)
                if done_hooks:
                    accesses = tuple(access_log)
                    for hook in done_hooks:
                        hook(ins, accesses, self)
                if is_call:
                    for hook in self._call_hooks:
                        hook(target, ins.address, self)
                elif is_ret:
                    for hook in self._ret_hooks:
                        hook(target, self)
                if is_terminator or target is not None:
                    next_eip = target if target is not None else ins.address + 4
                    # Only real code addresses start basic blocks; returning
                    # to the call_function sentinel is not a block.
                    if next_eip in instruction_at or next_eip in external_by_address:
                        for hook in self._block_hooks:
                            hook(next_eip, current_block, self)
                        current_block = next_eip
                    cpu.eip = next_eip
                    transferred = True
                    break
            if not transferred:
                # The block ended at an unmapped fall-through address; the
                # next iteration reports it as unmapped execution.
                cpu.eip = block[-1][0].address + 4
