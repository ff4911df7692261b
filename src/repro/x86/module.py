"""Modules, programs and the loader.

A *module* corresponds to one DLL/EXE of the original application: a list of
instructions assembled from text plus the labels it exports.  A *program* is a
set of loaded modules with resolved addresses — this is the "stripped binary"
Helium analyzes.  No symbol information beyond dynamically-linked external
names survives loading, matching the paper's setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .assembler import assemble
from .instructions import Instruction
from .memory import MODULE_BASE

#: Spacing between instruction addresses (a plausible average encoding length).
INSTRUCTION_SPACING = 4
#: Address range spacing between loaded modules.
MODULE_SPACING = 0x0008_0000
#: Base of the pseudo addresses given to dynamically-linked external functions.
EXTERNAL_BASE = 0xE000_0000
#: Sentinel return address used by :meth:`Emulator.call_function`.
RETURN_SENTINEL = 0xDEAD_BEF0


class LinkError(Exception):
    """Raised when symbols cannot be resolved at load time."""


@dataclass
class Module:
    """One binary module (DLL) of a simulated application."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    base: int = 0

    @classmethod
    def from_assembly(cls, name: str, text: str) -> "Module":
        return cls(name=name, instructions=assemble(text))

    def append_assembly(self, text: str) -> None:
        self.instructions.extend(assemble(text))

    @property
    def size(self) -> int:
        return len(self.instructions) * INSTRUCTION_SPACING

    def labels(self) -> dict[str, int]:
        """Label name -> instruction index (addresses assigned at load time)."""
        out: dict[str, int] = {}
        for index, ins in enumerate(self.instructions):
            for label in ins.labels:
                if label in out:
                    raise LinkError(f"duplicate label {label!r} in module {self.name}")
                out[label] = index
        return out


@dataclass
class ExternalFunction:
    """A dynamically-linked library function implemented in Python.

    Helium treats calls to these specially (paper section 4.7, "Known library
    calls"): the symbol name is visible even in stripped binaries because it
    is needed for dynamic linking.
    """

    name: str
    implementation: Callable
    address: int = 0


class Program:
    """A loaded program: modules with assigned addresses plus a symbol table."""

    def __init__(self, modules: Iterable[Module] = (),
                 externals: Iterable[ExternalFunction] = ()) -> None:
        self.modules: list[Module] = list(modules)
        self.externals: dict[str, ExternalFunction] = {}
        self.external_by_address: dict[int, ExternalFunction] = {}
        self.symbols: dict[str, int] = {}
        self.instruction_at: dict[int, Instruction] = {}
        self.module_of: dict[int, str] = {}
        for ext in externals:
            self.add_external(ext)
        self._loaded = False

    # -- construction -----------------------------------------------------

    def add_external(self, external: ExternalFunction) -> ExternalFunction:
        external.address = EXTERNAL_BASE + 16 * len(self.externals)
        self.externals[external.name] = external
        self.external_by_address[external.address] = external
        return external

    def load(self, base: int = MODULE_BASE) -> "Program":
        """Assign addresses to every instruction and resolve labels."""
        next_base = base
        for module in self.modules:
            module.base = next_base
            for index, ins in enumerate(module.instructions):
                ins.address = module.base + index * INSTRUCTION_SPACING
                self.instruction_at[ins.address] = ins
                self.module_of[ins.address] = module.name
            for label, index in module.labels().items():
                if label in self.symbols:
                    raise LinkError(f"duplicate symbol {label!r}")
                self.symbols[label] = module.base + index * INSTRUCTION_SPACING
            next_base += max(MODULE_SPACING, module.size + INSTRUCTION_SPACING)
        self._loaded = True
        return self

    # -- queries ------------------------------------------------------------

    def resolve(self, name: str) -> int:
        if name in self.symbols:
            return self.symbols[name]
        if name in self.externals:
            return self.externals[name].address
        raise LinkError(f"unresolved symbol {name!r}")

    def symbol_for_address(self, address: int) -> Optional[str]:
        ext = self.external_by_address.get(address)
        if ext is not None:
            return ext.name
        for name, addr in self.symbols.items():
            if addr == address:
                return name
        return None

    def next_address(self, instruction: Instruction) -> int:
        return instruction.address + INSTRUCTION_SPACING
