"""Register model for the 32-bit x86 subset used by the simulated applications.

Two views of the register file exist:

* the emulator keeps general-purpose registers as full 32-bit integers with
  partial-register accessors (``al``/``ah``/``ax`` alias into ``eax``), the
  x87 stack as eight 64-bit float slots plus a top-of-stack index, and the
  SSE registers as scalar doubles;
* the analyses map every architectural register onto a reserved pseudo
  memory range (paper section 4.5: "Helium also maps registers into memory so
  the analysis can treat them identically"), which makes partial-register
  reads/writes ordinary byte-range overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass

GPR32 = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")

#: 16-bit and 8-bit aliases: name -> (parent 32-bit register, byte offset, width)
PARTIAL_REGISTERS: dict[str, tuple[str, int, int]] = {
    "ax": ("eax", 0, 2), "cx": ("ecx", 0, 2), "dx": ("edx", 0, 2), "bx": ("ebx", 0, 2),
    "sp": ("esp", 0, 2), "bp": ("ebp", 0, 2), "si": ("esi", 0, 2), "di": ("edi", 0, 2),
    "al": ("eax", 0, 1), "cl": ("ecx", 0, 1), "dl": ("edx", 0, 1), "bl": ("ebx", 0, 1),
    "ah": ("eax", 1, 1), "ch": ("ecx", 1, 1), "dh": ("edx", 1, 1), "bh": ("ebx", 1, 1),
}

XMM_REGISTERS = tuple(f"xmm{i}" for i in range(8))
X87_REGISTERS = tuple(f"st{i}" for i in range(8))

ALL_REGISTER_NAMES = frozenset(GPR32) | frozenset(PARTIAL_REGISTERS) | \
    frozenset(XMM_REGISTERS) | frozenset(X87_REGISTERS) | frozenset({"st"})

#: Base of the pseudo address space the analyses use for registers.  The
#: simulated applications never allocate memory this high, so buffer regions
#: and register slots can never collide.
REGISTER_SPACE_BASE = 0xF000_0000
#: Pseudo address of the flags register (treated as a 4-byte location so that
#: control dependencies flow through it during forward analysis).
FLAGS_ADDRESS = REGISTER_SPACE_BASE + 0x400
#: Base of the physical x87 slot pseudo addresses (8 bytes each).
X87_SPACE_BASE = REGISTER_SPACE_BASE + 0x500
#: Base of the XMM register pseudo addresses (8 bytes each; scalar use only).
XMM_SPACE_BASE = REGISTER_SPACE_BASE + 0x600


@dataclass(frozen=True)
class RegisterInfo:
    """Resolved location of a register in the pseudo register address space."""

    name: str
    address: int
    width: int
    parent: str


def _build_register_map() -> dict[str, RegisterInfo]:
    mapping: dict[str, RegisterInfo] = {}
    for i, reg in enumerate(GPR32):
        mapping[reg] = RegisterInfo(reg, REGISTER_SPACE_BASE + i * 8, 4, reg)
    for name, (parent, offset, width) in PARTIAL_REGISTERS.items():
        base = mapping[parent].address
        mapping[name] = RegisterInfo(name, base + offset, width, parent)
    for i, reg in enumerate(X87_REGISTERS):
        mapping[reg] = RegisterInfo(reg, X87_SPACE_BASE + i * 8, 8, reg)
    for i, reg in enumerate(XMM_REGISTERS):
        mapping[reg] = RegisterInfo(reg, XMM_SPACE_BASE + i * 8, 8, reg)
    return mapping


REGISTER_MAP: dict[str, RegisterInfo] = _build_register_map()


def is_register(name: str) -> bool:
    return name in ALL_REGISTER_NAMES


def register_width(name: str) -> int:
    if name in REGISTER_MAP:
        return REGISTER_MAP[name].width
    if name == "st":
        return 8
    raise KeyError(f"unknown register {name!r}")


def register_address(name: str) -> int:
    """Pseudo address of a register for the register-to-memory mapping."""
    return REGISTER_MAP[name].address


def is_register_address(address: int) -> bool:
    """True when an address lies in the reserved register pseudo space."""
    return address >= REGISTER_SPACE_BASE
