"""Scalar data types shared by the analysis IR, the x86 emulator and mini-Halide.

Helium must track operand widths and signedness while it builds dependency
trees (paper section 4.7, "Data types") so that the generated Halide code uses
the right casts.  The emulator needs the same information to wrap arithmetic
the way 32-bit x86 does.  Keeping one dtype vocabulary avoids translation
errors between the two worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class TypeKind(Enum):
    """Broad classification of a scalar type."""

    UINT = "uint"
    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True, repr=False)
class DType:
    """A scalar type: kind plus width in bits.

    Instances are interned as module-level constants (``UINT8`` ...), so
    identity comparison works, but equality is structural so user-constructed
    instances also compare correctly.
    """

    kind: TypeKind
    bits: int

    def __repr__(self) -> str:
        # The dataclass repr, built once per type: canonicalization orders
        # operands by the text of their structural keys, which embed dtypes.
        text = _REPRS.get(self)
        if text is None:
            text = _REPRS[self] = \
                f"{type(self).__qualname__}(kind={self.kind!r}, bits={self.bits!r})"
        return text

    @property
    def bytes(self) -> int:
        return self.bits // 8

    @property
    def is_float(self) -> bool:
        return self.kind is TypeKind.FLOAT

    @property
    def is_signed(self) -> bool:
        return self.kind is TypeKind.INT

    @property
    def is_integer(self) -> bool:
        return self.kind in (TypeKind.UINT, TypeKind.INT)

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.bits}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    # -- value helpers -------------------------------------------------

    @property
    def min_value(self) -> int:
        if self.kind is TypeKind.UINT:
            return 0
        if self.kind is TypeKind.INT:
            return -(1 << (self.bits - 1))
        raise ValueError(f"min_value undefined for {self}")

    @property
    def max_value(self) -> int:
        if self.kind is TypeKind.UINT:
            return (1 << self.bits) - 1
        if self.kind is TypeKind.INT:
            return (1 << (self.bits - 1)) - 1
        raise ValueError(f"max_value undefined for {self}")

    def wrap(self, value: int | float) -> int | float:
        """Wrap ``value`` into this type the way hardware would."""
        if self.is_float:
            return float(np.float32(value)) if self.bits == 32 else float(value)
        mask = (1 << self.bits) - 1
        value = int(value) & mask
        if self.kind is TypeKind.INT and value >= (1 << (self.bits - 1)):
            value -= 1 << self.bits
        return value

    def to_numpy(self) -> np.dtype:
        """The numpy dtype that carries this scalar type."""
        if self.kind is TypeKind.FLOAT:
            return np.dtype(f"float{self.bits}")
        prefix = "uint" if self.kind is TypeKind.UINT else "int"
        return np.dtype(f"{prefix}{self.bits}")

    def halide_name(self) -> str:
        """The Halide C++ spelling, e.g. ``UInt(8)`` or ``Float(32)``."""
        if self.kind is TypeKind.UINT:
            return f"UInt({self.bits})"
        if self.kind is TypeKind.INT:
            return f"Int({self.bits})"
        return f"Float({self.bits})"

    def halide_cast_name(self) -> str:
        """The C scalar name used in ``cast<...>`` expressions."""
        if self.kind is TypeKind.FLOAT:
            return "float" if self.bits == 32 else "double"
        prefix = "uint" if self.kind is TypeKind.UINT else "int"
        return f"{prefix}{self.bits}_t"


#: ``repr`` text per dtype (see ``DType.__repr__``).
_REPRS: dict[DType, str] = {}


def clear_dtype_reprs() -> None:
    """Drop the cached ``repr`` texts (part of a cold canonicalization start)."""
    _REPRS.clear()


UINT8 = DType(TypeKind.UINT, 8)
UINT16 = DType(TypeKind.UINT, 16)
UINT32 = DType(TypeKind.UINT, 32)
UINT64 = DType(TypeKind.UINT, 64)
INT8 = DType(TypeKind.INT, 8)
INT16 = DType(TypeKind.INT, 16)
INT32 = DType(TypeKind.INT, 32)
INT64 = DType(TypeKind.INT, 64)
FLOAT32 = DType(TypeKind.FLOAT, 32)
FLOAT64 = DType(TypeKind.FLOAT, 64)

_BY_NAME = {
    t.name: t
    for t in (
        UINT8, UINT16, UINT32, UINT64,
        INT8, INT16, INT32, INT64,
        FLOAT32, FLOAT64,
    )
}


def dtype_from_name(name: str) -> DType:
    """Look a dtype up by its canonical name (``uint8``, ``float32``, ...)."""
    try:
        return _BY_NAME[name]
    except KeyError as exc:  # pragma: no cover - defensive
        raise ValueError(f"unknown dtype name {name!r}") from exc


def unsigned_of_width(num_bytes: int) -> DType:
    """The unsigned integer type with the given byte width."""
    return dtype_from_name(f"uint{num_bytes * 8}")


def signed_of_width(num_bytes: int) -> DType:
    """The signed integer type with the given byte width."""
    return dtype_from_name(f"int{num_bytes * 8}")
