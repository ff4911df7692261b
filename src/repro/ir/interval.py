"""Integer interval rules.

The compiled engine narrows NumPy intermediates to ``int16``/``int32``
when every interval fits (:mod:`repro.halide.compile`).  An interval is
``(lo, hi)`` in exact Python integers, or None when nothing is known.
"""

from __future__ import annotations

from .expr import Op
from .simplify import _trunc_div
from .types import DType

__all__ = ["dtype_bounds", "interval_binop", "interval_cast",
           "interval_select", "interval_unop"]


def dtype_bounds(dtype: DType) -> tuple[int, int]:
    if dtype.is_signed:
        half = 1 << (dtype.bits - 1)
        return -half, half - 1
    return 0, (1 << dtype.bits) - 1


def _corner(fn, a, b):
    values = [fn(x, y) for x in a for y in b]
    return min(values), max(values)


def interval_binop(op: str, a, b):
    """Bounds of ``a op b`` given operand bounds; None when unknown."""
    if a is None or b is None:
        return (0, 1) if op in Op.COMPARISONS else None
    a_lo, a_hi = a
    b_lo, b_hi = b
    if op == Op.ADD:
        return a_lo + b_lo, a_hi + b_hi
    if op == Op.SUB:
        return a_lo - b_hi, a_hi - b_lo
    if op == Op.MUL:
        return _corner(lambda x, y: x * y, (a_lo, a_hi), (b_lo, b_hi))
    if op == Op.DIV:
        if b_lo <= 0 <= b_hi:
            return None
        return _corner(_trunc_div, (a_lo, a_hi), (b_lo, b_hi))
    if op == Op.MOD:
        if b_lo <= 0 <= b_hi:
            return None
        magnitude = max(abs(b_lo), abs(b_hi)) - 1
        return (-magnitude if a_lo < 0 else 0), (magnitude if a_hi > 0 else 0)
    if op in (Op.SHR, Op.SAR):
        if b_lo < 0 or b_hi > 31:
            return None
        return _corner(lambda x, y: x >> y, (a_lo, a_hi), (b_lo, b_hi))
    if op == Op.SHL:
        if b_lo < 0 or b_hi > 31:
            return None
        return _corner(lambda x, y: x << y, (a_lo, a_hi), (b_lo, b_hi))
    if op == Op.AND:
        if a_lo >= 0 and b_lo >= 0:
            return 0, min(a_hi, b_hi)
        return None
    if op in (Op.OR, Op.XOR):
        if a_lo >= 0 and b_lo >= 0:
            return 0, (1 << max(a_hi, b_hi).bit_length()) - 1
        return None
    if op == Op.MIN:
        return min(a_lo, b_lo), min(a_hi, b_hi)
    if op == Op.MAX:
        return max(a_lo, b_lo), max(a_hi, b_hi)
    if op in Op.COMPARISONS:
        return 0, 1
    return None


def interval_unop(op: str, a):
    """Bounds of ``-a``, ``~a`` or ``abs(a)``; None when unknown."""
    if a is None:
        return None
    lo, hi = a
    if op == Op.NEG:
        return -hi, -lo
    if op == Op.NOT:
        return -hi - 1, -lo - 1
    if op == Op.ABS:
        low = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        return low, max(abs(lo), abs(hi))
    return None


def interval_cast(dtype: DType, a):
    """Bounds of an integer cast: the operand's when it already fits (the
    wrap is then the identity), else the whole target range."""
    bounds = dtype_bounds(dtype)
    if a is not None and bounds[0] <= a[0] and a[1] <= bounds[1]:
        return a
    return bounds


def interval_select(a, b):
    """Bounds of a select between two integer values."""
    if a is None or b is None:
        return None
    return min(a[0], b[0]), max(a[1], b[1])
