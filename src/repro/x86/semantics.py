"""Execution semantics for the x86 subset.

Each handler implements one mnemonic.  Handlers receive the emulator (which
provides operand access with memory-trace logging) and the instruction, and
return the next ``eip`` for control-transfer instructions or ``None`` to fall
through.
"""

from __future__ import annotations

from .instructions import CONDITIONAL_JUMPS, Mem, Reg

MASK32 = 0xFFFF_FFFF


def _mask(width: int) -> int:
    return (1 << (width * 8)) - 1


def _sign_bit(value: int, width: int) -> bool:
    return bool(value & (1 << (width * 8 - 1)))


def _to_signed(value: int, width: int) -> int:
    value &= _mask(width)
    if _sign_bit(value, width):
        value -= 1 << (width * 8)
    return value


def _set_logic_flags(cpu, result: int, width: int) -> None:
    cpu.zf = (result & _mask(width)) == 0
    cpu.sf = _sign_bit(result, width)
    cpu.cf = False
    cpu.of = False


def _set_add_flags(cpu, a: int, b: int, carry_in: int, width: int) -> int:
    mask = _mask(width)
    result = (a & mask) + (b & mask) + carry_in
    cpu.cf = result > mask
    result &= mask
    cpu.zf = result == 0
    cpu.sf = _sign_bit(result, width)
    cpu.of = (_sign_bit(a, width) == _sign_bit(b, width)) and (_sign_bit(result, width) != _sign_bit(a, width))
    return result


def _set_sub_flags(cpu, a: int, b: int, borrow_in: int, width: int) -> int:
    mask = _mask(width)
    a &= mask
    b &= mask
    cpu.cf = a < b + borrow_in
    result = (a - b - borrow_in) & mask
    cpu.zf = result == 0
    cpu.sf = _sign_bit(result, width)
    cpu.of = (_sign_bit(a, width) != _sign_bit(b, width)) and (_sign_bit(result, width) != _sign_bit(a, width))
    return result


def evaluate_condition(cpu, mnemonic: str) -> bool:
    """Evaluate the predicate of a conditional jump mnemonic."""
    zf, sf, cf, of = cpu.zf, cpu.sf, cpu.cf, cpu.of
    table = {
        "zf": zf, "!zf": not zf,
        "cf": cf, "!cf": not cf,
        "cf|zf": cf or zf, "!cf&!zf": (not cf) and (not zf),
        "sf": sf, "!sf": not sf,
        "sf!=of": sf != of, "sf==of": sf == of,
        "zf|sf!=of": zf or (sf != of), "!zf&sf==of": (not zf) and (sf == of),
    }
    return table[CONDITIONAL_JUMPS[mnemonic]]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def h_nop(emu, ins):
    return None


def h_mov(emu, ins):
    dst, src = ins.operands
    width = emu.operand_width(dst, src)
    emu.write_operand(dst, emu.read_operand(src, width), width)
    return None


def h_movzx(emu, ins):
    dst, src = ins.operands
    value = emu.read_operand(src, src.width)
    emu.write_operand(dst, value, dst.width)
    return None


def h_movsx(emu, ins):
    dst, src = ins.operands
    value = _to_signed(emu.read_operand(src, src.width), src.width)
    emu.write_operand(dst, value & _mask(dst.width), dst.width)
    return None


def h_lea(emu, ins):
    dst, src = ins.operands
    address = emu.effective_address(src)
    emu.cpu.set_reg(dst.name, address)
    return None


def h_xchg(emu, ins):
    a, b = ins.operands
    width = emu.operand_width(a, b)
    va = emu.read_operand(a, width)
    vb = emu.read_operand(b, width)
    emu.write_operand(a, vb, width)
    emu.write_operand(b, va, width)
    return None


def h_push(emu, ins):
    (src,) = ins.operands
    value = emu.read_operand(src, 4)
    esp = (emu.cpu.get_reg("esp") - 4) & MASK32
    emu.cpu.set_reg("esp", esp)
    emu.mem_write(esp, 4, value)
    return None


def h_pop(emu, ins):
    (dst,) = ins.operands
    esp = emu.cpu.get_reg("esp")
    value = emu.mem_read(esp, 4)
    emu.cpu.set_reg("esp", (esp + 4) & MASK32)
    emu.write_operand(dst, value, 4)
    return None


def _binary_arith(emu, ins, op: str):
    dst, src = ins.operands
    width = emu.operand_width(dst, src)
    a = emu.read_operand(dst, width)
    b = emu.read_operand(src, width)
    cpu = emu.cpu
    if op == "add":
        result = _set_add_flags(cpu, a, b, 0, width)
    elif op == "adc":
        result = _set_add_flags(cpu, a, b, 1 if cpu.cf else 0, width)
    elif op == "sub":
        result = _set_sub_flags(cpu, a, b, 0, width)
    elif op == "sbb":
        result = _set_sub_flags(cpu, a, b, 1 if cpu.cf else 0, width)
    elif op == "and":
        result = a & b
        _set_logic_flags(cpu, result, width)
    elif op == "or":
        result = a | b
        _set_logic_flags(cpu, result, width)
    elif op == "xor":
        result = a ^ b
        _set_logic_flags(cpu, result, width)
    else:  # pragma: no cover - defensive
        raise ValueError(op)
    emu.write_operand(dst, result, width)
    return None


def h_add(emu, ins):
    return _binary_arith(emu, ins, "add")


def h_adc(emu, ins):
    return _binary_arith(emu, ins, "adc")


def h_sub(emu, ins):
    return _binary_arith(emu, ins, "sub")


def h_sbb(emu, ins):
    return _binary_arith(emu, ins, "sbb")


def h_and(emu, ins):
    return _binary_arith(emu, ins, "and")


def h_or(emu, ins):
    return _binary_arith(emu, ins, "or")


def h_xor(emu, ins):
    return _binary_arith(emu, ins, "xor")


def h_cmp(emu, ins):
    a_op, b_op = ins.operands
    width = emu.operand_width(a_op, b_op)
    a = emu.read_operand(a_op, width)
    b = emu.read_operand(b_op, width)
    _set_sub_flags(emu.cpu, a, b, 0, width)
    return None


def h_test(emu, ins):
    a_op, b_op = ins.operands
    width = emu.operand_width(a_op, b_op)
    result = emu.read_operand(a_op, width) & emu.read_operand(b_op, width)
    _set_logic_flags(emu.cpu, result, width)
    return None


def h_inc(emu, ins):
    (dst,) = ins.operands
    width = dst.width
    saved_cf = emu.cpu.cf
    result = _set_add_flags(emu.cpu, emu.read_operand(dst, width), 1, 0, width)
    emu.cpu.cf = saved_cf
    emu.write_operand(dst, result, width)
    return None


def h_dec(emu, ins):
    (dst,) = ins.operands
    width = dst.width
    saved_cf = emu.cpu.cf
    result = _set_sub_flags(emu.cpu, emu.read_operand(dst, width), 1, 0, width)
    emu.cpu.cf = saved_cf
    emu.write_operand(dst, result, width)
    return None


def h_neg(emu, ins):
    (dst,) = ins.operands
    width = dst.width
    value = emu.read_operand(dst, width)
    result = _set_sub_flags(emu.cpu, 0, value, 0, width)
    emu.cpu.cf = value != 0
    emu.write_operand(dst, result, width)
    return None


def h_not(emu, ins):
    (dst,) = ins.operands
    width = dst.width
    value = emu.read_operand(dst, width)
    emu.write_operand(dst, (~value) & _mask(width), width)
    return None


def h_imul(emu, ins):
    cpu = emu.cpu
    if len(ins.operands) == 3:
        dst, src, imm = ins.operands
        width = dst.width
        value = _to_signed(emu.read_operand(src, width), width) * _to_signed(imm.value, 4)
    elif len(ins.operands) == 2:
        dst, src = ins.operands
        width = dst.width
        value = _to_signed(emu.read_operand(dst, width), width) * \
            _to_signed(emu.read_operand(src, width), width)
    else:
        # One-operand form: edx:eax = eax * src (signed).
        (src,) = ins.operands
        width = 4
        value = _to_signed(cpu.get_reg("eax"), 4) * _to_signed(emu.read_operand(src, 4), 4)
        cpu.set_reg("eax", value & MASK32)
        cpu.set_reg("edx", (value >> 32) & MASK32)
        cpu.cf = cpu.of = not (-(1 << 31) <= value < (1 << 31))
        return None
    truncated = value & _mask(width)
    cpu.cf = cpu.of = value != _to_signed(truncated, width)
    cpu.zf = truncated == 0
    cpu.sf = _sign_bit(truncated, width)
    emu.write_operand(dst, truncated, width)
    return None


def h_mul(emu, ins):
    (src,) = ins.operands
    cpu = emu.cpu
    value = cpu.get_reg("eax") * emu.read_operand(src, 4)
    cpu.set_reg("eax", value & MASK32)
    cpu.set_reg("edx", (value >> 32) & MASK32)
    cpu.cf = cpu.of = (value >> 32) != 0
    return None


def h_cdq(emu, ins):
    cpu = emu.cpu
    cpu.set_reg("edx", MASK32 if _sign_bit(cpu.get_reg("eax"), 4) else 0)
    return None


def h_div(emu, ins):
    (src,) = ins.operands
    cpu = emu.cpu
    dividend = (cpu.get_reg("edx") << 32) | cpu.get_reg("eax")
    divisor = emu.read_operand(src, 4)
    if divisor == 0:
        raise ZeroDivisionError("simulated #DE")
    cpu.set_reg("eax", (dividend // divisor) & MASK32)
    cpu.set_reg("edx", (dividend % divisor) & MASK32)
    return None


def h_idiv(emu, ins):
    (src,) = ins.operands
    cpu = emu.cpu
    dividend = _to_signed((cpu.get_reg("edx") << 32) | cpu.get_reg("eax"), 8)
    divisor = _to_signed(emu.read_operand(src, 4), 4)
    if divisor == 0:
        raise ZeroDivisionError("simulated #DE")
    quotient = int(dividend / divisor)
    remainder = dividend - quotient * divisor
    cpu.set_reg("eax", quotient & MASK32)
    cpu.set_reg("edx", remainder & MASK32)
    return None


def _shift(emu, ins, kind: str):
    dst, amount_op = ins.operands
    width = dst.width
    amount = emu.read_operand(amount_op, 1) & 0x1F
    value = emu.read_operand(dst, width)
    cpu = emu.cpu
    if amount == 0:
        return None
    if kind == "shr":
        cpu.cf = bool((value >> (amount - 1)) & 1)
        result = value >> amount
    elif kind == "sar":
        signed = _to_signed(value, width)
        cpu.cf = bool((signed >> (amount - 1)) & 1)
        result = (signed >> amount) & _mask(width)
    else:  # shl / sal
        result = (value << amount) & _mask(width)
        cpu.cf = bool((value << amount) & (1 << (width * 8)))
    cpu.zf = result == 0
    cpu.sf = _sign_bit(result, width)
    cpu.of = False
    emu.write_operand(dst, result, width)
    return None


def h_shr(emu, ins):
    return _shift(emu, ins, "shr")


def h_sar(emu, ins):
    return _shift(emu, ins, "sar")


def h_shl(emu, ins):
    return _shift(emu, ins, "shl")


def h_jmp(emu, ins):
    (target,) = ins.operands
    return emu.resolve_target(target)


def h_jcc(emu, ins):
    (target,) = ins.operands
    if evaluate_condition(emu.cpu, ins.mnemonic):
        return emu.resolve_target(target)
    return None


def h_call(emu, ins):
    (target,) = ins.operands
    return_address = emu.next_address(ins)
    esp = (emu.cpu.get_reg("esp") - 4) & MASK32
    emu.cpu.set_reg("esp", esp)
    emu.mem_write(esp, 4, return_address)
    return emu.resolve_target(target)


def h_ret(emu, ins):
    esp = emu.cpu.get_reg("esp")
    return_address = emu.mem_read(esp, 4)
    pop_extra = ins.operands[0].value if ins.operands else 0
    emu.cpu.set_reg("esp", (esp + 4 + pop_extra) & MASK32)
    return return_address


def h_cpuid(emu, ins):
    cpu = emu.cpu
    # Leaf 1 feature bits: report SSE/SSE2 presence unless the instrumentation
    # intercepts cpuid (paper section 6.1), in which case no vector extensions
    # are reported and applications fall back to general-purpose x86 paths.
    features = 0 if emu.cpuid_intercepted else (1 << 25) | (1 << 26)
    cpu.set_reg("eax", 0)
    cpu.set_reg("ebx", 0)
    cpu.set_reg("ecx", 0)
    cpu.set_reg("edx", features)
    return None


# -- x87 floating point ------------------------------------------------------


def _fp_read(emu, op, width_default=8) -> float:
    if isinstance(op, Mem):
        address = emu.effective_address(op)
        return emu.mem_read_float(address, op.size)
    if isinstance(op, Reg) and op.name.startswith("st"):
        depth = 0 if op.name == "st" else int(op.name[2:])
        return emu.cpu.fpu_get(depth)
    raise ValueError(f"bad x87 operand {op}")


def h_fld(emu, ins):
    (src,) = ins.operands
    emu.cpu.fpu_push(_fp_read(emu, src))
    return None


def h_fild(emu, ins):
    (src,) = ins.operands
    address = emu.effective_address(src)
    value = emu.mem_read(address, src.size)
    emu.cpu.fpu_push(float(_to_signed(value, src.size)))
    return None


def h_fldz(emu, ins):
    emu.cpu.fpu_push(0.0)
    return None


def h_fld1(emu, ins):
    emu.cpu.fpu_push(1.0)
    return None


def _fstore(emu, ins, pop: bool, as_int: bool):
    (dst,) = ins.operands
    value = emu.cpu.fpu_get(0)
    if isinstance(dst, Mem):
        address = emu.effective_address(dst)
        if as_int:
            # x87 default rounding: round to nearest, ties to even.
            rounded = int(round(value))
            emu.mem_write(address, dst.size, rounded & _mask(dst.size))
        else:
            emu.mem_write_float(address, dst.size, value)
    elif isinstance(dst, Reg) and dst.name.startswith("st"):
        depth = 0 if dst.name == "st" else int(dst.name[2:])
        emu.cpu.fpu_set(depth, value)
    else:
        raise ValueError(f"bad x87 store operand {dst}")
    if pop:
        emu.cpu.fpu_pop()
    return None


def h_fst(emu, ins):
    return _fstore(emu, ins, pop=False, as_int=False)


def h_fstp(emu, ins):
    return _fstore(emu, ins, pop=True, as_int=False)


def h_fist(emu, ins):
    return _fstore(emu, ins, pop=False, as_int=True)


def h_fistp(emu, ins):
    return _fstore(emu, ins, pop=True, as_int=True)


def _f_arith(emu, ins, op: str, pop: bool):
    cpu = emu.cpu
    if pop:
        # faddp st(i), st : st(i) = st(i) op st(0), then pop.
        if ins.operands:
            dst = ins.operands[0]
            depth = 0 if dst.name == "st" else int(dst.name[2:])
        else:
            depth = 1
        a = cpu.fpu_get(depth)
        b = cpu.fpu_get(0)
        cpu.fpu_set(depth, _f_apply(op, a, b))
        cpu.fpu_pop()
        return None
    if len(ins.operands) == 1 and isinstance(ins.operands[0], Mem):
        a = cpu.fpu_get(0)
        b = _fp_read(emu, ins.operands[0])
        cpu.fpu_set(0, _f_apply(op, a, b))
        return None
    if len(ins.operands) == 2:
        dst, src = ins.operands
        d_depth = 0 if dst.name == "st" else int(dst.name[2:])
        s_depth = 0 if src.name == "st" else int(src.name[2:])
        a = cpu.fpu_get(d_depth)
        b = cpu.fpu_get(s_depth)
        cpu.fpu_set(d_depth, _f_apply(op, a, b))
        return None
    # No operands: st(1) = st(1) op st(0) without pop (rare; treat like p-form without pop).
    a = cpu.fpu_get(1)
    b = cpu.fpu_get(0)
    cpu.fpu_set(1, _f_apply(op, a, b))
    return None


def _f_apply(op: str, a: float, b: float) -> float:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "subr":
        return b - a
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(op)


def h_fadd(emu, ins):
    return _f_arith(emu, ins, "add", pop=False)


def h_faddp(emu, ins):
    return _f_arith(emu, ins, "add", pop=True)


def h_fsub(emu, ins):
    return _f_arith(emu, ins, "sub", pop=False)


def h_fsubp(emu, ins):
    return _f_arith(emu, ins, "sub", pop=True)


def h_fsubr(emu, ins):
    return _f_arith(emu, ins, "subr", pop=False)


def h_fmul(emu, ins):
    return _f_arith(emu, ins, "mul", pop=False)


def h_fmulp(emu, ins):
    return _f_arith(emu, ins, "mul", pop=True)


def h_fdiv(emu, ins):
    return _f_arith(emu, ins, "div", pop=False)


def h_fdivp(emu, ins):
    return _f_arith(emu, ins, "div", pop=True)


def h_fxch(emu, ins):
    depth = 1
    if ins.operands:
        name = ins.operands[0].name
        depth = 0 if name == "st" else int(name[2:])
    cpu = emu.cpu
    a = cpu.fpu_get(0)
    cpu.fpu_set(0, cpu.fpu_get(depth))
    cpu.fpu_set(depth, a)
    return None


def h_fabs(emu, ins):
    emu.cpu.fpu_set(0, abs(emu.cpu.fpu_get(0)))
    return None


def h_fchs(emu, ins):
    emu.cpu.fpu_set(0, -emu.cpu.fpu_get(0))
    return None


# -- scalar SSE2 (used by the miniGMG-like benchmark) -------------------------


def _xmm_read(emu, op) -> float:
    if isinstance(op, Reg):
        return emu.cpu.xmm[op.name]
    address = emu.effective_address(op)
    return emu.mem_read_float(address, op.size)


def h_movsd(emu, ins):
    dst, src = ins.operands
    if isinstance(dst, Reg):
        emu.cpu.xmm[dst.name] = _xmm_read(emu, src)
    else:
        address = emu.effective_address(dst)
        emu.mem_write_float(address, dst.size, emu.cpu.xmm[src.name])
    return None


def _sse_arith(emu, ins, op: str):
    dst, src = ins.operands
    emu.cpu.xmm[dst.name] = _f_apply(op, emu.cpu.xmm[dst.name], _xmm_read(emu, src))
    return None


def h_addsd(emu, ins):
    return _sse_arith(emu, ins, "add")


def h_subsd(emu, ins):
    return _sse_arith(emu, ins, "sub")


def h_mulsd(emu, ins):
    return _sse_arith(emu, ins, "mul")


def h_divsd(emu, ins):
    return _sse_arith(emu, ins, "div")


def h_sqrtsd(emu, ins):
    import math

    dst, src = ins.operands
    emu.cpu.xmm[dst.name] = math.sqrt(_xmm_read(emu, src))
    return None


def h_cvtsi2sd(emu, ins):
    dst, src = ins.operands
    emu.cpu.xmm[dst.name] = float(_to_signed(emu.read_operand(src, 4), 4))
    return None


def h_cvttsd2si(emu, ins):
    dst, src = ins.operands
    emu.cpu.set_reg(dst.name, int(_xmm_read(emu, src)) & MASK32)
    return None


def h_pxor(emu, ins):
    dst, src = ins.operands
    if isinstance(src, Reg) and src.name == dst.name:
        emu.cpu.xmm[dst.name] = 0.0
    return None


def h_comisd(emu, ins):
    a_op, b_op = ins.operands
    a = _xmm_read(emu, a_op)
    b = _xmm_read(emu, b_op)
    cpu = emu.cpu
    cpu.of = cpu.sf = False
    cpu.zf = a == b
    cpu.cf = a < b
    return None


HANDLERS = {
    "nop": h_nop, "mov": h_mov, "movzx": h_movzx, "movsx": h_movsx, "lea": h_lea,
    "xchg": h_xchg, "push": h_push, "pop": h_pop,
    "add": h_add, "adc": h_adc, "sub": h_sub, "sbb": h_sbb,
    "and": h_and, "or": h_or, "xor": h_xor, "cmp": h_cmp, "test": h_test,
    "inc": h_inc, "dec": h_dec, "neg": h_neg, "not": h_not,
    "imul": h_imul, "mul": h_mul, "div": h_div, "idiv": h_idiv, "cdq": h_cdq,
    "shr": h_shr, "sar": h_sar, "shl": h_shl, "sal": h_shl,
    "jmp": h_jmp, "call": h_call, "ret": h_ret, "cpuid": h_cpuid,
    "fld": h_fld, "fild": h_fild, "fldz": h_fldz, "fld1": h_fld1,
    "fst": h_fst, "fstp": h_fstp, "fist": h_fist, "fistp": h_fistp,
    "fadd": h_fadd, "faddp": h_faddp, "fsub": h_fsub, "fsubp": h_fsubp, "fsubr": h_fsubr,
    "fmul": h_fmul, "fmulp": h_fmulp, "fdiv": h_fdiv, "fdivp": h_fdivp,
    "fxch": h_fxch, "fabs": h_fabs, "fchs": h_fchs,
    "movsd": h_movsd, "addsd": h_addsd, "subsd": h_subsd, "mulsd": h_mulsd,
    "divsd": h_divsd, "sqrtsd": h_sqrtsd, "cvtsi2sd": h_cvtsi2sd,
    "cvttsd2si": h_cvttsd2si, "pxor": h_pxor, "comisd": h_comisd,
}
for _jcc in CONDITIONAL_JUMPS:
    HANDLERS[_jcc] = h_jcc
