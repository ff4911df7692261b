"""Unit tests for the compiled-kernel backend and its cache."""

import numpy as np
import pytest

from repro.halide import (
    Func,
    FuncPipeline,
    RDom,
    Var,
    clear_kernel_cache,
    compile_func,
    inline_producer,
    kernel_cache_stats,
    realize,
    realize_interp,
)
from repro.halide.compile import func_signature
from repro.halide.realize import executed_nests
from repro.ir import (
    BinOp, BufferAccess, Call, Cast, Const, For, Op, Param, Select,
    Var as IRVar, FLOAT64, INT32, UINT8, UINT32,
)


def x_y():
    return Var("x_0"), Var("x_1")


def blur_expr(x, y):
    return Cast(UINT8, BinOp(Op.SHR, BinOp(
        Op.ADD,
        Cast(UINT32, BufferAccess("input_1", [x, BinOp(Op.ADD, y, Const(1))], UINT8)),
        Cast(UINT32, BufferAccess("input_1", [BinOp(Op.ADD, x, Const(2)),
                                              BinOp(Op.ADD, y, Const(1))], UINT8)),
        UINT32), Const(1, UINT32)))


class TestKernelCache:
    def test_second_realization_skips_codegen(self):
        clear_kernel_cache()
        x, y = x_y()
        func = Func("f", [x, y], dtype=UINT8).define(blur_expr(x, y))
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        realize(func, (4, 4), {"input_1": image}, engine="compiled")
        assert kernel_cache_stats["misses"] == 1
        assert kernel_cache_stats["hits"] == 0
        realize(func, (4, 4), {"input_1": image}, engine="compiled")
        realize(func, (6, 6), {"input_1": image}, engine="compiled")
        # The repeat call's nest holds its kernel (no lookup); the new
        # shape's nest resolves it once, from the cache.
        assert kernel_cache_stats["misses"] == 1
        assert kernel_cache_stats["hits"] == 1
        # Clearing the cache drops the nests too: the next call compiles.
        clear_kernel_cache()
        realize(func, (4, 4), {"input_1": image}, engine="compiled")
        assert kernel_cache_stats["misses"] == 1

    def test_schedule_change_relowers_without_recompiling(self):
        # Kernels are schedule-free: a new schedule is a new loop nest over
        # the one cached kernel.
        clear_kernel_cache()
        x, y = x_y()
        func = Func("f", [x, y], dtype=UINT8).define(blur_expr(x, y))
        image = np.arange(256, dtype=np.uint8).reshape(16, 16)
        untiled = realize(func, (8, 8), {"input_1": image}, engine="compiled")
        func.tile(4, 4)
        tiled = realize(func, (8, 8), {"input_1": image}, engine="compiled")
        np.testing.assert_array_equal(tiled, untiled)
        assert kernel_cache_stats["misses"] == 1
        nests = [nest for _out, _src, nest in executed_nests(func)]
        assert len(nests) == 2
        assert [any(isinstance(node, For) for node in nest.walk())
                for nest in nests] == [False, True]

    def test_param_values_are_part_of_the_key(self):
        # Structural keys ignore Param values, but the kernel bakes them in
        # as defaults: two lifts differing only in runtime constants must
        # not share a kernel.
        x, y = x_y()
        weight_a = Func("f", [x, y], dtype=UINT8).define(
            Cast(UINT8, BinOp(Op.MUL, Param("param_w", 2, INT32),
                              Cast(INT32, BufferAccess("input_1", [x, y], UINT8)))))
        weight_b = Func("f", [x, y], dtype=UINT8).define(
            Cast(UINT8, BinOp(Op.MUL, Param("param_w", 3, INT32),
                              Cast(INT32, BufferAccess("input_1", [x, y], UINT8)))))
        assert func_signature(weight_a) != func_signature(weight_b)
        image = np.full((4, 4), 5, dtype=np.uint8)
        out_a = realize(weight_a, (4, 4), {"input_1": image}, engine="compiled")
        out_b = realize(weight_b, (4, 4), {"input_1": image}, engine="compiled")
        assert out_a[0, 0] == 10 and out_b[0, 0] == 15


class TestCompiledMatchesInterp:
    def test_tiled_schedule_bit_identical(self):
        x, y = x_y()
        rng = np.random.default_rng(0)
        padded = rng.integers(0, 256, size=(37, 69), dtype=np.uint8)
        func = Func("f", [x, y], dtype=UINT8).define(blur_expr(x, y)).tile(16, 8)
        compiled = realize(func, (64, 32), {"input_1": padded}, engine="compiled")
        interp = realize_interp(func, (64, 32), {"input_1": padded})
        np.testing.assert_array_equal(compiled, interp)

    def test_histogram_reduction(self):
        image = np.random.default_rng(1).integers(0, 32, size=(9, 13), dtype=np.uint8)
        x = Var("x_0")
        func = Func("hist", [x], dtype=UINT32).define(Const(0, UINT32))
        rdom = RDom("r_0", source="input_1", dimensions=2)
        index = BufferAccess("input_1", [IRVar("r_0"), IRVar("r_1")], UINT8)
        update = BinOp(Op.ADD, BufferAccess("hist", [index], UINT32), Const(1, UINT32))
        func.update(rdom, [index], update)
        compiled = realize(func, (32,), {"input_1": image}, engine="compiled")
        interp = realize_interp(func, (32,), {"input_1": image})
        np.testing.assert_array_equal(compiled, interp)

    def test_float_call_chain(self):
        x, y = x_y()
        image = np.arange(30, dtype=np.uint8).reshape(5, 6)
        expr = Cast(UINT8, Call("round", [
            Call("sqrt", [Cast(FLOAT64, BufferAccess("input_1", [x, y], UINT8))],
                 FLOAT64)], INT32))
        func = Func("f", [x, y], dtype=UINT8).define(expr)
        compiled = realize(func, (6, 5), {"input_1": image}, engine="compiled")
        interp = realize_interp(func, (6, 5), {"input_1": image})
        np.testing.assert_array_equal(compiled, interp)

    def test_lut_gather(self):
        x, y = x_y()
        image = np.arange(24, dtype=np.uint8).reshape(4, 6)
        table = (np.arange(256, dtype=np.uint8)[::-1]).copy()
        expr = BufferAccess("lut", [Cast(INT32, BufferAccess("input_1", [x, y], UINT8))],
                            UINT8)
        func = Func("f", [x, y], dtype=UINT8).define(expr)
        compiled = realize(func, (6, 4), {"input_1": image, "lut": table},
                           engine="compiled")
        interp = realize_interp(func, (6, 4), {"input_1": image, "lut": table})
        np.testing.assert_array_equal(compiled, interp)
        np.testing.assert_array_equal(compiled, 255 - image)


class TestTruncatedDivision:
    """x86 idiv truncates toward zero; Python's // floors (regression)."""

    def _div_func(self, op):
        x, y = x_y()
        shifted = BinOp(Op.SUB, Cast(INT32, BufferAccess("input_1", [x, y], UINT8)),
                        Const(100, INT32), INT32)
        return Func("f", [x, y], dtype=INT32).define(
            BinOp(op, shifted, Const(7, INT32), INT32))

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_signed_division_truncates_toward_zero(self, engine):
        image = np.arange(20, dtype=np.uint8).reshape(4, 5)
        out = realize(self._div_func(Op.DIV), (5, 4), {"input_1": image},
                      engine=engine)
        # pixel value 0 -> (0 - 100) / 7 = -14 (trunc), not -15 (floor)
        assert out[0, 0] == -14
        expected = np.fix((image.astype(np.int64) - 100) / 7).astype(np.int64)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_signed_remainder_has_dividend_sign(self, engine):
        image = np.arange(20, dtype=np.uint8).reshape(4, 5)
        out = realize(self._div_func(Op.MOD), (5, 4), {"input_1": image},
                      engine=engine)
        # pixel value 0 -> -100 rem 7 = -2 (C semantics), not 5 (Python %)
        assert out[0, 0] == -2
        values = image.astype(np.int64) - 100
        expected = values - np.fix(values / 7).astype(np.int64) * 7
        np.testing.assert_array_equal(out, expected)

    def test_engines_agree_on_negative_divisors(self):
        x, y = x_y()
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        func = Func("f", [x, y], dtype=INT32).define(
            BinOp(Op.DIV, Cast(INT32, BufferAccess("input_1", [x, y], UINT8)),
                  Const(-3, INT32), INT32))
        compiled = realize(func, (4, 3), {"input_1": image}, engine="compiled")
        interp = realize_interp(func, (4, 3), {"input_1": image})
        np.testing.assert_array_equal(compiled, interp)
        assert compiled[0, 1] == 0 and compiled[1, 1] == -1  # 1 / -3, 5 / -3


class TestFuncPipelineFusion:
    def _stencil(self, name="stencil"):
        x, y = x_y()
        return Func(name, [x, y], dtype=UINT8).define(blur_expr(x, y))

    def _pointwise(self, name="invert"):
        x, y = x_y()
        return Func(name, [x, y], dtype=UINT8).define(
            Cast(UINT8, BinOp(Op.XOR, Const(255, UINT32),
                              Cast(UINT32, BufferAccess("input_1", [x, y], UINT8)))))

    def test_pointwise_consumer_is_inlined(self):
        pipe = FuncPipeline().add(self._stencil(), pad=1).add(self._pointwise())
        fused = pipe.fused()
        assert len(fused.stages) == 1
        assert fused.stages[0].pad == 1

    def test_stencil_consumer_stays_materialized(self):
        pipe = FuncPipeline().add(self._pointwise()).add(self._stencil(), pad=1)
        fused = pipe.fused()
        assert len(fused.stages) == 2

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_fused_pipeline_bit_identical(self, engine):
        rng = np.random.default_rng(7)
        image = rng.integers(0, 256, size=(40, 56), dtype=np.uint8)
        pipe = FuncPipeline() \
            .add(self._stencil("s1"), pad=1) \
            .add(self._pointwise("p1")) \
            .add(self._stencil("s2"), pad=1) \
            .add(self._pointwise("p2"))
        unfused = pipe.realize_interp(image)
        fused = pipe.fused().realize(image, engine=engine)
        np.testing.assert_array_equal(unfused, fused)

    def test_inline_producer_requantizes_through_producer_dtype(self):
        x, y = x_y()
        # Producer's declared output dtype narrows its value; the inlined
        # expression must reproduce the materialized quantization.
        producer = Func("wide", [x, y], dtype=UINT8).define(
            BinOp(Op.ADD, Cast(UINT32, BufferAccess("input_1", [x, y], UINT8)),
                  Const(300, UINT32), UINT32))
        consumer = Func("shift", [x, y], dtype=UINT8).define(
            Cast(UINT8, BinOp(Op.SHR,
                              Cast(UINT32, BufferAccess("mid", [x, y], UINT8)),
                              Const(1, UINT32))))
        merged = inline_producer(consumer, "mid", producer)
        image = np.arange(16, dtype=np.uint8).reshape(4, 4)
        staged = realize_interp(consumer, (4, 4),
                                {"mid": realize_interp(producer, (4, 4),
                                                       {"input_1": image})})
        for engine in ("interp", "compiled"):
            fused = realize(merged, (4, 4), {"input_1": image}, engine=engine)
            np.testing.assert_array_equal(fused, staged)
