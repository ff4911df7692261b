"""Unit tests for the mini-Halide front end and NumPy realizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.halide import Func, ImageParam, RDom, Var, realize
from repro.ir import BinOp, BufferAccess, Cast, Const, Op, Param, Select, Var as IRVar
from repro.ir import UINT8, UINT32, INT32


def x_y():
    return Var("x_0"), Var("x_1")


class TestRealizePointwise:
    def test_constant_function(self):
        x, y = x_y()
        func = Func("f", [x, y], dtype=UINT8).define(Const(7, UINT8))
        out = realize(func, (4, 3), {})
        assert out.shape == (3, 4)
        assert np.all(out == 7)

    def test_identity_of_input(self):
        x, y = x_y()
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        func = Func("f", [x, y], dtype=UINT8).define(
            BufferAccess("input_1", [x, y], UINT8))
        out = realize(func, (4, 3), {"input_1": image})
        np.testing.assert_array_equal(out, image)

    def test_invert_expression(self):
        x, y = x_y()
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        expr = Cast(UINT8, BinOp(Op.XOR, Const(255, UINT32),
                                 Cast(UINT32, BufferAccess("input_1", [x, y], UINT8))))
        func = Func("f", [x, y], dtype=UINT8).define(expr)
        out = realize(func, (4, 3), {"input_1": image})
        np.testing.assert_array_equal(out, 255 - image)

    def test_shifted_window_blur(self):
        x, y = x_y()
        padded = np.arange(36, dtype=np.uint8).reshape(6, 6)
        expr = Cast(UINT8, BinOp(Op.SHR, BinOp(
            Op.ADD,
            Cast(UINT32, BufferAccess("input_1", [x, BinOp(Op.ADD, y, Const(1))], UINT8)),
            Cast(UINT32, BufferAccess("input_1", [BinOp(Op.ADD, x, Const(2)),
                                                  BinOp(Op.ADD, y, Const(1))], UINT8)),
            UINT32), Const(1, UINT32)))
        func = Func("f", [x, y], dtype=UINT8).define(expr)
        out = realize(func, (4, 4), {"input_1": padded})
        expected = ((padded[1:5, 0:4].astype(np.int64) + padded[1:5, 2:6]) >> 1) & 0xFF
        np.testing.assert_array_equal(out, expected.astype(np.uint8))

    def test_select_expression(self):
        x, y = x_y()
        image = np.arange(20, dtype=np.uint8).reshape(4, 5)
        cond = BinOp(Op.GT, Cast(UINT32, BufferAccess("input_1", [x, y], UINT8)),
                     Const(9, UINT32))
        func = Func("f", [x, y], dtype=UINT8).define(Select(cond, Const(255, UINT8),
                                                            Const(0, UINT8)))
        out = realize(func, (5, 4), {"input_1": image})
        np.testing.assert_array_equal(out, np.where(image > 9, 255, 0))

    def test_param_binding(self):
        x, y = x_y()
        func = Func("f", [x, y], dtype=UINT8).define(
            Cast(UINT8, Param("param_gain", 3, INT32)))
        assert np.all(realize(func, (2, 2), {}, params={"param_gain": 9}) == 9)
        assert np.all(realize(func, (2, 2), {}) == 3)


class TestRealizeReduction:
    def test_histogram_reduction(self):
        image = np.random.default_rng(0).integers(0, 16, size=(8, 8), dtype=np.uint8)
        x = Var("x_0")
        func = Func("hist", [x], dtype=np.uint32 and __import__("repro.ir", fromlist=["UINT32"]).UINT32)
        func.define(Const(0, UINT32))
        rdom = RDom("r_0", source="input_1", dimensions=2)
        index = BufferAccess("input_1", [IRVar("r_0"), IRVar("r_1")], UINT8)
        update = BinOp(Op.ADD, BufferAccess("hist", [index], UINT32), Const(1, UINT32))
        func.update(rdom, [index], update)
        out = realize(func, (16,), {"input_1": image})
        np.testing.assert_array_equal(out, np.bincount(image.ravel(), minlength=16))


class TestZeroDivisorSemantics:
    """Both engines share one divide-by-zero semantics: RealizationError
    (x86 ``idiv`` raises ``#DE``), never a NumPy warning plus garbage."""

    @staticmethod
    def _div_func(op):
        x, y = x_y()
        expr = Cast(UINT8, BinOp(op, Cast(UINT32,
                                          BufferAccess("input_1", [x, y],
                                                       UINT8)),
                                 Param("d", 2, INT32), UINT32))
        return Func("f", [x, y], dtype=UINT8).define(expr)

    @pytest.mark.parametrize("op", [Op.DIV, Op.MOD])
    def test_zero_divisor_raises_identically_in_both_engines(self, op):
        from repro.halide.realize import RealizationError

        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        func = self._div_func(op)
        for engine in ("interp", "compiled"):
            with pytest.raises(RealizationError, match="division by zero"):
                realize(func, (4, 3), {"input_1": image}, {"d": 0},
                        engine=engine)

    @pytest.mark.parametrize("op", [Op.DIV, Op.MOD])
    def test_nonzero_divisor_still_agrees(self, op):
        image = np.arange(12, dtype=np.uint8).reshape(3, 4)
        func = self._div_func(op)
        results = [realize(func, (4, 3), {"input_1": image}, {"d": 3},
                           engine=engine) for engine in ("interp", "compiled")]
        np.testing.assert_array_equal(results[0], results[1])

    def test_constant_fold_declines_zero_divisor(self):
        """canonicalize must not crash on (or mis-fold) ``c / 0``; the node
        survives so realization raises the shared semantics."""
        from repro.ir import canonicalize

        expr = BinOp(Op.DIV, Const(3, UINT32), Const(0, UINT32), UINT32)
        folded = canonicalize(expr)
        assert isinstance(folded, BinOp) and folded.op == Op.DIV
        expr = BinOp(Op.MOD, Const(3, UINT32), Const(0, UINT32), UINT32)
        assert isinstance(canonicalize(expr), BinOp)

    def test_interval_analysis_never_narrows_through_zero_divisor(self):
        from repro.ir.interval import interval_binop

        assert interval_binop(Op.DIV, (0, 10), (0, 4)) is None
        assert interval_binop(Op.DIV, (0, 10), (-2, 2)) is None
        assert interval_binop(Op.MOD, (0, 10), (0, 0)) is None
        assert interval_binop(Op.DIV, (0, 10), (1, 4)) is not None


class TestScheduleObjects:
    def test_schedule_describe(self):
        func = Func("f", [Var("x_0")], dtype=UINT8).define(Const(0, UINT8))
        func.tile(32, 16).parallel()
        text = func.schedule.describe()
        assert "tile(32,16)" in text and "parallel" in text

    def test_image_param_str(self):
        assert "UInt(8)" in str(ImageParam("input_1", 2, UINT8))


class TestRealizeProperties:
    @given(width=st.integers(2, 12), height=st.integers(2, 10),
           shift=st.integers(0, 3), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_shift_matches_numpy_reference(self, width, height, shift, seed):
        x, y = x_y()
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        expr = Cast(UINT8, BinOp(Op.SHR, Cast(UINT32, BufferAccess("input_1", [x, y], UINT8)),
                                 Const(shift, UINT32)))
        func = Func("f", [x, y], dtype=UINT8).define(expr)
        out = realize(func, (width, height), {"input_1": image})
        np.testing.assert_array_equal(out, image >> shift)
