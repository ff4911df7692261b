"""Chaos tests for the native backend's toolchain fault site.

The ``native.compile`` fault site fires inside
:meth:`NativeBackend._materialize_so`, after the in-process and store cache
checks and just before the C compiler is invoked — the point where a real
toolchain dies (OOM-killed cc, full /tmp, revoked license).  The contract:

* an injected compile fault degrades **that frame** to the compiled-NumPy
  backend with a bit-identical result — never an exception, never a wrong
  answer;
* injected faults are NOT memoized: the next frame retries the toolchain
  and, once the fault budget is exhausted, compiles and runs natively;
* a *real* toolchain failure (compiler exits non-zero) IS memoized so a
  broken toolchain costs one subprocess spawn per source digest, not one
  per frame.
"""

import numpy as np
import pytest

from repro.halide import Func, FuncPipeline, Var
from repro.halide.backends import native as native_mod
from repro.halide.backends.native import (native_stats, reset_native_caches,
                                          toolchain_path)
from repro.ir import BinOp, BufferAccess, Cast, Const, Op, UINT8, UINT32
from repro.reliability import inject

HAVE_NATIVE = toolchain_path() is not None and native_mod.cffi is not None
needs_cc = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no C toolchain / cffi: nothing to fault")

WIDTH, HEIGHT = 48, 36


@pytest.fixture(autouse=True)
def isolated_native_state(tmp_path, monkeypatch):
    """Fresh store + caches per test: the fault site sits *after* the store
    lookup, so a warm `native/` stage would serve the .so and the injected
    toolchain death would never be reached."""
    from repro.store import STORE_DIR_ENV

    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
    reset_native_caches()
    yield
    reset_native_caches()


def _pipeline():
    x, y = Var("x_0"), Var("x_1")
    expr = None
    for dx in range(3):
        tap = Cast(UINT32, BufferAccess(
            "input_1", [BinOp(Op.ADD, x, Const(dx)),
                        BinOp(Op.ADD, y, Const(1))], UINT8))
        expr = tap if expr is None else BinOp(Op.ADD, expr, tap, UINT32)
    func = Func("blur", [x, y], dtype=UINT8).define(
        Cast(UINT8, BinOp(Op.SHR, expr, Const(1, UINT32), UINT32)))
    pipeline = FuncPipeline()
    pipeline.add(func, input_name="input_1", pad=1, name="blur")
    func.compute_root()
    return pipeline


def _frame(seed):
    return np.random.default_rng(seed).integers(
        0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)


@needs_cc
class TestInjectedCompileFault:
    def test_faulted_frame_degrades_bit_identically(self):
        reset_native_caches()
        image = _frame(1)
        oracle = _pipeline().realize_interp(image)
        before = native_stats()
        with inject("native.compile:n=1", seed=7) as plan:
            out = _pipeline().realize(image, engine="native")
        after = native_stats()
        np.testing.assert_array_equal(out, oracle)
        assert plan.fired["native.compile"] == 1
        assert after["degraded"] == before["degraded"] + 1
        assert after["compile_failures"] == before["compile_failures"] + 1
        assert after["native_frames"] == before["native_frames"]

    def test_fault_is_not_memoized_next_frame_goes_native(self):
        """Once the fault budget is spent, the same pipeline object retries
        the toolchain and serves frames natively again."""
        reset_native_caches()
        pipeline = _pipeline()
        first, second = _frame(2), _frame(3)
        before = native_stats()
        with inject("native.compile:n=1", seed=11) as plan:
            out_faulted = pipeline.realize(first, engine="native")
            out_recovered = pipeline.realize(second, engine="native")
        after = native_stats()
        assert plan.fired["native.compile"] == 1
        assert after["degraded"] == before["degraded"] + 1
        assert after["compiles"] == before["compiles"] + 1
        assert after["native_frames"] == before["native_frames"] + 1
        oracle_p = _pipeline()
        np.testing.assert_array_equal(
            out_faulted, oracle_p.realize_interp(first))
        np.testing.assert_array_equal(
            out_recovered, oracle_p.realize_interp(second))

    def test_fault_probability_sweep_every_frame_correct(self):
        """p=0.5 chaos over a burst of frames: every output bit-identical
        regardless of which frames degraded."""
        reset_native_caches()
        pipeline = _pipeline()
        oracle_p = _pipeline()
        with inject("native.compile:p=0.5", seed=23):
            for seed in range(6):
                image = _frame(100 + seed)
                np.testing.assert_array_equal(
                    pipeline.realize(image, engine="native"),
                    oracle_p.realize_interp(image))
        reset_native_caches()


class TestRealToolchainFailure:
    def test_broken_compiler_is_memoized_per_digest(self, monkeypatch):
        """A compiler that exits non-zero costs one subprocess spawn, then
        every later frame degrades without retrying the toolchain."""
        if native_mod.cffi is None:
            pytest.skip("cffi unavailable: degrade happens before compile")
        monkeypatch.setenv("REPRO_NATIVE_CC", "/bin/false")
        reset_native_caches()
        if toolchain_path() != "/bin/false":
            pytest.skip("/bin/false not usable as a fake toolchain here")
        pipeline = _pipeline()
        before = native_stats()
        out_first = pipeline.realize(_frame(5), engine="native")
        mid = native_stats()
        assert mid["compile_failures"] == before["compile_failures"] + 1
        assert mid["degraded"] == before["degraded"] + 1
        # Fresh pipeline, same source digest: the _FAILED memo short-circuits
        # before the subprocess spawn.
        out_second = _pipeline().realize(_frame(5), engine="native")
        after = native_stats()
        assert after["compile_failures"] == mid["compile_failures"]
        assert after["degraded"] == mid["degraded"] + 1
        oracle = _pipeline().realize_interp(_frame(5))
        np.testing.assert_array_equal(out_first, oracle)
        np.testing.assert_array_equal(out_second, oracle)
        monkeypatch.delenv("REPRO_NATIVE_CC")
        reset_native_caches()

    def test_site_is_registered(self):
        from repro.reliability.faults import FAULT_SITES

        assert "native.compile" in FAULT_SITES
