"""The native C backend against the interpreter oracle.

Three layers of evidence:

* **registry sweep** — every registered (app, filter) scenario realizes
  bit-identically through the native engine and the interpreter (runs on
  compilerless hosts too: degradation must also be bit-identical);
* **scheduled nests** — deterministic and hypothesis-random pipelines ×
  schedules execute the emitted C (`skipif` no toolchain) and must match
  the oracle bit-for-bit, including uint16 wraparound across reduction
  strips and every vectorize width;
* **caching / fallback** — the ArtifactStore ``native/`` stage serves warm
  ``.so`` bytes with zero compiler invocations, and a missing toolchain
  degrades to the compiled backend.

A golden file pins the emitted C for the blur2 compute_at nest alongside
the existing Halide-C++ goldens in ``tests/golden/``.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import scenarios
from repro.halide import Func, FuncPipeline, RDom, Schedule, Var, configure_pool
from repro.halide.backends import get_backend
from repro.halide.backends import native as native_mod
from repro.halide.backends.cgen import generate_nest
from repro.halide.backends.native import (native_stats, reset_native_caches,
                                          toolchain_path)
from repro.ir import (
    BinOp, BufferAccess, Cast, Const, Op, UINT8, UINT16, UINT32,
    Var as IRVar,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

WIDTH, HEIGHT = 53, 37

HAVE_NATIVE = toolchain_path() is not None and native_mod.cffi is not None
needs_cc = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no C toolchain / cffi: native backend degrades")


def _vars():
    return Var("x_0"), Var("x_1")


def _stencil(name, inp, taps, shift=1):
    x, y = _vars()
    expr = None
    for dx, dy in taps:
        ix = x if dx == 0 else BinOp(Op.ADD, x, Const(dx))
        iy = y if dy == 0 else BinOp(Op.ADD, y, Const(dy))
        tap = Cast(UINT32, BufferAccess(inp, [ix, iy], UINT8))
        expr = tap if expr is None else BinOp(Op.ADD, expr, tap, UINT32)
    return Func(name, [x, y], dtype=UINT8).define(
        Cast(UINT8, BinOp(Op.SHR, expr, Const(shift, UINT32), UINT32)))


def _blur2_pipeline():
    """The same two-stage compute_at blur the Halide-C++ golden test uses."""
    bx = _stencil("bx", "input_1", [(0, 1), (1, 1), (2, 1)])
    by = _stencil("by", "bx_buf", [(1, 0), (1, 1), (1, 2)])
    pipeline = FuncPipeline()
    pipeline.add(bx, input_name="input_1", pad=1, name="bx")
    pipeline.add(by, input_name="bx_buf", pad=1, name="by")
    by.tile(64, 32).parallel()
    bx.compute_at(by, "x_1")
    return pipeline


def _frame(seed=3, shape=(HEIGHT, WIDTH)):
    return np.random.default_rng(seed).integers(
        0, 256, size=shape, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Registry sweep: every scenario, native vs interp (degraded or not)
# ---------------------------------------------------------------------------


class TestRegistryScenarios:
    """Acceptance: all registry scenarios bit-identical native vs interp."""

    @pytest.mark.parametrize(
        "app_name,filter_name",
        [(s.app_name, s.filter_name) for s in scenarios()],
        ids=[f"{s.app_name}-{s.filter_name}" for s in scenarios()])
    def test_scenario_native_matches_interp(self, app_name, filter_name):
        from repro.apps.images import make_test_planes
        from repro.rejuvenation import (
            apply_lifted_irfanview, apply_lifted_minigmg,
            apply_lifted_photoshop, lift_irfanview_filter,
            lift_minigmg_smooth, lift_photoshop_filter)

        if app_name == "photoshop":
            result = lift_photoshop_filter(filter_name)
            planes = make_test_planes(48, 32, seed=9)
            params = {"threshold": 128, "brightness": 40}
            native = apply_lifted_photoshop(result, filter_name, planes,
                                            params, engine="native")
            interp = apply_lifted_photoshop(result, filter_name, planes,
                                            params, engine="interp")
            for channel in interp:
                np.testing.assert_array_equal(native[channel],
                                              interp[channel])
        elif app_name == "irfanview":
            result = lift_irfanview_filter(filter_name)
            planes = make_test_planes(40, 28, seed=10)
            image = np.stack([planes["r"], planes["g"], planes["b"]],
                             axis=-1)
            np.testing.assert_array_equal(
                apply_lifted_irfanview(result, filter_name, image,
                                       engine="native"),
                apply_lifted_irfanview(result, filter_name, image,
                                       engine="interp"))
        elif app_name == "minigmg":
            result = lift_minigmg_smooth()
            grid = np.random.default_rng(3).random((6, 7, 8))
            np.testing.assert_array_equal(
                apply_lifted_minigmg(result, grid, iterations=2,
                                     engine="native"),
                apply_lifted_minigmg(result, grid, iterations=2,
                                     engine="interp"))
        else:  # pragma: no cover - new app family needs a case here
            pytest.fail(f"no native differential driver for {app_name!r}")

    @needs_cc
    def test_lifted_blur_pipeline_runs_real_c(self):
        """The scheduled lifted blur goes through the emitted C, not the
        degrade path — the registry sweep above must not be vacuous."""
        from dataclasses import replace
        from repro.rejuvenation import lift_photoshop_filter

        lifted = lift_photoshop_filter("blur")
        kernel = sorted(lifted.kernels, key=lambda k: k.output)[0]
        func = replace(lifted.funcs[kernel.output], schedule=Schedule())
        input_name = sorted(kernel.input_names)[0]
        pipeline = FuncPipeline()
        pipeline.add(func, input_name=input_name, pad=1, name="blur")
        func.compute_root()
        before = native_stats()
        native = pipeline.realize(_frame(7), engine="native")
        after = native_stats()
        assert after["native_frames"] == before["native_frames"] + 1
        np.testing.assert_array_equal(native,
                                      pipeline.realize_interp(_frame(7)))

    @needs_cc
    def test_default_scheduled_pipeline_runs_real_c(self):
        """A pipeline with no explicit compute level lowers like any other:
        on the native engine its nest — ghost ring and all — runs as C."""
        bx = _stencil("bx", "input_1", [(0, 1), (1, 1), (2, 1)])
        by = _stencil("by", "bx_buf", [(1, 0), (1, 1), (1, 2)])
        pipeline = FuncPipeline()
        pipeline.add(bx, input_name="input_1", pad=1, name="bx")
        pipeline.add(by, input_name="bx_buf", pad=1, name="by")
        image = _frame(17)
        before = native_stats()
        out = pipeline.realize(image, engine="native")
        after = native_stats()
        assert after["native_frames"] == before["native_frames"] + 1
        assert after["degraded"] == before["degraded"]
        np.testing.assert_array_equal(out, pipeline.realize_interp(image))


# ---------------------------------------------------------------------------
# Scheduled loop nests through the emitted C
# ---------------------------------------------------------------------------


@needs_cc
class TestScheduledNests:
    @pytest.fixture(autouse=True)
    def pool(self):
        configure_pool(4)
        yield
        configure_pool()

    def _two_stage(self, mode):
        bx = _stencil("bx", "input_1", [(0, 1), (1, 1), (2, 1)])
        by = _stencil("by", "bx_buf", [(1, 0), (1, 1), (1, 2)])
        pipeline = FuncPipeline()
        pipeline.add(bx, input_name="input_1", pad=1, name="bx")
        pipeline.add(by, input_name="bx_buf", pad=1, name="by")
        if mode == "at":
            by.tile(16, 8).parallel()
            bx.compute_at(by, "x_1")
        elif mode == "root":
            bx.compute_root()
            by.compute_root()
        else:
            by.tile(8, 8)
            bx.compute_root()
        return pipeline

    @pytest.mark.parametrize("mode", ["root", "at", "tiled"])
    def test_two_stage_blur_schedules(self, mode):
        image = _frame(11)
        oracle = self._two_stage("root").realize_interp(image)
        before = native_stats()["native_frames"]
        out = self._two_stage(mode).realize(image, engine="native")
        assert native_stats()["native_frames"] == before + 1
        np.testing.assert_array_equal(out, oracle)

    def test_uint16_wraparound_across_reduction_strips(self):
        """Partial accumulators + merge must wrap mod 2**16 exactly like
        the interpreter's np.add.at accumulation."""
        image = _frame(5, shape=(300, 80))

        def build():
            x, y = _vars()
            f = Func("hist", [x, y], dtype=UINT16).define(Const(7))
            r0, r1 = IRVar("r_0"), IRVar("r_1")
            rdom = RDom("r", source="input_1", dimensions=2)
            idx = [BinOp(Op.MOD, Cast(UINT16, BufferAccess(
                       "input_1", [r0, r1], UINT8)), Const(80)),
                   BinOp(Op.MOD, r1, Const(300))]
            f.update(rdom, idx, BinOp(
                Op.ADD, BufferAccess("hist", idx, UINT16), Const(257)))
            f.schedule.parallel = True
            f.schedule.tile_y = 32      # 300 rows -> 10 strips
            pipeline = FuncPipeline()
            pipeline.add(f, input_name="input_1", name="hist")
            f.compute_root()
            return pipeline

        oracle = build().realize_interp(image)
        assert oracle.dtype == np.uint16
        before = native_stats()["native_frames"]
        out = build().realize(image, engine="native")
        assert native_stats()["native_frames"] == before + 1
        np.testing.assert_array_equal(out, oracle)

    def test_scatter_reduction_matches_oracle(self):
        """Non-associative scatter assigns must keep row-major
        last-write-wins order."""
        image = _frame(6, shape=(64, 48))
        x, y = _vars()
        f = Func("scat", [x, y], dtype=UINT16).define(Const(1))
        r0, r1 = IRVar("r_0"), IRVar("r_1")
        rdom = RDom("r", source="input_1", dimensions=2)
        idx = [BinOp(Op.MOD, Cast(UINT16, BufferAccess(
                   "input_1", [r0, r1], UINT8)), Const(48)),
               BinOp(Op.MOD, r1, Const(64))]
        f.update(rdom, idx, Cast(UINT16, BinOp(Op.MUL, r0, Const(3))))
        pipeline = FuncPipeline()
        pipeline.add(f, input_name="input_1", name="scat")
        f.compute_root()
        oracle_p = FuncPipeline()
        f2 = Func("scat", [Var("x_0"), Var("x_1")], dtype=UINT16).define(Const(1))
        f2.update(rdom, idx, Cast(UINT16, BinOp(Op.MUL, r0, Const(3))))
        oracle_p.add(f2, input_name="input_1", name="scat")
        f2.compute_root()
        np.testing.assert_array_equal(
            pipeline.realize(image, engine="native"),
            oracle_p.realize_interp(image))

    STAGE_KINDS = ("pointwise", "coord", "stencil_x", "stencil_y")

    @classmethod
    def _make_stage(cls, kind, input_name):
        x, y = _vars()

        def acc(dx, dy):
            ix = x if dx == 0 else BinOp(Op.ADD, x, Const(dx))
            iy = y if dy == 0 else BinOp(Op.ADD, y, Const(dy))
            return Cast(UINT32, BufferAccess(input_name, [ix, iy], UINT8))

        if kind == "pointwise":
            expr, pad = BinOp(Op.XOR, Const(255, UINT32), acc(0, 0),
                              UINT32), 0
        elif kind == "coord":
            coords = BinOp(Op.ADD, Cast(UINT32, x), Cast(UINT32, y), UINT32)
            expr, pad = BinOp(Op.ADD, acc(0, 0), coords, UINT32), 0
        elif kind == "stencil_x":
            total = BinOp(Op.ADD, BinOp(Op.ADD, acc(0, 1), acc(1, 1),
                                        UINT32), acc(2, 1), UINT32)
            expr, pad = BinOp(Op.SHR, total, Const(1, UINT32), UINT32), 1
        else:
            total = BinOp(Op.ADD, BinOp(Op.ADD, acc(1, 0), acc(1, 1),
                                        UINT32), acc(1, 2), UINT32)
            expr, pad = BinOp(Op.SHR, total, Const(1, UINT32), UINT32), 1
        func = Func(f"st_{kind}", [x, y], dtype=UINT8).define(
            Cast(UINT8, expr))
        return func, pad

    @classmethod
    def _build(cls, kinds, levels=None, tile=None, vec=True,
               parallel=False):
        pipeline = FuncPipeline()
        funcs = []
        for index, kind in enumerate(kinds):
            input_name = "input_1" if index == 0 else f"buf_{index}"
            func, pad = cls._make_stage(kind, input_name)
            pipeline.add(func, input_name=input_name, pad=pad,
                         name=f"s{index}")
            funcs.append(func)
        last = funcs[-1]
        last.vectorize(vec)
        if tile is not None:
            last.tile(*tile)
            if parallel:
                last.parallel()
        if levels is not None:
            last.compute_root()
            for index, level in enumerate(levels):
                if level == "root":
                    funcs[index].compute_root()
                elif level == "at":
                    funcs[index].compute_at(f"s{index + 1}", "x_1")
        return pipeline

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_pipeline_schedules_match_oracle(self, data):
        kinds = data.draw(st.lists(st.sampled_from(self.STAGE_KINDS),
                                   min_size=2, max_size=3), label="stages")
        levels = data.draw(st.lists(
            st.sampled_from(("default", "root", "at")),
            min_size=len(kinds) - 1, max_size=len(kinds) - 1),
            label="levels")
        tile = data.draw(st.sampled_from(
            [None, (8, 8), (16, 4), (WIDTH, 8)]), label="tile")
        vec = data.draw(st.sampled_from([False, True, 4, 16]), label="vec")
        parallel = data.draw(st.booleans(), label="parallel")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        image = np.random.default_rng(seed).integers(
            0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)

        oracle = self._build(kinds).realize_interp(image)
        scheduled = self._build(kinds, levels=levels, tile=tile, vec=vec,
                                parallel=parallel and tile is not None)
        np.testing.assert_array_equal(
            scheduled.realize(image, engine="native"), oracle)

    def test_vectorize_widths_bit_identical_and_distinct(self):
        image = _frame(13)
        outputs = []
        sources = {}
        for vec in (False, True, 4, 16):
            pipeline = self._build(("stencil_x",), levels=(), vec=vec)
            outputs.append(pipeline.realize(image, engine="native"))
            lowered = pipeline.lower(image.shape)
            from repro.ir import UINT8 as U8
            sources[vec] = generate_nest(lowered, U8, {}).source
        oracle = self._build(("stencil_x",)).realize_interp(image)
        for out in outputs:
            np.testing.assert_array_equal(out, oracle)
        # distinct widths emit distinct inner loops; True == default width 8
        assert sources[4] != sources[16]
        assert sources[False] != sources[4]
        assert "#pragma GCC ivdep" in sources[4]
        assert "#pragma GCC ivdep" not in sources[False]


# ---------------------------------------------------------------------------
# Caching and fallback
# ---------------------------------------------------------------------------


@needs_cc
class TestCaching:
    def test_so_store_warm_start_zero_compiler_invocations(
            self, tmp_path, monkeypatch):
        from repro.store import STORE_DIR_ENV

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        reset_native_caches()
        image = _frame(17)
        cold = native_stats()
        out_cold = _blur2_pipeline().realize(image, engine="native")
        warm = native_stats()
        assert warm["compiles"] > cold["compiles"]
        # a fresh lowering of an identical pipeline: same source digest,
        # served from the store with zero compiler invocations
        reset_native_caches()
        out_warm = _blur2_pipeline().realize(image, engine="native")
        final = native_stats()
        assert final["compiles"] == warm["compiles"]
        assert final["store_hits"] > warm["store_hits"]
        np.testing.assert_array_equal(out_cold, out_warm)

    def test_warm_frames_skip_the_nest_walk_until_reset(
            self, tmp_path, monkeypatch):
        from repro.store import STORE_DIR_ENV

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        reset_native_caches()
        pipeline = _blur2_pipeline()
        image = _frame(31)
        oracle = pipeline.realize_interp(image)
        lowered = pipeline.lower(image.shape)
        pipeline.realize(image, engine="native")

        def walk():
            raise AssertionError("a warm frame walked the nest")

        with monkeypatch.context() as patch:
            patch.setattr(lowered.stmt, "walk", walk)
            before = native_stats()
            out = pipeline.realize(image, engine="native")
            after = native_stats()
        np.testing.assert_array_equal(out, oracle)
        assert after["native_frames"] == before["native_frames"] + 1
        assert after["degraded"] == before["degraded"]
        # After a reset the same lowering's next frame is served from the
        # store again, with no compiler invocation.
        reset_native_caches()
        np.testing.assert_array_equal(
            pipeline.realize(image, engine="native"), oracle)
        final = native_stats()
        assert pipeline.lower(image.shape) is lowered
        assert final["store_hits"] == after["store_hits"] + 1
        assert final["compiles"] == after["compiles"]

    def test_in_process_so_cache_dedupes_identical_nests(self):
        image = _frame(19)
        first = _blur2_pipeline()
        second = _blur2_pipeline()
        before = native_stats()
        first.realize(image, engine="native")
        mid = native_stats()
        second.realize(image, engine="native")
        after = native_stats()
        # the second pipeline is a distinct lowering object but the same C
        # source, so it must not invoke the compiler again
        assert after["compiles"] == mid["compiles"]
        assert mid["native_frames"] == before["native_frames"] + 1
        assert after["native_frames"] == mid["native_frames"] + 1


class TestFallback:
    def test_missing_toolchain_degrades_bit_identically(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/compiler")
        reset_native_caches()
        assert toolchain_path() is None
        image = _frame(23)
        before = native_stats()
        out = _blur2_pipeline().realize(image, engine="native")
        after = native_stats()
        assert after["degraded"] == before["degraded"] + 1
        assert after["no_toolchain"] == before["no_toolchain"] + 1
        oracle = _blur2_pipeline().realize_interp(image)
        np.testing.assert_array_equal(out, oracle)
        monkeypatch.delenv("REPRO_NATIVE_CC")
        reset_native_caches()

    def test_toolchain_resolved_once_per_env_pair(self, monkeypatch):
        # A frame must not pay a PATH search: the compiler resolves once per
        # (REPRO_NATIVE_CC, CC) pair, and changing either re-resolves.
        calls = []
        which = native_mod.shutil.which
        monkeypatch.setattr(native_mod.shutil, "which",
                            lambda name: calls.append(name) or which(name))
        reset_native_caches()
        pipeline = _blur2_pipeline()
        image = _frame(29)
        pipeline.realize(image, engine="native")
        first_frame = len(calls)
        pipeline.realize(image, engine="native")
        assert 1 <= first_frame <= 3
        assert len(calls) == first_frame
        monkeypatch.setenv("CC", "/nonexistent/other-cc")
        toolchain_path()
        assert len(calls) == first_frame + 1
        monkeypatch.undo()
        reset_native_caches()

    def test_registered_and_selectable(self):
        from repro.halide import backend_names
        from repro.halide.realize import ENGINES

        assert "native" in backend_names()
        assert "native" in ENGINES
        assert get_backend("native").name == "native"


# ---------------------------------------------------------------------------
# Honest reporting + golden emitted C
# ---------------------------------------------------------------------------


class TestVectorizeReporting:
    def test_describe_reports_per_backend_truth(self):
        schedule = Schedule(tile_x=8, tile_y=8, vectorize=True)
        assert "vectorize" in schedule.describe()
        assert "vectorize(8)" in schedule.describe(backend="native")
        assert "vectorize(ignored:compiled)" in \
            schedule.describe(backend="compiled")
        assert "vectorize(ignored:interp)" in \
            schedule.describe(backend="interp")
        wide = Schedule(vectorize=16)
        assert "vectorize(16)" in wide.describe(backend="native")
        assert "vectorize(16)" in wide.describe()
        off = Schedule(vectorize=False)
        assert "vectorize" not in off.describe(backend="native")

    def test_execution_mode_reports_vectorize(self):
        x, y = _vars()
        func = Func("f", [x, y], dtype=UINT8).define(
            Cast(UINT8, BufferAccess("input_1", [x, y], UINT8)))
        func.vectorize(4)
        assert func.execution_mode() == "serial"
        assert func.execution_mode("native") == "serial+vectorize(4)"
        assert func.execution_mode("compiled") == \
            "serial+vectorize(ignored)"

    def test_schedule_key_distinguishes_widths(self):
        from repro.halide.autotune import _schedule_key

        keys = {_schedule_key(Schedule(vectorize=v))
                for v in (False, 4, 8, 16)}
        assert len(keys) == 4
        # True lowers to the default width: same program, same key
        assert _schedule_key(Schedule(vectorize=True)) == \
            _schedule_key(Schedule(vectorize=8))


class TestGoldenNest:
    def test_blur2_compute_at_matches_golden_c(self):
        lowered = _blur2_pipeline().lower((96, 128))
        produced = generate_nest(lowered, UINT8, {}).source
        golden = (GOLDEN_DIR / "native_blur2_compute_at.c").read_text()
        assert produced == golden, (
            "cgen drifted for the blur2 compute_at nest; if intentional, "
            "refresh tests/golden/native_blur2_compute_at.c (run "
            "generate_nest on _blur2_pipeline().lower((96, 128)) and write "
            "program.source) and review the diff")

    def test_golden_nest_looks_like_segmented_c(self):
        golden = (GOLDEN_DIR / "native_blur2_compute_at.c").read_text()
        assert golden.startswith("#include <stdint.h>")
        assert "rp_seg0" in golden
        assert "restrict" in golden
        assert "return 0;" in golden
