"""The native C backend against the interpreter oracle.

Layers of evidence:

* **registry sweep** — every registered (app, filter) scenario realizes
  through ``apply_lifted_*`` on the native engine bit-identically to
  ``realize_interp``, as one C program per frame (runs on compilerless hosts
  too: degradation must also be bit-identical);
* **single-Func nests** — ``realize()`` compiles a Func's own loop nest:
  parallel reduction strips, non-contiguous inputs, buffers the nest never
  touches, the default engine's first frame on the compiled kernels and its
  no-toolchain degrade, warm frames that generate no C, and a bound on the
  libraries loaded across shapes;
* **scheduled nests** — deterministic and hypothesis-random pipelines ×
  schedules execute the emitted C (`skipif` no toolchain) and must match
  the oracle bit-for-bit, including uint16 wraparound across reduction
  strips and every vectorize width;
* **dense loops** — hypothesis-random interleaved stencils take each
  version of a ``Store`` (fused, unfused, wrapped) against the oracle,
  loops that can return early stay native, and gcc's own report says the
  lifted IrfanView Store loops vectorize;
* **reduce loops** — hypothesis-random reductions take each version of a
  ``ReduceLoop`` (dense, wrapped) and raise exactly where ``np.add.at``
  does; gcc vectorizes the lifted column sum's dense reduce loop, while a
  histogram's and a row sum's carry no ``omp simd``;
* **caching / fallback** — the ArtifactStore ``native/`` stage serves warm
  ``.so`` bytes with zero compiler invocations but never across compiler
  flags or host targets, and a missing toolchain degrades to the compiled
  backend.

A golden file pins the emitted C for the blur2 compute_at nest alongside
the existing Halide-C++ goldens in ``tests/golden/``.
"""

import gc
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import scenarios
from repro.halide import (Func, FuncPipeline, RDom, Schedule, Var,
                          configure_pool, realize, realize_interp)
from repro.halide import parallel as parallel_mod
from repro.halide.backends import get_backend
from repro.halide.backends import native as native_mod
from repro.halide.backends.cgen import generate_nest
from repro.halide.backends.native import (native_stats, reset_native_caches,
                                          toolchain_path)
from repro.ir import (
    BinOp, BufferAccess, Call, Cast, Const, FLOAT64, INT32, Op, Param, UINT8,
    UINT16, UINT32, Var as IRVar,
)

#: The ``repro.halide.realize`` module (the package attribute of that name
#: is the function).
realize_mod = importlib.import_module("repro.halide.realize")

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


def _pipeline_source(lowered):
    """The C a uint8-frame pipeline's nest compiles to."""
    rank = len(lowered.frame_shape)
    return generate_nest(lowered.stmt, {
        lowered.input_name: (UINT8, rank),
        lowered.output: (lowered.out_dtype, rank)}).source


def _frame(seed=3, shape=(HEIGHT, WIDTH)):
    return np.random.default_rng(seed).integers(
        0, 256, size=shape, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Registry sweep: every scenario, native vs interp (degraded or not)
# ---------------------------------------------------------------------------


def _apply_scenario(app_name, filter_name, engine):
    """One registry scenario through its ``apply_lifted_*`` helper, as a
    list of output arrays."""
    from repro.apps.images import make_test_planes
    from repro.rejuvenation import (
        apply_lifted_irfanview, apply_lifted_minigmg, apply_lifted_photoshop,
        lift_irfanview_filter, lift_minigmg_smooth, lift_photoshop_filter)

    if app_name == "photoshop":
        result = lift_photoshop_filter(filter_name)
        planes = make_test_planes(48, 32, seed=9)
        params = {"threshold": 128, "brightness": 40}
        outputs = apply_lifted_photoshop(result, filter_name, planes, params,
                                         engine=engine)
        return [outputs[channel] for channel in sorted(outputs)]
    if app_name == "irfanview":
        result = lift_irfanview_filter(filter_name)
        planes = make_test_planes(40, 28, seed=10)
        image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        return [apply_lifted_irfanview(result, filter_name, image,
                                       engine=engine)]
    if app_name == "minigmg":
        result = lift_minigmg_smooth()
        grid = np.random.default_rng(3).random((6, 7, 8))
        return [apply_lifted_minigmg(result, grid, iterations=2,
                                     engine=engine)]
    pytest.fail(f"no native differential case for {app_name!r}")


class TestRegistryScenarios:
    """Acceptance: all registry scenarios bit-identical native vs interp."""

    @pytest.mark.parametrize(
        "app_name,filter_name",
        [(s.app_name, s.filter_name) for s in scenarios()],
        ids=[f"{s.app_name}-{s.filter_name}" for s in scenarios()])
    def test_scenario_native_matches_interp(self, app_name, filter_name,
                                            monkeypatch):
        from repro.rejuvenation import lifted as lifted_mod

        before = native_stats()
        native = _apply_scenario(app_name, filter_name, "native")
        after = native_stats()
        if HAVE_NATIVE:
            # Every realize() is one C program, not the degrade path.
            assert after["native_frames"] > before["native_frames"]
            assert after["degraded"] == before["degraded"]
        # The oracle: the same helper with realize() swapped for the
        # schedule-free realize_interp.
        monkeypatch.setattr(
            lifted_mod, "realize",
            lambda func, shape, buffers, params=None, engine=None:
            realize_interp(func, shape, buffers, params))
        oracle = _apply_scenario(app_name, filter_name, None)
        assert len(native) == len(oracle)
        for out, expected in zip(native, oracle):
            np.testing.assert_array_equal(out, expected)

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
            sources[vec] = _pipeline_source(pipeline.lower(image.shape))
        oracle = self._build(("stencil_x",)).realize_interp(image)
        for out in outputs:
            np.testing.assert_array_equal(out, oracle)
        # an explicit width is a lane count; True leaves the lane count to
        # the compiler (the target's natural width); False emits no pragma
        assert "#pragma omp simd simdlen(4)\n" in sources[4]
        assert "#pragma omp simd simdlen(16)\n" in sources[16]
        assert "#pragma omp simd\n" in sources[True]
        assert "simdlen" not in sources[True]
        assert "#pragma omp simd" not in sources[False]


# ---------------------------------------------------------------------------
# Dense Store loops: both versions against the oracle
# ---------------------------------------------------------------------------

#: Float weights that stress ``cast<uint8>(round(...))``: NaN, infinities,
#: values outside int64, and .5 ties (``rint`` rounds them to even).
SPECIAL_WEIGHTS = (float("nan"), float("inf"), float("-inf"), 1e19, -1e19,
                   0.5, 1.5, 2.5, -0.5, -1.5)


def _interleaved_stencil(taps):
    """``cast<uint8>(round(sum_k w_k * in(c + dc, x + dx, y + dy)))`` over
    an interleaved ``(y, x, c)`` frame, one float Param per tap — the shape
    of the lifted IrfanView float stencils."""
    c, x, y = Var("x_0"), Var("x_1"), Var("x_2")
    expr = None
    for k, offsets in enumerate(taps):
        index = [v if d == 0 else BinOp(Op.ADD, v, Const(d))
                 for v, d in zip((c, x, y), offsets)]
        load = Cast(UINT32, BufferAccess("input_1", index, UINT8))
        tap = BinOp(Op.MUL, Param(f"param_w{k}", 1.0, FLOAT64),
                    Cast(FLOAT64, load), FLOAT64)
        expr = tap if expr is None else BinOp(Op.ADD, expr, tap, FLOAT64)
    return Func("iv", [c, x, y], dtype=UINT8).define(
        Cast(UINT8, Call("round", [expr], INT32)))


def _simd_loops(source):
    """``(first, last)`` source lines of each ``omp simd`` loop."""
    lines = source.splitlines()
    spans = []
    for number, line in enumerate(lines):
        if line.strip().startswith("#pragma omp simd"):
            indent = line[:len(line) - len(line.lstrip())]
            end = next(n for n in range(number + 1, len(lines))
                       if lines[n] == indent + "}")
            spans.append((number + 2, end + 1))
    return spans


@needs_cc
class TestDenseLoops:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_interleaved_stencils_match_oracle(self, data):
        """Fused, unfused and wrapped versions of one Store: drawn channel
        counts, offsets (negative ones take the wrapped version), caller
        frames wider than the store (no fusion), tiles that cut the channel
        axis, and weights through every rounding edge."""
        from repro.halide.realize import RealizationError

        channels = data.draw(st.integers(1, 4), label="channels")
        width = data.draw(st.integers(1, 12), label="width")
        height = data.draw(st.integers(1, 6), label="height")
        # non-negative offsets take the dense version, negative ones (NumPy
        # wraps them) the wrapped one
        low = -2 if data.draw(st.booleans(), label="negative offsets") else 0
        taps = data.draw(st.lists(st.tuples(
            st.integers(max(low, -1), 1), st.integers(low, 2),
            st.integers(low, 2)), min_size=1, max_size=4),
            label="taps (dc, dx, dy)")
        # the frame beyond what the taps read, per (c, x, y): a wider
        # channel axis never fuses, -1 reads out of bounds
        margin = data.draw(st.tuples(st.integers(-1, 1), st.integers(-1, 2),
                                     st.integers(-1, 2)), label="margin")
        weights = data.draw(st.lists(
            st.sampled_from(SPECIAL_WEIGHTS)
            | st.floats(-300, 300, allow_nan=False),
            min_size=len(taps), max_size=len(taps)), label="weights")
        tile = data.draw(st.sampled_from([None, (2, 4), (8, 3)]),
                         label="tile")
        extents = [max(1, extent + max(0, *[tap[a] for tap in taps])
                       + margin[a])
                   for a, extent in enumerate((channels, width, height))]
        frame = np.random.default_rng(len(taps)).integers(
            0, 256, size=extents[::-1], dtype=np.uint8)
        func = _interleaved_stencil(taps)
        if tile is not None:
            func.tile(*tile)
        shape = (channels, width, height)
        buffers = {"input_1": frame}
        params = {f"param_w{k}": w for k, w in enumerate(weights)}
        with np.errstate(all="ignore"):
            try:
                oracle = realize_interp(func, shape, buffers, params)
            except IndexError:
                oracle = None
        before = native_stats()
        if oracle is None:
            with pytest.raises(RealizationError, match="out of bounds"):
                realize(func, shape, buffers, params, engine="native")
        else:
            np.testing.assert_array_equal(
                realize(func, shape, buffers, params, engine="native"),
                oracle)
        assert native_stats()["degraded"] == before["degraded"]

    def test_in_place_vectorize_change_reaches_the_c(self):
        """``realize`` keys a Func's nest on its vectorize width, so an
        in-place ``vectorize`` change emits a new program."""
        func = _stencil("blur", "input_1", [(0, 1), (1, 1), (2, 1)])
        frame = _frame(63, shape=(HEIGHT + 2, WIDTH + 2))
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
        sources = []
        program = native_mod.generate_nest

        def capture(stmt, table, kinds=None):
            out = program(stmt, table, kinds)
            sources.append(out.source)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native_mod, "generate_nest", capture)
            for width in (True, 4, False):
                func.vectorize(width)
                np.testing.assert_array_equal(realize(
                    func, (WIDTH, HEIGHT), {"input_1": frame},
                    engine="native"), oracle)
        assert len(sources) == 3
        assert "#pragma omp simd\n" in sources[0]
        assert "#pragma omp simd simdlen(4)\n" in sources[1]
        assert "#pragma omp simd" not in sources[2]

    def test_early_exit_bodies_stay_native(self):
        """A table lookup's per-load check and an integer division's zero
        check return from inside the loop: those loops carry no ``omp
        simd`` (gcc rejects it there, which would degrade every frame)."""
        from repro.rejuvenation import (
            apply_lifted_photoshop, lift_photoshop_filter, photoshop_reference)
        from repro.apps.images import make_test_planes

        planes = make_test_planes(40, 28, seed=12)
        lifted = lift_photoshop_filter("brightness")
        x, y = _vars()
        divide = Func("q", [x, y], dtype=UINT8).define(Cast(UINT8, BinOp(
            Op.DIV, Cast(INT32, BufferAccess("input_1", [x, y], UINT8)),
            BinOp(Op.ADD, Cast(INT32, BufferAccess(
                "input_1", [BinOp(Op.ADD, x, Const(1)), y], UINT8)),
                Const(1), INT32), INT32)))
        frame = _frame(59, shape=(HEIGHT, WIDTH + 1))
        before = native_stats()
        for _ in range(2):
            out = apply_lifted_photoshop(lifted, "brightness", planes,
                                         engine="native")
            for channel, expected in photoshop_reference(
                    "brightness", planes).items():
                np.testing.assert_array_equal(out[channel], expected)
            np.testing.assert_array_equal(
                realize(divide, (WIDTH, HEIGHT), {"input_1": frame},
                        engine="native"),
                realize_interp(divide, (WIDTH, HEIGHT), {"input_1": frame}))
        after = native_stats()
        assert after["degraded"] == before["degraded"]
        assert after["native_frames"] == before["native_frames"] + 8


# ---------------------------------------------------------------------------
# Reduce loops: both versions of a ReduceLoop against the oracle
# ---------------------------------------------------------------------------


def _scatter_index(kind, load, offset=0, shift=0, modulus=None):
    """One scatter index over the RDom ``(r_0, r_1)``: ``inner`` is
    ``r_0 + offset`` (injective in the innermost RVar), ``outer`` is
    ``r_1 + offset`` (invariant in it: a row sum), ``data`` is
    ``load >> shift`` and ``equalize`` the lifted histogram's
    ``(4 * load) / 4`` (both checked per element); ``modulus`` takes
    ``% modulus`` of any of them."""
    if kind in ("inner", "outer"):
        index = IRVar("r_0" if kind == "inner" else "r_1")
        if offset:
            index = BinOp(Op.ADD, index, Const(offset))
    elif kind == "data":
        index = BinOp(Op.SHR, Cast(UINT32, load), Const(shift, UINT32),
                      UINT32)
    else:
        index = BinOp(Op.DIV, BinOp(Op.MUL, Const(4, UINT32),
                                    Cast(UINT32, load), UINT32),
                      Const(4, UINT32), UINT32)
    return index if modulus is None else BinOp(Op.MOD, index, Const(modulus))


@needs_cc
class TestReduceLoops:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_reductions_match_oracle(self, data):
        """Scatter indices injective in ``r_0``, invariant in it, or read
        from uint8/uint16 data, through ``% const`` and negative offsets,
        into targets above and below the index's reach; uint8, uint16,
        uint32 and float64 accumulators; whole-domain sweeps and parallel
        strips.  Native raises exactly where ``np.add.at`` raises, matches
        the oracle otherwise, and never degrades."""
        from repro.halide.realize import RealizationError

        source_dtype = data.draw(st.sampled_from([UINT8, UINT16]),
                                 label="source dtype")
        bits = source_dtype.bits
        height = data.draw(st.integers(1, 9), label="height")
        width = data.draw(st.integers(1, 11), label="width")
        largest = data.draw(st.sampled_from([3, 40, (1 << bits) - 1]),
                            label="largest value")
        frame = np.random.default_rng(largest + width).integers(
            0, largest + 1, size=(height, width),
            dtype=source_dtype.to_numpy())
        load = BufferAccess("input_1", [IRVar("r_0"), IRVar("r_1")],
                            source_dtype)
        rank = data.draw(st.integers(1, 2), label="target rank")
        indices, shape = [], []
        for position in range(rank):
            kind = data.draw(st.sampled_from(
                ("inner", "outer", "data")
                + (("equalize",) if bits == 8 else ())),
                label=f"index {position}")
            offset = shift = 0
            if kind in ("inner", "outer"):
                offset = data.draw(st.integers(-3, 2), label="offset")
                reach = (width if kind == "inner" else height) - 1 + offset
            elif kind == "data":
                shift = data.draw(st.integers(bits - 8, bits - 1),
                                  label="shift")
                reach = ((1 << bits) - 1) >> shift
            else:
                reach = 255
            modulus = data.draw(st.sampled_from([None, None, 1, 3, 7]),
                                label="modulus")
            if modulus is not None:
                reach = min(reach, modulus - 1)
            indices.append(_scatter_index(kind, load, offset, shift, modulus))
            # below the reach the scatter may leave the target
            shape.append(max(1, reach + 1 + data.draw(
                st.integers(-2, 2), label="extent - reach")))
        dtype = data.draw(st.sampled_from([UINT8, UINT16, UINT32, FLOAT64]),
                          label="accumulator")
        update = data.draw(st.sampled_from(("count", "sum", "assign")),
                           label="update")
        if update == "assign":
            # scatter-assign: the last write wins, in source order
            value = BinOp(Op.ADD, Cast(UINT32, load),
                          BinOp(Op.MUL, IRVar("r_0"), Const(3)), UINT32)
            expr = Cast(dtype, value)
        else:
            increment = Const(1) if update == "count" else (
                BinOp(Op.MUL, Cast(FLOAT64, load), Const(0.1), FLOAT64)
                if dtype.is_float else Cast(dtype, load))
            expr = BinOp(Op.ADD, BufferAccess("acc", indices, dtype),
                         increment, dtype)
        variables = [Var(f"x_{axis}") for axis in range(rank)]
        func = Func("acc", variables, dtype=dtype).define(Const(2))
        func.update(RDom("r", source="input_1", dimensions=2), indices, expr)
        strip = data.draw(st.sampled_from([None, 1, 2, 4]),
                          label="strip rows")
        func.schedule = Schedule(
            tile_x=8, tile_y=strip or 0, parallel=strip is not None,
            vectorize=data.draw(st.sampled_from([True, False, 4]),
                                label="vectorize"))
        buffers = {"input_1": frame}
        try:
            oracle = realize_interp(func, tuple(shape), buffers)
        except IndexError:
            oracle = None
        before = native_stats()
        if oracle is None:
            with pytest.raises(RealizationError, match="out of bounds"):
                realize(func, tuple(shape), buffers, engine="native")
        else:
            np.testing.assert_array_equal(
                realize(func, tuple(shape), buffers, engine="native"), oracle)
            assert native_stats()["native_frames"] == \
                before["native_frames"] + 1
        assert native_stats()["degraded"] == before["degraded"]

    @pytest.mark.parametrize("dtype, value", [
        (np.uint16, 256), (np.uint16, 65535), (np.int8, -1)])
    def test_bins_from_a_wider_plane_than_declared_raise(self, dtype, value):
        """The lifted histogram's bin ``(4 * cast<uint32>(u8)) / 4`` reads
        whatever plane is bound, not only the uint8 one it declares: on a
        wider or signed plane a bin past the 256-bin target raises where
        ``np.add.at`` does, instead of writing past the target."""
        from repro.halide.realize import RealizationError

        load = BufferAccess("input_1", [IRVar("r_0"), IRVar("r_1")], UINT8)
        index = [_scatter_index("equalize", load)]
        func = Func("acc", [Var("x_0")], dtype=UINT32).define(Const(0, UINT32))
        func.update(RDom("r", source="input_1", dimensions=2), index, BinOp(
            Op.ADD, BufferAccess("acc", index, UINT32), Const(1), UINT32))
        frame = np.arange(15, dtype=dtype).reshape(3, 5)
        frame[1, 2] = value
        buffers = {"input_1": frame}
        with pytest.raises(IndexError):
            realize_interp(func, (256,), buffers)
        before = native_stats()
        with pytest.raises(RealizationError, match="out of bounds"):
            realize(func, (256,), buffers, engine="native")
        assert native_stats()["degraded"] == before["degraded"]
        frame[1, 2] = 7
        np.testing.assert_array_equal(
            realize(func, (256,), buffers, engine="native"),
            realize_interp(func, (256,), buffers))


@needs_cc
class TestVectorizes:
    """gcc's own report, at the production flags, on lifted nests."""

    @pytest.fixture(autouse=True)
    def gcc(self):
        import subprocess

        cc = toolchain_path()
        banner = subprocess.run([cc, "--version"], capture_output=True,
                                text=True).stdout
        if "Free Software Foundation" not in banner:
            pytest.skip("the vectorizer report flags are gcc's")
        self.cc = cc

    def _source(self, func, request):
        """The C ``realize`` builds for ``func`` on one request."""
        sources = []
        program = native_mod.generate_nest

        def capture(stmt, table, kinds=None):
            out = program(stmt, table, kinds)
            sources.append(out.source)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native_mod, "generate_nest", capture)
            reset_native_caches()
            realize(func, request["shape"], request["buffers"],
                    engine="native")
        source, = sources
        return source

    def _vectorized(self, tmp_path, source):
        """The source lines gcc reports as vectorized loops at the
        production flags."""
        import re
        import subprocess

        path = tmp_path / "nest.c"
        path.write_text(source)
        build = subprocess.run(
            [self.cc, *native_mod.CFLAGS, "-fopt-info-vec-optimized",
             "-o", str(tmp_path / "out.so"), str(path), "-lm"],
            capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        return {int(m.group(1)) for m in re.finditer(
            rf"{re.escape(path.name)}:(\d+):\d+: optimized: loop vectorized",
            build.stderr)}

    def _report(self, tmp_path, filter_name):
        """The lifted IrfanView filter's C at 480x320 and the source lines
        gcc reports as vectorized loops."""
        from repro.rejuvenation import lift_irfanview_filter
        from repro.rejuvenation.lifted import irfanview_kernel_request

        result = lift_irfanview_filter(filter_name)
        func = result.funcs[result.kernels[0].output]
        image = _frame(61, shape=(320, 480, 3))
        source = self._source(func, irfanview_kernel_request(
            result, filter_name, image))
        return source, self._vectorized(tmp_path, source)

    @staticmethod
    def _photoshop_func(filter_name):
        """A lifted Photoshop kernel and its request on a 480x320 plane."""
        from repro.rejuvenation import lift_photoshop_filter
        from repro.rejuvenation.lifted import photoshop_kernel_request

        result = lift_photoshop_filter(filter_name)
        kernel = sorted(result.kernels, key=lambda k: k.output)[0]
        planes = {channel: _frame(62, shape=(320, 480)) for channel in "rgb"}
        return result.funcs[kernel.output], photoshop_kernel_request(
            result, filter_name, kernel, "r", planes)

    def _assert_dense_loop_vectorized(self, tmp_path, filter_name):
        source, vectorized = self._report(tmp_path, filter_name)
        first, last = _simd_loops(source)[0]    # the dense version's loop
        assert any(first <= line <= last for line in vectorized), (
            f"{filter_name}: no vectorized loop in lines {first}-{last}; "
            f"gcc reported {sorted(vectorized)}")

    def test_invert_store_loop_vectorizes(self, tmp_path):
        self._assert_dense_loop_vectorized(tmp_path, "invert")

    def test_blur_store_loop_vectorizes_with_avx512dq(self, tmp_path):
        # its double -> int64 cast has a vector form only in AVX-512DQ
        if "-mavx512dq" not in native_mod.host_target(self.cc).split():
            pytest.skip("the host target lacks avx512dq")
        self._assert_dense_loop_vectorized(tmp_path, "blur")

    def test_column_sum_reduce_loop_vectorizes(self, tmp_path):
        """The lifted column sum scatters to ``r_0``: its dense reduce loop
        carries ``omp simd`` and gcc vectorizes it."""
        source = self._source(*self._photoshop_func("column_sum"))
        vectorized = self._vectorized(tmp_path, source)
        reduce_line = source[:source.index("/* reduce")].count("\n") + 1
        first, last = next(span for span in _simd_loops(source)
                           if span[0] > reduce_line)
        assert any(first <= line <= last for line in vectorized), (
            f"no vectorized loop in lines {first}-{last}; gcc reported "
            f"{sorted(vectorized)}")

    def test_histogram_and_row_sum_reduce_loops_stay_scalar(self):
        """A histogram's bins and a row sum's slot repeat across the inner
        loop's iterations: their reduce loops carry no ``omp simd``."""
        x = Var("x_0")
        row_sum = Func("rows", [x], dtype=UINT32).define(Const(0, UINT32))
        row = [IRVar("r_1")]
        row_sum.update(RDom("r", source="input_1", dimensions=2), row, BinOp(
            Op.ADD, BufferAccess("rows", row, UINT32), Cast(UINT32, BufferAccess(
                "input_1", [IRVar("r_0"), IRVar("r_1")], UINT8)), UINT32))
        frame = _frame(64, shape=(32, 48))
        for func, request in (
                self._photoshop_func("equalize"),
                (row_sum, {"shape": (32,), "buffers": {"input_1": frame}})):
            source = self._source(func, request)
            assert "#pragma omp simd" not in source[source.index("/* reduce"):]


# ---------------------------------------------------------------------------
# Single-Func nests: realize() through the emitted C
# ---------------------------------------------------------------------------


def _histogram(strip_rows=8):
    """A 256-bin histogram whose reduction sweeps in parallel strips."""
    x = Var("x_0")
    hist = Func("hist", [x], dtype=UINT32).define(Const(0, UINT32))
    rdom = RDom("r_0", source="input_1", dimensions=2)
    index = BufferAccess("input_1", [IRVar("r_0"), IRVar("r_1")], UINT8)
    hist.update(rdom, [index], BinOp(
        Op.ADD, BufferAccess("hist", [index], UINT32), Const(1, UINT32)))
    hist.schedule = Schedule(tile_x=8, tile_y=strip_rows, parallel=True)
    return hist


class TestSingleFuncNests:
    @needs_cc
    def test_parallel_histogram_strips_run_as_c(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "MIN_PARALLEL_ELEMS", 1)
        configure_pool(3)
        try:
            image = _frame(41, shape=(64, 40))
            oracle = realize_interp(_histogram(), (256,),
                                    {"input_1": image})
            before = native_stats()
            out = realize(_histogram(), (256,), {"input_1": image},
                          engine="native")
            after = native_stats()
        finally:
            configure_pool()
        np.testing.assert_array_equal(out, oracle)
        assert after["native_frames"] == before["native_frames"] + 1
        assert after["degraded"] == before["degraded"]
        # 8 strips fanned out (one C call each) plus the merge segment.
        assert after["segment_calls"] - before["segment_calls"] > 2

    @pytest.mark.parametrize("view", ["strided", "transposed", "fortran"])
    def test_non_contiguous_input_matches_interp(self, view):
        func = _stencil("blur", "input_1", [(0, 1), (1, 1), (2, 1), (1, 2)])
        base = _frame(43, shape=(2 * (HEIGHT + 2), 2 * (WIDTH + 2)))
        frame = {"strided": base[::2, 1::2],
                 "transposed": base[:WIDTH + 2, :HEIGHT + 2].T,
                 "fortran": np.asfortranarray(base[:HEIGHT + 2, :WIDTH + 2])
                 }[view]
        assert not frame.flags.c_contiguous
        snapshot = frame.copy()
        before = native_stats()
        out = realize(func, (WIDTH, HEIGHT), {"input_1": frame},
                      engine="native")
        after = native_stats()
        np.testing.assert_array_equal(
            out, realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame}))
        np.testing.assert_array_equal(frame, snapshot)
        if HAVE_NATIVE:
            assert after["native_frames"] == before["native_frames"] + 1

    def test_unused_buffers_are_not_keyed_or_copied(self, monkeypatch):
        """A buffer the nest never touches — a bool mask C has no type for,
        a strided array — neither degrades the frame nor enters the
        program key."""
        func = _stencil("blur", "input_1", [(0, 1), (1, 1), (2, 1)])
        frame = _frame(46, shape=(HEIGHT + 2, WIDTH + 2))
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
        extras = [{"mask": np.zeros((4, 4), dtype=bool)},
                  {"mask": np.ones((3,), dtype=np.float32),
                   "strided": _frame(47, shape=(8, 8))[::2, ::3]}]
        before = native_stats()
        out = realize(func, (WIDTH, HEIGHT), {"input_1": frame, **extras[0]},
                      engine="native")
        np.testing.assert_array_equal(out, oracle)
        if HAVE_NATIVE:
            assert native_stats()["native_frames"] == \
                before["native_frames"] + 1

        def generate(*_args, **_kwargs):
            raise AssertionError("an unused buffer changed the program key")

        monkeypatch.setattr(native_mod, "generate_nest", generate)
        strided = extras[1]["strided"]
        out = realize(func, (WIDTH, HEIGHT), {"input_1": frame, **extras[1]},
                      engine="native")
        after = native_stats()
        np.testing.assert_array_equal(out, oracle)
        assert not strided.flags.c_contiguous
        if HAVE_NATIVE:
            assert after["native_frames"] == before["native_frames"] + 2
            assert after["degraded"] == before["degraded"]

    @needs_cc
    def test_default_engine_builds_c_from_a_nests_second_frame(
            self, tmp_path, monkeypatch):
        """A nest realized once on the default engine never invokes the
        compiler; its second frame builds the C program, and a new shape
        starts over — for a single Func and for a pipeline."""
        from repro.store import STORE_DIR_ENV

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(realize_mod, "DEFAULT_ENGINE", "native")
        reset_native_caches()
        func = _stencil("blur", "input_1", [(0, 1), (1, 1), (2, 1)])
        pipeline = _blur2_pipeline()

        def run(frame):
            height, width = frame.shape
            return [realize(func, (width - 2, height - 2),
                            {"input_1": frame}), pipeline.realize(frame)]

        def oracle(frame):
            height, width = frame.shape
            return [realize_interp(func, (width - 2, height - 2),
                                   {"input_1": frame}),
                    _blur2_pipeline().realize_interp(frame)]

        for shape in ((HEIGHT + 2, WIDTH + 2), (HEIGHT, WIDTH)):
            for repeat, native_frames in ((0, 0), (1, 2)):
                frame = _frame(48 + repeat, shape=shape)
                before = native_stats()
                outputs = run(frame)
                after = native_stats()
                for out, expected in zip(outputs, oracle(frame)):
                    np.testing.assert_array_equal(out, expected)
                assert after["native_frames"] == \
                    before["native_frames"] + native_frames
                assert after["compiles"] == before["compiles"] + native_frames
                assert after["degraded"] == before["degraded"]

    def test_default_engine_degrades_without_a_toolchain(self, monkeypatch):
        """The nest's first frame runs on the compiled kernels; every later
        frame tries native, degrades and is counted."""
        monkeypatch.setattr(realize_mod, "DEFAULT_ENGINE", "native")
        monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/cc")
        reset_native_caches()
        func = _stencil("blur", "input_1", [(0, 0), (1, 1), (2, 2)])
        frames = [_frame(seed, shape=(HEIGHT + 2, WIDTH + 2))
                  for seed in (44, 45, 46)]
        try:
            before = native_stats()
            outputs = [realize(func, (WIDTH, HEIGHT), {"input_1": frame})
                       for frame in frames]
            after = native_stats()
        finally:
            monkeypatch.delenv("REPRO_NATIVE_CC")
            reset_native_caches()
        assert after["degraded"] == before["degraded"] + len(frames) - 1
        assert after["native_frames"] == before["native_frames"]
        for out, frame in zip(outputs, frames):
            np.testing.assert_array_equal(out, realize_interp(
                func, (WIDTH, HEIGHT), {"input_1": frame}))

    @needs_cc
    def test_warm_realize_generates_no_c(self, tmp_path, monkeypatch):
        from repro.store import STORE_DIR_ENV

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        reset_native_caches()
        func = _stencil("blur", "input_1", [(0, 1), (1, 1), (2, 1)])
        frame = _frame(47, shape=(HEIGHT + 2, WIDTH + 2))
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
        realize(func, (WIDTH, HEIGHT), {"input_1": frame}, engine="native")

        def generate(*_args, **_kwargs):
            raise AssertionError("a warm frame generated C")

        with monkeypatch.context() as patch:
            patch.setattr(native_mod, "generate_nest", generate)
            before = native_stats()
            out = realize(func, (WIDTH, HEIGHT), {"input_1": frame},
                          engine="native")
            after = native_stats()
        np.testing.assert_array_equal(out, oracle)
        assert after["native_frames"] == before["native_frames"] + 1
        assert after["degraded"] == before["degraded"]

    @needs_cc
    def test_loaded_libraries_stay_bounded_across_shapes(self, monkeypatch):
        """One Func realized at many shapes compiles one program per shape,
        but a library stays loaded only while a memoized nest uses it."""
        monkeypatch.setattr(realize_mod, "MAX_FUNC_NESTS", 2)
        reset_native_caches()
        func = _stencil("blur", "input_1", [(0, 1), (1, 1), (2, 1)])
        for width in range(6, 12):
            frame = _frame(width, shape=(7, width + 2))
            np.testing.assert_array_equal(
                realize(func, (width, 5), {"input_1": frame},
                        engine="native"),
                realize_interp(func, (width, 5), {"input_1": frame}))
        gc.collect()
        assert len(native_mod._SO_CACHE) <= 2
        maps = Path("/proc/self/maps")
        if maps.exists():
            scratch = native_mod._so_scratch_dir()
            mapped = {line.split()[-1] for line in
                      maps.read_text().splitlines() if scratch in line}
            assert 1 <= len(mapped) <= 2, mapped

    @needs_cc
    @pytest.mark.parametrize("tap", ["shift", "lookup"])
    def test_read_outside_a_buffer_raises(self, tap):
        """Where NumPy raises IndexError the C load does not read past the
        buffer: a shifted tap fails its hoisted per-store check, a table
        lookup its per-load check."""
        from repro.halide.realize import RealizationError

        x, y = _vars()
        inp = BufferAccess("input_1", [BinOp(Op.ADD, x, Const(2)), y], UINT8)
        buffers = {"input_1": _frame(51)}
        if tap == "lookup":
            inp = BufferAccess("lut", [Cast(UINT32, BufferAccess(
                "input_1", [x, y], UINT8))], UINT8)
            buffers["lut"] = np.arange(200, dtype=np.uint8)
        func = Func("f", [x, y], dtype=UINT8).define(Cast(UINT8, inp))
        with pytest.raises(IndexError):
            realize_interp(func, (WIDTH, HEIGHT), buffers)
        with pytest.raises(RealizationError, match="out of bounds"):
            realize(func, (WIDTH, HEIGHT), buffers, engine="native")

    @needs_cc
    @settings(max_examples=40, deadline=None)
    @given(taps=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                         min_size=1, max_size=3),
           clamp=st.booleans(), width=st.integers(1, 9),
           height=st.integers(1, 9), out_w=st.integers(1, 9),
           out_h=st.integers(1, 9))
    def test_load_checks_agree_with_numpy_indexing(self, taps, clamp, width,
                                                   height, out_w, out_h):
        """Shifted (and clamped) taps, negative ones included, raise on
        native exactly where NumPy indexing raises, and match otherwise."""
        from repro.halide.realize import RealizationError

        x, y = _vars()
        expr = None
        for dx, dy in taps:
            ix = BinOp(Op.ADD, x, Const(dx))
            if clamp:
                ix = BinOp(Op.MAX, BinOp(Op.MIN, ix, Const(width + 1)),
                           Const(-1))
            tap = Cast(UINT32, BufferAccess(
                "input_1", [ix, BinOp(Op.ADD, y, Const(dy))], UINT8))
            expr = tap if expr is None else BinOp(Op.ADD, expr, tap, UINT32)
        func = Func("f", [x, y], dtype=UINT8).define(Cast(UINT8, expr))
        buffers = {"input_1": _frame(53, shape=(height, width))}
        try:
            oracle = realize_interp(func, (out_w, out_h), buffers)
        except IndexError:
            oracle = None
        if oracle is None:
            with pytest.raises(RealizationError, match="out of bounds"):
                realize(func, (out_w, out_h), buffers, engine="native")
        else:
            np.testing.assert_array_equal(
                realize(func, (out_w, out_h), buffers, engine="native"),
                oracle)

    @needs_cc
    def test_stages_sharing_a_param_name_keep_their_defaults(self):
        """Two Params named alike with different defaults get two C slots;
        a caller's value still overrides both, as in the interpreter."""
        x, y = _vars()
        tap = Cast(UINT32, BufferAccess("input_1", [x, y], UINT8))
        expr = BinOp(Op.ADD, BinOp(Op.MUL, tap, Param("param_k", 3, INT32),
                                   UINT32),
                     Param("param_k", 5, INT32), UINT32)
        func = Func("f", [x, y], dtype=UINT8).define(Cast(UINT8, expr))
        frame = _frame(49)
        for params in (None, {"param_k": 7}):
            before = native_stats()
            out = realize(func, (WIDTH, HEIGHT), {"input_1": frame}, params,
                          engine="native")
            assert native_stats()["native_frames"] == \
                before["native_frames"] + 1
            np.testing.assert_array_equal(out, realize_interp(
                func, (WIDTH, HEIGHT), {"input_1": frame}, params))


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

    def test_so_digest_covers_flags_and_target(self, tmp_path, monkeypatch):
        """A library built under other flags, or for another host's ISA,
        is never loaded: either change misses the store and compiles,
        while the same target and flags hit it."""
        from repro.store import STORE_DIR_ENV

        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path))
        image = _frame(37)
        oracle = _blur2_pipeline().realize_interp(image)
        target = native_mod.host_target(toolchain_path())
        flags = native_mod.CFLAGS

        def build(host, cflags):
            monkeypatch.setattr(native_mod, "host_target", lambda cc: host)
            monkeypatch.setattr(native_mod, "CFLAGS", cflags)
            reset_native_caches()
            before = native_stats()
            np.testing.assert_array_equal(
                _blur2_pipeline().realize(image, engine="native"), oracle)
            after = native_stats()
            return (after["compiles"] > before["compiles"],
                    after["store_hits"] > before["store_hits"])

        miss, hit = (True, False), (False, True)
        assert build(target, flags) == miss
        assert build(target, flags) == hit
        assert build(target + " -mno-avx512f", flags) == miss
        assert build(target, ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
                              "-fwrapv")) == miss
        assert build(target, flags) == hit
        reset_native_caches()

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
        assert "vectorize(natural)" in schedule.describe(backend="native")
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
                for v in (False, True, 4, 8, 16)}
        assert len(keys) == 5
        # True is the natural width, not a lane count: its own program
        # and key; the spellings of "off" lower to the same program
        assert _schedule_key(Schedule(vectorize=False)) == \
            _schedule_key(Schedule(vectorize=1))


class TestGoldenNest:
    def test_blur2_compute_at_matches_golden_c(self):
        produced = _pipeline_source(_blur2_pipeline().lower((96, 128)))
        golden = (GOLDEN_DIR / "native_blur2_compute_at.c").read_text()
        assert produced == golden, (
            "cgen drifted for the blur2 compute_at nest; if intentional, "
            "refresh tests/golden/native_blur2_compute_at.c (write "
            "_pipeline_source(_blur2_pipeline().lower((96, 128)))) and "
            "check the diff")

    def test_golden_nest_looks_like_segmented_c(self):
        golden = (GOLDEN_DIR / "native_blur2_compute_at.c").read_text()
        assert golden.startswith("#include <stdint.h>")
        assert "rp_seg0" in golden
        assert "restrict" in golden
        assert "return 0;" in golden
