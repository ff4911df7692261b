"""Differential testing: the compiled engine against the interpreter oracle.

Random expression trees (hypothesis) and every lifted application kernel are
realized through both engines and must agree bit-for-bit, including tiled
schedules and reduction funcs — the property the compiled backend is built
around.  Random multi-stage pipelines additionally draw a compute level per
stage (default, compute_root, compute_at) and padded reduction stages, so
the lowered loop-nest IR — ghost rings, bounds inference, scratch buffers,
clamped ghost zones, loop partitioning — is pinned on every engine against
``FuncPipeline.realize_interp``, the schedule-free stage-by-stage oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.halide import (
    ENGINES, Func, FuncPipeline, RDom, Var, configure_pool, realize,
    realize_interp,
)
from repro.halide import parallel as parallel_mod
from repro.ir import (
    BinOp, BufferAccess, Call, Cast, Const, Op, Param, Select, Var as IRVar,
    FLOAT64, INT32, UINT8, UINT16, UINT32,
)

WIDTH, HEIGHT = 17, 13


def _vars():
    return Var("x_0"), Var("x_1")


def _access(x, y, dx, dy):
    ix = x if dx == 0 else BinOp(Op.ADD, x, Const(dx))
    iy = y if dy == 0 else BinOp(Op.ADD, y, Const(dy))
    return Cast(UINT32, BufferAccess("input_1", [ix, iy], UINT8))


@st.composite
def expr_trees(draw, depth=0):
    """Random integer expression trees over shifted accesses of one image."""
    x, y = _vars()
    if depth >= 3 or draw(st.booleans()) and depth > 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return _access(x, y, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        if choice == 1:
            return Const(draw(st.integers(0, 255)), UINT32)
        return Cast(UINT32, Param("param_k", draw(st.integers(1, 64)), INT32))
    op = draw(st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR,
                               Op.MIN, Op.MAX, Op.SHR, Op.DIV, Op.MOD,
                               Op.LT, Op.GE, "select", "cast8", "cast16"]))
    a = draw(expr_trees(depth=depth + 1))
    if op == "cast8":
        return Cast(UINT32, Cast(UINT8, a))
    if op == "cast16":
        return Cast(UINT32, Cast(UINT16, a))
    b = draw(expr_trees(depth=depth + 1))
    if op == "select":
        cond = BinOp(Op.GT, a, b, UINT32)
        return Select(cond, a, b)
    if op in (Op.SHR,):
        return BinOp(op, a, Const(draw(st.integers(0, 7)), UINT32), UINT32)
    if op in (Op.DIV, Op.MOD):
        return BinOp(op, a, Const(draw(st.integers(1, 9)), UINT32), UINT32)
    if op == Op.MUL:
        return BinOp(op, a, Const(draw(st.integers(0, 9)), UINT32), UINT32)
    return BinOp(op, a, b, UINT32)


@pytest.fixture(scope="class")
def fan_out():
    """A 2-worker pool that fans out even these small frames."""
    old_elems = parallel_mod.MIN_PARALLEL_ELEMS
    parallel_mod.MIN_PARALLEL_ELEMS = 1
    configure_pool(2)
    yield
    parallel_mod.MIN_PARALLEL_ELEMS = old_elems
    configure_pool()


@pytest.mark.usefixtures("fan_out")
class TestRandomTrees:
    # An untiled draw with ``parallel`` runs serially and says so.
    @pytest.mark.filterwarnings(
        "ignore::repro.halide.parallel.ParallelFallbackWarning")
    @settings(max_examples=60, deadline=None)
    @given(tree=expr_trees(), seed=st.integers(0, 2 ** 16),
           dtype=st.sampled_from([UINT8, UINT16, INT32]),
           tile=st.sampled_from([(0, 0), (8, 8), (5, 16)]),
           engine=st.sampled_from(ENGINES), parallel=st.booleans())
    def test_compiled_matches_interp(self, tree, seed, dtype, tile, engine,
                                     parallel):
        x, y = _vars()
        func = Func("f", [x, y], dtype=dtype).define(Cast(dtype, tree))
        func.schedule.tile_x, func.schedule.tile_y = tile
        func.schedule.parallel = parallel
        rng = np.random.default_rng(seed)
        padded = rng.integers(0, 256, size=(HEIGHT + 2, WIDTH + 2), dtype=np.uint8)
        params = {"param_k": int(rng.integers(1, 99))}
        out = realize(func, (WIDTH, HEIGHT), {"input_1": padded}, params,
                      engine=engine)
        interp = realize_interp(func, (WIDTH, HEIGHT), {"input_1": padded}, params)
        np.testing.assert_array_equal(out, interp)

    @settings(max_examples=20, deadline=None)
    @given(shift=st.integers(0, 2), weight=st.integers(1, 5),
           seed=st.integers(0, 999))
    def test_float_trees_match(self, shift, weight, seed):
        x, y = _vars()
        access = Cast(FLOAT64, _access(x, y, shift, 0))
        expr = Cast(UINT8, Call("round", [
            BinOp(Op.DIV, BinOp(Op.MUL, access, Const(float(weight), FLOAT64),
                                FLOAT64),
                  Const(float(weight + 1), FLOAT64), FLOAT64)], INT32))
        func = Func("f", [x, y], dtype=UINT8).define(expr)
        rng = np.random.default_rng(seed)
        padded = rng.integers(0, 256, size=(HEIGHT + 2, WIDTH + 2), dtype=np.uint8)
        compiled = realize(func, (WIDTH, HEIGHT), {"input_1": padded},
                           engine="compiled")
        interp = realize_interp(func, (WIDTH, HEIGHT), {"input_1": padded})
        np.testing.assert_array_equal(compiled, interp)


@pytest.mark.usefixtures("fan_out")
class TestReductionDifferential:
    @settings(max_examples=15, deadline=None)
    @given(bins=st.integers(8, 64), seed=st.integers(0, 999),
           engine=st.sampled_from(ENGINES), parallel=st.booleans(),
           strip=st.sampled_from([2, 5]))
    def test_histogram_matches(self, bins, seed, engine, parallel, strip):
        image = np.random.default_rng(seed).integers(
            0, bins, size=(11, 7), dtype=np.uint8)
        x = Var("x_0")
        func = Func("hist", [x], dtype=UINT32).define(Const(0, UINT32))
        rdom = RDom("r_0", source="input_1", dimensions=2)
        index = BufferAccess("input_1", [IRVar("r_0"), IRVar("r_1")], UINT8)
        update = BinOp(Op.ADD, BufferAccess("hist", [index], UINT32),
                       Const(1, UINT32))
        func.update(rdom, [index], update)
        # tile_y is the RDom strip height of a parallel (two-phase) sweep.
        func.schedule.tile_y = strip
        func.schedule.parallel = parallel
        out = realize(func, (bins,), {"input_1": image}, engine=engine)
        interp = realize_interp(func, (bins,), {"input_1": image})
        np.testing.assert_array_equal(out, interp)


class TestPipelineDifferential:
    """Random multi-stage pipelines with random compute levels.

    The oracle is ``FuncPipeline.realize_interp`` (each stage's input
    edge-padded, then realized by the interpreter); every drawn schedule
    assignment (default/root/at per stage, tiles on the output, padded
    reduction stages) must realize bit-identically through the lowered
    loop-nest IR on every engine.
    """

    STAGE_KINDS = ("pointwise", "coord", "stencil_x", "stencil_y", "cross",
                   "hist", "param")

    @staticmethod
    def _make_stage(kind: str, input_name: str, hist_pad: int = 1,
                    index: int = 0) -> tuple[Func, int]:
        x, y = _vars()

        def acc(dx, dy):
            ix = x if dx == 0 else BinOp(Op.ADD, x, Const(dx))
            iy = y if dy == 0 else BinOp(Op.ADD, y, Const(dy))
            return Cast(UINT32, BufferAccess(input_name, [ix, iy], UINT8))

        if kind == "hist":
            # A rank-preserving histogram over the padded input, seeded with
            # the centre pixel (the init store reads padded coordinates too).
            func = Func("st_hist", [x, y], dtype=UINT8).define(
                Cast(UINT8, acc(hist_pad, hist_pad)))
            value = BufferAccess(input_name, [IRVar("r_0"), IRVar("r_1")],
                                 UINT8)
            indices = [BinOp(Op.MOD, value, Const(WIDTH, UINT32), UINT32),
                       BinOp(Op.MOD, value, Const(HEIGHT, UINT32), UINT32)]
            func.update(RDom("r", source=input_name, dimensions=2), indices,
                        BinOp(Op.ADD, BufferAccess("st_hist", indices, UINT8),
                              Const(1, UINT32)))
            return func, hist_pad
        if kind == "pointwise":
            expr, pad = BinOp(Op.XOR, Const(255, UINT32), acc(0, 0), UINT32), 0
        elif kind == "param":
            # Every "param" stage reads the same two Param names with
            # defaults of its own, as lifted stages reading one coefficient
            # table do; each must fall back to its own default.
            scale = Param("param_scale", 0.25 * (index + 1), FLOAT64)
            bias = Param("param_bias", 3 + 2 * index, INT32)
            scaled = Cast(UINT32, BinOp(Op.MUL, acc(1, 0), scale, FLOAT64))
            expr, pad = BinOp(Op.ADD, scaled, Cast(UINT32, bias), UINT32), 1
        elif kind == "coord":
            # Uses the loop variables directly (outside any tap): exercises
            # the tile-base Param correction of local-coordinate stores.
            coords = BinOp(Op.ADD, Cast(UINT32, x), Cast(UINT32, y), UINT32)
            expr, pad = BinOp(Op.ADD, acc(0, 0), coords, UINT32), 0
        elif kind == "stencil_x":
            total = BinOp(Op.ADD, BinOp(Op.ADD, acc(0, 1), acc(1, 1), UINT32),
                          acc(2, 1), UINT32)
            expr, pad = BinOp(Op.SHR, total, Const(1, UINT32), UINT32), 1
        elif kind == "stencil_y":
            total = BinOp(Op.ADD, BinOp(Op.ADD, acc(1, 0), acc(1, 1), UINT32),
                          acc(1, 2), UINT32)
            expr, pad = BinOp(Op.SHR, total, Const(1, UINT32), UINT32), 1
        else:                                  # cross
            total = acc(1, 1)
            for dx, dy in ((1, 0), (0, 1), (2, 1), (1, 2)):
                total = BinOp(Op.ADD, total, acc(dx, dy), UINT32)
            expr, pad = BinOp(Op.SHR, total, Const(2, UINT32), UINT32), 1
        func = Func(f"st_{kind}", [x, y], dtype=UINT8).define(Cast(UINT8, expr))
        return func, pad

    @classmethod
    def _build(cls, kinds, levels=None, tile=None,
               hist_pad: int = 1) -> FuncPipeline:
        """``levels`` holds one compute level per stage (the output stage's
        is ``default`` or ``root``); None leaves every stage default."""
        pipeline = FuncPipeline()
        funcs = []
        for index, kind in enumerate(kinds):
            input_name = "input_1" if index == 0 else f"buf_{index}"
            func, pad = cls._make_stage(kind, input_name, hist_pad, index)
            pipeline.add(func, input_name=input_name, pad=pad,
                         name=f"s{index}")
            funcs.append(func)
        if tile is not None:
            funcs[-1].tile(*tile)
        for index, level in enumerate(levels or ()):
            if level == "root":
                funcs[index].compute_root()
            elif level == "at":
                funcs[index].compute_at(f"s{index + 1}", "x_1")
        return pipeline

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_pipeline_schedules_match_oracle(self, data):
        kinds = data.draw(st.lists(st.sampled_from(self.STAGE_KINDS),
                                   min_size=2, max_size=4), label="stages")
        levels = data.draw(st.lists(st.sampled_from(("default", "root", "at")),
                                    min_size=len(kinds) - 1,
                                    max_size=len(kinds) - 1), label="levels")
        levels.append(data.draw(st.sampled_from(("default", "root")),
                                label="output level"))
        tile = data.draw(st.sampled_from(
            [None, (8, 8), (16, 4), (WIDTH, 8), (64, 64)]), label="tile")
        hist_pad = data.draw(st.integers(0, 2), label="hist pad")
        also_native = data.draw(st.booleans(), label="also native")
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        image = np.random.default_rng(seed).integers(
            0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)

        oracle = self._build(kinds, hist_pad=hist_pad).realize_interp(image)
        scheduled = self._build(kinds, levels=levels, tile=tile,
                                hist_pad=hist_pad)
        engines = ("interp", "compiled") + (("native",) if also_native else ())
        for engine in engines:
            np.testing.assert_array_equal(
                scheduled.realize(image, engine=engine), oracle,
                err_msg=f"engine={engine}")

    @pytest.mark.parametrize("levels", [None, ("root", "at", "root"),
                                        ("at", "root", "default")])
    @pytest.mark.parametrize("params", [None, {"param_bias": 9},
                                        {"param_scale": 1.5}])
    def test_stages_sharing_param_names_keep_their_defaults(self, levels,
                                                             params):
        image = np.random.default_rng(17).integers(
            0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
        kinds = ("param", "stencil_x", "param")
        oracle = self._build(kinds).realize_interp(image, params)
        scheduled = self._build(kinds, levels=levels)
        for engine in ENGINES:
            np.testing.assert_array_equal(
                scheduled.realize(image, params, engine=engine), oracle,
                err_msg=f"engine={engine}")

    def test_compute_at_chain_with_coordinate_consumer(self):
        """The Param-corrected local store agrees with the oracle exactly."""
        image = np.random.default_rng(11).integers(
            0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
        kinds = ("stencil_x", "coord", "stencil_y")
        oracle = self._build(kinds).realize_interp(image)
        scheduled = self._build(kinds, levels=("at", "at", "root"),
                                tile=(16, 8))
        for engine in ENGINES:
            np.testing.assert_array_equal(
                scheduled.realize(image, engine=engine), oracle)


class TestLiftedKernelsDifferential:
    """Every lifted app filter realizes identically through both engines."""

    PS_FILTERS = ["invert", "blur", "blur_more", "sharpen", "sharpen_more",
                  "threshold", "box_blur", "brightness", "equalize",
                  "column_sum"]
    IV_FILTERS = ["invert", "solarize", "blur", "sharpen", "equalize"]

    @pytest.mark.parametrize("filter_name", PS_FILTERS)
    def test_photoshop_filters(self, filter_name):
        from repro.rejuvenation import apply_lifted_photoshop, lift_photoshop_filter
        from repro.apps.images import make_test_planes

        result = lift_photoshop_filter(filter_name)
        planes = make_test_planes(48, 32, seed=9)
        params = {"threshold": 128, "brightness": 40}
        compiled = apply_lifted_photoshop(result, filter_name, planes, params,
                                          engine="compiled")
        interp = apply_lifted_photoshop(result, filter_name, planes, params,
                                        engine="interp")
        for channel in compiled:
            np.testing.assert_array_equal(compiled[channel], interp[channel])

    @pytest.mark.parametrize("filter_name", IV_FILTERS)
    def test_irfanview_filters(self, filter_name):
        from repro.rejuvenation import apply_lifted_irfanview, lift_irfanview_filter
        from repro.apps.images import make_test_planes

        result = lift_irfanview_filter(filter_name)
        planes = make_test_planes(40, 28, seed=10)
        image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        compiled = apply_lifted_irfanview(result, filter_name, image,
                                          engine="compiled")
        interp = apply_lifted_irfanview(result, filter_name, image,
                                        engine="interp")
        np.testing.assert_array_equal(compiled, interp)

    @staticmethod
    def _assert_chain(pipeline, fused, image, expected):
        """The oracle and, fused or not, every engine realize ``pipeline``
        as ``expected``, its filters applied one at a time."""
        np.testing.assert_array_equal(pipeline.realize_interp(image), expected)
        chain = pipeline.fused() if fused else pipeline
        # The unpadded pointwise middle stage inlines into its producer.
        assert len(chain.stages) == (2 if fused else 3)
        for engine in ENGINES:
            np.testing.assert_array_equal(chain.realize(image, engine=engine),
                                          expected, err_msg=f"engine={engine}")

    @pytest.mark.parametrize("fused", [False, True])
    def test_photoshop_fig8_chain_every_engine(self, fused):
        """The fig 8 Photoshop chain on each plane, whose kernels read that
        plane's own input buffer."""
        from repro.apps.images import make_test_planes
        from repro.rejuvenation import (apply_lifted_photoshop,
                                        lift_photoshop_filter, lifted_pipeline)

        filters = ("blur", "invert", "sharpen_more")
        planes = make_test_planes(24, 16, seed=11)
        expected = planes
        for name in filters:
            expected = apply_lifted_photoshop(lift_photoshop_filter(name), name,
                                              expected)
        for channel, plane in planes.items():
            self._assert_chain(lifted_pipeline("photoshop", filters, channel),
                               fused, plane, expected[channel])

    @pytest.mark.parametrize("fused", [False, True])
    def test_irfanview_fig8_chain_every_engine(self, fused):
        """The fig 8 IrfanView chain: sharpen and blur read same-named
        coefficient Params with different defaults."""
        from repro.apps.images import make_test_planes
        from repro.rejuvenation import (apply_lifted_irfanview,
                                        lift_irfanview_filter, lifted_pipeline)

        filters = ("sharpen", "solarize", "blur")
        planes = make_test_planes(24, 16, seed=12)
        image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        expected = image
        for name in filters:
            expected = apply_lifted_irfanview(lift_irfanview_filter(name), name,
                                              expected)
        self._assert_chain(lifted_pipeline("irfanview", filters), fused,
                           image, expected)

    def test_minigmg_smooth(self):
        from repro.rejuvenation import apply_lifted_minigmg, lift_minigmg_smooth

        result = lift_minigmg_smooth()
        rng = np.random.default_rng(3)
        grid = rng.random((6, 7, 8))
        compiled = apply_lifted_minigmg(result, grid, iterations=2,
                                        engine="compiled")
        interp = apply_lifted_minigmg(result, grid, iterations=2,
                                      engine="interp")
        np.testing.assert_array_equal(compiled, interp)
