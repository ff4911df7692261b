"""The lowered loop-nest IR: bounds inference, compute levels, backends.

Every lowered execution is compared bit-for-bit against
``FuncPipeline.realize_interp`` — the schedule-free padded stage-by-stage
oracle — so these tests pin the lowering itself: ghost rings, required-region
propagation, clamped ghost zones, scratch sizing, loop partitioning, the
geometries that raise :class:`PipelineLoweringError` and the backend
interface.
"""

import numpy as np
import pytest

from repro.halide import (
    Func,
    FuncPipeline,
    Schedule,
    Var,
    backend_names,
    get_backend,
    lower_pipeline,
    realize,
    realize_interp,
)
from repro.halide.lower import PipelineLoweringError
from repro.ir import (
    Allocate,
    BinOp,
    BufferAccess,
    Cast,
    Const,
    For,
    IfThenElse,
    Op,
    ProducerConsumer,
    Store,
    UINT8,
    UINT32,
)
from repro.halide.func import RDom

WIDTH, HEIGHT = 53, 37


def _stencil(name, inp, taps, dtype=UINT8):
    x, y = Var("x_0"), Var("x_1")

    def access(dx, dy):
        ix = x if dx == 0 else BinOp(Op.ADD, x, Const(dx))
        iy = y if dy == 0 else BinOp(Op.ADD, y, Const(dy))
        return Cast(UINT32, BufferAccess(inp, [ix, iy], UINT8))

    expr = None
    for dx, dy in taps:
        tap = access(dx, dy)
        expr = tap if expr is None else BinOp(Op.ADD, expr, tap, UINT32)
    expr = Cast(dtype, BinOp(Op.DIV, expr, Const(len(taps), UINT32), UINT32))
    return Func(name, [x, y], dtype=dtype).define(expr)


def _two_stage(tile=None, schedule="at"):
    """blur_x -> blur_y, each padding its input by 1 (edge mode)."""
    bx = _stencil("bx", "input_1", [(0, 1), (1, 1), (2, 1)])
    by = _stencil("by", "bx_buf", [(1, 0), (1, 1), (1, 2)])
    pipeline = FuncPipeline()
    pipeline.add(bx, input_name="input_1", pad=1, name="bx")
    pipeline.add(by, input_name="bx_buf", pad=1, name="by")
    if tile:
        by.tile(*tile)
    if schedule == "at":
        bx.compute_at(by, "x_1")
    elif schedule == "root":
        bx.compute_root()
        by.compute_root()
    return pipeline


@pytest.fixture()
def image():
    return np.random.default_rng(7).integers(
        0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)


@pytest.fixture()
def oracle(image):
    return _two_stage(schedule="none").realize_interp(image)


class TestComputeLevels:
    def test_compute_root_matches_legacy_on_both_backends(self, image, oracle):
        for engine in backend_names():
            out = _two_stage(schedule="root").realize(image, engine=engine)
            np.testing.assert_array_equal(out, oracle)

    @pytest.mark.parametrize("tile", [(16, 8), (8, 16), (WIDTH, 8), (64, 64)])
    def test_compute_at_matches_legacy_on_both_backends(self, image, oracle,
                                                        tile):
        for engine in backend_names():
            out = _two_stage(tile=tile).realize(image, engine=engine)
            np.testing.assert_array_equal(out, oracle)

    def test_compute_at_untiled_consumer_uses_row_strips(self, image, oracle):
        pipeline = _two_stage(tile=None, schedule="at")
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)
        lowered = pipeline.lower(image.shape)
        loops = [s for s in lowered.stmt.walk() if isinstance(s, For)]
        assert len(loops) == 1 and loops[0].name.endswith(".strip")

    def test_chained_compute_at(self, image):
        s0 = _stencil("s0", "input_1", [(0, 1), (1, 1), (2, 1)])
        s1 = _stencil("s1", "b0", [(1, 0), (1, 1), (1, 2)])
        s2 = _stencil("s2", "b1", [(0, 0), (2, 2)])
        reference = FuncPipeline()
        for func, inp in ((s0, "input_1"), (s1, "b0"), (s2, "b1")):
            reference.add(func, input_name=inp, pad=1, name=func.name)
        oracle = reference.realize_interp(image)

        scheduled = _rebuild_three(s0, s1, s2)
        scheduled.stages[2].func.tile(16, 8)
        scheduled.stages[1].func.compute_at(scheduled.stages[2].func, "x_1")
        scheduled.stages[0].func.compute_at(scheduled.stages[1].func, "x_1")
        for engine in backend_names():
            np.testing.assert_array_equal(
                scheduled.realize(image, engine=engine), oracle)

    def test_mixed_root_and_at(self, image):
        s0 = _stencil("s0", "input_1", [(0, 1), (1, 1), (2, 1)])
        s1 = _stencil("s1", "b0", [(1, 0), (1, 1), (1, 2)])
        s2 = _stencil("s2", "b1", [(2, 0), (0, 2)])
        reference = _rebuild_three(s0, s1, s2)
        oracle = reference.realize_interp(image)
        scheduled = _rebuild_three(s0, s1, s2)
        scheduled.stages[0].func.compute_root()
        scheduled.stages[2].func.tile(8, 8)
        scheduled.stages[1].func.compute_at(s2, "x_1")
        for engine in backend_names():
            np.testing.assert_array_equal(
                scheduled.realize(image, engine=engine), oracle)


def _hist_pipeline(image, rdom_source="p_buf", pad=0):
    """A two-stage pipeline ending in a rank-preserving histogram reduction.

    Bins pixel values modulo the frame dimensions so the output keeps the
    frame's rank/shape (what lifted in-pipeline reductions look like);
    returns (pipeline, interpreter oracle).
    """
    from repro.ir import Var as IRVar

    hist_source = _stencil("p", "input_1", [(0, 0)])
    x, y = Var("x_0"), Var("x_1")
    hist = Func("hist", [x, y], dtype=UINT32).define(Const(0, UINT32))
    rdom = RDom("r_0", source=rdom_source, dimensions=2)
    value = BufferAccess(rdom_source, [IRVar("r_0"), IRVar("r_1")], UINT8)
    indices = [BinOp(Op.MOD, value, Const(WIDTH, UINT32), UINT32),
               BinOp(Op.MOD, value, Const(HEIGHT, UINT32), UINT32)]
    hist.update(rdom, indices,
                BinOp(Op.ADD, BufferAccess("hist", indices, UINT32),
                      Const(1, UINT32)))
    pipeline = FuncPipeline()
    pipeline.add(hist_source, input_name="input_1", name="p")
    pipeline.add(hist, input_name="p_buf", pad=pad, name="hist")
    # A mismatched RDom source has no oracle realization either (the stage
    # binds only its own input); those callers only exercise the lowering.
    oracle = pipeline.realize_interp(image) if rdom_source == "p_buf" \
        else None
    return pipeline, oracle


def _rebuild_three(s0, s1, s2):
    pipeline = FuncPipeline()
    for func, inp in ((s0, "input_1"), (s1, "b0"), (s2, "b1")):
        pipeline.add(func, input_name=inp, pad=1, name=func.name)
    return pipeline


class TestBoundsInference:
    def test_scratch_is_tile_plus_ghost_not_full_frame(self, image):
        pipeline = _two_stage(tile=(16, 8))
        stats = {}
        pipeline.realize(image, engine="compiled", stats=stats)
        # by taps rows y-1..y+1 of bx: ghost zone of 1 row on each side.
        assert stats["scratch_shapes"]["bx.scratch#0"] == (8 + 2, 16)
        assert stats["scratch_peak_elems"] == 10 * 16
        assert stats["scratch_peak_elems"] < image.size // 10

    def test_decision_reports_footprint_and_scratch(self, image):
        pipeline = _two_stage(tile=(16, 8))
        lowered = pipeline.lower(image.shape)
        decision = lowered.decisions[0]
        assert decision.level == "at"
        assert decision.anchor == ("by", "x_1")
        assert decision.footprint == [(-1, 1), (0, 0)]
        assert decision.scratch_extent == (10, 16)
        text = lowered.describe()
        assert "compute_at(by, x_1)" in text
        assert "scratch 10x16" in text

    def test_describe_shows_loop_nest(self, image):
        text = _two_stage(tile=(16, 8)).describe(image.shape)
        assert "for by.tile_y" in text
        assert "allocate bx.scratch#0" in text
        assert "produce bx" in text and "consume" in text

    def test_full_frame_buffers_live_only_until_their_consumer(self, image):
        """Each full-frame buffer is allocated around its producer and its
        one consumer, so it is freed before later stages run; an output
        stage that is one whole-frame store materializes the output."""
        s0 = _stencil("s0", "input_1", [(0, 1), (1, 1), (2, 1)])
        s1 = _stencil("s1", "b0", [(1, 0), (1, 1), (1, 2)])
        s2 = _stencil("s2", "b1", [(0, 0), (2, 2)])
        lowered = _rebuild_three(s0, s1, s2).lower(image.shape)
        assert isinstance(lowered.stmt, Allocate)
        assert lowered.stmt.buffer == "s1.root#1"
        (node,) = lowered.stmt.body.stmts
        assert isinstance(node, ProducerConsumer)
        consume_buffers = {n.buffer for n in node.consume.walk()
                           if isinstance(n, Store)}
        assert consume_buffers == {"s2.out"}      # s0.root#0 already freed
        assert lowered.output_by_store
        s2.tile(16, 8)
        assert not _rebuild_three(s0, s1, s2).lower(image.shape) \
            .output_by_store

    def test_lowered_tree_has_expected_node_kinds(self, image):
        lowered = _two_stage(tile=(16, 8)).lower(image.shape)
        kinds = {type(node) for node in lowered.stmt.walk()}
        assert {For, Allocate, ProducerConsumer, IfThenElse, Store} <= kinds

    def test_describe_prints_executed_nest_of_default_pipeline(self, image):
        pipeline = _two_stage(schedule="none")
        text = pipeline.describe(image.shape)
        assert text.startswith(f"lowered pipeline over frame {list(image.shape)}"
                               ", input_1 edge-padded by [1,1]x[1,1]")
        assert "bx: default, reads its input through edge ghost ring" in text
        assert f"allocate bx.root#0[uint8]({HEIGHT + 2}, {WIDTH + 2})" in text
        assert f"pad_edge bx.root#0 interior (1, 1) + ({HEIGHT}, {WIDTH})" \
            in text
        assert "legacy" not in text
        # The printed nest is the one that runs: one store per stage plus
        # the ring fill.
        stats = {}
        pipeline.realize(image, engine="compiled", stats=stats)
        assert (stats["stores"], stats["allocations"],
                stats["ghost_pads"]) == (2, 1, 1)


class TestDemotions:
    def test_wrong_anchor_consumer_demotes_to_root(self, image, oracle):
        pipeline = _two_stage(tile=(16, 8), schedule="none")
        pipeline.stages[0].func.compute_at("somebody_else", "x_1")
        lowered = pipeline.lower(image.shape)
        assert lowered.decisions[0].level == "root"
        assert "somebody_else" in lowered.decisions[0].demoted_reason
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)

    def test_complex_taps_demote_to_root(self, image):
        x, y = Var("x_0"), Var("x_1")
        producer = _stencil("p", "input_1", [(0, 0)])
        # Consumer gathers through a data-dependent index: no finite
        # stencil footprint, so compute_at cannot bound the region.
        gather = BufferAccess(
            "p_buf", [BinOp(Op.MOD, BufferAccess("p_buf", [x, y], UINT8),
                            Const(WIDTH, UINT32)), y], UINT8)
        consumer = Func("c", [x, y], dtype=UINT8).define(Cast(UINT8, gather))
        pipeline = FuncPipeline()
        pipeline.add(producer, input_name="input_1", name="p")
        pipeline.add(consumer, input_name="p_buf", name="c")
        oracle = pipeline.realize_interp(image)
        producer.compute_at(consumer, "x_1")
        lowered = pipeline.lower(image.shape)
        assert lowered.decisions[0].level == "root"
        assert "shifted window" in lowered.decisions[0].demoted_reason
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)

    def test_one_sided_footprint_deeper_than_border_tile_demotes(self, image):
        """A required region that can fall entirely outside the frame (a
        one-sided footprint at least as deep as a border tile) must not
        compute_at — regression test for an out-of-bounds scratch write."""
        x, y = Var("x_0"), Var("x_1")
        producer = _stencil("p", "input_1", [(0, 0)])
        # Taps (0,0),(1,0),(2,0) through pad=1: footprint y = [-1,-1].
        taps = None
        for dx in range(3):
            ix = x if dx == 0 else BinOp(Op.ADD, x, Const(dx))
            tap = Cast(UINT32, BufferAccess("p_buf", [ix, y], UINT8))
            taps = tap if taps is None else BinOp(Op.ADD, taps, tap, UINT32)
        consumer = Func("c", [x, y], dtype=UINT8).define(
            Cast(UINT8, BinOp(Op.SHR, taps, Const(1, UINT32), UINT32)))

        def build():
            pipeline = FuncPipeline()
            pipeline.add(producer, input_name="input_1", pad=1, name="p")
            pipeline.add(consumer, input_name="p_buf", pad=1, name="c")
            return pipeline

        oracle = build().realize_interp(image)
        producer.compute_at(consumer, "x_1")       # untiled: 1-row strips
        pipeline = build()
        lowered = pipeline.lower(image.shape)
        assert lowered.decisions[0].level == "root"
        assert "entirely outside" in lowered.decisions[0].demoted_reason
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)
        # With tiles deeper than the footprint the compute_at is safe.
        consumer.tile(16, 8)
        safe = build()
        assert safe.lower(image.shape).decisions[0].level == "at"
        for engine in backend_names():
            np.testing.assert_array_equal(
                safe.realize(image, engine=engine), oracle)

    def test_output_stage_compute_at_is_reported(self, image):
        pipeline = _two_stage(tile=(16, 8))
        pipeline.stages[1].func.schedule.compute = "at"
        pipeline.stages[1].func.schedule.compute_at = ("nobody", "x_1")
        lowered = pipeline.lower(image.shape)
        assert lowered.decisions[1].level == "output"
        assert "no consumer" in lowered.decisions[1].demoted_reason

    def test_reduction_stage_lowers_first_class(self, image):
        """Reduction stages are lowered stages: an init Store plus a
        ReduceLoop sweep, bit-identical to the oracle on every backend."""
        from repro.ir import ReduceLoop

        pipeline, oracle = _hist_pipeline(image)
        pipeline.stages[0].func.compute_root()
        lowered = lower_pipeline(pipeline, image.shape)
        assert lowered.decisions[1].reduction is not None
        assert any(isinstance(node, ReduceLoop)
                   for node in lowered.stmt.walk())
        for engine in backend_names():
            out = pipeline.realize(image, engine=engine)
            np.testing.assert_array_equal(out, oracle)

    def test_padded_reduction_lowers_and_mismatched_rdom_raises(self, image):
        """A reduction stage that pads its input sweeps the whole ghost-ringed
        buffer — the padded RDom domain — on every backend.  An RDom over a
        buffer that is not the stage's input has no nest: realize() and
        describe() raise the typed error."""
        from repro.ir import ReduceLoop

        pipeline, oracle = _hist_pipeline(image, pad=1)
        pipeline.stages[0].func.compute_root()
        lowered = lower_pipeline(pipeline, image.shape)
        sweep = next(node for node in lowered.stmt.walk()
                     if isinstance(node, ReduceLoop))
        assert sweep.source_extent == (HEIGHT + 2, WIDTH + 2)
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)

        mismatched, _ = _hist_pipeline(image, rdom_source="input_1")
        mismatched.stages[0].func.compute_root()
        for engine in backend_names():
            with pytest.raises(PipelineLoweringError,
                               match="RDom ranges over"):
                mismatched.realize(image, engine=engine)
        with pytest.raises(PipelineLoweringError, match="RDom ranges over"):
            mismatched.describe(image.shape)

    def test_rank_changing_reduction_raises_typed_error(self, image):
        """src -> 1-D histogram: the stage's rank differs from the frame's,
        so the nest cannot express it — a PipelineLoweringError on every
        engine and from a server given the frame shape, never an IndexError
        from a fallback."""
        from repro.halide import PipelineServer
        from repro.ir import Var as IRVar

        x = Var("x_0")
        hist = Func("hist", [x], dtype=UINT32).define(Const(0, UINT32))
        value = BufferAccess("src_buf", [IRVar("r_0"), IRVar("r_1")], UINT8)
        hist.update(RDom("r_0", source="src_buf", dimensions=2), [value],
                    BinOp(Op.ADD, BufferAccess("hist", [value], UINT32),
                          Const(1, UINT32)))
        pipeline = FuncPipeline()
        pipeline.add(_stencil("src", "input_1", [(0, 0)]), name="src")
        pipeline.add(hist, input_name="src_buf", name="hist")
        for engine in backend_names():
            with pytest.raises(PipelineLoweringError, match="rank 1"):
                pipeline.realize(image, engine=engine)
        with pytest.raises(PipelineLoweringError, match="rank 1"):
            PipelineServer(pipeline, frame_shape=image.shape)

    def test_reduction_output_read_through_ghost_ring(self, image):
        """A padded default stage after a reduction reads a ring-wrapped
        copy of the accumulator (the scatter itself addresses the frame)."""
        pipeline, _ = _hist_pipeline(image)
        blur = _stencil("b", "hist_buf", [(0, 1), (1, 1), (2, 1)])
        pipeline.add(blur, input_name="hist_buf", pad=1, name="b")
        lowered = pipeline.lower(image.shape)
        assert "hist.acc#1" in lowered.describe()
        oracle = pipeline.realize_interp(image)
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)

    def test_compute_at_into_reduction_consumer_demotes(self, image):
        pipeline, oracle = _hist_pipeline(image)
        pipeline.stages[0].func.compute_at("hist", "x_1")
        lowered = lower_pipeline(pipeline, image.shape)
        assert lowered.decisions[0].level == "root"
        assert "reduction stage" in lowered.decisions[0].demoted_reason
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(image, engine=engine), oracle)


class TestLoweringMemo:
    def test_concurrent_first_frames_share_one_lowering(self, image):
        """Requests racing on a fresh pipeline (``realize_batch``, a server
        without ``frame_shape``) lower it once and share that nest."""
        import sys
        import threading

        pipeline = _two_stage(schedule="none")
        barrier = threading.Barrier(8)
        lowered, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    lowered.append(pipeline.lower(image.shape))
            except Exception as exc:          # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(lowered) == 8 * 25
        assert len({id(nest) for nest in lowered}) == 1

    @pytest.mark.parametrize("engine", ["compiled", "native"])
    def test_warm_calls_make_no_kernel_lookup(self, image, engine):
        """A warm ``realize`` or ``FuncPipeline.realize`` finds its nest by
        identity, and the nest's nodes hold their kernels."""
        from repro.halide import kernel_cache_stats

        func = _stencil("f", "input_1", [(0, 1), (1, 1), (2, 1)]).tile(16, 8)
        padded = np.pad(image, 1, mode="edge")
        pipeline = _two_stage(schedule="none")
        realize(func, (WIDTH, HEIGHT), {"input_1": padded}, engine=engine)
        pipeline.realize(image, engine=engine)
        lookups = kernel_cache_stats["hits"] + kernel_cache_stats["misses"]
        for _ in range(4):
            realize(func, (WIDTH, HEIGHT), {"input_1": padded}, engine=engine)
            pipeline.realize(image, engine=engine)
        assert kernel_cache_stats["hits"] + kernel_cache_stats["misses"] \
            == lookups

    @pytest.mark.parametrize("engine", ["interp", "compiled", "native"])
    def test_define_after_realize_changes_the_next_output(self, image,
                                                          engine):
        func = _stencil("f", "input_1", [(0, 1), (1, 1), (2, 1)])
        padded = np.pad(image, 1, mode="edge")
        shape = (WIDTH, HEIGHT)
        before = realize(func, shape, {"input_1": padded}, engine=engine)
        func.define(_stencil("g", "input_1", [(1, 0), (1, 2)]).value)
        after = realize(func, shape, {"input_1": padded}, engine=engine)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(
            after, realize_interp(func, shape, {"input_1": padded}))

        pipeline = _two_stage(schedule="none")
        before = pipeline.realize(image, engine=engine)
        by = pipeline.stages[1].func
        by.define(_stencil("by", "bx_buf", [(0, 1), (2, 1)]).value)
        after = pipeline.realize(image, engine=engine)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, pipeline.realize_interp(image))

    def test_schedule_change_relowers_and_equal_copy_reuses(self, image,
                                                           oracle):
        from dataclasses import replace

        pipeline = _two_stage(schedule="none")
        untiled = pipeline.lower(image.shape)
        by = pipeline.stages[1].func
        by.tile(16, 8)
        tiled = pipeline.lower(image.shape)
        assert tiled is not untiled
        # A warm start installs an equal copy of a schedule: same lowering.
        by.schedule = replace(by.schedule)
        assert pipeline.lower(image.shape) is tiled
        by.vectorize(4)
        assert pipeline.lower(image.shape) is not tiled
        np.testing.assert_array_equal(pipeline.realize(image), oracle)


class TestParallelLoweredLoops:
    def test_parallel_tiles_bit_identical_and_tallied(self, image, oracle):
        from repro.halide import configure_pool, execution_stats, \
            reset_execution_stats

        configure_pool(4)
        try:
            pipeline = _two_stage(tile=(16, 8))
            pipeline.stages[1].func.parallel()
            lowered = pipeline.lower(image.shape)
            outer = [s for s in lowered.stmt.walk() if isinstance(s, For)][0]
            assert outer.kind == "parallel"
            reset_execution_stats()
            stats = {}
            out = pipeline.realize(image, engine="compiled", stats=stats)
            np.testing.assert_array_equal(out, oracle)
            assert execution_stats["parallel"] + execution_stats["serial"] > 0
        finally:
            configure_pool()


class TestBackendInterface:
    def test_registry_names_match_engines(self):
        from repro.halide import ENGINES

        assert set(backend_names()) == set(ENGINES)
        for name in backend_names():
            assert get_backend(name).name == name

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_backend("llvm")

    def test_realize_routes_through_backends(self, image):
        func = _stencil("f", "input_1", [(0, 1), (1, 1), (2, 1)])
        padded = np.pad(image, 1, mode="edge")
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": padded})
        for name in backend_names():
            np.testing.assert_array_equal(
                realize(func, (WIDTH, HEIGHT), {"input_1": padded},
                        engine=name), oracle)

    def test_region_evaluation_matches_between_backends(self, image):
        func = _stencil("f", "input_1", [(0, 0), (2, 2)])
        origin, extent = (5, 7), (11, 13)
        blocks = {}
        for name in backend_names():
            evaluate, _reduce = get_backend(name).kernels(func)
            blocks[name] = evaluate(
                origin, extent, {"input_1": np.pad(image, 2, "edge")}, {}, None)
        np.testing.assert_array_equal(blocks["interp"], blocks["compiled"])
        assert blocks["interp"].shape == extent


class TestScheduleDescribe:
    def test_describe_reports_compute_levels(self):
        root = Schedule(compute="root")
        assert "compute_root" in root.describe()
        at = Schedule(compute="at", compute_at=("by", "x_1"))
        assert "compute_at(by,x_1)" in at.describe()
        assert "compute_inline" not in at.describe()
        default = Schedule()
        assert "compute_inline" in default.describe()

    def test_func_compute_helpers(self):
        bx = _stencil("bx", "input_1", [(0, 0)])
        by = _stencil("by", "bx_buf", [(0, 0)])
        bx.compute_at(by, Var("x_1"))
        assert bx.schedule.compute == "at"
        assert bx.schedule.compute_at == ("by", "x_1")
        bx.compute_root()
        assert bx.schedule.compute == "root"
        assert bx.schedule.compute_at is None
