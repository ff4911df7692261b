"""Reduction (RDom) stages in the lowered loop-nest IR.

The contract under test: a reduction stage lowers to an init ``Store`` plus
``ReduceLoop`` update sweeps — two-phase (parallel partial accumulators +
deterministic serial merge) for associative accumulations scheduled
``parallel``, one serialized whole-domain sweep otherwise — and every
lowered execution is bit-identical to ``FuncPipeline.realize_interp``, the
schedule-free stage-by-stage oracle, on every backend, for every schedule
drawn.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.halide import (
    Func,
    FuncPipeline,
    RDom,
    Var,
    backend_names,
    configure_pool,
    get_backend,
)
from repro.ir import (
    AccumMerge,
    Allocate,
    BinOp,
    BufferAccess,
    Cast,
    Const,
    For,
    Op,
    ReduceLoop,
    Store,
    UINT8,
    UINT16,
    UINT32,
    Var as IRVar,
)

WIDTH, HEIGHT = 53, 37


@pytest.fixture(autouse=True)
def pool():
    configure_pool(4)
    yield
    configure_pool()


@pytest.fixture()
def image():
    return np.random.default_rng(3).integers(
        0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)


def _pointwise(name, inp):
    x, y = Var("x_0"), Var("x_1")
    expr = Cast(UINT8, BinOp(Op.ADD,
                             Cast(UINT32, BufferAccess(inp, [x, y], UINT8)),
                             Const(3, UINT32), UINT32))
    return Func(name, [x, y], dtype=UINT8).define(expr)


def _reduction_stage(inp, kind="count", dtype=UINT32):
    """A rank-preserving reduction over ``inp``: bins modulo the frame dims.

    ``kind`` selects the update: ``count`` (+1 per hit), ``sum`` (+pixel
    value), or ``assign`` (scatter-assign, non-associative).
    """
    x, y = Var("x_0"), Var("x_1")
    func = Func("red", [x, y], dtype=dtype).define(Const(0, dtype))
    rdom = RDom("r_0", source=inp, dimensions=2)
    value = BufferAccess(inp, [IRVar("r_0"), IRVar("r_1")], UINT8)
    indices = [BinOp(Op.MOD, value, Const(WIDTH, UINT32), UINT32),
               BinOp(Op.MOD, value, Const(HEIGHT, UINT32), UINT32)]
    if kind == "count":
        update = BinOp(Op.ADD, BufferAccess("red", indices, dtype),
                       Const(1, dtype))
    elif kind == "sum":
        update = BinOp(Op.ADD, BufferAccess("red", indices, dtype),
                       Cast(dtype, value))
    else:                                  # assign: last write wins
        update = Cast(dtype, value)
    func.update(rdom, indices, update)
    return func


def _build(kind="count", dtype=UINT32, strip=0, parallel=False,
           schedule=True):
    producer = _pointwise("p", "input_1")
    reduction = _reduction_stage("p_buf", kind=kind, dtype=dtype)
    pipeline = FuncPipeline()
    pipeline.add(producer, input_name="input_1", name="p")
    pipeline.add(reduction, input_name="p_buf", name="red")
    if schedule:
        producer.compute_root()
        reduction.compute_root()
    if strip:
        reduction.schedule.tile_y = strip
    if parallel:
        reduction.parallel()
    return pipeline


class TestLoweredStructure:
    def test_serial_lowering_has_init_store_and_whole_domain_sweep(self, image):
        lowered = _build().lower(image.shape)
        sweeps = [n for n in lowered.stmt.walk() if isinstance(n, ReduceLoop)]
        assert len(sweeps) == 1
        assert sweeps[0].source_extent == image.shape
        assert sweeps[0].target_index is None
        assert not any(isinstance(n, AccumMerge) for n in lowered.stmt.walk())
        assert "serial whole-domain sweep" in lowered.decisions[1].describe()

    def test_parallel_lowering_is_two_phase(self, image):
        lowered = _build(strip=8, parallel=True).lower(image.shape)
        sweeps = [n for n in lowered.stmt.walk() if isinstance(n, ReduceLoop)]
        merges = [n for n in lowered.stmt.walk() if isinstance(n, AccumMerge)]
        allocs = [n for n in lowered.stmt.walk() if isinstance(n, Allocate)
                  and n.fill is not None]
        assert len(sweeps) == 1 and sweeps[0].target_index is not None
        assert sweeps[0].associative
        assert len(merges) == 1
        strips = -(-HEIGHT // 8)
        (partials,) = allocs
        assert partials.extents == (strips,) + image.shape
        fill_loops = [n for n in lowered.stmt.walk() if isinstance(n, For)
                      and n.kind == "parallel"]
        assert any(loop.extent == strips for loop in fill_loops)
        assert "two-phase" in lowered.decisions[1].describe()

    def test_non_associative_update_stays_serial(self, image):
        lowered = _build(kind="assign", parallel=True,
                         strip=8).lower(image.shape)
        sweeps = [n for n in lowered.stmt.walk() if isinstance(n, ReduceLoop)]
        assert len(sweeps) == 1 and not sweeps[0].associative
        assert sweeps[0].target_index is None
        assert "non-associative" in lowered.decisions[1].describe()

    def test_pipeline_server_serves_with_zero_per_request_compiles(self, image):
        from repro.halide import PipelineServer, clear_kernel_cache, \
            kernel_cache_stats

        pipeline = _build(strip=8, parallel=True)
        expected = pipeline.realize(image)
        clear_kernel_cache()
        with PipelineServer(pipeline, frame_shape=image.shape) as server:
            warm_misses = kernel_cache_stats["misses"]
            assert warm_misses >= 2          # store kernels + update sweep
            futures = [server.submit(image=image) for _ in range(4)]
            outputs = [future.result()[0] for future in futures]
        assert kernel_cache_stats["misses"] == warm_misses
        for output in outputs:
            np.testing.assert_array_equal(output, expected)


class TestBitIdentity:
    @pytest.mark.parametrize("kind,dtype", [("count", UINT32),
                                            ("sum", UINT32),
                                            ("sum", UINT16),
                                            ("assign", UINT32)])
    @pytest.mark.parametrize("strip,parallel", [(0, False), (8, False),
                                                (8, True), (16, True),
                                                (64, True)])
    def test_lowered_matches_legacy_oracle(self, image, kind, dtype, strip,
                                           parallel):
        oracle = _build(kind=kind, dtype=dtype,
                        schedule=False).realize_interp(image)
        pipeline = _build(kind=kind, dtype=dtype, strip=strip,
                          parallel=parallel)
        for engine in backend_names():
            out = pipeline.realize(image, engine=engine)
            np.testing.assert_array_equal(out, oracle)

    def test_uint16_wraparound_is_preserved_across_strips(self):
        """Partial sums must wrap exactly like the serial sweep: a uint16
        accumulator overflows within one frame of max-value pixels."""
        frame = np.full((64, 64), 255, dtype=np.uint8)
        oracle = _build(kind="sum", dtype=UINT16,
                        schedule=False).realize_interp(frame)
        pipeline = _build(kind="sum", dtype=UINT16, strip=8, parallel=True)
        for engine in backend_names():
            np.testing.assert_array_equal(
                pipeline.realize(frame, engine=engine), oracle)

    def test_backend_reduce_region_primitive_agrees(self, image):
        func = _reduction_stage("input_1")
        outs = {}
        # The NumPy engines' sweep primitive (native runs whole nests as C).
        for name in ("interp", "compiled"):
            out = np.zeros(image.shape, dtype=np.uint32)
            _evaluate, reduce = get_backend(name).kernels(func)
            reduce(out, (0, 0), (20, WIDTH), {"input_1": image}, {})
            reduce(out, (20, 0), (HEIGHT - 20, WIDTH), {"input_1": image}, {})
            outs[name] = out
        np.testing.assert_array_equal(outs["interp"], outs["compiled"])


class TestRandomReductionPipelines:
    """Hypothesis differential: random reduction pipelines x schedules."""

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(["count", "sum", "assign"]),
           dtype=st.sampled_from([UINT16, UINT32]),
           strip=st.sampled_from([0, 3, 8, 16, 40, 64]),
           parallel=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_random_schedules_match_oracle(self, kind, dtype, strip,
                                           parallel, seed):
        frame = np.random.default_rng(seed).integers(
            0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
        oracle = _build(kind=kind, dtype=dtype,
                        schedule=False).realize_interp(frame)
        pipeline = _build(kind=kind, dtype=dtype, strip=strip,
                          parallel=parallel)
        for engine in backend_names():
            out = pipeline.realize(frame, engine=engine)
            np.testing.assert_array_equal(out, oracle)


class TestAutotuneReductions:
    def test_autotune_samples_reduction_schedules(self, image):
        from repro.halide import autotune

        func = _reduction_stage("input_1")
        result = autotune(func, tuple(reversed(image.shape)),
                          {"input_1": image}, iterations=6, seed=1,
                          top_k=None)
        # Deduped candidates, baseline first; top_k=None times them all.
        assert 2 <= result.evaluations <= 7
        assert result.evaluations == len(result.history)
        # Candidates draw strips (tile_y) but never pure tiles (tile_x).
        assert all(schedule.tile_x == 0
                   for schedule, _ in result.history[1:])
        assert any(schedule.tile_y > 0 for schedule, _ in result.history[1:])
        assert func.schedule == result.best_schedule
