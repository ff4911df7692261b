"""Chaos differential suite: faults in, exact frames or typed errors out.

The contract under any fault schedule: every request either returns a frame
bit-identical to the interpreter oracle, or raises a typed
``repro.reliability`` error (within its deadline) — never garbage, never a
hang.  Schedules come from three sources: targeted single-site scenarios,
a deterministic seed matrix (``REPRO_CHAOS_SEED`` rotates it in CI), and
hypothesis-generated mixes of sites/probabilities/seeds.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.halide import (
    Func,
    FuncPipeline,
    PipelineServer,
    RDom,
    Schedule,
    Var,
    clear_kernel_cache,
    configure_pool,
    execution_stats,
    realize,
    realize_interp,
    reset_execution_stats,
)
from repro.halide import parallel as parallel_mod
from repro.halide.realize import RealizationError
from repro.ir import BinOp, BufferAccess, Cast, Const, Op, UINT8, UINT32
from repro.reliability import (
    BatchError,
    DeadlineExceeded,
    FaultPlan,
    ReliabilityError,
    inject,
)

#: CI's chaos job rotates this through a small matrix; every value must hold.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Sites exercised by the serving-path contract tests.  ``compile.kernel``
#: is covered separately (it fires during warm compile, outside requests).
SERVING_SITES = ("kernel.execute", "tile.execute", "serve.latency", "pool.die")

WIDTH, HEIGHT = 48, 30


def blur_func() -> Func:
    x, y = Var("x_0"), Var("x_1")
    expr = Cast(UINT8, BinOp(Op.SHR, BinOp(
        Op.ADD,
        Cast(UINT32, BufferAccess("input_1", [x, y], UINT8)),
        Cast(UINT32, BufferAccess("input_1", [BinOp(Op.ADD, x, Const(2)),
                                              BinOp(Op.ADD, y, Const(2))],
                                  UINT8)),
        UINT32), Const(1, UINT32)))
    return Func("blur", [x, y], dtype=UINT8).define(expr)


def tiled_blur() -> Func:
    return blur_func().tile(16, 8).parallel()


def _frames(count: int, seed: int = 17) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(HEIGHT + 2, WIDTH + 2), dtype=np.uint8)
            for _ in range(count)]


def _requests(frames) -> list:
    return [{"shape": (WIDTH, HEIGHT), "buffers": {"input_1": frame}}
            for frame in frames]


def _oracles(func, frames) -> list:
    return [realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
            for frame in frames]


@pytest.fixture(autouse=True, scope="module")
def chaos_pool():
    """A real multi-worker pool and a tiny fan-out threshold for small frames."""
    old_elems = parallel_mod.MIN_PARALLEL_ELEMS
    parallel_mod.MIN_PARALLEL_ELEMS = 1
    configure_pool(3)
    yield
    parallel_mod.MIN_PARALLEL_ELEMS = old_elems
    configure_pool()


def assert_contract(batch, oracles) -> None:
    """Every request: bit-identical frame, or a typed reliability error."""
    assert len(batch.outputs) == len(oracles)
    for output, error, oracle in zip(batch.outputs, batch.errors, oracles):
        if error is None:
            np.testing.assert_array_equal(output, oracle)
        else:
            assert isinstance(error, (ReliabilityError, RealizationError)), \
                f"untyped failure leaked to the caller: {error!r}"
            assert output is None


def run_chaos_batch(plan, frames, *, deadline=10.0, retries=2,
                    breaker_threshold=3):
    """One batch under ``plan``; returns the BatchResult (errors collected)."""
    func = tiled_blur()
    server = PipelineServer(func, max_pending=4,
                            breaker_threshold=breaker_threshold,
                            breaker_cooldown=0.05)
    try:
        with inject(plan):
            try:
                return server.realize_batch(_requests(frames),
                                            deadline=deadline,
                                            retries=retries), server
            except BatchError as error:
                return error.result, server
    finally:
        server.close(wait=True)


class TestTargetedScenarios:
    def test_tile_fault_is_retried_transparently(self):
        reset_execution_stats()
        func = tiled_blur()
        frame = _frames(1)[0]
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
        with inject("tile.execute:n=2", seed=CHAOS_SEED) as plan:
            out = realize(func, (WIDTH, HEIGHT), {"input_1": frame})
        np.testing.assert_array_equal(out, oracle)
        assert plan.fired["tile.execute"] == 2
        assert execution_stats["tile_retries"] >= 2

    def test_reduction_strip_fault_is_retried_with_partial_reset(self):
        reset_execution_stats()
        x = Var("x_0")
        hist = Func("hist", [x], dtype=UINT32).define(Const(0, UINT32))
        rdom = RDom("r_0", source="input_1", dimensions=2)
        index = BufferAccess("input_1", [Var("r_0"), Var("r_1")], UINT8)
        hist.update(rdom, [index], BinOp(
            Op.ADD, BufferAccess("hist", [index], UINT32), Const(1, UINT32)))
        hist.schedule = Schedule(tile_x=8, tile_y=8, parallel=True)
        frame = _frames(1)[0][:HEIGHT, :WIDTH]
        oracle = realize_interp(hist, (256,), {"input_1": frame})
        with inject("tile.execute:n=1", seed=CHAOS_SEED):
            out = realize(hist, (256,), {"input_1": frame})
        # A replayed strip must restart its private partial from zero —
        # double accumulation would show up as an off-by-a-strip histogram.
        np.testing.assert_array_equal(out, oracle)
        assert execution_stats["tile_retries"] >= 1

    @pytest.mark.parametrize("engine", ["compiled", "native"])
    def test_lowered_pipeline_tile_fault_is_retried(self, engine):
        # The shared executor retries a failed iteration of a parallel tile
        # loop; native runs its fan-out through the same retry (and without
        # a C toolchain degrades to the compiled executor).
        frame = _frames(1)[0][:HEIGHT, :WIDTH]
        oracle = FuncPipeline().add(blur_func(), pad=1).realize_interp(frame)
        pipeline = FuncPipeline().add(tiled_blur().compute_root(), pad=1)
        reset_execution_stats()
        with inject("tile.execute:n=1", seed=CHAOS_SEED) as plan:
            out = pipeline.realize(frame, engine=engine)
        np.testing.assert_array_equal(out, oracle)
        assert plan.fired["tile.execute"] == 1
        assert execution_stats["tile_retries"] >= 1

    def test_kernel_fault_degrades_to_the_interp_oracle(self):
        frames = _frames(2)
        batch, server = run_chaos_batch(
            FaultPlan.parse("kernel.execute:p=1", seed=CHAOS_SEED), frames,
            retries=0)
        assert_contract(batch, _oracles(tiled_blur(), frames))
        assert batch.failed == 0
        stats = server.stats()
        assert stats["degraded"] >= 1

    def test_tile_fault_degrades_to_the_interp_oracle(self):
        # Every compiled tile fails, its retry too; the interp re-run walks
        # the same parallel tile loop but fires no fault site, so every
        # request still comes back as the exact frame.
        frames = _frames(2)
        batch, server = run_chaos_batch(
            FaultPlan.parse("tile.execute:p=1", seed=CHAOS_SEED), frames,
            retries=0)
        assert_contract(batch, _oracles(tiled_blur(), frames))
        assert batch.failed == 0
        assert server.stats()["degraded"] == len(frames)

    def test_pool_death_is_revived(self):
        reset_execution_stats()
        func = tiled_blur()
        frame = _frames(1)[0]
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
        with inject("pool.die:n=1"):
            out = realize(func, (WIDTH, HEIGHT), {"input_1": frame})
        np.testing.assert_array_equal(out, oracle)
        assert execution_stats["pool_revived"] >= 1

    def test_compile_fault_is_retried(self):
        frame = _frames(1)[0]
        func = tiled_blur()
        oracle = realize_interp(func, (WIDTH, HEIGHT), {"input_1": frame})
        server = PipelineServer(func)
        try:
            clear_kernel_cache()
            reset_execution_stats()
            with inject("compile.kernel:n=1"):
                future = server.submit(shape=(WIDTH, HEIGHT),
                                       buffers={"input_1": frame}, retries=1)
                out, _ = future.result(timeout=30)
        finally:
            server.close(wait=True)
        np.testing.assert_array_equal(out, oracle)
        # The kernel compiles at the nest's first Store, inside a parallel
        # tile: the tile retry absorbs the fault, or else the server does.
        assert execution_stats["tile_retries"] + server.stats()["retries"] >= 1

    def test_injected_latency_resolves_within_the_deadline(self):
        func = tiled_blur()
        frame = _frames(1)[0]
        server = PipelineServer(func)
        try:
            with inject("serve.latency:latency=5.0,p=1"):
                start = time.perf_counter()
                future = server.submit(shape=(WIDTH, HEIGHT),
                                       buffers={"input_1": frame},
                                       deadline=0.15)
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=30)
                elapsed = time.perf_counter() - start
        finally:
            server.close(wait=True)
        assert elapsed < 2.0, "deadline resolved late — effectively a hang"
        assert server.stats()["deadline_exceeded"] >= 1

    def test_breaker_trips_then_recovers(self):
        func = tiled_blur()
        frames = _frames(4, seed=23)
        oracle = _oracles(func, frames)
        server = PipelineServer(func, breaker_threshold=2,
                                breaker_cooldown=0.1)
        try:
            with inject("kernel.execute:n=2"):
                # Two compiled failures degrade (exactly) and trip the breaker.
                for index in range(2):
                    out, _ = server.submit(
                        shape=(WIDTH, HEIGHT),
                        buffers={"input_1": frames[index]}).result(timeout=30)
                    np.testing.assert_array_equal(out, oracle[index])
                stats = server.stats()
                assert stats["breaker_state"] == "open"
                assert stats["breaker_trips"] == 1
                assert stats["degraded"] == 2
                # While open, requests skip the compiled path but stay exact.
                out, _ = server.submit(
                    shape=(WIDTH, HEIGHT),
                    buffers={"input_1": frames[2]}).result(timeout=30)
                np.testing.assert_array_equal(out, oracle[2])
                assert server.stats()["degraded"] == 3
                # After cooldown the probe finds the fault gone and recloses.
                time.sleep(0.12)
                out, _ = server.submit(
                    shape=(WIDTH, HEIGHT),
                    buffers={"input_1": frames[3]}).result(timeout=30)
                np.testing.assert_array_equal(out, oracle[3])
                assert server.stats()["breaker_state"] == "closed"
        finally:
            server.close(wait=True)


class TestSeedMatrix:
    """The CI chaos job rotates REPRO_CHAOS_SEED; each seed must uphold
    the contract under a fixed mixed-site schedule."""

    SPEC = ("kernel.execute:p=0.4;tile.execute:p=0.3;"
            "serve.latency:p=0.5,latency=0.005;pool.die:p=0.2,n=1")

    @pytest.mark.parametrize("offset", range(4))
    def test_mixed_schedule_contract(self, offset):
        frames = _frames(3, seed=29 + offset)
        plan = FaultPlan.parse(self.SPEC, seed=CHAOS_SEED * 101 + offset)
        batch, _ = run_chaos_batch(plan, frames)
        assert_contract(batch, _oracles(tiled_blur(), frames))

    def test_same_seed_fires_the_same_schedule(self):
        frames = _frames(2)
        logs = []
        for _ in range(2):
            plan = FaultPlan.parse(self.SPEC, seed=CHAOS_SEED + 7)
            run_chaos_batch(plan, frames, retries=1)
            logs.append(sorted(plan.fired.items()))
        assert logs[0] == logs[1]


class TestHypothesisSchedules:
    @given(data=st.data())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_schedule_upholds_the_contract(self, data):
        sites = data.draw(st.lists(st.sampled_from(SERVING_SITES),
                                   unique=True, min_size=1, max_size=3))
        parts = []
        for site in sites:
            p = data.draw(st.floats(min_value=0.1, max_value=1.0))
            if site == "serve.latency":
                parts.append(f"{site}:p={p},latency=0.01")
            elif site == "pool.die":
                parts.append(f"{site}:p={p},n=1")
            else:
                n = data.draw(st.integers(min_value=1, max_value=4))
                parts.append(f"{site}:p={p},n={n}")
        seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
        frames = _frames(3, seed=seed % 1000)
        plan = FaultPlan.parse(";".join(parts), seed=seed)
        batch, _ = run_chaos_batch(plan, frames)
        assert_contract(batch, _oracles(tiled_blur(), frames))
