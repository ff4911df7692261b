"""Tests for the autotuner and pipeline fusion components of mini-Halide."""

import numpy as np
import pytest

from repro.halide import (FuncPipeline, FusedPipeline, Func, Schedule, Var,
                          autotune, autotune_pipeline, configure_pool,
                          execution_stats, realize, reset_execution_stats)
from repro.ir import BinOp, BufferAccess, Cast, Const, Op, UINT8, UINT32


def blur_func():
    x, y = Var("x_0"), Var("x_1")
    expr = Cast(UINT8, BinOp(Op.SHR, BinOp(
        Op.ADD,
        BinOp(Op.ADD,
              Cast(UINT32, BufferAccess("input_1", [x, BinOp(Op.ADD, y, Const(1))], UINT8)),
              Cast(UINT32, BufferAccess("input_1", [BinOp(Op.ADD, x, Const(1)),
                                                    BinOp(Op.ADD, y, Const(1))], UINT8)),
              UINT32),
        Cast(UINT32, BufferAccess("input_1", [BinOp(Op.ADD, x, Const(2)),
                                              BinOp(Op.ADD, y, Const(1))], UINT8)),
        UINT32), Const(2, UINT32)))
    return Func("blur1d", [x, y], dtype=UINT8).define(expr)


class TestAutotune:
    def test_autotune_returns_best_schedule(self):
        rng = np.random.default_rng(0)
        padded = rng.integers(0, 256, size=(34, 66), dtype=np.uint8)
        func = blur_func()
        result = autotune(func, (64, 32), {"input_1": padded}, iterations=4, seed=1)
        # The cost model times the baseline plus at most top_k sampled
        # candidates (deduped), never the whole sampled set.
        assert 1 <= result.evaluations <= 6
        assert result.evaluations == len(result.history)
        # The baseline (default schedule) is always timed first.
        assert result.history[0][0].describe() == Schedule().describe()
        # The full deduped candidate set was ranked analytically.
        assert len(result.ranked) >= result.evaluations
        assert result.best_time > 0
        assert func.schedule is result.best_schedule
        assert result.best_time == min(t for _, t in result.history)

    def test_autotune_does_not_change_results(self):
        rng = np.random.default_rng(1)
        padded = rng.integers(0, 256, size=(18, 34), dtype=np.uint8)
        func = blur_func()
        before = realize(func, (32, 16), {"input_1": padded})
        autotune(func, (32, 16), {"input_1": padded}, iterations=3, seed=2)
        after = realize(func, (32, 16), {"input_1": padded})
        np.testing.assert_array_equal(before, after)

    def test_parallel_candidates_are_tiled_and_honest(self):
        """Sampled parallel schedules carry tiles (so the engine can honour
        them) and describe() never advertises parallelism that cannot run."""
        configure_pool(4)
        try:
            rng = np.random.default_rng(4)
            padded = rng.integers(0, 256, size=(34, 66), dtype=np.uint8)
            func = blur_func()
            reset_execution_stats()
            result = autotune(func, (64, 32), {"input_1": padded},
                              iterations=8, seed=5)
            parallel_candidates = [schedule for schedule, _ in result.history
                                   if schedule.parallel]
            assert parallel_candidates, "no parallel candidate sampled"
            for schedule in parallel_candidates:
                assert schedule.tile_x > 0 and schedule.tile_y > 0
                assert "parallel" in schedule.describe()
                assert "serial" not in schedule.describe()
            # Every parallel-requested realization was really routed through
            # the tile executor and tallied (64x32 is below the fan-out
            # threshold, so the honest record is serial execution).
            assert execution_stats["serial"] + execution_stats["parallel"] > 0
        finally:
            configure_pool()

    def test_single_worker_pool_proposes_no_parallel_candidates(self):
        """Candidate sampling is filtered against the live pool width: a
        1-worker pool must never propose a parallel schedule (which
        ``parallel_unsupported_reason`` would only reject at realize time),
        nor force tiles onto the draw to back a parallelism that cannot
        run."""
        from repro.halide.autotune import _sample_schedule

        configure_pool(1)
        try:
            import random

            samples = [_sample_schedule(random.Random(seed))
                       for seed in range(32)]
            assert not any(s.parallel for s in samples)
            # Without the pool filter, roughly half the draws would have
            # tiles forced on; untiled draws must survive untouched.
            assert any(s.tile_x == 0 and s.tile_y == 0 for s in samples)

            rng = np.random.default_rng(6)
            padded = rng.integers(0, 256, size=(34, 66), dtype=np.uint8)
            func = blur_func()
            result = autotune(func, (64, 32), {"input_1": padded},
                              iterations=12, seed=7, top_k=None)
            assert all(not schedule.parallel
                       for schedule, _ in result.history)
        finally:
            configure_pool()


class TestAutotunePipeline:
    def _pipeline(self):
        bx = blur_func()
        by = Func("by", [Var("x_0"), Var("x_1")], dtype=UINT8)
        x, y = Var("x_0"), Var("x_1")
        taps = None
        for dy in range(3):
            tap = Cast(UINT32, BufferAccess(
                "bx_buf", [BinOp(Op.ADD, x, Const(1)),
                           y if dy == 0 else BinOp(Op.ADD, y, Const(dy))],
                UINT8))
            taps = tap if taps is None else BinOp(Op.ADD, taps, tap, UINT32)
        by.define(Cast(UINT8, BinOp(Op.SHR, taps, Const(1, UINT32), UINT32)))
        pipeline = FuncPipeline()
        pipeline.add(bx, input_name="input_1", pad=1, name="bx")
        pipeline.add(by, input_name="bx_buf", pad=1, name="by")
        return pipeline

    def test_search_space_includes_compute_at(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
        pipeline = self._pipeline()
        result = autotune_pipeline(pipeline, image, iterations=12, seed=2)
        # Baseline + at most top_k survivors are timed; the rest of the
        # sampled set is ranked analytically only.
        assert 1 <= result.evaluations <= 6
        assert result.evaluations == len(result.history)
        assert result.best_time == min(t for _, t in result.history)
        described = [" ".join(score.describe) for score in result.ranked]
        assert any("compute_at(by,x_1)" in d for d in described), \
            "no compute_at candidate sampled"
        assert any("compute_root" in d for d in described)
        # The pipeline carries the winner.
        assert [s.describe() for s in result.best_schedules] == \
            [stage.func.schedule.describe() for stage in pipeline.stages]

    def test_autotune_pipeline_does_not_change_results(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(40, 56), dtype=np.uint8)
        pipeline = self._pipeline()
        before = pipeline.realize_interp(image)
        autotune_pipeline(pipeline, image, iterations=6, seed=9)
        after = pipeline.realize(image)
        np.testing.assert_array_equal(before, after)


class TestFusedPipeline:
    def test_fused_equals_unfused_for_pointwise_stages(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(200, 64), dtype=np.uint8)
        pipeline = FusedPipeline()
        pipeline.add("invert", lambda img: (255 - img.astype(np.int32)).astype(np.uint8))
        pipeline.add("dim", lambda img: (img // 2).astype(np.uint8))
        np.testing.assert_array_equal(pipeline.run_fused(image, tile_rows=32),
                                      pipeline.run_unfused(image))

    def test_small_images_bypass_tiling(self):
        image = np.arange(64, dtype=np.uint8).reshape(8, 8)
        pipeline = FusedPipeline().add("id", lambda img: img)
        np.testing.assert_array_equal(pipeline.run_fused(image, tile_rows=32), image)

    def test_stage_order_preserved(self):
        image = np.full((4, 4), 10, dtype=np.uint8)
        pipeline = FusedPipeline()
        pipeline.add("plus1", lambda img: img + 1)
        pipeline.add("times2", lambda img: img * 2)
        assert pipeline.run_unfused(image)[0, 0] == 22
