"""Batched realization service: correctness, stats, and cache concurrency."""

import threading

import numpy as np
import pytest

from repro.halide import (
    Func,
    FuncPipeline,
    PipelineServer,
    Var,
    clear_kernel_cache,
    configure_pool,
    kernel_cache_stats,
    realize,
    realize_batch,
)
from repro.halide.parallel import submit_task
from repro.ir import BinOp, BufferAccess, Cast, Const, Op, UINT8, UINT32


def invert_func() -> Func:
    x, y = Var("x_0"), Var("x_1")
    expr = Cast(UINT8, BinOp(Op.SUB, Const(255, UINT32),
                             Cast(UINT32, BufferAccess("input_1", [x, y], UINT8))))
    return Func("invert", [x, y], dtype=UINT8).define(expr)


def blur_func() -> Func:
    x, y = Var("x_0"), Var("x_1")
    expr = Cast(UINT8, BinOp(Op.SHR, BinOp(
        Op.ADD,
        Cast(UINT32, BufferAccess("input_1", [x, y], UINT8)),
        Cast(UINT32, BufferAccess("input_1", [BinOp(Op.ADD, x, Const(2)),
                                              BinOp(Op.ADD, y, Const(2))], UINT8)),
        UINT32), Const(1, UINT32)))
    return Func("blur", [x, y], dtype=UINT8).define(expr)


@pytest.fixture(autouse=True)
def pool():
    configure_pool(4)
    yield
    configure_pool()


def _frames(count: int, height: int = 36, width: int = 52) -> list:
    rng = np.random.default_rng(17)
    return [rng.integers(0, 256, size=(height, width), dtype=np.uint8)
            for _ in range(count)]


class TestRealizeBatch:
    def test_func_batch_matches_serial_loop(self):
        func = blur_func()
        frames = _frames(6)
        requests = [{"shape": (50, 34), "buffers": {"input_1": frame}}
                    for frame in frames]
        batch = realize_batch(func, requests)
        assert len(batch.outputs) == len(frames)
        for frame, output in zip(frames, batch.outputs):
            expected = realize(func, (50, 34), {"input_1": frame})
            np.testing.assert_array_equal(output, expected)

    def test_pipeline_batch_matches_serial_loop(self):
        pipeline = FuncPipeline().add(invert_func()).add(blur_func(), pad=1)
        frames = _frames(5)
        batch = pipeline.realize_batch(frames)
        for frame, output in zip(frames, batch.outputs):
            np.testing.assert_array_equal(output, pipeline.realize(frame))

    def test_batch_reports_per_request_timings(self):
        pipeline = FuncPipeline().add(invert_func())
        frames = _frames(4)
        batch = realize_batch(pipeline, frames)      # bare arrays accepted
        assert len(batch.request_seconds) == 4
        assert all(seconds >= 0 for seconds in batch.request_seconds)
        assert batch.wall_seconds > 0
        assert batch.frames_per_second > 0

    def test_bad_target_rejected(self):
        with pytest.raises(TypeError):
            realize_batch(object(), [])


class TestPipelineServer:
    def test_submit_and_stats(self):
        pipeline = FuncPipeline().add(invert_func())
        frames = _frames(6)
        with PipelineServer(pipeline, max_pending=2) as server:
            futures = [server.submit(image=frame) for frame in frames]
            outputs = [future.result()[0] for future in futures]
            stats = server.stats()
        for frame, output in zip(frames, outputs):
            np.testing.assert_array_equal(output, pipeline.realize(frame))
        assert stats["submitted"] == 6
        assert stats["completed"] == 6
        assert stats["failed"] == 0
        assert stats["max_pending"] == 2
        assert stats["mean_request_seconds"] >= 0

    def test_submit_after_close_raises(self):
        server = PipelineServer(FuncPipeline().add(invert_func()))
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(image=_frames(1)[0])

    def test_request_validation(self):
        with PipelineServer(FuncPipeline().add(invert_func())) as server:
            with pytest.raises(ValueError):
                server.submit(shape=(4, 4), buffers={})
        with PipelineServer(blur_func()) as server:
            with pytest.raises(ValueError):
                server.submit(image=_frames(1)[0])
        with pytest.raises(ValueError):
            PipelineServer(blur_func(), max_pending=0)

    def test_failed_requests_are_counted(self):
        func = blur_func()
        with PipelineServer(func) as server:
            future = server.submit(shape=(50, 34), buffers={})  # missing input
            with pytest.raises(Exception):
                future.result()
            stats = server.stats()
        assert stats["failed"] == 1
        assert stats["completed"] == 0

    def test_nested_submit_from_workers_runs_inline(self):
        """Requests submitted from inside pool workers must not queue behind
        their parents: with max_pending=1 and every worker nesting a submit,
        queueing would deadlock the bounded pool; inline execution cannot."""
        pipeline = FuncPipeline().add(invert_func())
        frame = _frames(1)[0]
        expected = pipeline.realize(frame)
        with PipelineServer(pipeline, max_pending=1) as server:
            def nested():
                return server.submit(image=frame).result()[0]

            futures = [submit_task(nested) for _ in range(4)]
            outputs = [future.result(timeout=30) for future in futures]
            stats = server.stats()
        for output in outputs:
            np.testing.assert_array_equal(output, expected)
        assert stats["completed"] == 4

    def test_close_race_blocked_submit_raises(self):
        """Regression: a submit already blocked on the pending-slot
        semaphore must not slip past a concurrent close() — once its slot
        frees it re-checks the closed flag and raises."""
        import time

        server = PipelineServer(invert_func(), max_pending=1)
        gate = threading.Event()
        started = threading.Event()

        def slow_task():
            started.set()
            assert gate.wait(10)
            return np.zeros((2, 2), dtype=np.uint8)

        server._make_task = lambda **kw: slow_task
        first = server.submit(shape=(2, 2), buffers={})
        assert started.wait(10)

        outcome = {}

        def blocked_submit():
            try:
                server.submit(shape=(2, 2), buffers={})
                outcome["result"] = "admitted"
            except RuntimeError:
                outcome["result"] = "raised"

        racer = threading.Thread(target=blocked_submit)
        racer.start()
        time.sleep(0.2)          # let the racer block on the slot semaphore
        assert racer.is_alive()  # still waiting for the slot
        server.close()
        gate.set()               # first request finishes, slot frees
        racer.join(10)
        assert outcome["result"] == "raised"
        first.result(timeout=10)
        stats = server.stats()
        assert stats["submitted"] == 1 and stats["completed"] == 1

    def test_close_wait_drains_inflight_requests(self):
        server = PipelineServer(invert_func(), max_pending=2)
        gate = threading.Event()

        def slow_task():
            assert gate.wait(10)
            return np.zeros((2, 2), dtype=np.uint8)

        server._make_task = lambda **kw: slow_task
        futures = [server.submit(shape=(2, 2), buffers={}) for _ in range(2)]
        releaser = threading.Timer(0.1, gate.set)
        releaser.start()
        try:
            server.close(wait=True)
        finally:
            releaser.cancel()
        # close(wait=True) returned: every request has fully finished.
        assert all(future.done() for future in futures)
        assert server.stats()["completed"] == 2

    def test_warm_compile_pays_codegen_up_front(self):
        clear_kernel_cache()
        func = blur_func()
        PipelineServer(func).close()
        assert kernel_cache_stats["misses"] == 1
        realize(func, (50, 34), {"input_1": _frames(1)[0]})
        assert kernel_cache_stats["misses"] == 1
        assert kernel_cache_stats["hits"] == 1

    def test_frame_shape_pre_lowers_scheduled_pipelines(self):
        """With frame_shape, lowered store kernels compile at construction."""
        frames = _frames(3)
        first, second = invert_func(), invert_func()
        second.name = "invert2"
        pipeline = FuncPipeline()
        pipeline.add(first, input_name="input_1", name="inv1")
        pipeline.add(second, input_name="input_1", name="inv2")
        first.compute_root()
        second.compute_root()
        expected = [pipeline.realize(frame) for frame in frames]

        clear_kernel_cache()
        with PipelineServer(pipeline,
                            frame_shape=frames[0].shape) as server:
            warm_misses = kernel_cache_stats["misses"]
            assert warm_misses >= 2          # stage funcs + store kernels
            batch = server.realize_batch(frames)
        assert kernel_cache_stats["misses"] == warm_misses
        for output, reference in zip(batch.outputs, expected):
            np.testing.assert_array_equal(output, reference)


class TestCacheUnderConcurrentBatches:
    def test_many_threads_share_one_kernel(self):
        """Concurrent realize_batch callers compile the kernel exactly once."""
        clear_kernel_cache()
        func = blur_func()
        frames = _frames(4)
        requests = [{"shape": (50, 34), "buffers": {"input_1": frame}}
                    for frame in frames]
        expected = [realize(func, (50, 34), {"input_1": frame})
                    for frame in frames]
        threads = 4
        barrier = threading.Barrier(threads)
        failures = []

        def serve():
            try:
                barrier.wait()
                batch = realize_batch(func, requests)
                for output, reference in zip(batch.outputs, expected):
                    np.testing.assert_array_equal(output, reference)
            except Exception as exc:
                failures.append(exc)

        workers = [threading.Thread(target=serve) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not failures
        # Every other lookup — warm compiles and each racing first request's
        # nest — hit the one cached kernel; warm requests make none.
        assert kernel_cache_stats["misses"] == 1

class TestInterruptHandling:
    """Operator interrupts are not request failures (narrowed handlers)."""

    def test_keyboard_interrupt_propagates_uncounted_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")     # force the inline path
        server = PipelineServer(FuncPipeline().add(invert_func()))

        def interrupted(**kwargs):
            def task(engine=None):
                raise KeyboardInterrupt()
            return task

        monkeypatch.setattr(server, "_make_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            server.submit(image=_frames(1)[0])
        stats = server.stats()
        assert stats["failed"] == 0
        assert stats["completed"] == 0
        # The inflight count was still rebalanced: close(wait=True) returns.
        server.close(wait=True)

    def test_system_exit_propagates_uncounted_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        server = PipelineServer(FuncPipeline().add(invert_func()))
        monkeypatch.setattr(
            server, "_make_task",
            lambda **kw: lambda engine=None: (_ for _ in ()).throw(SystemExit(3)))
        with pytest.raises(SystemExit):
            server.submit(image=_frames(1)[0])
        assert server.stats()["failed"] == 0
        server.close(wait=True)


class TestBatchErrorCollection:
    """realize_batch collects every request before reporting (no fail-fast)."""

    def test_partial_batch_raises_one_summarizing_error(self):
        from repro.reliability import BatchError

        func = blur_func()
        frames = _frames(3)
        good = {"shape": (50, 34), "buffers": {"input_1": frames[0]}}
        bad = {"shape": (50, 34), "buffers": {}}          # missing input
        with PipelineServer(func) as server:
            with pytest.raises(BatchError, match=r"1/3 batch request"):
                server.realize_batch([good, bad,
                                      {"shape": (50, 34),
                                       "buffers": {"input_1": frames[2]}}])
            try:
                server.realize_batch([good, bad, good])
            except BatchError as error:
                batch = error.result
        # Every slot is present and aligned; the failures did not abandon
        # the requests submitted after them.
        assert len(batch.outputs) == 3
        assert batch.failed == 1
        assert batch.errors[0] is None and batch.errors[2] is None
        assert batch.errors[1] is not None
        assert batch.outputs[1] is None
        expected = realize(func, (50, 34), {"input_1": frames[0]})
        np.testing.assert_array_equal(batch.outputs[0], expected)
        np.testing.assert_array_equal(batch.outputs[2], expected)

    def test_submit_time_errors_are_collected_too(self):
        from repro.reliability import BatchError

        func = blur_func()
        frame = _frames(1)[0]
        good = {"shape": (50, 34), "buffers": {"input_1": frame}}
        with PipelineServer(func) as server:
            try:
                server.realize_batch([good, {"bogus_kwarg": 1}, good])
            except BatchError as error:
                batch = error.result
        assert batch.failed == 1
        assert isinstance(batch.errors[1], TypeError)
        assert batch.errors[0] is None and batch.errors[2] is None

    def test_clean_batch_has_empty_errors(self):
        func = blur_func()
        frames = _frames(2)
        requests = [{"shape": (50, 34), "buffers": {"input_1": f}}
                    for f in frames]
        batch = realize_batch(func, requests)
        assert batch.errors == [None, None]
        assert batch.failed == 0


class TestDeadlinesAndRetries:
    def test_deadline_met_returns_normally(self):
        func = blur_func()
        frame = _frames(1)[0]
        with PipelineServer(func) as server:
            future = server.submit(shape=(50, 34),
                                   buffers={"input_1": frame}, deadline=30.0)
            output, seconds = future.result(timeout=30)
        expected = realize(func, (50, 34), {"input_1": frame})
        np.testing.assert_array_equal(output, expected)
        assert server.stats()["deadline_exceeded"] == 0

    def test_stuck_request_resolves_at_the_deadline(self):
        """The wrapper future resolves with DeadlineExceeded even while the
        worker is still stuck — result() never hangs."""
        from repro.reliability import DeadlineExceeded

        release = threading.Event()
        server = PipelineServer(FuncPipeline().add(invert_func()))
        try:
            server._make_task = \
                lambda **kw: lambda engine=None: release.wait(10) and None
            future = server.submit(image=_frames(1)[0], deadline=0.1)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=5)
            assert server.stats()["deadline_exceeded"] == 1
        finally:
            release.set()
            server.close(wait=True)

    def test_transient_failures_retry_then_succeed(self):
        from repro.reliability import TransientExecutionError

        func = blur_func()
        frame = _frames(1)[0]
        expected = realize(func, (50, 34), {"input_1": frame})
        attempts = []
        with PipelineServer(func) as server:
            real_factory = server._make_task

            def flaky_factory(**kwargs):
                real_task = real_factory(**kwargs)

                def task(engine=None):
                    attempts.append(1)
                    if len(attempts) < 3:
                        raise TransientExecutionError("worker evicted")
                    return real_task(engine=engine)
                return task

            server._make_task = flaky_factory
            future = server.submit(shape=(50, 34),
                                   buffers={"input_1": frame}, retries=2)
            output, _ = future.result(timeout=30)
        np.testing.assert_array_equal(output, expected)
        assert len(attempts) == 3
        assert server.stats()["retries"] == 2
        assert server.stats()["failed"] == 0
