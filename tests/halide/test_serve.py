"""Batched realization service: correctness, stats, and cache concurrency."""

import contextvars
import sys
import threading
import time

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
from repro.halide import serve as serve_mod
from repro.halide.parallel import pool_size, submit_task
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
        # The compiled engine's kernel is the subject (the native engine
        # resolves no NumPy kernel on a frame it runs as C).
        clear_kernel_cache()
        func = blur_func()
        PipelineServer(func, engine="compiled").close()
        assert kernel_cache_stats["misses"] == 1
        realize(func, (50, 34), {"input_1": _frames(1)[0]}, engine="compiled")
        assert kernel_cache_stats["misses"] == 1
        assert kernel_cache_stats["hits"] == 1

    def test_native_server_builds_its_program_once(self, monkeypatch):
        """On native, a served Func's first request builds its C program;
        later requests generate none and still run as C."""
        from repro.halide.backends import native as native_mod
        from repro.halide.backends.native import native_stats, toolchain_path

        if toolchain_path() is None or native_mod.cffi is None:
            pytest.skip("no C toolchain / cffi: native degrades")
        func = blur_func()
        frames = _frames(3)
        expected = [realize(func, (50, 34), {"input_1": frame},
                            engine="interp") for frame in frames]
        with PipelineServer(func, engine="native") as server:
            first, _ = server.submit(shape=(50, 34),
                                     buffers={"input_1": frames[0]}).result()

            def generate(*_args, **_kwargs):
                raise AssertionError("a warm request generated C")

            monkeypatch.setattr(native_mod, "generate_nest", generate)
            before = native_stats()
            rest = [future.result()[0] for future in [
                server.submit(shape=(50, 34), buffers={"input_1": frame})
                for frame in frames[1:]]]
            after = native_stats()
        for output, reference in zip([first] + rest, expected):
            np.testing.assert_array_equal(output, reference)
        assert after["native_frames"] == before["native_frames"] + 2
        assert after["degraded"] == before["degraded"]

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

    def test_met_deadline_leaves_no_reference_cycle(self):
        """A finished request's futures and output are freed by reference
        counting, not at the next full collection: the deadline entry that
        waits in the expiry heap until its time holds none of them — for
        submitted requests and batch requests alike, failed batches
        included."""
        import gc
        import weakref

        from repro.reliability import BatchError

        func = blur_func()
        frame = _frames(1)[0]
        request = {"shape": (50, 34), "buffers": {"input_1": frame}}

        def all_freed(refs) -> bool:
            # a drain may still be retiring the last request
            until = time.monotonic() + 5
            while any(ref() is not None for ref in refs) \
                    and time.monotonic() < until:
                time.sleep(0.01)
            return all(ref() is None for ref in refs)

        with PipelineServer(func) as server:
            gc.disable()
            try:
                future = server.submit(**request, deadline=30.0)
                output, _ = future.result(timeout=30)
                freed = [weakref.ref(output)]
                del future, output
                assert all_freed(freed)
                batch = server.realize_batch([request] * 8, deadline=30.0)
                freed = [weakref.ref(output) for output in batch.outputs]
                del batch
                assert all_freed(freed)
                # A failed batch too: its errors' tracebacks hold no output.
                try:
                    server.realize_batch(
                        [request, {"shape": (50, 34), "buffers": {}}],
                        deadline=30.0)
                except BatchError as error:
                    freed = [weakref.ref(error.result.outputs[0])]
                    del error
                assert all_freed(freed)
            finally:
                gc.enable()

    def test_stuck_request_resolves_at_the_deadline(self):
        """The request's future resolves with DeadlineExceeded while the
        worker is still stuck — result() never hangs — and close(wait=True)
        returns once the request is released."""
        self._stuck_request_resolves_at_the_deadline()

    def test_stuck_request_on_the_only_worker_resolves_too(self):
        configure_pool(1)
        self._stuck_request_resolves_at_the_deadline()

    @staticmethod
    def _stuck_request_resolves_at_the_deadline():
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
            closer = threading.Thread(target=server.close,
                                      kwargs={"wait": True})
            closer.start()
            closer.join(0.2)
            assert closer.is_alive()        # the request is still running
        finally:
            release.set()
        closer.join(10)
        assert not closer.is_alive()
        assert server.stats()["completed"] == 1

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


def _zeros_task(**kwargs):
    """A ``_make_task`` stand-in: every request returns a 1×1 zero frame."""
    return lambda engine=None: np.zeros((1, 1), dtype=np.uint8)


class TestServerQueue:
    """One FIFO per server, drained by a few pool tasks."""

    def test_batch_runs_as_a_few_pool_tasks(self, monkeypatch):
        """A 32-request batch is handed to the pool as at most
        min(pool_size(), max_pending) drain tasks, not a task per request."""
        calls = []
        real_submit = serve_mod.submit_task
        monkeypatch.setattr(serve_mod, "submit_task",
                            lambda fn, *args: calls.append(fn)
                            or real_submit(fn, *args))
        func = blur_func()
        frames = _frames(32)
        requests = [{"shape": (50, 34), "buffers": {"input_1": frame}}
                    for frame in frames]
        expected = [realize(func, (50, 34), {"input_1": frame})
                    for frame in frames]
        for max_pending in (2, None):
            calls.clear()
            with PipelineServer(func, max_pending=max_pending) as server:
                batch = server.realize_batch(requests)
            assert 1 <= len(calls) <= min(pool_size(), server.max_pending)
            for output, reference in zip(batch.outputs, expected):
                np.testing.assert_array_equal(output, reference)

    def test_request_expiring_in_the_queue_never_runs(self):
        """A request whose deadline passes while it waits behind a stuck one
        never runs, gives its max_pending slot back at expiry, and counts
        once as failed and once as a deadline miss."""
        from repro.reliability import DeadlineExceeded

        configure_pool(1)
        release = threading.Event()
        started = threading.Event()
        ran = []
        server = PipelineServer(invert_func(), max_pending=2)

        def make_task(**kwargs):
            name = kwargs["shape"]

            def task(engine=None):
                ran.append(name)
                if name == "stuck":
                    started.set()
                    assert release.wait(10)
                return np.zeros((1, 1), dtype=np.uint8)
            return task

        server._make_task = make_task
        admitted = []
        try:
            stuck = server.submit(shape="stuck", buffers={})
            assert started.wait(10)
            queued = server.submit(shape="queued", buffers={}, deadline=0.1)
            with pytest.raises(DeadlineExceeded):
                queued.result(timeout=5)
            stats = server.stats()
            assert stats["failed"] == 1
            assert stats["deadline_exceeded"] == 1
            # Two slots: the stuck request holds one, the expired one gave
            # its own back, so this submit is admitted at once.
            submitter = threading.Thread(target=lambda: admitted.append(
                server.submit(shape="third", buffers={})), daemon=True)
            submitter.start()
            submitter.join(5)
            assert not submitter.is_alive()
        finally:
            release.set()
        stuck.result(timeout=10)
        admitted[0].result(timeout=10)
        server.close(wait=True)
        assert ran == ["stuck", "third"]
        stats = server.stats()
        assert (stats["submitted"], stats["completed"], stats["failed"],
                stats["deadline_exceeded"]) == (3, 2, 1, 1)

    def test_requests_run_in_their_submitters_context(self):
        """Each request sees the contextvars of the call that queued it,
        not those of whichever request started the drain running it."""
        configure_pool(1)
        tag = contextvars.ContextVar("request_tag", default=None)
        release = threading.Event()
        server = PipelineServer(invert_func())

        def make_task(**kwargs):
            def task(engine=None):
                if kwargs["shape"] == "hold":
                    assert release.wait(10)
                return tag.get()
            return task

        server._make_task = make_task
        with server:
            tag.set("first")
            first = server.submit(shape="hold", buffers={})
            tag.set("second")       # queued behind "first", on the same drain
            second = server.submit(shape="next", buffers={})
            release.set()
            assert first.result(timeout=10)[0] == "first"
            assert second.result(timeout=10)[0] == "second"
            tag.set("batch")
            batch = server.realize_batch([{"shape": "next"}] * 4)
        assert batch.outputs == ["batch"] * 4

    def test_many_submitters_on_one_worker_never_hang(self):
        """A request queued while the last drain exits starts a new drain:
        eight threads racing 200 submits each through a one-worker server
        see every future resolve (a lost wake-up would hang one).  One slot
        makes every submit race the drain that just freed it."""
        configure_pool(1)
        server = PipelineServer(invert_func(), max_pending=1)
        server._make_task = _zeros_task
        futures = [[] for _ in range(8)]

        def submitter(mine):
            for _ in range(200):
                mine.append(server.submit(shape=(1, 1), buffers={}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submitter, args=(mine,),
                                        daemon=True) for mine in futures]
            for thread in threads:
                thread.start()
            until = time.monotonic() + 30
            for thread in threads:
                thread.join(max(0.0, until - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
            for mine in futures:
                for future in mine:
                    future.result(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        server.close(wait=True)
        assert server.stats()["completed"] == 1600

    def test_tile_fan_out_does_not_wait_behind_a_batch(self, monkeypatch):
        """While a long batch keeps every worker busy, another thread's
        tile-parallel realize gets its tiles run before the batch ends: a
        drain hands its worker back when other pool work is waiting."""
        from repro.halide import (execution_stats, parallel, realize_interp,
                                  reset_execution_stats)

        monkeypatch.setattr(parallel, "MIN_PARALLEL_ELEMS", 1)
        configure_pool(2)
        done = []
        server = PipelineServer(invert_func(), max_pending=2)

        def make_task(**kwargs):
            def task(engine=None):
                time.sleep(0.005)
                done.append(1)
                return np.zeros((1, 1), dtype=np.uint8)
            return task

        server._make_task = make_task
        batch = threading.Thread(
            target=lambda: server.realize_batch([{}] * 200), daemon=True)
        batch.start()
        until = time.monotonic() + 10
        while len(done) < 4 and time.monotonic() < until:
            time.sleep(0.001)
        tiled = blur_func().tile(16, 8).parallel()
        frame = _frames(1)[0]
        reset_execution_stats()
        output = realize(tiled, (50, 34), {"input_1": frame},
                         engine="compiled")
        finished_first = len(done)
        batch.join(30)
        assert not batch.is_alive()
        assert execution_stats["tiles_parallel"] > 0
        # Behind the batch the tiles would wait for its last requests
        # (199 or 200 done); handed a worker, they wait for one each.
        assert finished_first < 100
        np.testing.assert_array_equal(
            output, realize_interp(tiled, (50, 34), {"input_1": frame}))
        server.close(wait=True)

    def test_a_drain_that_cannot_start_fails_its_requests(self, monkeypatch):
        """When the pool refuses a drain (interpreter shutdown), the queued
        requests fail with that error instead of waiting forever, and their
        slots and in-flight counts come back."""
        from repro.reliability import BatchError

        def refuse(fn, *args):
            raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(serve_mod, "submit_task", refuse)
        server = PipelineServer(invert_func(), max_pending=1)
        server._make_task = _zeros_task
        for _ in range(2):          # max_pending=1: the slot came back
            future = server.submit(shape=(1, 1), buffers={})
            with pytest.raises(RuntimeError, match="shutdown"):
                future.result(timeout=5)
        with pytest.raises(BatchError) as error:
            server.realize_batch([{}] * 3)
        assert all(isinstance(e, RuntimeError) for e in error.value.result.errors)
        server.close(wait=True)     # returns: nothing is left in flight
        stats = server.stats()
        assert (stats["submitted"], stats["failed"]) == (5, 5)

    def test_a_drain_that_cannot_start_leaves_the_queue_to_live_ones(
            self, monkeypatch):
        """When the second of two drains cannot start while the first one
        runs, the queue stays with the live drain: every request still runs,
        and close(wait=True) returns."""
        configure_pool(2)
        refused = threading.Event()
        calls = []
        real_submit = serve_mod.submit_task

        def submit_once(fn, *args):
            calls.append(fn)
            if len(calls) == 1:
                return real_submit(fn, *args)
            refused.set()
            raise RuntimeError("cannot schedule new futures after shutdown")

        def make_task(**kwargs):
            def task(engine=None):
                if kwargs["shape"] == "first":
                    assert refused.wait(10)
                    time.sleep(0.05)    # the refused start is handled now
                return np.zeros((1, 1), dtype=np.uint8)
            return task

        monkeypatch.setattr(serve_mod, "submit_task", submit_once)
        server = PipelineServer(invert_func(), max_pending=2)
        server._make_task = make_task
        batches = []
        runner = threading.Thread(target=lambda: batches.append(
            server.realize_batch([{"shape": "first"}]
                                 + [{"shape": "next"}] * 7)), daemon=True)
        runner.start()
        runner.join(10)
        assert refused.is_set()
        assert not runner.is_alive()
        assert batches[0].failed == 0 and len(batches[0].outputs) == 8
        closer = threading.Thread(target=server.close, kwargs={"wait": True},
                                  daemon=True)
        closer.start()
        closer.join(10)
        assert not closer.is_alive()

    def test_a_stuck_batch_raises_instead_of_hanging(self):
        """With the only drain stuck on an overrunning batch request, the
        requests queued behind it expire too, without running: the batch
        raises a BatchError of DeadlineExceeded errors within a few
        budgets."""
        from repro.reliability import BatchError, DeadlineExceeded

        configure_pool(1)
        release = threading.Event()
        ran = []

        def make_task(**kwargs):
            def task(engine=None):
                ran.append(kwargs["shape"])
                if kwargs["shape"] == "stuck":
                    assert release.wait(10)
                return np.zeros((1, 1), dtype=np.uint8)
            return task

        server = PipelineServer(invert_func())
        server._make_task = make_task
        began = time.monotonic()
        try:
            with pytest.raises(BatchError) as error:
                server.realize_batch([{"shape": "stuck"}]
                                     + [{"shape": "queued"}] * 2,
                                     deadline=0.1)
            elapsed = time.monotonic() - began
        finally:
            release.set()
        server.close(wait=True)
        assert elapsed < 2.0
        assert [type(e) for e in error.value.result.errors] \
            == [DeadlineExceeded] * 3
        assert ran == ["stuck"]
        stats = server.stats()
        assert (stats["completed"], stats["failed"],
                stats["deadline_exceeded"]) == (1, 2, 3)

    def test_a_batch_behind_stuck_pool_work_raises_instead_of_hanging(self):
        """The bound holds when no drain of the server can start at all: with
        the only worker stuck on another server's request, a batch's
        requests expire in the queue."""
        from repro.reliability import BatchError, DeadlineExceeded

        configure_pool(1)
        release = threading.Event()
        started = threading.Event()

        def stuck_task(**kwargs):
            def task(engine=None):
                started.set()
                assert release.wait(10)
                return np.zeros((1, 1), dtype=np.uint8)
            return task

        blocker = PipelineServer(invert_func())
        blocker._make_task = stuck_task
        server = PipelineServer(invert_func())
        server._make_task = _zeros_task
        try:
            stuck = blocker.submit(shape=(1, 1), buffers={})
            assert started.wait(10)
            began = time.monotonic()
            with pytest.raises(BatchError) as error:
                server.realize_batch([{}] * 3, deadline=0.1)
            elapsed = time.monotonic() - began
        finally:
            release.set()
        stuck.result(timeout=10)
        blocker.close(wait=True)
        server.close(wait=True)
        assert elapsed < 2.0
        assert [type(e) for e in error.value.result.errors] \
            == [DeadlineExceeded] * 3
        assert server.stats()["completed"] == 0

    def test_an_overrunning_request_leaves_the_batch_behind_it_alone(self):
        """While one drain is stuck on an overrunning request, the requests
        another drain keeps taking get their own budgets: only the stuck
        request of the batch misses its deadline."""
        from repro.reliability import BatchError, DeadlineExceeded

        configure_pool(2)
        release = threading.Event()

        def make_task(**kwargs):
            def task(engine=None):
                if kwargs["shape"] == "stuck":
                    assert release.wait(10)
                else:
                    time.sleep(0.01)
                return np.zeros((1, 1), dtype=np.uint8)
            return task

        server = PipelineServer(invert_func(), max_pending=2)
        server._make_task = make_task
        try:
            with pytest.raises(BatchError) as error:
                server.realize_batch([{"shape": "stuck"}]
                                     + [{"shape": "slow"}] * 20,
                                     deadline=0.2)
        finally:
            release.set()
        server.close(wait=True)
        errors = error.value.result.errors
        assert isinstance(errors[0], DeadlineExceeded)
        assert errors[1:] == [None] * 20
