"""Batched realization service: compile once, serve many requests.

The lifted kernels are small relative to the frames they process, so a
serving workload (many frames/requests through one pipeline) is dominated by
per-frame NumPy work — exactly the work that releases the GIL.  This module
provides the throughput layer the ROADMAP asks for:

* :class:`PipelineServer` wraps one compiled target — a
  :class:`~repro.halide.func.Func` or a
  :class:`~repro.halide.pipeline.FuncPipeline` — compiles its kernels once up
  front, and fans incoming requests out across the shared worker pool from
  :mod:`repro.halide.parallel` with **bounded queueing**: ``submit`` blocks
  once ``max_pending`` requests are in flight, so an overloaded producer
  cannot grow the queue without bound.
* :func:`realize_batch` is the one-shot convenience: hand it a target and a
  list of requests, get every output plus per-request timing stats back.

Requests running inside pool workers realize their tiles serially (the pool
never feeds itself; see :func:`repro.halide.parallel.in_worker`), so batch
parallelism and tile parallelism compose without deadlock: one frame at a
time uses tile-parallel kernels, many frames at a time parallelize across
requests instead.

Resilience (see ``docs/reliability.md``): ``submit(..., deadline=, retries=)``
enforces a per-request wall-clock budget — the future resolves with
:class:`~repro.reliability.policy.DeadlineExceeded` instead of hanging — and
retries transient failures with bounded backoff.  Because the interpreter
oracle is bit-identical to the compiled engine, a compiled failure *degrades*
rather than fails: the request re-runs on the interp backend, ``stats()``
counts it under ``degraded``, and after ``breaker_threshold`` consecutive
compiled failures a circuit breaker routes requests straight to the slow
path until a recovery probe succeeds.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from concurrent.futures import Future, InvalidStateError

from ..reliability.faults import fault_point
from ..reliability.policy import (
    BatchError,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    DegradedResult,
    RetryPolicy,
    TRANSIENT,
    classify_failure,
)
from .compile import compile_func
from .func import Func
from .parallel import in_worker, parallel_enabled, pool_size, submit_task
from .pipeline import FuncPipeline
from .realize import get_default_engine, realize


@dataclass
class BatchResult:
    """Outputs and timing of one :func:`realize_batch` call.

    ``outputs`` is in request order; ``request_seconds[i]`` is the busy time
    of request ``i`` alone (as measured inside its worker), while
    ``wall_seconds`` is the whole batch end to end — on a multicore pool the
    sum of ``request_seconds`` exceeds ``wall_seconds`` because requests
    overlap.

    ``errors`` is aligned with ``outputs``: ``None`` for a request that
    succeeded, the raising exception for one that failed (its output slot
    holds ``None``).  A batch with any error raises
    :class:`~repro.reliability.policy.BatchError` *after* every request has
    been collected — one failing request no longer abandons the rest.
    """

    outputs: list = field(default_factory=list)
    request_seconds: list = field(default_factory=list)
    wall_seconds: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        """How many requests of this batch raised."""
        return sum(1 for error in self.errors if error is not None)

    @property
    def frames_per_second(self) -> float:
        """Sustained throughput of the batch (requests / wall time)."""
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.outputs) / self.wall_seconds


class _ExpiryScheduler:
    """One daemon thread firing deadline expiries for every server.

    ``schedule(expires_at, callback)`` pushes onto a heap and wakes the
    sentinel; the sentinel sleeps until the earliest expiry, fires its
    callback, and parks again.  Cancellation just flags the entry — stale
    heap items are skipped when popped, so cancel is O(1) and requests that
    finish in time (the overwhelmingly common case) pay one heap push plus
    one notify.  A ``threading.Timer`` per request would instead spawn and
    join a thread per submit, dominating the cost of the deadline feature.
    """

    _EXPIRES_AT, _CALLBACK, _CANCELLED = 0, 1, 2

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: list = []
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._wake_at: float | None = None

    def schedule(self, expires_at: float, callback) -> list:
        entry = [expires_at, callback, False]
        with self._cond:
            self._seq += 1
            heapq.heappush(self._heap, (expires_at, self._seq, entry))
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, daemon=True,
                    name="repro-deadline-sentinel")
                self._thread.start()
            # Wake the sentinel only when this expiry is sooner than what it
            # is already sleeping toward — the common case (a batch of
            # same-budget requests) schedules with zero context switches.
            if self._wake_at is None or expires_at < self._wake_at:
                self._cond.notify()
        return entry

    @classmethod
    def cancel(cls, entry: list) -> None:
        entry[cls._CANCELLED] = True

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._heap:
                    self._wake_at = None
                    self._cond.wait()
                expires_at = self._heap[0][0]
                wait = expires_at - time.monotonic()
                if wait > 0:
                    self._wake_at = expires_at
                    self._cond.wait(wait)
                    continue
                _, _, entry = heapq.heappop(self._heap)
            if entry[self._CANCELLED]:
                continue
            try:
                entry[self._CALLBACK]()
            except Exception:            # an expiry must never kill the clock
                pass


_EXPIRIES = _ExpiryScheduler()


class PipelineServer:
    """Serve many realization requests for one Func or FuncPipeline.

    Compiles the target's kernels exactly once at construction (so no request
    ever pays codegen), then executes each submitted request on the shared
    worker pool.  Each future resolves to an ``(output, seconds)`` pair —
    the realized array plus that request's busy time.  Use as a context
    manager, or call :meth:`close` when done::

        with PipelineServer(pipeline.fused(), max_pending=8) as server:
            futures = [server.submit(image=frame) for frame in frames]
            results = [f.result()[0] for f in futures]
            print(server.stats())

    ``max_pending`` bounds the number of requests admitted but not yet
    finished; further ``submit`` calls block until a slot frees.  It defaults
    to twice the pool size — enough to keep every worker busy while the
    producer prepares the next frame, small enough to bound memory.
    """

    def __init__(self, target: Func | FuncPipeline, *,
                 max_pending: int | None = None,
                 engine: str | None = None,
                 frame_shape: tuple[int, ...] | None = None,
                 warm_start: bool = True,
                 store=None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 5.0) -> None:
        if not isinstance(target, (Func, FuncPipeline)):
            raise TypeError(f"cannot serve {type(target).__name__}; "
                            "expected Func or FuncPipeline")
        self.target = target
        self.engine = engine
        self.max_pending = max_pending if max_pending is not None \
            else 2 * pool_size()
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._slots = threading.BoundedSemaphore(self.max_pending)
        self._lock = threading.Lock()
        self._closed = False
        self._inflight = 0
        self._idle = threading.Condition(self._lock)
        self._stats = {"submitted": 0, "completed": 0, "failed": 0,
                       "busy_seconds": 0.0, "retries": 0, "degraded": 0,
                       "deadline_exceeded": 0}
        #: Trips after N consecutive compiled-path failures (each of which
        #: degraded to a successful interp run); while open, requests skip
        #: the compiled attempt entirely and probe recovery after cooldown.
        self._breaker = CircuitBreaker(threshold=breaker_threshold,
                                       cooldown=breaker_cooldown)
        #: True when a persisted tuning record supplied the schedules this
        #: server compiled with (zero timed candidate evaluations).
        self.warm_started = False
        if warm_start and frame_shape is not None:
            self.warm_started = self._warm_start(tuple(frame_shape), store)
        self._warm_compile(frame_shape)

    def _warm_start(self, frame_shape: tuple[int, ...], store) -> bool:
        """Apply this machine's best known schedules before compiling.

        Consults the persistent tuning database
        (:mod:`repro.halide.tuningdb`) for this target + frame shape; a hit
        replaces the target's schedules with the measured winner at zero
        timing cost.  Any miss — no record, foreign machine, corrupt blob —
        leaves the target's current schedules untouched, and a broken store
        must never break serving.
        """
        try:
            from .tuningdb import warm_start_func, warm_start_pipeline

            if isinstance(self.target, FuncPipeline):
                record = warm_start_pipeline(self.target, frame_shape,
                                             store=store)
            else:
                record = warm_start_func(self.target, frame_shape,
                                         store=store)
        except Exception:
            return False
        return record is not None

    # -- lifecycle -----------------------------------------------------------

    def _warm_compile(self, frame_shape: tuple[int, ...] | None) -> None:
        """Pay codegen up front so the serving path never compiles.

        A Func runs one schedule-free kernel whatever its schedule, so
        compiling it here covers every request.  A :class:`FuncPipeline`
        executes its lowered loop nest, whose store kernels depend on the
        frame shape: with ``frame_shape`` (NumPy order) the pipeline is
        lowered here — a geometry the nest cannot express raises
        :class:`~repro.halide.lower.PipelineLoweringError` — and the nest's
        kernels compile; without it they compile (once) on the first
        request.
        """
        engine = self.engine if self.engine is not None else get_default_engine()
        if isinstance(self.target, Func):
            if engine != "interp":
                compile_func(self.target)
            return
        if frame_shape is None:
            return
        lowered = self.target.lower(tuple(frame_shape))
        if engine == "interp":
            return
        from ..ir import ReduceLoop, Store

        for node in lowered.stmt.walk():
            if isinstance(node, (ReduceLoop, Store)):
                compile_func(node.func)

    def close(self, wait: bool = False) -> None:
        """Refuse further submissions (in-flight requests still finish).

        The closed flag is written under the server lock, and ``submit``
        re-checks it both before admission and *after* acquiring a pending
        slot — so a submit that was already blocked on the slot semaphore
        when ``close`` ran raises instead of slipping a request into a
        closed server (the race the unguarded flag allowed).

        ``close(wait=True)`` additionally blocks until every in-flight
        request has finished, so resources the requests use can be torn
        down safely afterwards.  Do not call it from inside a request (it
        would wait on itself).
        """
        with self._lock:
            self._closed = True
            if wait:
                while self._inflight:
                    self._idle.wait()

    def __enter__(self) -> "PipelineServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def submit(self, *, image: np.ndarray | None = None,
               shape: tuple[int, ...] | None = None,
               buffers: Mapping[str, np.ndarray] | None = None,
               params: Mapping[str, float] | None = None,
               deadline: "Deadline | float | None" = None,
               retries: "RetryPolicy | int | None" = None):
        """Submit one request; the future resolves to ``(output, seconds)``.

        For a :class:`FuncPipeline` target pass ``image`` (and optionally
        ``params``); for a :class:`Func` target pass ``shape`` and
        ``buffers`` (and optionally ``params``).  Blocks while ``max_pending``
        requests are already in flight (bounded queueing).

        ``deadline`` (seconds, or a :class:`~repro.reliability.policy.Deadline`)
        starts *now*, so it covers queue wait too; when it expires the future
        resolves with :class:`~repro.reliability.policy.DeadlineExceeded` even
        if the underlying work is stuck.  ``retries`` (a count or a
        :class:`~repro.reliability.policy.RetryPolicy`) re-runs transient
        failures with bounded backoff before the degradation ladder engages.

        A submit issued from inside a pool worker (a served request that
        itself serves) executes inline instead of queueing: queued behind its
        own parent it could never run, deadlocking the bounded pool — the
        same never-feed-yourself policy the tile executor follows.  The
        ``REPRO_PARALLEL=0`` kill switch also forces inline execution, so it
        really does serialize the whole stack, serving included.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("PipelineServer is closed")
        deadline = Deadline.coerce(deadline)
        if isinstance(retries, int):
            retries = RetryPolicy(retries=retries)
        task = self._make_task(image=image, shape=shape, buffers=buffers,
                               params=params)
        if in_worker() or not parallel_enabled():
            return self._run_inline(task, deadline, retries)
        self._slots.acquire()
        with self._lock:
            # Re-check after the (possibly long) slot wait: a submit blocked
            # on admission must not slip past a concurrent close().
            if self._closed:
                self._slots.release()
                raise RuntimeError("PipelineServer is closed")
            self._stats["submitted"] += 1
            self._inflight += 1
        # Any failure to hand the task to the pool — including
        # KeyboardInterrupt — must give back the slot and the inflight
        # count; the finally-based unwind does that without a blanket
        # ``except BaseException`` swallowing the distinction.
        submitted = False
        try:
            future = submit_task(self._run_request, task, deadline, retries)
            submitted = True
        finally:
            if not submitted:
                self._finish_one()
                self._slots.release()
        future.add_done_callback(self._on_done)
        if deadline is None:
            return future
        return self._with_deadline(future, deadline)

    def realize_batch(self, requests: Sequence, *,
                      deadline: "Deadline | float | None" = None,
                      retries: "RetryPolicy | int | None" = None
                      ) -> BatchResult:
        """Realize every request and collect outputs + timing, in order.

        Each request is a mapping of :meth:`submit` keyword arguments (for a
        pipeline target, a bare array is also accepted as shorthand for
        ``{"image": array}``).  ``deadline`` is a *per-request* budget
        (seconds), started at that request's submission.

        Every request is collected before the batch reports: a raising
        request records its error in ``BatchResult.errors`` (its output slot
        is ``None``) instead of aborting the loop and abandoning the
        remaining futures.  If any request failed, one summarizing
        :class:`~repro.reliability.policy.BatchError` is raised at the end,
        carrying the full :class:`BatchResult` as ``error.result``.
        """
        wall_start = time.perf_counter()
        # A Deadline instance is a fixed expiry; per-request budgets restart
        # at each submission, so carry the raw seconds through submit().
        budget = deadline.seconds if isinstance(deadline, Deadline) \
            else deadline
        futures: list = []
        submit_errors: list = []
        for request in requests:
            if isinstance(request, np.ndarray):
                request = {"image": request}
            try:
                futures.append(self.submit(**request, deadline=budget,
                                           retries=retries))
                submit_errors.append(None)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                futures.append(None)
                submit_errors.append(exc)
        result = BatchResult()
        for future, submit_error in zip(futures, submit_errors):
            if future is None:
                result.outputs.append(None)
                result.request_seconds.append(0.0)
                result.errors.append(submit_error)
                continue
            try:
                output, seconds = future.result()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                result.outputs.append(None)
                result.request_seconds.append(0.0)
                result.errors.append(exc)
            else:
                result.outputs.append(output)
                result.request_seconds.append(seconds)
                result.errors.append(None)
        result.wall_seconds = time.perf_counter() - wall_start
        if result.failed:
            first = next(error for error in result.errors if error is not None)
            raise BatchError(
                f"{result.failed}/{len(result.outputs)} batch request(s) "
                f"failed; first error: {type(first).__name__}: {first}",
                result=result)
        return result

    def stats(self) -> dict:
        """A snapshot of serving counters.

        ``submitted`` / ``completed`` / ``failed`` count requests;
        ``busy_seconds`` is total per-request busy time (across workers, so
        it can exceed wall time); ``mean_request_seconds`` averages over
        completed requests.  Resilience counters: ``retries`` (transient
        re-attempts), ``degraded`` (requests served by the interp slow path
        after a compiled failure or while the breaker is open),
        ``deadline_exceeded``, and the circuit breaker's ``breaker_state`` /
        ``breaker_trips``.
        """
        with self._lock:
            snapshot = dict(self._stats)
        completed = snapshot["completed"]
        snapshot["mean_request_seconds"] = (
            snapshot["busy_seconds"] / completed if completed else 0.0)
        snapshot["max_pending"] = self.max_pending
        breaker = self._breaker.snapshot()
        snapshot["breaker_state"] = breaker["state"]
        snapshot["breaker_trips"] = breaker["trips"]
        return snapshot

    # -- internals -----------------------------------------------------------

    def _make_task(self, *, image, shape, buffers, params):
        """One request as ``task(engine=None)``.

        ``engine`` overrides the server's engine for that one execution —
        the degradation ladder uses it to re-run a failed compiled request
        on the bit-identical interp oracle.
        """
        params = dict(params) if params else {}
        if isinstance(self.target, FuncPipeline):
            if image is None:
                raise ValueError("a FuncPipeline request needs image=...")
            return lambda engine=None: self.target.realize(
                image, params, engine=engine or self.engine)
        if shape is None or buffers is None:
            raise ValueError("a Func request needs shape=... and buffers=...")
        return lambda engine=None: realize(self.target, shape, buffers,
                                           params,
                                           engine=engine or self.engine)

    def _run_request(self, task, deadline=None, retry=None):
        """Run one request, recording its outcome in the counters.

        The accounting happens here — before the future's result becomes
        visible — so ``stats()`` read right after ``future.result()`` is
        never behind (done-callbacks run *after* waiters are released).
        ``KeyboardInterrupt``/``SystemExit`` propagate *without* counting as
        a request failure: Ctrl-C is the operator stopping the process, not
        the request going wrong.
        """
        start = time.perf_counter()
        try:
            result = self._execute_guarded(task, deadline, retry)
        except Exception:
            # deadline_exceeded is counted where the caller-visible future
            # resolves (_resolve / _run_inline), never here — the timer and
            # the in-task check may both observe the same expiry.
            with self._lock:
                self._stats["failed"] += 1
            raise
        seconds = time.perf_counter() - start
        if isinstance(result, DegradedResult):
            output = result.value
            with self._lock:
                self._stats["degraded"] += 1
        else:
            output = result
        with self._lock:
            self._stats["completed"] += 1
            self._stats["busy_seconds"] += seconds
        return output, seconds

    def _execute_guarded(self, task, deadline, retry):
        """One request through the resilience ladder.

        1. Injected latency (the ``serve.latency`` fault site), capped at
           the deadline so a "stuck worker" still resolves in budget.
        2. The fast path (the server's engine), retrying failures classified
           transient up to ``retry``'s budget with deadline-capped backoff.
        3. Degradation: if the effective engine is compiled and it keeps
           failing — or the circuit breaker is already open — re-run on the
           interpreter oracle, which is bit-identical by construction.
           Success there returns a :class:`DegradedResult` and counts a
           breaker failure; success on the fast path resets the breaker.
        """
        self._injected_latency(deadline)
        if deadline is not None:
            deadline.check("request")
        degradable = (self.engine or get_default_engine()) != "interp"
        if degradable and not self._breaker.allow():
            return DegradedResult(task(engine="interp"),
                                  reason="circuit breaker open")
        attempt = 0
        retries = retry.retries if retry is not None else 0
        while True:
            if deadline is not None:
                deadline.check("request")
            try:
                output = task()
            except (KeyboardInterrupt, SystemExit):
                raise
            except DeadlineExceeded:
                raise
            except Exception as exc:
                kind = classify_failure(exc)
                if kind == TRANSIENT and attempt < retries:
                    attempt += 1
                    with self._lock:
                        self._stats["retries"] += 1
                    wait = retry.delay(attempt)
                    if deadline is not None and wait >= deadline.remaining():
                        raise DeadlineExceeded(
                            f"deadline exhausted after {attempt} "
                            f"attempt(s)") from exc
                    if wait:
                        time.sleep(wait)
                    continue
                if kind == "fatal" or not degradable:
                    raise
                # Transient budget exhausted, or the compiled path cannot
                # realize this request: degrade to the interp oracle.
                if deadline is not None:
                    deadline.check("degraded fallback")
                try:
                    output = task(engine="interp")
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    # Both engines failed: the request itself is bad — the
                    # breaker only tracks *compiled-specific* failures.
                    raise exc
                self._breaker.record_failure()
                return DegradedResult(
                    output, reason=f"{type(exc).__name__}: {exc}",
                    attempts=attempt + 2)
            if degradable:
                self._breaker.record_success()
            return output

    def _injected_latency(self, deadline) -> None:
        """The ``serve.latency`` fault site, deadline-capped.

        A scheduled latency longer than the remaining budget sleeps only to
        the deadline's edge — the ensuing ``check`` raises, which is exactly
        the "stuck worker resolves with a typed error, not a hang" contract.
        """
        if deadline is None:
            fault_point("serve.latency")
            return
        from ..reliability.faults import active_plan

        plan = active_plan()
        if plan is None:
            return
        rule = plan.fire("serve.latency")
        if rule is not None and rule.latency > 0:
            time.sleep(min(rule.latency, deadline.remaining()))

    def _with_deadline(self, inner: Future, deadline: Deadline) -> Future:
        """Wrap a pool future so it *resolves* at the deadline, no matter what.

        The wrapper mirrors the inner future's outcome; if the deadline
        fires first, the inner future is cancelled when still queued and the
        wrapper resolves with :class:`DeadlineExceeded` even when the worker
        is stuck — the caller never hangs on ``result()``.  Expiries are
        scheduled on one shared sentinel thread (:class:`_ExpiryScheduler`)
        rather than a ``threading.Timer`` each — a per-request thread spawn
        would be most of the deadline feature's cost.
        """
        wrapper: Future = Future()
        entry = _EXPIRIES.schedule(
            deadline.expires_at,
            lambda: self._expire(wrapper, inner, deadline))

        def chain(done: Future) -> None:
            _ExpiryScheduler.cancel(entry)
            if done.cancelled():
                self._resolve(wrapper, exception=DeadlineExceeded(
                    f"request cancelled at its {deadline.seconds:.3f}s "
                    f"deadline"))
                return
            error = done.exception()
            if error is not None:
                self._resolve(wrapper, exception=error)
            else:
                self._resolve(wrapper, result=done.result())

        inner.add_done_callback(chain)
        return wrapper

    def _expire(self, wrapper: Future, inner: Future,
                deadline: Deadline) -> None:
        inner.cancel()               # a still-queued request never runs
        self._resolve(wrapper, exception=DeadlineExceeded(
            f"request exceeded its {deadline.seconds:.3f}s deadline"))

    def _resolve(self, future: Future, *, result=None,
                 exception=None) -> bool:
        """First writer wins; late resolutions are dropped silently."""
        try:
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(result)
        except InvalidStateError:
            return False
        if isinstance(exception, DeadlineExceeded):
            with self._lock:
                self._stats["deadline_exceeded"] += 1
        return True

    def _run_inline(self, task, deadline=None, retry=None) -> Future:
        """Execute immediately on the calling (worker) thread.

        Bypasses the pending-slot semaphore — an inline request occupies no
        queue slot, and blocking a worker on admission could deadlock against
        the very requests holding the slots.  ``KeyboardInterrupt`` /
        ``SystemExit`` propagate to the caller (they are not request
        outcomes) while the ``finally`` still rebalances the inflight count.
        """
        future: Future = Future()
        with self._lock:
            # Same re-check the pooled path makes when taking its slot: a
            # close() that ran after submit()'s entry check must win, or
            # close(wait=True) could return while this request still runs.
            if self._closed:
                raise RuntimeError("PipelineServer is closed")
            self._stats["submitted"] += 1
            self._inflight += 1
        try:
            result = self._run_request(task, deadline, retry)
        except Exception as exc:
            self._resolve(future, exception=exc)
        else:
            future.set_result(result)
        finally:
            self._finish_one()
        return future

    def _finish_one(self) -> None:
        """One request left flight; wake a ``close(wait=True)`` drainer."""
        with self._lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def _on_done(self, future) -> None:
        self._slots.release()
        if future.cancelled():
            # A cancelled request never ran _run_request, so count it here.
            with self._lock:
                self._stats["failed"] += 1
        self._finish_one()


def realize_batch(target: Func | FuncPipeline, requests: Sequence, *,
                  max_pending: int | None = None,
                  engine: str | None = None,
                  deadline: "Deadline | float | None" = None,
                  retries: "RetryPolicy | int | None" = None) -> BatchResult:
    """Compile ``target`` once and realize every request across the pool.

    The one-shot form of :class:`PipelineServer` — see its docs for the
    request format.  Returns a :class:`BatchResult` with outputs in request
    order, per-request busy times and the batch's sustained frames/sec.
    ``deadline`` (per-request seconds) and ``retries`` engage the resilience
    ladder documented on :meth:`PipelineServer.submit`.
    """
    with PipelineServer(target, max_pending=max_pending,
                        engine=engine) as server:
        return server.realize_batch(requests, deadline=deadline,
                                    retries=retries)
