"""Batched realization service: compile once, serve many requests.

The lifted kernels are small relative to the frames they process, so a
serving workload (many frames/requests through one pipeline) is dominated by
per-frame work outside the kernels — dispatch and thread hand-offs — and by
kernel calls that release the GIL.  This module provides the throughput
layer the ROADMAP asks for:

* :class:`PipelineServer` wraps one compiled target — a
  :class:`~repro.halide.func.Func` or a
  :class:`~repro.halide.pipeline.FuncPipeline` — compiles its kernels once up
  front, and runs requests from its own FIFO queue: at most
  ``min(pool_size(), max_pending)`` *drain* tasks on the shared worker pool
  from :mod:`repro.halide.parallel` each take a request, run it, resolve its
  future and take the next until the queue is empty, so a burst of requests
  costs a few pool hand-offs rather than one or more per request.  Admission
  is **bounded**: ``submit`` blocks once ``max_pending`` of its requests are
  in flight, so an overloaded producer cannot grow the queue without bound.
* :meth:`PipelineServer.realize_batch` queues a whole batch at once (the
  caller already holds every request and will hold every output);
  :func:`realize_batch` is the one-shot convenience around it.

Requests running inside pool workers realize their tiles serially (the pool
never feeds itself; see :func:`repro.halide.parallel.in_worker`), so batch
parallelism and tile parallelism compose without deadlock: one frame at a
time uses tile-parallel kernels, many frames at a time parallelize across
requests instead.  A drain hands its worker back whenever other pool work is
waiting, so another caller's tiles never wait behind a whole batch.

Resilience (see ``docs/reliability.md``): ``submit(..., deadline=, retries=)``
enforces a per-request wall-clock budget — the future resolves with
:class:`~repro.reliability.policy.DeadlineExceeded` instead of hanging, and a
request that expires while still queued never runs — and retries transient
failures with bounded backoff.  Because the interpreter oracle is
bit-identical to the compiled engine, a compiled failure *degrades* rather
than fails: the request re-runs on the interp backend, ``stats()`` counts it
under ``degraded``, and after ``breaker_threshold`` consecutive compiled
failures a circuit breaker routes requests straight to the slow path until a
recovery probe succeeds.
"""

from __future__ import annotations

import contextvars
import heapq
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as WaitTimeout
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

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
from .parallel import (in_worker, parallel_enabled, pending_tasks,
                       pool_size, submit_task)
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

    ``schedule(expires_at, callback)`` files the callback under a fresh
    number, pushes ``(expires_at, number)`` onto a heap and returns the
    number; the sentinel sleeps until the earliest expiry and fires the
    callback still filed under it.  ``cancel(number)`` unfiles the callback:
    O(1), and whichever of the two takes it out of the file first wins, so
    a callback fires at most once.  A request that finishes in time (the
    overwhelmingly common case) pays one heap push and, at most, one notify,
    and leaves behind only a tuple of two numbers, which the garbage
    collector does not track — no container outlives the request by its
    budget to be promoted into the oldest generation.  A
    ``threading.Timer`` per request would instead spawn and join a thread
    per submit, dominating the cost of the deadline feature.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: list = []
        self._callbacks: dict = {}
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._wake_at: float | None = None

    def schedule(self, expires_at: float, callback) -> int:
        with self._cond:
            self._seq += 1
            self._callbacks[self._seq] = callback
            heapq.heappush(self._heap, (expires_at, self._seq))
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
            return self._seq

    def cancel(self, number: int) -> None:
        self._callbacks.pop(number, None)

    def _run(self) -> None:
        while True:
            with self._cond:
                # Cancelled expiries never fire: drop them from the top
                # without waiting for their time, so a request that finished
                # within its budget costs the sentinel no wake-up of its own.
                while self._heap and self._heap[0][1] not in self._callbacks:
                    heapq.heappop(self._heap)
                if not self._heap:
                    self._wake_at = None
                    self._cond.wait()
                    continue
                expires_at, number = self._heap[0]
                wait = expires_at - time.monotonic()
                if wait > 0:
                    self._wake_at = expires_at
                    self._cond.wait(wait)
                    continue
                heapq.heappop(self._heap)
            callback = self._callbacks.pop(number, None)
            if callback is None:
                continue
            try:
                callback()
            except Exception:            # an expiry must never kill the clock
                pass


_EXPIRIES = _ExpiryScheduler()


class _Request:
    """One queued request and the caller-visible future it resolves.

    ``deadline`` is a started :class:`~repro.reliability.policy.Deadline`
    (``submit``), a batch request's budget in seconds (started when a drain
    takes it, or earlier by :meth:`PipelineServer._wait`) or ``None``.  It
    runs in ``context``, its submitter's.
    ``taken`` is set, under the server lock, by whichever comes first: a
    drain taking the request or its expiry.
    """

    __slots__ = ("task", "retry", "deadline", "slot", "future", "context",
                 "expiry", "taken")

    def __init__(self, task, retry, deadline, slot: bool) -> None:
        self.task = task
        self.retry = retry
        self.deadline = deadline
        self.slot = slot                  # holds one of submit's max_pending
        self.future: Future = Future()
        self.context = contextvars.copy_context()
        self.expiry = None                # its number in _EXPIRIES, once armed
        self.taken = False


class PipelineServer:
    """Serve many realization requests for one Func or FuncPipeline.

    Compiles the target's kernels exactly once at construction (so no request
    ever pays codegen), then runs requests from the server's own FIFO queue
    on the shared worker pool.  Each future resolves to an ``(output,
    seconds)`` pair — the realized array plus that request's busy time.  Use
    as a context manager, or call :meth:`close` when done::

        with PipelineServer(pipeline.fused(), max_pending=8) as server:
            futures = [server.submit(image=frame) for frame in frames]
            results = [f.result()[0] for f in futures]
            print(server.stats())

    At most ``min(pool_size(), max_pending)`` drain tasks run the queue; a
    drain decides to exit under the lock that queueing takes, so a request
    queued as the last drain exits starts a new one.  ``max_pending`` bounds
    the number of :meth:`submit` requests admitted but not yet finished;
    further ``submit`` calls block until a slot frees.  It defaults to twice
    the pool size — enough to keep every worker busy while the producer
    prepares the next frame, small enough to bound memory.
    :meth:`realize_batch` takes no slots: its caller already holds every
    request.
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
        self._queue: deque = deque()
        #: Drain tasks alive (queued on the pool or running), and how many of
        #: them the pool has not started yet.
        self._drains = 0
        self._starting = 0
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
        timing cost; records are looked up under the server's engine (a
        schedule tuned on one engine is wrong for another).  Any miss — no
        record, foreign machine, corrupt blob — leaves the target's current
        schedules untouched, and a broken store must never break serving.
        """
        try:
            from .tuningdb import warm_start_func, warm_start_pipeline

            if isinstance(self.target, FuncPipeline):
                record = warm_start_pipeline(self.target, frame_shape,
                                             store=store, engine=self.engine)
            else:
                record = warm_start_func(self.target, frame_shape,
                                         store=store, engine=self.engine)
        except Exception:
            return False
        return record is not None

    # -- lifecycle -----------------------------------------------------------

    def _warm_compile(self, frame_shape: tuple[int, ...] | None) -> None:
        """Pay NumPy codegen up front so the serving path never compiles it.

        A Func runs one schedule-free kernel whatever its schedule, so
        compiling it here covers every request.  A :class:`FuncPipeline`
        executes its lowered loop nest, whose store kernels depend on the
        frame shape: with ``frame_shape`` (NumPy order) the pipeline is
        lowered here — a geometry the nest cannot express raises
        :class:`~repro.halide.lower.PipelineLoweringError` — and the nest's
        kernels compile; without it they compile (once) on the first
        request.  On native these kernels serve frames that degrade, and on
        a native default each nest's first request too; its C program
        depends on the bound buffers' dtypes and shapes, so a request
        builds it (the first on ``engine="native"``, the second on the
        default; from the artifact store's ``.so`` when warm) and later ones
        reuse it.
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

        ``close(wait=True)`` additionally blocks until every request it
        admitted has finished — queued and running alike, batch requests
        included — so resources the requests use can be torn down safely
        afterwards.  Do not call it from inside a request (it would wait on
        itself).
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
        requests are already in flight (bounded queueing), then puts the
        request on the server's queue.

        ``deadline`` (seconds, or a :class:`~repro.reliability.policy.Deadline`)
        starts *now*, so it covers queue wait too; when it expires the future
        resolves with :class:`~repro.reliability.policy.DeadlineExceeded` even
        if the underlying work is stuck, and a request still queued then
        never runs (its slot frees at expiry).  ``retries`` (a count or a
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
        request = _Request(task, retries, deadline, slot=True)
        self._slots.acquire()
        try:
            starts = self._enqueue([request])
        except BaseException:   # closed while this waited, or interrupted
            self._slots.release()
            raise
        self._start_drains(starts)
        return request.future

    def realize_batch(self, requests: Sequence, *,
                      deadline: "Deadline | float | None" = None,
                      retries: "RetryPolicy | int | None" = None
                      ) -> BatchResult:
        """Realize every request and collect outputs + timing, in order.

        Each request is a mapping of :meth:`submit` keyword arguments (for a
        pipeline target, a bare array is also accepted as shorthand for
        ``{"image": array}``).  The whole batch goes on the server's queue at
        once and takes no ``max_pending`` slots; the call then waits on the
        requests in order.  ``deadline`` is a *per-request* budget (seconds)
        that starts when a drain takes the request, so every frame gets the
        same budget however long the batch is; a budget that is not positive
        raises :class:`ValueError` before anything is queued.  If the call
        waits a whole budget on a request no drain has taken (every drain
        stuck, or the pool busy elsewhere), the budgets of the requests
        still queued start then, so a stuck batch raises
        :class:`~repro.reliability.policy.BatchError` instead of hanging.

        Every request is collected before the batch reports: a raising
        request records its error in ``BatchResult.errors`` (its output slot
        is ``None``) instead of aborting the loop and abandoning the
        remaining futures.  If any request failed, one summarizing
        :class:`~repro.reliability.policy.BatchError` is raised at the end,
        carrying the full :class:`BatchResult` as ``error.result``.
        """
        wall_start = time.perf_counter()
        # A Deadline instance is a fixed expiry; per-request budgets start
        # when each request is taken, so carry the raw seconds.
        budget = deadline.seconds if isinstance(deadline, Deadline) \
            else deadline
        if budget is not None:
            Deadline(budget)            # rejects a budget that is not positive
        if isinstance(retries, int):
            retries = RetryPolicy(retries=retries)
        inline = in_worker() or not parallel_enabled()
        futures: list = []              # (future, its queued request or None)
        queued: list = []
        for request in requests:
            if isinstance(request, np.ndarray):
                request = {"image": request}
            try:
                task = self._make_task(**request)
                if inline:
                    futures.append((self._run_inline(
                        task, Deadline.coerce(budget), retries), None))
                else:
                    queued.append(_Request(task, retries, budget, slot=False))
                    futures.append((queued[-1].future, queued[-1]))
            except Exception as exc:
                future = Future()
                future.set_exception(exc)
                futures.append((future, None))
        if queued:
            try:
                starts = self._enqueue(queued)
            except RuntimeError as exc:             # the server is closed
                for request in queued:
                    request.future.set_exception(exc)
            else:
                self._start_drains(starts)
        result = BatchResult()
        for future, request in futures:
            error = self._wait(future, request, queued)
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise error
            if error is not None:
                result.outputs.append(None)
                result.request_seconds.append(0.0)
                result.errors.append(error)
            else:
                output, seconds = future.result()
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

    def _wait(self, future: Future, request, batch: list):
        """Wait for one batch request; returns its exception or ``None``.

        ``exception()`` does not raise: a failure re-raised here would carry
        :meth:`realize_batch`'s frame, and through its result every output
        of the batch, in its traceback — a cycle only a full collection
        frees.  If no drain has taken a request with a budget after a whole
        budget of waiting, every drain is stuck or the pool is busy
        elsewhere: the budgets of the batch's requests still queued start
        now, so each runs or expires within one more budget instead of
        waiting for a drain forever.  A taken request resolves by its own
        deadline.
        """
        budget = request.deadline if request is not None else None
        if budget is None or isinstance(budget, Deadline):
            return future.exception()
        try:
            return future.exception(timeout=budget)
        except WaitTimeout:
            pass
        with self._lock:
            if not request.taken:
                for queued in batch:
                    if not queued.taken and \
                            not isinstance(queued.deadline, Deadline):
                        queued.deadline = Deadline(queued.deadline)
                        self._arm(queued, queued.deadline)
        return future.exception()

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

    def _make_task(self, *, image=None, shape=None, buffers=None,
                   params=None):
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
            self._count("failed", 1)
            raise
        seconds = time.perf_counter() - start
        if isinstance(result, DegradedResult):
            output = result.value
            self._count("degraded", 1)
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
                    self._count("retries", 1)
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

    def _enqueue(self, requests: list) -> int:
        """Queue admitted requests; returns how many drains to start.

        Raises :class:`RuntimeError` when the server is closed.  The drains
        returned are already counted: hand them to :meth:`_start_drains`.
        A submitted request's expiry is armed under the lock, so it cannot
        fire before the request counts as in flight.
        """
        limit = min(pool_size(), self.max_pending)
        with self._lock:
            if self._closed:
                raise RuntimeError("PipelineServer is closed")
            for request in requests:
                if isinstance(request.deadline, Deadline):
                    self._arm(request, request.deadline)
            self._queue.extend(requests)
            self._stats["submitted"] += len(requests)
            self._inflight += len(requests)
            starts = max(0, min(limit - self._drains, len(self._queue)))
            self._drains += starts
            self._starting += starts
        return starts

    def _start_drains(self, count: int) -> None:
        """Hand ``count`` drains, already counted, to the shared pool.

        When the pool refuses one (interpreter shutdown), the drains not
        started are uncounted, and if none is left to serve the queue its
        requests fail with that error instead of waiting forever.
        """
        for started in range(count):
            try:
                submit_task(self._drain)
            except BaseException as exc:
                with self._lock:
                    self._drains -= count - started
                    self._starting -= count - started
                    orphans = []
                    if not self._drains:        # else live drains serve it
                        orphans = [r for r in self._queue if not r.taken]
                        self._queue.clear()
                    for request in orphans:
                        request.taken = True
                    self._stats["failed"] += len(orphans)
                for request in orphans:
                    self._resolve(request.future, exception=exc)
                    self._retire(request)
                if not isinstance(exc, Exception):
                    raise
                return

    def _drain(self) -> None:
        """One pool task: run queued requests until the queue is empty."""
        with self._lock:
            self._starting -= 1
        while True:
            with self._lock:
                # Exit is decided under the lock _enqueue counts drains
                # under: a request queued after this check starts a drain.
                while self._queue:
                    request = self._queue.popleft()
                    if not request.taken:        # else it expired queued
                        request.taken = True
                        break
                else:
                    self._drains -= 1
                    return
            request.context.run(self._run_queued, request)
            request = None              # a finished request is freed now
            if self._queue and pending_tasks() > self._starting:
                # Other pool work is waiting (another caller's tiles, another
                # server's drains): queue behind it and free this worker.
                with self._lock:
                    self._starting += 1
                self._start_drains(1)
                return

    def _run_queued(self, request: _Request) -> None:
        """Run one taken request and resolve its future (in its context)."""
        try:
            deadline = request.deadline
            if deadline is not None and not isinstance(deadline, Deadline):
                deadline = Deadline(deadline)  # a batch request: admitted now
                self._arm(request, deadline)
            result = self._run_request(request.task, deadline, request.retry)
        except BaseException as exc:   # the caller's to see, as a pool future's
            self._resolve(request.future, exception=exc)
        else:
            self._resolve(request.future, result=result)
        self._retire(request)
        # A failure's traceback holds this frame, and the request reaches the
        # failure through its future: drop the reference, or that cycle keeps
        # the request alive until a full collection.
        request = None

    def _arm(self, request: _Request, deadline: Deadline) -> None:
        """Schedule the request's expiry on the shared sentinel."""
        request.expiry = _EXPIRIES.schedule(
            deadline.expires_at, lambda: self._expire(request, deadline))

    def _expire(self, request: _Request, deadline: Deadline) -> None:
        """The deadline fired: resolve the future, stuck worker or not.

        A request no drain has taken yet is claimed here, so it never runs:
        it counts as failed and gives back its slot now.
        """
        with self._lock:
            queued = not request.taken
            request.taken = True
            if queued:
                self._stats["failed"] += 1
        self._resolve(request.future, exception=DeadlineExceeded(
            f"request exceeded its {deadline.seconds:.3f}s deadline"))
        if queued:
            self._retire(request)

    def _resolve(self, future: Future, *, result=None, exception=None) -> None:
        """First writer wins; late resolutions are dropped silently.

        A deadline miss counts before the future resolves, so ``stats()``
        read right after ``result()`` is never behind; a losing writer takes
        its count back.
        """
        missed = isinstance(exception, DeadlineExceeded)
        if missed:
            self._count("deadline_exceeded", 1)
        try:
            if exception is not None:
                future.set_exception(exception)
            else:
                future.set_result(result)
        except InvalidStateError:
            if missed:
                self._count("deadline_exceeded", -1)

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self._stats[key] += amount

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

    def _retire(self, request: _Request) -> None:
        """A queued request is done: cancel its expiry, free its slot."""
        if request.expiry is not None:
            _EXPIRIES.cancel(request.expiry)
        if request.slot:
            self._slots.release()
        self._finish_one()


def realize_batch(target: Func | FuncPipeline, requests: Sequence, *,
                  max_pending: int | None = None,
                  engine: str | None = None,
                  deadline: "Deadline | float | None" = None,
                  retries: "RetryPolicy | int | None" = None) -> BatchResult:
    """Compile ``target`` once and realize every request across the pool.

    The one-shot form of :meth:`PipelineServer.realize_batch` — see its docs
    for the request format and when a request's budget starts.  Returns a
    :class:`BatchResult` with outputs in request order, per-request busy
    times and the batch's sustained frames/sec.  ``deadline`` (per-request
    seconds) and ``retries`` engage the resilience ladder documented on
    :meth:`PipelineServer.submit`; ``max_pending`` also caps the server's
    drain tasks.
    """
    with PipelineServer(target, max_pending=max_pending,
                        engine=engine) as server:
        return server.realize_batch(requests, deadline=deadline,
                                    retries=retries)
