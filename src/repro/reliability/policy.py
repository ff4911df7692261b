"""Retry, deadline, and degradation policy for the serving/execution layers.

The paper's bit-exactness contract gives this repository an unusually strong
resilience story: the tree-walking interpreter is *always* available as a
bit-identical slow path for any compiled kernel, so a failure in the fast
path can degrade instead of failing the request.  This module supplies the
policy objects that the serving tier (:mod:`repro.halide.serve`) and the
tile executor (:mod:`repro.halide.parallel`) compose:

* an error taxonomy — :func:`classify_failure` sorts failures into
  *transient* (worth retrying in place), *degradable* (worth re-running on
  the interpreter oracle), and *fatal* (caller bugs; fail immediately);
* :class:`RetryPolicy` — bounded retries with exponential backoff;
* :class:`Deadline` — a per-request wall-clock budget whose expiry is a
  typed error (:class:`DeadlineExceeded`), never a hang;
* :class:`CircuitBreaker` — trips to the slow path after N consecutive
  fast-path failures and probes recovery after a cooldown;
* :class:`DegradedResult` — the typed wrapper a fallback execution returns,
  so callers can count degradation without inspecting log output.

Nothing here imports the execution layers; the dependency points the other
way so the policy vocabulary is usable from any subsystem.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class ReliabilityError(Exception):
    """Base class for every typed error the resilience layer raises."""


class TransientExecutionError(ReliabilityError):
    """A failure that may not recur: worth retrying the same attempt.

    Injected faults (:class:`repro.reliability.faults.InjectedFault`) are
    transient by construction; real examples are a worker evicted mid-task
    or an interrupted system call.
    """


class DeadlineExceeded(ReliabilityError):
    """A request exhausted its wall-clock budget.

    Raised by :meth:`Deadline.check` inside the request path and set on the
    request future by the serving tier's expiry timer — either way the
    caller observes a typed error within the budget instead of a hang.
    """


class BatchError(ReliabilityError):
    """One or more requests of a batch failed.

    Raised by :meth:`repro.halide.serve.PipelineServer.realize_batch` after
    *every* request has been collected: ``result`` holds the full
    :class:`~repro.halide.serve.BatchResult` (successful outputs included,
    ``errors`` aligned per request), so a partial batch is never abandoned
    mid-collection.
    """

    def __init__(self, message: str, result: object = None) -> None:
        super().__init__(message)
        self.result = result


@dataclass
class DegradedResult:
    """A successful result produced by a fallback (degraded) execution.

    ``value`` is bit-identical to what the fast path would have produced —
    the interpreter oracle shares the compiled engine's semantics exactly —
    ``reason`` records why the fast path was abandoned, and ``attempts``
    how many executions the request consumed in total.
    """

    value: object
    reason: str
    attempts: int = 1


#: Failure kinds :func:`classify_failure` can return.
TRANSIENT, DEGRADABLE, FATAL = "transient", "degradable", "fatal"


def classify_failure(exc: BaseException) -> str:
    """Sort one failure into the transient / degradable / fatal taxonomy.

    * *transient* — retry the same engine: injected faults and other
      :class:`TransientExecutionError`, broken executors, timeouts, OS-level
      hiccups.
    * *degradable* — the fast path is suspect but the request may be fine:
      :class:`~repro.halide.realize.RealizationError` (a kernel that cannot
      execute compiled may still realize on the interpreter oracle).
    * *fatal* — caller bugs (bad arguments, wrong shapes): no retry and no
      fallback will help, fail immediately.
    """
    if isinstance(exc, DeadlineExceeded):
        return FATAL
    if isinstance(exc, (TransientExecutionError, BrokenExecutor,
                        TimeoutError, ConnectionError, InterruptedError)):
        return TRANSIENT
    # Imported lazily: realize.py is an execution-layer module and this one
    # must stay importable without it (and without NumPy).
    try:
        from ..halide.realize import RealizationError
    except Exception:                                 # pragma: no cover
        RealizationError = ()
    if isinstance(exc, RealizationError):
        return DEGRADABLE
    if isinstance(exc, OSError):
        return TRANSIENT
    return FATAL


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``retries`` is the number of *re*-executions after the first attempt, so
    a request makes at most ``retries + 1`` attempts.  The delay before
    retry ``k`` (1-based) is ``backoff * multiplier**(k-1)`` capped at
    ``max_backoff``; the defaults keep worst-case added latency for a
    three-attempt request under ~150 ms.
    """

    retries: int = 2
    backoff: float = 0.02
    multiplier: float = 2.0
    max_backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff must be >= 0")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.backoff * (self.multiplier ** (attempt - 1)),
                   self.max_backoff)

    def delays(self) -> Iterator[float]:
        """The full backoff schedule, one delay per allowed retry."""
        for attempt in range(1, self.retries + 1):
            yield self.delay(attempt)

    def run(self, fn: Callable[[], object], *,
            deadline: "Deadline | None" = None,
            classify: Callable[[BaseException], str] = classify_failure,
            on_retry: Callable[[int, BaseException], None] | None = None):
        """Call ``fn`` with bounded retries on transient failures.

        Retries only failures ``classify`` labels transient; anything else
        propagates immediately.  ``deadline``, when given, is checked before
        every attempt and caps the backoff sleeps — if the budget runs out
        mid-schedule, :class:`DeadlineExceeded` is raised (chained to the
        last failure) rather than sleeping past it.
        """
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check("retry loop" if attempt else "first attempt")
            try:
                return fn()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                if classify(exc) != TRANSIENT or attempt >= self.retries:
                    raise
                attempt += 1
                if on_retry is not None:
                    on_retry(attempt, exc)
                wait = self.delay(attempt)
                if deadline is not None and wait >= deadline.remaining():
                    raise DeadlineExceeded(
                        f"deadline exhausted after {attempt} attempt(s)"
                    ) from exc
                if wait:
                    time.sleep(wait)


class Deadline:
    """A wall-clock budget for one request.

    Constructed from a budget in seconds (the clock starts immediately, so a
    deadline created at ``submit`` time covers queue wait too).  ``check``
    raises :class:`DeadlineExceeded`; ``remaining`` never goes negative, so
    it can cap sleeps directly.
    """

    __slots__ = ("seconds", "expires_at")

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        self.seconds = float(seconds)
        self.expires_at = time.monotonic() + self.seconds

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(seconds)

    @classmethod
    def coerce(cls, value: "Deadline | float | int | None"
               ) -> "Optional[Deadline]":
        """Accept a :class:`Deadline`, a number of seconds, or ``None``."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls(float(value))

    def remaining(self) -> float:
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "request") -> None:
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.seconds:.3f}s deadline")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline({self.seconds:.3f}s, {self.remaining():.3f}s left)"


class CircuitBreaker:
    """Trip to a fallback after N consecutive fast-path failures.

    States: *closed* (fast path allowed), *open* (fast path refused), and
    *half-open* (one probe in flight after ``cooldown`` seconds).  A probe
    success closes the breaker; a probe failure re-opens it for another
    cooldown.  Thread-safe — the serving tier calls it from pool workers.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, threshold: int = 3, cooldown: float = 5.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        """How many times the breaker has transitioned closed -> open."""
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """May the caller try the fast path right now?

        While open, returns ``False`` until ``cooldown`` has elapsed, then
        ``True`` exactly once (the half-open probe); further callers keep
        getting ``False`` until the probe reports back.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN and \
                    time.monotonic() - self._opened_at >= self.cooldown:
                self._state = self.HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or \
                    self._failures >= self.threshold:
                if self._state != self.OPEN:
                    self._trips += 1
                self._state = self.OPEN
                self._opened_at = time.monotonic()

    def snapshot(self) -> dict:
        with self._lock:
            return {"state": self._state, "failures": self._failures,
                    "threshold": self.threshold, "trips": self._trips}
