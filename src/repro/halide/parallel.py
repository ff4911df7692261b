"""The shared worker pool behind every parallel loop.

Lowered loop nests (:mod:`repro.halide.lower`) mark tile loops and
reduction-strip loops whose iterations write disjoint regions
``parallel``; the one executor (:func:`repro.halide.backends.base.run_parallel_loop`,
used by every backend) fans their iterations out across a process-wide
:class:`~concurrent.futures.ThreadPoolExecutor` from this module.  NumPy
ufuncs and native segments release the GIL for the array work that
dominates each iteration, so threads scale on multicore hardware without
the pickling restrictions a process pool would impose on dynamically
``compile()``-d kernel bodies.

Whether a given loop actually fans out is a per-call decision made by
:func:`choose_tile_executor`, a cost heuristic over the frame extents and
the pool size — tiny frames stay serial because submit/join overhead would
exceed the tile work.  Workers never re-submit to the pool (nested
realizations — e.g. a kernel realized inside a
:class:`~repro.halide.serve.PipelineServer` request — run their loops
serially), so the shared pool cannot deadlock on itself.

Every parallel loop records its real execution mode in
:data:`execution_stats`; schedules that request ``parallel`` but cannot be
honoured (untiled pure funcs, non-associative reductions, rank < 2) emit a
:class:`ParallelFallbackWarning` once per kernel when they are lowered.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

from ..reliability.faults import fault_fires

#: Thread-name prefix identifying the shared pool's workers; used to detect
#: (and serialize) nested parallelism instead of deadlocking the pool.
_WORKER_PREFIX = "repro-halide-worker"

#: Below this many total output elements a tiled realization stays serial:
#: submit/join overhead beats the per-tile NumPy work.
MIN_PARALLEL_ELEMS = 1 << 16

_pool: ThreadPoolExecutor | None = None
_pool_workers: int | None = None
_pool_lock = threading.Lock()

_stats_lock = threading.Lock()

#: Tasks handed to the shared pool that no worker has started yet.
_pending = 0
_pending_lock = threading.Lock()

#: Real execution modes observed at run time (not what schedules *request*):
#: ``parallel`` / ``serial`` count executions of ``parallel`` loops;
#: ``tiles_parallel`` / ``tiles_serial`` count the iterations those loops
#: ran, ``tile_retries`` the iterations re-run after a transient failure.
#: ``serial`` includes heuristic rejections and nested (in-worker) loops.
execution_stats = {"parallel": 0, "serial": 0,
                   "tiles_parallel": 0, "tiles_serial": 0,
                   "tile_retries": 0, "pool_revived": 0}


class ParallelFallbackWarning(UserWarning):
    """A schedule requested ``parallel`` but the kernel will run serially."""


def reset_execution_stats() -> None:
    """Zero :data:`execution_stats` (test/benchmark bookkeeping)."""
    with _stats_lock:
        for key in execution_stats:
            execution_stats[key] = 0


def default_workers() -> int:
    """Worker count for the shared pool.

    ``REPRO_NUM_THREADS`` overrides; otherwise every available core is used.
    """
    env = os.environ.get("REPRO_NUM_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def configure_pool(workers: int | None = None) -> int:
    """(Re)create the shared pool with ``workers`` threads; returns the size.

    Passing ``None`` re-reads :func:`default_workers`.  Any previously
    submitted work is drained before the old pool is discarded.
    """
    global _pool, _pool_workers
    if in_worker():
        # shutdown(wait=True) on the old pool would wait for the calling
        # worker's own task — a guaranteed deadlock.
        raise RuntimeError("configure_pool cannot be called from a pool worker")
    size = default_workers() if workers is None else max(1, int(workers))
    with _pool_lock:
        old = _pool
        _pool = ThreadPoolExecutor(max_workers=size,
                                   thread_name_prefix=_WORKER_PREFIX)
        _pool_workers = size
    if old is not None:
        old.shutdown(wait=True)
    return size


def get_pool() -> ThreadPoolExecutor:
    """The process-wide worker pool, created lazily on first use."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None:
            _pool_workers = default_workers()
            _pool = ThreadPoolExecutor(max_workers=_pool_workers,
                                       thread_name_prefix=_WORKER_PREFIX)
        return _pool


def pool_size() -> int:
    """How many workers the shared pool has (without forcing creation)."""
    with _pool_lock:
        if _pool_workers is not None:
            return _pool_workers
    return default_workers()


def in_worker() -> bool:
    """True when the calling thread is one of the shared pool's workers."""
    return threading.current_thread().name.startswith(_WORKER_PREFIX)


def _revive_pool(dead: ThreadPoolExecutor) -> ThreadPoolExecutor:
    """The pool watchdog: replace a dead shared executor with a fresh one.

    Called when a submit failed because the *current* pool was shut down
    under us — an injected ``pool.die`` fault, or an external actor calling
    ``shutdown`` on the shared executor.  The swap happens under the pool
    lock and only if the dead pool is still installed, so concurrent
    revivers (and a racing :func:`configure_pool`) agree on one replacement.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is dead:
            _pool_workers = _pool_workers or default_workers()
            _pool = ThreadPoolExecutor(max_workers=_pool_workers,
                                       thread_name_prefix=_WORKER_PREFIX)
            with _stats_lock:
                execution_stats["pool_revived"] += 1
        return _pool


def submit_task(fn, *args):
    """Submit to the shared pool, surviving swaps *and* a dead executor.

    ``configure_pool`` swaps the pool and shuts the old one down; a caller
    that fetched the old pool just before the swap would get
    ``RuntimeError: cannot schedule new futures after shutdown`` — retrying
    re-fetches the replacement pool, which is never shut down by the swap.
    If the *current* pool itself is dead (shut down under us rather than
    swapped), the watchdog :func:`_revive_pool` installs a replacement —
    bounded to a few attempts so a submit that can never succeed
    (interpreter shutdown) raises instead of spinning.  The task counts in
    :func:`pending_tasks` until a worker starts it.
    """
    global _pending
    with _pending_lock:
        _pending += 1
    try:
        pool = get_pool()
        for _ in range(4):
            try:
                return pool.submit(_started, fn, args)
            except RuntimeError:
                if sys.is_finalizing():
                    raise
                current = get_pool()
                pool = current if current is not pool else _revive_pool(pool)
        return pool.submit(_started, fn, args)
    except BaseException:
        with _pending_lock:
            _pending -= 1
        raise


def _started(fn, args):
    global _pending
    with _pending_lock:
        _pending -= 1
    return fn(*args)


def pending_tasks() -> int:
    """How many tasks wait in the shared pool's queue for a worker.

    A long-running task that loops over work of its own (a
    :class:`~repro.halide.serve.PipelineServer` drain) reads this to hand
    its worker back to them.  A task whose future is cancelled before it
    starts would stay counted, so no caller of :func:`submit_task` cancels.
    """
    return _pending


def warm_pool() -> None:
    """Start every worker thread up front.

    ``ThreadPoolExecutor`` spawns threads lazily on ``submit``, so merely
    creating the pool starts none; timing-sensitive callers (the autotuner)
    call this so no measured realization pays thread startup.  The tasks
    block until all are submitted — an idle worker would otherwise absorb
    several of them and fewer threads would spawn.
    """
    count = pool_size()
    if count < 2:
        return
    release = threading.Event()
    futures = [submit_task(release.wait) for _ in range(count)]
    release.set()
    for future in futures:
        future.result()


def parallel_enabled() -> bool:
    """Global kill switch: ``REPRO_PARALLEL=0`` forces every kernel serial."""
    return os.environ.get("REPRO_PARALLEL", "1").strip().lower() \
        not in ("0", "false", "off")


def choose_tile_executor(shape, tile_count: int) -> bool:
    """The per-call cost heuristic: fan tiles out, or run them serially?

    Parallel wins only when there are at least two tiles to overlap, at least
    two workers to overlap them on, enough total work to amortize submit/join
    overhead (:data:`MIN_PARALLEL_ELEMS`), and the caller is not itself a pool
    worker (nested fan-out would deadlock a bounded pool).
    """
    if not parallel_enabled() or in_worker():
        return False
    if tile_count < 2 or pool_size() < 2:
        return False
    elems = 1
    for extent in shape:
        elems *= extent
    return elems >= MIN_PARALLEL_ELEMS


def record_execution(parallel: bool, tiles: int, retries: int = 0) -> None:
    """Tally one parallel loop's real execution mode in :data:`execution_stats`."""
    with _stats_lock:
        execution_stats["parallel" if parallel else "serial"] += 1
        execution_stats["tiles_parallel" if parallel else "tiles_serial"] += tiles
        execution_stats["tile_retries"] += retries


def maybe_kill_pool() -> None:
    """``pool.die`` fault site: shut the shared executor down under us.

    Models a worker pool dying mid-service; the next :func:`submit_task`
    must detect the dead executor and revive it (see :func:`_revive_pool`)
    rather than failing the realization.
    """
    if fault_fires("pool.die") is None:
        return
    with _pool_lock:
        pool = _pool
    if pool is not None:
        pool.shutdown(wait=False)


_warned_signatures: set = set()


def reset_fallback_warnings() -> None:
    """Forget which kernels already warned (so tests can re-trigger them)."""
    with _stats_lock:
        _warned_signatures.clear()


def warn_serial_fallback(signature, reason: str) -> None:
    """Warn (once per kernel signature) that ``parallel`` is ignored."""
    with _stats_lock:
        if signature in _warned_signatures:
            return
        _warned_signatures.add(signature)
    warnings.warn(
        f"schedule requests parallel but the kernel will run serially: {reason}",
        ParallelFallbackWarning, stacklevel=3)
