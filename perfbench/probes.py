"""Runtime and host probes taken in every run.

They let a reader tell host drift apart from a code change: garbage
collection pauses (read through ``gc.callbacks``), a fixed calibration
workload timed at the start and end of the run, a reference loop timed
between operations (``HostSpeed``), CPU steal from ``/proc/stat``, peak
resident memory and minor page faults.
"""

from __future__ import annotations

import gc
import resource
import time
from concurrent.futures import ThreadPoolExecutor

from metrics import median


class GcProbe:
    """Counts collections and their pauses while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.gen2 = 0
        self.pauses: list[float] = []
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        if not self.active:
            return
        self.pauses.append(time.perf_counter() - self._start)
        if info["generation"] == 2:
            self.gen2 += 1

    def collect(self) -> None:
        """A full collection the benchmark asks for, left out of the counts."""
        active, self.active = self.active, False
        try:
            gc.collect()
        finally:
            self.active = active

    def close(self) -> None:
        gc.callbacks.remove(self._callback)


class HostSpeed:
    """A fixed reference loop, timed between a workload's operations.

    A shared host's speed swings within seconds and drifts over minutes,
    and a run's times, CPU times too, move with it: over 100 s in one
    process, the same 0.3 s cold lift spread by 0.32 (quartile distance over
    median).  The ``python`` loop timed next to each lift tracked it
    (correlation 0.70 per lift, 0.91 over six) and the lift's time divided
    by the loop's spread by 0.18 per lift and 0.07 over six.  So a
    workload times this loop next to its operations, on the same clock, and
    reports each time multiplied by ``REFERENCE_MS`` over the loop's time:
    as on a host where the loop takes ``REFERENCE_MS``.  The program never
    runs inside a sample, so a change to the program moves the figures and
    not the loop.

    ``python`` walks a 4 MiB byte string in pure Python (interpreter
    dispatch, dependent loads that miss the caches; it allocates nothing the
    collector tracks), which tracked lifts better than a 64 KiB walk or
    loops that build tuples, dicts and hash-consed trees; ``numpy`` sums
    3x3 neighbourhoods of a 1920x1280 plane, like the compiled engine's
    stencils; ``wakeup`` is an open loop without the program: sleep 5 ms,
    hand a no-op to a one-thread pool, and take the median time from the
    due time to its completion.
    """

    REFERENCE_MS = {"python": 24.0, "numpy": 13.0, "wakeup": 0.32}

    def __init__(self, kind: str, clock=time.perf_counter) -> None:
        import numpy as np

        self.kind = kind
        self.clock = clock
        self.samples: list[float] = []
        rng = np.random.default_rng(12345)
        if kind == "python":
            self._data = rng.integers(0, 256, 1 << 22, dtype=np.uint8).tobytes()
        elif kind == "numpy":
            self._data = rng.integers(0, 256, (1280, 1920), dtype=np.uint8)
        else:
            self._pool = ThreadPoolExecutor(1)

    def sample(self, count: int = 1) -> float:
        """Time the loop ``count`` times; the mean of these, in ms."""
        taken = []
        for _ in range(count):
            if self.kind == "wakeup":
                taken.append(_wakeup_ms(self._pool, self.clock))
                continue
            began = self.clock()
            if self.kind == "python":
                _walk(self._data)
            else:
                _box_sum(self._data)
            taken.append((self.clock() - began) * 1000.0)
        self.samples.extend(taken)
        return sum(taken) / len(taken)

    def close(self) -> None:
        if self.kind == "wakeup":
            self._pool.shutdown(wait=True)

    def scale(self, *sample_ms: float) -> float:
        """Multiplier for a time taken between samples of ``sample_ms``."""
        return self.REFERENCE_MS[self.kind] / (sum(sample_ms) / len(sample_ms))

    def factor(self) -> float:
        """Multiplier for the run as a whole: from the median sample."""
        if not self.samples:
            return 1.0
        return self.scale(median(self.samples))


def _walk(data: bytes) -> int:
    total = 0
    index = 0
    for step in range(75_000):
        value = data[index]
        total += value
        index = (index * 5 + value + step) & 0x3FFFFF
    return total


def _wakeup_ms(pool, clock) -> float:
    delays = []
    for _ in range(60):
        due = clock() + 0.005
        time.sleep(0.005)
        pool.submit(int).result()
        delays.append(clock() - due)
    return median(delays) * 1000.0


def _box_sum(plane):
    import numpy as np

    wide = plane.astype(np.int32)
    rows = wide[:-2] + wide[1:-1] + wide[2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]).sum()


def calibration_ms() -> float:
    """A fixed NumPy loop plus a fixed pure-Python loop, in milliseconds."""
    import numpy as np

    data = np.arange(200_000, dtype=np.int64)[::-1].copy()
    start = time.perf_counter()
    for _ in range(10):
        np.sort(data, kind="stable")
    total = 0
    for value in range(300_000):
        total += value * value
    return (time.perf_counter() - start) * 1000.0


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies from the first line of ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted inside user time.
    return steal, sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counters() -> dict:
    """The program's own counters, for deltas around a phase."""
    from repro.apps.base import app_run_count
    from repro.halide.backends.native import native_stats
    from repro.halide.compile import kernel_cache_stats
    from repro.halide.parallel import execution_stats

    native = native_stats()
    return {
        "x86.instrumented_runs": app_run_count(),
        "halide.kernel_cache.misses": kernel_cache_stats["misses"],
        "halide.parallel.tiles_parallel": execution_stats["tiles_parallel"],
        "halide.parallel.tiles_serial": execution_stats["tiles_serial"],
        "native.compiles": native["compiles"],
        "native.store_hits": native["store_hits"],
        "native.frames": native["native_frames"],
        "native.degraded": native["degraded"],
        "minflt": minor_faults(),
    }


def delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}
