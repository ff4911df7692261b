"""Shared workloads and helpers for the figure-reproduction benchmarks.

The paper evaluates on a 11959x8135 truecolor image; the benchmarks here use a
smaller image so the whole suite runs in minutes, but every comparison keeps
the paper's structure (same filters, same baselines, same pipelines).  Each
benchmark prints a table with the paper's numbers alongside the measured ones;
EXPERIMENTS.md records a captured run.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps.images import make_test_planes

#: Benchmark image size (width, height).
BENCH_WIDTH = 480
BENCH_HEIGHT = 320

#: Larger image for the multicore/batched benchmarks: tile-parallel execution
#: needs enough work per realization for the fan-out to pay off.
LARGE_WIDTH = 960
LARGE_HEIGHT = 640

#: Collected measurements, written to ``.benchmarks/BENCH_results.json``
#: at session end.  The committed ``BENCH_results.json`` at the repo root is
#: the regression baseline and is only ever refreshed by copying a fresh
#: full run over it, so running benchmarks never rewrites a tracked file.
BENCH_RESULTS: dict[str, dict] = {}

RESULTS_PATH = (Path(__file__).resolve().parent.parent / ".benchmarks"
                / "BENCH_results.json")


def record_bench(name: str, seconds: float, engine: str = "",
                 image_size: tuple[int, int] | None = None, **extra) -> None:
    """Record one benchmark's best wall-clock time for the session's results."""
    entry = {
        "best_seconds": round(seconds, 6),
        "engine": engine,
        "image_size": list(image_size if image_size is not None
                           else (BENCH_WIDTH, BENCH_HEIGHT)),
    }
    entry.update(extra)
    BENCH_RESULTS[name] = entry


def pytest_sessionfinish(session, exitstatus):
    if not BENCH_RESULTS:
        return
    payload = {
        "image_size": [BENCH_WIDTH, BENCH_HEIGHT],
        "python": platform.python_version(),
        "machine": platform.machine(),
        # The regression gate compares only the keys this session measured.
        "last_run_keys": sorted(BENCH_RESULTS),
        "results": dict(sorted(BENCH_RESULTS.items())),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_planes() -> dict[str, np.ndarray]:
    return make_test_planes(BENCH_WIDTH, BENCH_HEIGHT, seed=42)


@pytest.fixture(scope="session")
def bench_planes_large() -> dict[str, np.ndarray]:
    return make_test_planes(LARGE_WIDTH, LARGE_HEIGHT, seed=7)


@pytest.fixture(scope="session")
def bench_interleaved(bench_planes) -> np.ndarray:
    return np.stack([bench_planes["r"], bench_planes["g"], bench_planes["b"]], axis=-1)


def time_callable(fn, repeats: int = 3) -> float:
    """Best wall-clock seconds of ``fn()`` over a few repeats.

    The first repeat doubles as warm-up (it may include one-time costs such as
    the cached lifting runs), so the minimum is the stable measurement.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
              for i in range(len(headers))]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
