"""Figure 9: in-situ replacement of Photoshop's filters with lifted kernels.

The lifted kernels run inside the host's tile driver, constrained by its tile
granularity; the paper's average speedup drops to 1.12x, box blur regresses
further (0.69x), and the partially-lifted filters (equalize, brightness) sit
at roughly 1x.
"""

from __future__ import annotations

import statistics

import pytest

from repro.rejuvenation import (
    insitu_lifted_photoshop,
    legacy_photoshop_filter,
    lift_photoshop_filter,
)

from conftest import print_table, time_callable

PAPER_SPEEDUPS = {
    "invert": 1.10, "blur": 1.28, "blur_more": 1.02, "sharpen": 1.39,
    "sharpen_more": 1.45, "threshold": 1.37, "box_blur": 0.69,
    "sharpen_edges": 1.10, "despeckle": 1.01, "equalize": 0.93, "brightness": 0.99,
}
PARAMS = {"threshold": 128, "brightness": 40}
#: Alternating legacy/in-situ rounds per filter; the speedup is the median
#: of the per-round ratios, so host drift and one-sided load spikes cancel
#: within a round (as in test_fig9_resilience.py).
ROUNDS = 5


@pytest.fixture(scope="module")
def fig9_rows(bench_planes):
    rows = []
    for name, paper in PAPER_SPEEDUPS.items():
        lifted = lift_photoshop_filter(name)
        run_legacy = lambda: legacy_photoshop_filter(name, bench_planes, PARAMS)
        run_insitu = lambda: insitu_lifted_photoshop(lifted, name, bench_planes, PARAMS)
        run_legacy()
        run_insitu()                      # warm-up: kernel compile, caches
        legacy_samples, insitu_samples, ratios = [], [], []
        for round_index in range(ROUNDS):
            if round_index % 2 == 0:
                legacy_time = time_callable(run_legacy, 1)
                insitu_time = time_callable(run_insitu, 1)
            else:
                insitu_time = time_callable(run_insitu, 1)
                legacy_time = time_callable(run_legacy, 1)
            legacy_samples.append(legacy_time)
            insitu_samples.append(insitu_time)
            ratios.append(legacy_time / insitu_time if insitu_time else float("inf"))
        speedup = statistics.median(ratios)
        rows.append([name, f"{min(legacy_samples) * 1000:.1f}",
                     f"{min(insitu_samples) * 1000:.1f}",
                     f"{speedup:.2f}x", f"{paper:.2f}x"])
    return rows


def test_fig9_insitu_table(fig9_rows, bench_planes):
    print_table("Figure 9: Photoshop in-situ replacement",
                ["filter", "Photoshop ms", "replaced ms", "speedup", "paper speedup"],
                fig9_rows)
    speedups = {row[0]: float(row[3].rstrip("x")) for row in fig9_rows}
    fully = ["invert", "blur", "blur_more", "sharpen", "sharpen_more", "threshold"]
    # Shape: fully-lifted filters still improve, but by less than standalone
    # (compare Figure 7); partially-lifted filters stay near 1x.
    assert sum(1 for n in fully if speedups[n] > 1.0) >= 3, speedups
    # Partially-lifted filters stay close to 1x (the host still owns most of
    # the work); allow generous slack since these are millisecond-scale runs.
    # The speedup column is the median per-round ratio (see ROUNDS).
    for name in ("equalize", "brightness", "despeckle", "sharpen_edges"):
        assert 0.6 <= speedups[name] <= 2.0, (name, speedups[name])


def test_fig9_insitu_blur_benchmark(benchmark, bench_planes):
    lifted = lift_photoshop_filter("blur")
    benchmark(lambda: insitu_lifted_photoshop(lifted, "blur", bench_planes, PARAMS))
