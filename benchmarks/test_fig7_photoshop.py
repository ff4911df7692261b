"""Figure 7 (top): Photoshop filters vs. lifted Halide, standalone.

For every fully-lifted filter the paper compares Photoshop's own execution
against the lifted, autotuned Halide kernel running standalone.  Here the
Photoshop side is the legacy runtime model (per-channel, tile-driven,
unvectorized structure) and the lifted side realizes the actually-lifted
symbolic kernels through the default engine (each kernel's loop nest compiled
to C, one call per plane; the compiled NumPy engine without a toolchain).
The expected *shape*:
most filters speed up (the paper averages 1.75x), and box blur — whose
sliding-window trick the lift cancels — slows down (0.80x in the paper).
"""

from __future__ import annotations

import statistics

import pytest

from repro.rejuvenation import (
    apply_lifted_photoshop,
    legacy_photoshop_filter,
    lift_photoshop_filter,
)

from conftest import alternate, print_table, record_bench

PAPER_SPEEDUPS = {
    "invert": 1.74, "blur": 2.62, "blur_more": 1.12, "sharpen": 2.46,
    "sharpen_more": 2.08, "threshold": 1.42, "box_blur": 0.80,
}
FILTERS = list(PAPER_SPEEDUPS)
#: Alternating legacy/lifted rounds per filter (after a warm-up, see
#: ``conftest.alternate``): each key records the median round and the
#: speedup is the median per-round ratio, so host drift and one-sided load
#: spikes cancel (as in test_fig9_insitu.py).
ROUNDS = 7
PARAMS = {"threshold": 128, "brightness": 40}


@pytest.fixture(scope="module")
def fig7_rows(bench_planes):
    rows = []
    for name in FILTERS:
        lifted = lift_photoshop_filter(name)
        legacy, lifted_samples = alternate(
            lambda: legacy_photoshop_filter(name, bench_planes, PARAMS),
            lambda: apply_lifted_photoshop(lifted, name, bench_planes, PARAMS), ROUNDS)
        legacy_time = statistics.median(legacy)
        lifted_time = statistics.median(lifted_samples)
        speedup = statistics.median(
            [a / b if b else float("inf") for a, b in zip(legacy, lifted_samples)])
        record_bench(f"fig7_photoshop/{name}/legacy", legacy_time, engine="legacy")
        record_bench(f"fig7_photoshop/{name}/lifted", lifted_time, engine="default")
        rows.append([name, f"{legacy_time * 1000:.1f}", f"{lifted_time * 1000:.1f}",
                     f"{speedup:.2f}x", f"{PAPER_SPEEDUPS[name]:.2f}x"])
    return rows


def test_fig7_photoshop_table(fig7_rows):
    print_table("Figure 7 (Photoshop): legacy vs lifted, standalone",
                ["filter", "legacy ms", "lifted ms", "speedup", "paper speedup"],
                fig7_rows)
    speedups = {row[0]: float(row[3].rstrip("x")) for row in fig7_rows}
    wins = [n for n in FILTERS if n != "box_blur" and speedups[n] > 1.0]
    # Shape of the figure: the lifted kernels win on most filters...
    assert len(wins) >= 4, speedups
    # ... and box blur does not enjoy a large win, because canonicalization
    # undid the sliding-window optimization (paper: 0.80x).
    assert speedups["box_blur"] < max(speedups[n] for n in wins), speedups


def test_fig7_photoshop_blur_benchmark(benchmark, bench_planes):
    lifted = lift_photoshop_filter("blur")
    benchmark(lambda: apply_lifted_photoshop(lifted, "blur", bench_planes, PARAMS))
