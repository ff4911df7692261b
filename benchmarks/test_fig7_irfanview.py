"""Figure 7 (bottom): IrfanView filters vs. lifted Halide, standalone.

The paper reports an average 4.97x speedup, dominated by the blur and sharpen
filters whose original implementations run in x87 floating point with a
per-invocation preparation cost.
"""

from __future__ import annotations

import statistics

import pytest

from repro.rejuvenation import (
    apply_lifted_irfanview,
    legacy_irfanview_filter,
    lift_irfanview_filter,
)

from conftest import alternate, print_table, record_bench

PAPER_SPEEDUPS = {"invert": 2.03, "solarize": 2.16, "blur": 8.70, "sharpen": 6.98}
FILTERS = list(PAPER_SPEEDUPS)
#: Alternating legacy/lifted rounds per filter (after a warm-up, see
#: ``conftest.alternate``): each key records the median round and the
#: speedup is the median per-round ratio, so host drift and one-sided load
#: spikes cancel (as in test_fig9_insitu.py).
ROUNDS = 7


@pytest.fixture(scope="module")
def fig7_iv_rows(bench_interleaved):
    rows = []
    for name in FILTERS:
        lifted = lift_irfanview_filter(name)
        legacy, lifted_samples = alternate(
            lambda: legacy_irfanview_filter(name, bench_interleaved),
            lambda: apply_lifted_irfanview(lifted, name, bench_interleaved), ROUNDS)
        legacy_time = statistics.median(legacy)
        lifted_time = statistics.median(lifted_samples)
        speedup = statistics.median(
            [a / b if b else float("inf") for a, b in zip(legacy, lifted_samples)])
        record_bench(f"fig7_irfanview/{name}/legacy", legacy_time, engine="legacy")
        record_bench(f"fig7_irfanview/{name}/lifted", lifted_time, engine="default")
        rows.append([name, f"{legacy_time * 1000:.1f}", f"{lifted_time * 1000:.1f}",
                     f"{speedup:.2f}x", f"{PAPER_SPEEDUPS[name]:.2f}x"])
    return rows


def test_fig7_irfanview_table(fig7_iv_rows):
    print_table("Figure 7 (IrfanView): legacy vs lifted, standalone",
                ["filter", "legacy ms", "lifted ms", "speedup", "paper speedup"],
                fig7_iv_rows)
    speedups = {row[0]: float(row[3].rstrip("x")) for row in fig7_iv_rows}
    # Every lifted filter beats the legacy implementation, and the
    # floating-point stencils (the paper's 8.7x/7.0x rows) win clearly.
    # The lifted side runs on the default engine: native C, or the compiled
    # NumPy engine (which narrows pointwise integer arithmetic to small
    # dtypes) where no toolchain exists (see EXPERIMENTS.md).
    assert all(value > 1.0 for value in speedups.values()), speedups
    assert speedups["blur"] > 2.0 and speedups["sharpen"] > 2.0, speedups


def test_fig7_irfanview_blur_benchmark(benchmark, bench_interleaved):
    lifted = lift_irfanview_filter("blur")
    benchmark(lambda: apply_lifted_irfanview(lifted, "blur", bench_interleaved))
