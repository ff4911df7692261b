"""Locality scheduling: compute_root vs compute_at for a two-stage blur.

The architectural claim behind the lowered loop-nest IR: a multi-stage
stencil pipeline scheduled ``compute_at`` materializes each producer into a
tile-plus-ghost-zone scratch buffer that stays cache-resident, instead of a
full-frame intermediate that round-trips through memory between stages.
Both schedules execute the *same* lifted blur kernel through the same
backend and are bit-identical; only the loop nest differs.

Records ``fig8_locality/compute_root`` and ``fig8_locality/compute_at`` in
BENCH_results.json (with the measured speedup and scratch sizes), and
asserts the scratch buffer really is tile-sized — the acceptance criterion
of the lowering work.
"""

from __future__ import annotations

import statistics
from dataclasses import replace

import numpy as np

from repro.halide import FuncPipeline, Schedule
from repro.rejuvenation import lift_photoshop_filter

from conftest import LARGE_HEIGHT, LARGE_WIDTH, print_table, record_bench, \
    time_callable

#: compute_at tile (width x height): full-width strips keep the NumPy ops
#: long while the working set (tile + ghost rows of one producer) fits in
#: cache.
TILE_W, TILE_H = 480, 320

#: Paired interleaved rounds for the speedup gate (same discipline as
#: fig9_resilience): one-shot ratios occasionally catch a single stalled or
#: turbo sample and swing 0.2x-2x on this shared host; the median of paired
#: per-round ratios is stable.
ROUNDS = 12


def _two_stage_blur(mode: str) -> FuncPipeline:
    """blur(blur(frame)) from the lifted Photoshop blur kernel.

    Fresh Func copies per call — the lift results are shared via the lru
    cache, so schedules must never mutate the cached objects.
    """
    lifted = lift_photoshop_filter("blur")
    kernel = sorted(lifted.kernels, key=lambda k: k.output)[0]
    func = lifted.funcs[kernel.output]
    input_name = sorted(kernel.input_names)[0]
    first = replace(func, schedule=Schedule())
    second = replace(func, schedule=Schedule())
    pipeline = FuncPipeline()
    pipeline.add(first, input_name=input_name, pad=1, name="blur1")
    pipeline.add(second, input_name=input_name, pad=1, name="blur2")
    if mode == "at":
        second.tile(TILE_W, TILE_H)
        first.compute_at(second, "x_1")
    elif mode == "root":
        first.compute_root()
        second.compute_root()
    return pipeline


def test_fig8_locality_compute_at_vs_root(bench_planes_large):
    frame = bench_planes_large["r"]

    root = _two_stage_blur("root")
    fused = _two_stage_blur("at")
    root_stats: dict = {}
    fused_stats: dict = {}
    root_out = root.realize(frame, engine="compiled", stats=root_stats)
    fused_out = fused.realize(frame, engine="compiled", stats=fused_stats)
    np.testing.assert_array_equal(root_out, fused_out)

    # Acceptance: the compute_at producer materializes tile + ghost zone
    # (the 3x3 blur reads one ghost row/column on each side), never the full frame.
    lowered = fused.lower(frame.shape)
    producer = lowered.decisions[0]
    assert producer.level == "at"
    assert producer.scratch_extent == (TILE_H + 2, TILE_W + 2)
    scratch_shapes = fused_stats["scratch_shapes"]
    (scratch_shape,) = scratch_shapes.values()
    assert scratch_shape == (TILE_H + 2, TILE_W + 2)
    assert fused_stats["scratch_peak_elems"] < frame.size // 3
    # compute_root materializes the full frame between the stages.
    (root_shape,) = root_stats["scratch_shapes"].values()
    assert root_shape == frame.shape

    root_samples: list[float] = []
    fused_samples: list[float] = []
    ratios: list[float] = []
    for round_index in range(ROUNDS):
        if round_index % 2 == 0:
            r = time_callable(lambda: root.realize(frame, engine="compiled"), 1)
            f = time_callable(lambda: fused.realize(frame, engine="compiled"), 1)
        else:
            f = time_callable(lambda: fused.realize(frame, engine="compiled"), 1)
            r = time_callable(lambda: root.realize(frame, engine="compiled"), 1)
        root_samples.append(r)
        fused_samples.append(f)
        ratios.append(r / f)
    root_time = statistics.median(root_samples)
    fused_time = statistics.median(fused_samples)
    speedup = statistics.median(ratios)

    print_table(
        f"Figure 8 (locality): two-stage blur at {LARGE_WIDTH}x{LARGE_HEIGHT} "
        f"(median of {ROUNDS} paired rounds)",
        ["schedule", "ms", "speedup", "intermediate"],
        [["compute_root", f"{root_time * 1000:.1f}", "1.00x",
          f"{root_shape[0]}x{root_shape[1]} (full frame)"],
         [f"compute_at tile({TILE_W},{TILE_H})", f"{fused_time * 1000:.1f}",
          f"{speedup:.2f}x",
          f"{scratch_shape[0]}x{scratch_shape[1]} (tile + ghost)"]])

    record_bench("fig8_locality/compute_root", root_time, engine="compiled",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 intermediate_elems=int(np.prod(root_shape)))
    record_bench("fig8_locality/compute_at", fused_time, engine="compiled",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 speedup=round(speedup, 2),
                 tile=[TILE_W, TILE_H],
                 scratch_elems=int(np.prod(scratch_shape)))

    # The locality win must be measurable (typical hosts show ~1.5-2x; the
    # CI regression gate guards the magnitude, this guards the direction —
    # the floor is low because shared runners are noisy and huge-cache hosts
    # shrink the full-frame penalty).
    assert speedup >= 1.02, f"compute_at only {speedup:.2f}x vs compute_root"


def test_fig8_locality_interp_oracle_agreement(bench_planes_large):
    """Both schedules stay bit-identical to the interpreter oracle."""
    frame = bench_planes_large["r"][:160, :240]
    oracle = _two_stage_blur("none").realize_interp(frame)
    for mode in ("root", "at"):
        for engine in ("interp", "compiled"):
            out = _two_stage_blur(mode).realize(frame, engine=engine)
            np.testing.assert_array_equal(out, oracle)
