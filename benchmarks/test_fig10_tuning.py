"""Cost-model autotuning: tuned vs default, and warm starts that time nothing.

The paper's schedules are *searched*, not guessed (section 6.2, OpenTuner);
this benchmark proves the repo's replacement earns its keep on the two-stage
blur pipeline at full frame size:

* ``fig10_tuning/default`` — the default (unscheduled) pipeline;
* ``fig10_tuning/tuned`` — after one cost-model-guided tuning session that
  wall-clock-times only the baseline plus at most top-k (k <= 5) sampled
  candidates;
* ``fig10_tuning/warm_start`` — a fresh pipeline warm-started from the
  persisted tuning record with **zero** timed candidate evaluations.

The tuned-vs-default comparison uses the same paired-ratio discipline as
fig9_resilience: interleaved rounds, order flipped per round, median of the
per-round ratios — so host-wide speed drift cancels instead of polluting a
pooled mean.  A second test checks ranking *quality*: the model's top-5
must contain the empirically best measured schedule (or one statistically
indistinguishable from it under the same paired-ratio discipline).
"""

from __future__ import annotations

import statistics
from dataclasses import replace

import numpy as np

from repro.halide import FuncPipeline, PipelineServer, Schedule
from repro.halide.autotune import (
    autotune_pipeline,
    reset_tuner_stats,
    tuner_stats,
)
from repro.rejuvenation import lift_photoshop_filter
from repro.store import ArtifactStore

from conftest import LARGE_HEIGHT, LARGE_WIDTH, print_table, record_bench, \
    time_callable

#: Sampled candidates per tuning session and the live-timing cap.  The
#: acceptance criterion is k <= 5 timed *sampled* candidates (the baseline
#: is always timed on top).
ITERATIONS = 12
TOP_K = 5

#: Paired interleaved rounds for the tuned-vs-default ratio (fig9 style).
ROUNDS = 8
#: Absolute slack below which a "regression" is scheduler jitter, not signal.
EPSILON_SECONDS = 0.002
#: A candidate within 10% of the global best is statistically the same
#: schedule on a noisy shared host.
TIE_RATIO = 1.10


def _two_stage_blur() -> FuncPipeline:
    """blur(blur(frame)) with default schedules, fresh Func copies."""
    lifted = lift_photoshop_filter("blur")
    kernel = sorted(lifted.kernels, key=lambda k: k.output)[0]
    func = lifted.funcs[kernel.output]
    input_name = sorted(kernel.input_names)[0]
    pipeline = FuncPipeline()
    pipeline.add(replace(func, schedule=Schedule()), input_name=input_name,
                 pad=1, name="blur1")
    pipeline.add(replace(func, schedule=Schedule()), input_name=input_name,
                 pad=1, name="blur2")
    return pipeline


def _paired_ratio(numerator_fn, denominator_fn, rounds: int = ROUNDS
                  ) -> tuple[float, float, float]:
    """Median per-round numerator/denominator ratio, order flipped per round.

    Returns ``(ratio, numerator_median, denominator_median)``.
    """
    num_samples: list[float] = []
    den_samples: list[float] = []
    ratios: list[float] = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            num = time_callable(numerator_fn, 1)
            den = time_callable(denominator_fn, 1)
        else:
            den = time_callable(denominator_fn, 1)
            num = time_callable(numerator_fn, 1)
        num_samples.append(num)
        den_samples.append(den)
        ratios.append(num / den)
    return (statistics.median(ratios), statistics.median(num_samples),
            statistics.median(den_samples))


def test_fig10_tuning_tuned_vs_default_and_warm_start(bench_planes_large,
                                                      tmp_path):
    frame = bench_planes_large["r"]
    store = ArtifactStore(tmp_path / "tuning_store")

    # --- tune once, with the live-timing budget capped at top-k ------------
    tuned_pipeline = _two_stage_blur()
    reset_tuner_stats()
    result = autotune_pipeline(tuned_pipeline, frame, iterations=ITERATIONS,
                               seed=3, engine="compiled", top_k=TOP_K,
                               store=store)
    assert result.source == "search"
    # Acceptance: at most top-k sampled candidates were wall-clock-timed
    # (plus the always-timed baseline), out of the full sampled set.
    assert result.evaluations <= TOP_K + 1
    assert tuner_stats["timed_evaluations"] == result.evaluations
    assert len(result.ranked) == len(result.candidates) > result.evaluations
    assert tuner_stats["db_stores"] == 1

    default_pipeline = _two_stage_blur()
    # Outputs stay bit-identical whatever the winner was.
    np.testing.assert_array_equal(
        default_pipeline.realize(frame, engine="compiled"),
        tuned_pipeline.realize(frame, engine="compiled"))

    # --- paired-ratio comparison (fig9 discipline) -------------------------
    ratio, tuned_seconds, default_seconds = _paired_ratio(
        lambda: tuned_pipeline.realize(frame, engine="compiled"),
        lambda: default_pipeline.realize(frame, engine="compiled"))

    # --- warm start: a fresh server applies the record, times nothing ------
    warm_pipeline = _two_stage_blur()
    reset_tuner_stats()
    with PipelineServer(warm_pipeline, frame_shape=frame.shape,
                        store=store, engine="compiled") as server:
        assert server.warm_started
        assert tuner_stats["timed_evaluations"] == 0
        assert tuner_stats["warm_start_hits"] == 1
        assert [s.func.schedule.describe() for s in warm_pipeline.stages] \
            == [s.describe() for s in result.best_schedules]
        warm_seconds = time_callable(
            lambda: server.submit(image=frame).result(), 3)
    assert tuner_stats["timed_evaluations"] == 0

    best_describe = " | ".join(s.describe() for s in result.best_schedules)
    print_table(
        f"Figure 10 (tuning): two-stage blur at {LARGE_WIDTH}x{LARGE_HEIGHT} "
        f"(median of {ROUNDS} paired rounds)",
        ["configuration", "ms", "notes"],
        [["default", f"{default_seconds * 1000:.1f}", "unscheduled"],
         ["tuned", f"{tuned_seconds * 1000:.1f}",
          f"{result.evaluations} timed of {len(result.candidates)} "
          f"candidates; {best_describe}"],
         ["warm start", f"{warm_seconds * 1000:.1f}",
          "0 timed evaluations"]])

    record_bench("fig10_tuning/default", default_seconds, engine="compiled",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT))
    record_bench("fig10_tuning/tuned", tuned_seconds, engine="compiled",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 evaluations=result.evaluations,
                 candidates=len(result.candidates),
                 top_k=TOP_K,
                 best_schedules=[s.describe() for s in result.best_schedules],
                 tuned_over_default=round(ratio, 3))
    record_bench("fig10_tuning/warm_start", warm_seconds, engine="compiled",
                 image_size=(LARGE_WIDTH, LARGE_HEIGHT),
                 timed_evaluations=0)

    # Acceptance: tuned >= default.  The baseline is always timed, so the
    # winner can only beat (or equal) the default schedule; the paired
    # median ratio guards the re-measurement against host noise.
    assert ratio <= 1.0 + 0.05 \
        or tuned_seconds <= default_seconds + EPSILON_SECONDS, \
        f"tuned schedule {ratio:.2f}x slower than default"


def test_fig10_ranking_quality_top5_contains_best(bench_planes_large):
    """The model's top-5 contains the empirically best measured schedule,
    or one statistically indistinguishable from it (paired-ratio median
    within TIE_RATIO) — timing *all* candidates as ground truth."""
    frame = bench_planes_large["r"]
    pipeline = _two_stage_blur()
    result = autotune_pipeline(pipeline, frame, iterations=10, seed=4,
                               engine="compiled", top_k=None)
    # top_k=None wall-clock-times the entire deduped candidate set.
    assert result.evaluations == len(result.candidates)

    times = {describe: seconds for describe, seconds in result.history}
    best_describe = min(times, key=times.get)
    top5 = [score.describe for score in result.ranked[:5]]
    in_top5 = best_describe in top5

    rows = [[" | ".join(score.describe), f"{times[score.describe] * 1000:.1f}",
             f"{score.cost:.0f}", score.demotions]
            for score in result.ranked[:5]]
    print_table("Figure 10 (ranking quality): model top-5 vs measured",
                ["schedule", "measured ms", "model cost", "demotions"], rows)

    if not in_top5:
        # Re-measure the contested pair with the fig9 discipline before
        # declaring a ranking miss: interleaved rounds, median ratio.
        best_index = next(score.index for score in result.ranked
                          if score.describe == best_describe)
        top_index = result.ranked[0].index
        global_best = result.candidates[best_index]
        model_best = result.candidates[top_index]

        def run_with(schedules):
            for stage, schedule in zip(pipeline.stages, schedules):
                stage.func.schedule = schedule
            return pipeline.realize(frame, engine="compiled")

        ratio, model_seconds, best_seconds = _paired_ratio(
            lambda: run_with(model_best), lambda: run_with(global_best))
        assert ratio <= TIE_RATIO \
            or model_seconds <= best_seconds + EPSILON_SECONDS, \
            (f"model top-5 misses the measured best by {ratio:.2f}x: "
             f"best={best_describe}, top5={top5}")
