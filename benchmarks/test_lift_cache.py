"""Cold-vs-warm lift through the artifact store (the staged pipeline's payoff).

A cold lift pays the paper's instrumented workflow (two coverage runs, the
profile+memtrace screen, the detailed trace) plus all analyses; a warm lift
deserializes the ``codegen`` and ``buffers`` artifacts instead, all that
applying the kernels needs, and leaves the rest in the store until a field
of the result is read.  The acceptance bar for the store is structural *and*
quantitative: zero instrumented runs on the warm path, nothing computed,
exactly those two artifacts loaded, and a large wall-clock speedup.  Both
sides are recorded in ``BENCH_results.json`` under ``lift_cache/*``, next to
``lift_cache/warm_validate``: a warm lift plus ``validate()``, which reads
the trace too, so the cost of the whole result stays on record.

The speedup is asserted on best-of-N over repeated cold *and* warm lifts: a
single cold sample on a shared single-core host swings by 2x (0.6s-1.3s
observed for the same work), which made a ratio of two one-shot timings
flip around any fixed bar.  Quiet machines measure 9-15x and the worst
loaded-host sample observed is 7x, so the 6x bar stays clear of timing
noise — while *any* recomputed stage, fast or slow, is caught exactly by
the structural asserts (zero instrumented runs, nothing computed).

Every cold lift starts from an empty canonicalize memo, as perfbench's do:
the memo is process-wide, so without the reset the second and third "cold"
lifts replay the first one's canonical trees and time no canonicalization.
"""

from __future__ import annotations

import statistics
import time

from repro.apps.base import app_run_count
from repro.apps.registry import get_scenario
from repro.core.session import LiftSession
from repro.ir import clear_canonicalize_cache
from repro.store import ArtifactStore

from conftest import print_table, record_bench

SCENARIO = ("photoshop", "blur")

#: Repeated lifts per side; the asserted ratio uses each side's best-of-N.
COLD_RUNS = 3
WARM_RUNS = 5

#: Best-of-N speedup bar: quiet hosts measure 9-15x and the worst loaded
#: sample seen is 7x.  (The old 10x bar on one-shot timings sat inside the
#: host-noise band and flaked in roughly every other full-suite run.)
MIN_SPEEDUP = 6.0


def timed_lift(store: ArtifactStore, validate: bool = False
               ) -> tuple[float, int, "LiftSession"]:
    """One staged lift, then ``validate()`` if asked; returns (seconds,
    instrumented_runs, session)."""
    app_name, filter_name = SCENARIO
    scenario = get_scenario(app_name, filter_name)
    session = LiftSession(scenario.make_app(), filter_name,
                          seed=scenario.seed, store=store)
    runs_before = app_run_count()
    start = time.perf_counter()
    result = session.run()
    if validate:
        assert all(result.validate().values())
    return time.perf_counter() - start, app_run_count() - runs_before, session


def test_lift_cache_cold_vs_warm(tmp_path):
    # Each cold lift needs an empty store; the last one is kept for the
    # warm side, so every warm lift replays the same artifact set.
    cold_samples = []
    for i in range(COLD_RUNS):
        store = ArtifactStore(tmp_path / f"store{i}")
        clear_canonicalize_cache()
        cold_seconds, cold_runs, cold_session = timed_lift(store)
        assert cold_runs == 4, \
            "a cold lift performs the full instrumented workflow"
        cold_samples.append(cold_seconds)

    warm_samples = []
    validate_samples = []
    for _ in range(WARM_RUNS):
        warm_seconds, warm_runs, warm_session = timed_lift(store)
        assert warm_runs == 0, "a warm lift must not run the application"
        assert warm_session.stats()["computed"] == 0
        assert {r.stage for r in warm_session.explain()
                if r.source == "hit"} == {"buffers", "codegen"}
        warm_samples.append(warm_seconds)
        validate_seconds, validate_runs, _ = timed_lift(store, validate=True)
        assert validate_runs == 0
        validate_samples.append(validate_seconds)

    cold_best = min(cold_samples)
    warm_best = min(warm_samples)
    validate_best = min(validate_samples)
    speedup = cold_best / warm_best
    print_table(
        f"Artifact-store lift cache ({'/'.join(SCENARIO)}, best of "
        f"{COLD_RUNS} cold / {WARM_RUNS} warm lifts)",
        ["path", "best s", "median s", "instrumented runs", "speedup"],
        [["cold", f"{cold_best:.4f}",
          f"{statistics.median(cold_samples):.4f}", 4, "1.0x"],
         ["warm", f"{warm_best:.4f}",
          f"{statistics.median(warm_samples):.4f}", 0, f"{speedup:.1f}x"],
         ["warm + validate", f"{validate_best:.4f}",
          f"{statistics.median(validate_samples):.4f}", 0,
          f"{cold_best / validate_best:.1f}x"]])
    record_bench("lift_cache/cold", cold_best, engine="staged",
                 median_seconds=round(statistics.median(cold_samples), 6),
                 instrumented_runs=4)
    record_bench("lift_cache/warm", warm_best, engine="staged",
                 median_seconds=round(statistics.median(warm_samples), 6),
                 instrumented_runs=0, speedup_vs_cold=round(speedup, 2))
    record_bench("lift_cache/warm_validate", validate_best, engine="staged",
                 median_seconds=round(statistics.median(validate_samples), 6),
                 instrumented_runs=0,
                 speedup_vs_cold=round(cold_best / validate_best, 2))

    assert speedup >= MIN_SPEEDUP, (
        f"warm lift only {speedup:.1f}x faster than cold "
        f"({warm_best:.4f}s vs {cold_best:.4f}s, best of "
        f"{WARM_RUNS}/{COLD_RUNS})")


def test_warm_lift_is_semantically_identical(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    app_name, filter_name = SCENARIO
    scenario = get_scenario(app_name, filter_name)
    cold = LiftSession(scenario.make_app(), filter_name, store=store).run()
    warm = LiftSession(scenario.make_app(), filter_name, store=store).run()
    assert warm.halide_sources == cold.halide_sources
    assert all(warm.validate().values())
