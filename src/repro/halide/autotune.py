"""A cost-model-guided autotuner standing in for OpenTuner (paper 6.2).

The search space is the schedule of the lifted function: tile sizes, whether
producers are fused, vectorization and — since the multicore executor — tile
parallelism.  Candidates are no longer all wall-clock-timed: the sampled set
is ranked analytically by :mod:`repro.halide.costmodel` (features from the
lowering's own :class:`StageDecision` metadata) and only the baseline plus
the top-k survivors are timed live.  Kernels are schedule-free, so every
candidate reuses the one compiled kernel; a new schedule only re-lowers its
loop nest, once.

Parallel candidates are sampled against the *live* pool configuration: when
the pool cannot honour parallelism (single worker, or the kill switch), the
sampler neither sets ``parallel`` nor forces tiles onto the draw — forcing
tiles used to manufacture duplicate serial candidates that wasted timed
evaluations.  Candidate sequences therefore differ across pool widths; that
is fine because tuning results are persisted per machine fingerprint (CPU
count included) in the :class:`~repro.halide.tuningdb.TuningDatabase`.
Reduction Funcs draw from their own space — RDom strip heights (``tile_y``,
the partial-accumulator granularity) crossed with parallel on/off — so the
two-phase reduction schedule is tuned like any other.

When a ``store`` is supplied, each tuning session first consults the
persistent tuning database (zero evaluations on a hit for this machine +
workload) and persists its winner afterwards, which is what lets
:class:`~repro.halide.serve.PipelineServer` warm-start at zero timing cost.

:func:`autotune_pipeline` extends the search to multi-stage pipelines, where
the space also includes each producer's **compute level** — ``default``
(a ghost-ringed full-frame buffer, with pointwise inline fusion),
``compute_root``, or ``compute_at`` anchored in its consumer's tile
loop — so the tuner explores the locality/recompute trade-off the lowered
loop-nest IR (:mod:`repro.halide.lower`) exposes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

from .costmodel import (CandidateScore, rank_func_candidates,
                        rank_pipeline_candidates)
from .func import Func, Schedule, vectorize_width
from .parallel import parallel_enabled, pool_size, warm_pool
from .realize import realize
from .tuningdb import (TuningDatabase, TuningRecord, func_workload,
                       pipeline_workload)

_TILE_CHOICES = (0, 8, 16, 32, 64, 128)
_NONZERO_TILES = tuple(t for t in _TILE_CHOICES if t)

#: Vectorize draws: ``True`` is the target's natural width, integers are
#: explicit SIMD lane counts (only the native backend distinguishes them;
#: the NumPy engines ignore the directive either way).
_VECTORIZE_CHOICES = (True, 4, 8, 16)

#: Default cap on live-timed *sampled* candidates per session (the baseline
#: schedule is always timed on top, so a session runs at most ``top_k + 1``
#: timed evaluations).
DEFAULT_TOP_K = 5

#: Observable tuning counters, in the style of
#: :data:`repro.halide.parallel.execution_stats`.  ``timed_evaluations``
#: increments once per wall-clock-timed candidate; the warm-start counters
#: are bumped by :mod:`repro.halide.tuningdb` so tests can assert that a
#: warm-started server performed zero timed evaluations.
tuner_stats = {
    "timed_evaluations": 0,
    "warm_start_hits": 0,
    "warm_start_misses": 0,
    "db_hits": 0,
    "db_stores": 0,
}


def reset_tuner_stats() -> None:
    for key in tuner_stats:
        tuner_stats[key] = 0


def _pool_allows_parallel() -> bool:
    """Can a ``parallel`` schedule be honoured under the live pool config?"""
    return pool_size() > 1 and parallel_enabled()


@dataclass
class TuneResult:
    """Outcome of an autotuning session.

    ``ranked`` is the cost model's ordering of the full candidate set
    (baseline included) before timing; ``source`` is ``"search"`` for a live
    session and ``"database"`` when a persisted record was reused with zero
    evaluations.
    """

    best_schedule: Schedule
    best_time: float
    evaluations: int
    history: list[tuple[Schedule, float]]
    ranked: list[CandidateScore] = field(default_factory=list)
    #: The deduped candidate set the ranking indexes into (baseline first).
    candidates: list[Schedule] = field(default_factory=list)
    source: str = "search"


def _time_schedule(func: Func, shape, buffers, params, engine,
                   repeats: int = 3) -> float:
    best = float("inf")
    tuner_stats["timed_evaluations"] += 1
    for _ in range(repeats):
        # The first repeat may include one-time codegen and lowering for a
        # fresh schedule; taking the minimum keeps the steady-state cost.
        start = time.perf_counter()
        realize(func, shape, buffers, params, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def _sample_schedule(rng: random.Random) -> Schedule:
    """One random schedule; parallel candidates always carry tiles.

    ``parallel`` without tiles has no independent work units and would run
    (and time) identically to the serial schedule, wasting an evaluation —
    so a parallel draw forces nonzero tiles.  The parallel draw itself is
    filtered against the live pool configuration: on a single-worker pool
    the draw stays serial *and* untiled-if-drawn-untiled, instead of
    minting tiled duplicates of serial candidates.
    """
    tile_x = rng.choice(_TILE_CHOICES)
    tile_y = rng.choice(_TILE_CHOICES)
    want_parallel = rng.random() < 0.5 and _pool_allows_parallel()
    if want_parallel:
        tile_x = tile_x or rng.choice(_NONZERO_TILES)
        tile_y = tile_y or rng.choice(_NONZERO_TILES)
    return Schedule(tile_x=tile_x, tile_y=tile_y,
                    vectorize=rng.choice(_VECTORIZE_CHOICES),
                    parallel=want_parallel,
                    fuse_producers=rng.random() < 0.8)


def _sample_reduction_schedule(rng: random.Random) -> Schedule:
    """One random reduction schedule: RDom strip height x parallel on/off.

    ``tile_y`` is the strip height (source rows per partial accumulator —
    see :meth:`Func.reduction_strip_rows`); 0 draws the default.  The
    parallel draw is gated on the live pool configuration like
    :func:`_sample_schedule`; only associative reductions then honour it at
    realize time, so every candidate is safe to time.
    """
    strip = rng.choice(_TILE_CHOICES)
    want_parallel = rng.random() < 0.5 and _pool_allows_parallel()
    return Schedule(tile_x=0, tile_y=strip,
                    vectorize=rng.choice(_VECTORIZE_CHOICES),
                    parallel=want_parallel)


def _select_timed(scores: list[CandidateScore], top_k: int | None
                  ) -> list[int]:
    """Candidate indices to wall-clock-time: baseline + top-k survivors.

    Index 0 is the baseline schedule; it is always timed (first), so the
    best *measured* time can never regress below the default schedule and
    the tuned-vs-default benchmark win is by construction.  Of the sampled
    candidates, at most ``top_k`` — the model's best — are timed.
    """
    sampled_order = [score.index for score in scores if score.index != 0]
    if top_k is not None:
        sampled_order = sampled_order[:max(int(top_k), 0)]
    return [0] + sampled_order


def _schedule_key(schedule: Schedule) -> tuple:
    """Complete structural identity of one Schedule.

    ``describe()`` is deliberately lossy (a ``tile_y``-only reduction strip
    reads the same as the default), so dedupe must compare fields, not
    descriptions — otherwise distinct strip heights collapse into one
    candidate.  The vectorize flag is folded to its effective SIMD width so
    distinct widths stay distinct while spellings of "off" (``False``,
    ``0``, ``1``; the same program) collapse.
    """
    return (schedule.tile_x, schedule.tile_y, vectorize_width(schedule),
            schedule.parallel, schedule.fuse_producers, schedule.compute,
            schedule.compute_at)


def _dedupe(candidates, key):
    """Drop candidates whose structural key duplicates an earlier one."""
    seen = set()
    unique = []
    for candidate in candidates:
        candidate_key = key(candidate)
        if candidate_key in seen:
            continue
        seen.add(candidate_key)
        unique.append(candidate)
    return unique


def autotune(func: Func, shape, buffers, params=None, iterations: int = 10,
             seed: int = 0, engine: str | None = None,
             top_k: int | None = DEFAULT_TOP_K, store=None,
             reuse: bool = True) -> TuneResult:
    """Search schedules for ``func`` on the given workload.

    ``iterations`` candidates are sampled, ranked by the cost model, and
    only the baseline plus the ``top_k`` best-ranked are timed end to end
    through the selected engine (``top_k=None`` times everything); the Func
    is left carrying the best schedule found.  With a ``store``, a
    persisted record for this machine + workload short-circuits the whole
    session (``reuse=False`` forces a fresh search) and the session's
    winner is persisted for the next caller.
    """
    rng = random.Random(seed)
    params = params or {}
    np_shape = tuple(reversed(tuple(int(d) for d in shape)))
    if store is not None and reuse:
        record = TuningDatabase(store).lookup(func_workload(func, np_shape),
                                              engine=engine)
        if record is not None and record.valid_for(1):
            func.schedule = replace(record.schedules[0])
            tuner_stats["db_hits"] += 1
            return TuneResult(best_schedule=func.schedule,
                              best_time=record.best_time,
                              evaluations=0, history=[],
                              source="database")
    # Spin the worker threads up outside the timed region (a no-op for
    # single-worker pools).
    warm_pool()
    sampler = _sample_reduction_schedule if func.reduction is not None \
        else _sample_schedule
    candidates = [Schedule()] + [sampler(rng) for _ in range(iterations)]
    candidates = _dedupe(candidates, _schedule_key)
    scores = rank_func_candidates(func, np_shape, candidates,
                                  buffers=buffers, backend=engine)
    history: list[tuple[Schedule, float]] = []
    best_schedule, best_time = None, float("inf")
    for index in _select_timed(scores, top_k):
        candidate = candidates[index]
        func.schedule = candidate
        elapsed = _time_schedule(func, shape, buffers, params, engine)
        history.append((candidate, elapsed))
        if elapsed < best_time:
            best_time = elapsed
            best_schedule = candidate
    func.schedule = best_schedule
    result = TuneResult(best_schedule=best_schedule, best_time=best_time,
                        evaluations=len(history), history=history,
                        ranked=scores, candidates=candidates)
    if store is not None:
        record = TuningRecord(
            schedules=[replace(best_schedule)],
            best_time=best_time,
            evaluations=len(history),
            history=[(s.describe(), t) for s, t in history],
            pool_width=pool_size(),
            engine=engine or "default")
        TuningDatabase(store).record(func_workload(func, np_shape), record,
                                     engine=engine)
        tuner_stats["db_stores"] += 1
    return result


# ---------------------------------------------------------------------------
# Pipeline-level tuning: tiles + parallelism + compute levels
# ---------------------------------------------------------------------------


@dataclass
class PipelineTuneResult:
    """Outcome of a pipeline autotuning session.

    ``best_schedules`` holds one :class:`Schedule` per stage (the winning
    compute levels included); ``history`` pairs each *timed* candidate's
    per-stage ``describe()`` strings with its measured time; ``ranked`` is
    the cost model's ordering of the full sampled set.
    """

    best_schedules: list[Schedule]
    best_time: float
    evaluations: int
    history: list[tuple[tuple[str, ...], float]]
    ranked: list[CandidateScore] = field(default_factory=list)
    #: The deduped candidate set the ranking indexes into (baseline first);
    #: one per-stage schedule list per candidate.
    candidates: list[list[Schedule]] = field(default_factory=list)
    source: str = "search"


def _sample_pipeline_schedules(pipeline, rng: random.Random) -> list[Schedule]:
    """One random per-stage schedule assignment.

    The output stage draws tiles/parallelism like :func:`_sample_schedule`;
    every producer draws a compute level: ``default`` (ghost-ringed
    full-frame, with pointwise inline fusion), ``root``, or — when the consumer can
    anchor it — ``at`` the consumer's second-innermost variable.
    """
    stages = pipeline.stages
    out_schedule = _sample_reduction_schedule(rng) \
        if stages[-1].func.reduction is not None else _sample_schedule(rng)
    out_schedule.compute = "root" if rng.random() < 0.7 else "default"
    schedules: list[Schedule] = []
    for index, stage in enumerate(stages[:-1]):
        consumer = stages[index + 1]
        if stage.func.reduction is not None:
            # Reduction producers never compute_at; sample their strip
            # height and parallel flag at root/default instead.
            schedule = _sample_reduction_schedule(rng)
            schedule.compute = "root" if rng.random() < 0.7 else "default"
            schedules.append(schedule)
            continue
        choice = rng.choice(("default", "root", "at"))
        schedule = Schedule()
        if choice == "at" and len(consumer.func.variables) >= 1:
            anchor_var = consumer.func.variables[
                1 if len(consumer.func.variables) >= 2 else 0]
            schedule.compute = "at"
            schedule.compute_at = (consumer.name, anchor_var.name)
        elif choice == "root":
            schedule.compute = "root"
        schedules.append(schedule)
    schedules.append(out_schedule)
    return schedules


def _apply_schedules(pipeline, schedules: list[Schedule]) -> None:
    for stage, schedule in zip(pipeline.stages, schedules):
        stage.func.schedule = schedule


def _time_pipeline(pipeline, image, params, engine, repeats: int = 3) -> float:
    best = float("inf")
    tuner_stats["timed_evaluations"] += 1
    for _ in range(repeats):
        start = time.perf_counter()
        pipeline.realize(image, params, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def autotune_pipeline(pipeline, image, params=None, iterations: int = 10,
                      seed: int = 0, engine: str | None = None,
                      top_k: int | None = DEFAULT_TOP_K, store=None,
                      reuse: bool = True) -> PipelineTuneResult:
    """Search per-stage schedules (incl. compute levels) for a pipeline.

    Candidates that schedule a producer ``compute_at`` run through the
    lowered loop-nest IR with tile-plus-ghost-zone scratch buffers; the
    lowering demotes anchors it cannot bound (recorded in
    ``FuncPipeline.describe``), and the cost model sorts every demoted
    candidate *after* every fully-honoured one, so the timed top-k is spent
    on candidates whose requested levels actually run.  The pipeline is
    left carrying the best schedules found.  Database semantics (``store``,
    ``reuse``) match :func:`autotune`.
    """
    rng = random.Random(seed)
    params = params or {}
    frame_shape = tuple(int(d) for d in image.shape)
    if store is not None and reuse:
        record = TuningDatabase(store).lookup(
            pipeline_workload(pipeline, frame_shape), engine=engine)
        if record is not None and record.valid_for(len(pipeline.stages)):
            best = [replace(s) for s in record.schedules]
            _apply_schedules(pipeline, best)
            tuner_stats["db_hits"] += 1
            return PipelineTuneResult(best_schedules=best,
                                      best_time=record.best_time,
                                      evaluations=0,
                                      history=list(record.history or []),
                                      source="database")
    warm_pool()
    baseline = [replace(stage.func.schedule) for stage in pipeline.stages]
    candidates = [baseline] + [_sample_pipeline_schedules(pipeline, rng)
                               for _ in range(iterations)]
    candidates = _dedupe(candidates,
                         lambda ss: tuple(_schedule_key(s) for s in ss))
    scores = rank_pipeline_candidates(pipeline, frame_shape, candidates,
                                      backend=engine)
    history: list[tuple[tuple[str, ...], float]] = []
    best_schedules, best_time = None, float("inf")
    for index in _select_timed(scores, top_k):
        candidate = candidates[index]
        _apply_schedules(pipeline, candidate)
        elapsed = _time_pipeline(pipeline, image, params, engine)
        history.append((tuple(s.describe() for s in candidate), elapsed))
        if elapsed < best_time:
            best_time = elapsed
            best_schedules = candidate
    _apply_schedules(pipeline, best_schedules)
    result = PipelineTuneResult(best_schedules=list(best_schedules),
                                best_time=best_time,
                                evaluations=len(history), history=history,
                                ranked=scores, candidates=candidates)
    if store is not None:
        record = TuningRecord(
            schedules=[replace(s) for s in best_schedules],
            best_time=best_time,
            evaluations=len(history),
            history=history,
            pool_width=pool_size(),
            engine=engine or "default")
        TuningDatabase(store).record(
            pipeline_workload(pipeline, frame_shape), record, engine=engine)
        tuner_stats["db_stores"] += 1
    return result
