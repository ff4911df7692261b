"""Feature-based cost model for lowered-schedule candidates.

The autotuner samples a candidate set far larger than it can afford to
wall-clock-time; this model ranks the whole set analytically so only the
top-k survivors are timed (:mod:`repro.halide.autotune`).  Features come
from metadata the lowering already computes — :class:`StageDecision`
footprints, scratch allocation sizes, strip/refill counts, ghost-zone
padding — plus structural facts the schedule itself determines: arithmetic
intensity (expression node counts), tile dispatch counts, and parallel
fan-out against the live :func:`~repro.halide.parallel.configure_pool`
width.

The model is deliberately coarse: its contract is a useful *ranking*, not
an absolute time prediction.  Three properties are load-bearing (and
property-tested in ``tests/halide/test_costmodel.py``):

* **Determinism** — features and costs are pure functions of the pipeline
  structure, the frame shape and the pool configuration; no dict iteration
  order, hash seed, wall clock or RNG feeds them.
* **Stable total order** — ties on cost break on the candidate's
  ``describe()`` strings, so two processes (whatever their hash seeds)
  rank identical candidate sets identically.
* **Demoted never outranks valid** — a candidate the lowering demotes (or
  that requests parallelism the pool cannot honour) sorts after every
  fully-honoured candidate, whatever its modelled cost: the sort key is
  ``(demotions, cost, describe)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .func import Func, Schedule
from .parallel import MIN_PARALLEL_ELEMS, parallel_enabled, pool_size

# Cost weights (arbitrary units; only relative magnitudes matter).  Tuned so
# the known-good orderings hold on the benchmark pipelines: compute_at with
# cache-resident scratch beats compute_root full-frame intermediates
# (fig8), row-strip compute_at (ghost-zone recompute x3 for a 3x3 stencil)
# loses to tile-sized scratch, and micro-tiles lose to untiled sweeps on
# per-tile dispatch overhead.
COST_POINT = 1.0            #: per point-operation (expression node visit)
MEM_WEIGHT = 6.0            #: per byte of a memory-resident intermediate
CACHE_WEIGHT = 0.5          #: per byte of a cache-resident intermediate
CACHE_RESIDENT_BYTES = 256 * 1024   #: L2-ish residency threshold
COST_TILE_DISPATCH = 400.0  #: per tile dispatched (slicing/loop overhead)

#: Per-backend tile-dispatch cost.  The NumPy engines pay Python-level
#: slicing, kernel-cache lookup and ufunc setup per Store; the native
#: backend's per-tile cost is a single GIL-released C call, so small tiles
#: stop being over-penalized there.  The interpreter re-walks the whole
#: expression tree per tile on top of the NumPy overheads.
COST_TILE_DISPATCH_BY_BACKEND = {
    "interp": 800.0,
    "compiled": COST_TILE_DISPATCH,
    "native": 40.0,
}


def tile_dispatch_cost(backend: str | None = None) -> float:
    """The per-tile dispatch weight for one backend (default: compiled)."""
    if backend is None:
        return COST_TILE_DISPATCH
    return COST_TILE_DISPATCH_BY_BACKEND.get(backend, COST_TILE_DISPATCH)
COST_SCRATCH_REFILL = 300.0  #: per compute_at scratch refill (pad + setup)
COST_TASK_SPAWN = 1500.0    #: per parallel work item offered to the pool
PARALLEL_EFFICIENCY = 0.75  #: marginal speedup per extra worker
MERGE_WEIGHT = 2.0          #: per merged partial-accumulator element


@dataclass(frozen=True)
class StageFeatures:
    """Deterministic per-stage features the cost terms are computed from."""

    name: str
    #: The lowering's level: "output" | "default" | "root" | "at".
    level: str
    #: The lowering could not honour the requested level (or a parallel
    #: request has no legal decomposition).
    demoted: bool
    #: Total points this stage materializes per frame, ghost-zone recompute
    #: included (``scratch_points * refills`` for compute_at stages).
    points: float
    #: Arithmetic intensity: expression nodes evaluated per point.
    work_per_point: float
    bytes_per_point: float
    #: Steady-state allocation backing the stage's values (scratch buffer
    #: for compute_at, full frame otherwise).
    resident_bytes: float
    #: compute_at scratch refills per frame (0 when not compute_at).
    refills: float
    #: Tiles the stage's own evaluation loop dispatches (1 = one sweep).
    tile_count: float
    #: Effective workers this stage's compute divides across (>= 1).
    parallel_width: float
    #: Partial accumulators a parallel reduction merges (0 = not a
    #: reduction, 1 = serial whole-domain sweep).
    reduction_strips: float
    #: True for stages whose materialization is consumed by a later stage
    #: (their bytes round-trip to the consumer; the final output is written
    #: exactly once either way).
    intermediate: bool


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's modelled cost, orderable deterministically."""

    index: int                       #: position in the ranked candidate list
    describe: tuple[str, ...]        #: per-stage Schedule.describe() strings
    cost: float
    demotions: int
    features: tuple[StageFeatures, ...] = ()

    @property
    def sort_key(self) -> tuple:
        return (self.demotions, self.cost, self.describe)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def expression_work(func: Func) -> float:
    """Expression nodes evaluated per output point (arithmetic intensity)."""
    nodes = 0
    if func.value is not None:
        nodes += sum(1 for _ in func.value.walk())
    if func.reduction is not None:
        _rdom, index_exprs, update = func.reduction
        nodes += sum(1 for _ in update.walk())
        nodes += sum(sum(1 for _ in expr.walk()) for expr in index_exprs)
    return float(max(nodes, 1))


def _tile_count(np_shape: Sequence[int], schedule: Schedule) -> float:
    """Tiles one evaluation sweep dispatches under this schedule."""
    shape = tuple(int(d) for d in np_shape)
    if len(shape) < 2 or schedule.tile_x <= 0 or schedule.tile_y <= 0:
        return 1.0
    # Variables are innermost-first: tile_x blocks the last NumPy axis,
    # tile_y the second-to-last; outer axes iterate the tile grid whole.
    tiles = math.ceil(shape[-1] / schedule.tile_x) \
        * math.ceil(shape[-2] / schedule.tile_y)
    outer = 1
    for extent in shape[:-2]:
        outer *= max(int(extent), 1)
    return float(tiles * outer)


def _effective_parallel_width(func: Func, np_shape: Sequence[int],
                              tile_count: float) -> float:
    """Workers this Func's compute really divides across (>= 1).

    Mirrors the execution stack's own gates: the schedule must request
    parallelism, the Func must have a legal decomposition
    (:meth:`Func.parallel_unsupported_reason`), the environment must allow
    it (pool width, kill switch), and the realization must clear the
    fan-out threshold below which the executor stays serial.
    """
    if not func.schedule.parallel:
        return 1.0
    if func.parallel_unsupported_reason() is not None:
        return 1.0
    if not parallel_enabled() or pool_size() < 2:
        return 1.0
    elems = 1
    for extent in np_shape:
        elems *= max(int(extent), 1)
    if elems < MIN_PARALLEL_ELEMS:
        return 1.0
    units = tile_count if func.reduction is None else \
        max(1.0, math.ceil(int(np_shape[0]) / func.reduction_strip_rows()))
    return float(max(1.0, min(pool_size(), units)))


def _frame_points(frame_shape: Sequence[int]) -> float:
    points = 1
    for extent in frame_shape:
        points *= max(int(extent), 1)
    return float(points)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def extract_pipeline_features(pipeline, frame_shape: Sequence[int]
                              ) -> tuple[list[StageFeatures], int]:
    """Features of the pipeline *as currently scheduled*, from the
    lowering's own :class:`StageDecision` metadata.

    Returns ``(features, demotions)`` where ``demotions`` counts stages
    whose requested compute level the lowering did not honour.  A pipeline
    the nest cannot express raises
    :class:`~repro.halide.lower.PipelineLoweringError`.
    """
    frame_shape = tuple(int(d) for d in frame_shape)
    lowered = pipeline.lower(frame_shape)
    features: list[StageFeatures] = []
    stages = pipeline.stages
    frame_points = _frame_points(frame_shape)
    for index, (stage, decision) in enumerate(zip(stages, lowered.decisions)):
        func = stage.func
        is_output = index == len(stages) - 1
        itemsize = float(getattr(func.dtype, "size", 1) or 1)
        level = decision.level
        demoted = decision.demoted_reason is not None
        if level == "at" and decision.scratch_extent:
            scratch_points = _frame_points(decision.scratch_extent)
            # The scratch refills once per iteration of the consumer loop it
            # anchors in: per consumer tile when the consumer is tiled, per
            # row strip otherwise.
            consumer = stages[index + 1] if index + 1 < len(stages) else stage
            refills = _tile_count(frame_shape, consumer.func.schedule)
            if refills <= 1.0:
                from .lower import STRIP_HEIGHT

                refills = max(1.0, math.ceil(int(frame_shape[0])
                                             / STRIP_HEIGHT))
            points = scratch_points * refills
            resident = scratch_points * itemsize
        else:
            refills = 0.0
            points = frame_points
            resident = frame_points * itemsize
        tiles = _tile_count(frame_shape, func.schedule)
        width = _effective_parallel_width(func, frame_shape, tiles)
        strips = 0.0
        if func.reduction is not None:
            strips = width if width > 1 else 1.0
        features.append(StageFeatures(
            name=stage.name,
            level=level,
            demoted=demoted,
            points=points,
            work_per_point=expression_work(func),
            bytes_per_point=itemsize,
            resident_bytes=resident,
            refills=refills,
            tile_count=tiles,
            parallel_width=width,
            reduction_strips=strips,
            intermediate=not is_output,
        ))
    return features, sum(1 for f in features if f.demoted)


def extract_func_features(func: Func, np_shape: Sequence[int],
                          buffers=None) -> tuple[list[StageFeatures], int]:
    """Single-Func analogue of :func:`extract_pipeline_features`.

    ``np_shape`` is the output shape in NumPy order.  For reduction Funcs,
    ``buffers`` (when given) supplies the RDom source extents so the domain
    sweep is costed over the real input size rather than the accumulator.
    """
    np_shape = tuple(int(d) for d in np_shape)
    domain_shape = np_shape
    if func.reduction is not None and buffers:
        rdom = func.reduction[0]
        source = buffers.get(rdom.source)
        if source is not None:
            domain_shape = tuple(int(d) for d in source.shape)
    points = _frame_points(domain_shape)
    tiles = _tile_count(domain_shape, func.schedule)
    width = _effective_parallel_width(func, domain_shape, tiles)
    strips = 0.0
    if func.reduction is not None:
        strips = max(1.0, math.ceil(int(domain_shape[0])
                                    / func.reduction_strip_rows())) \
            if width > 1 else 1.0
    demoted = bool(func.schedule.parallel
                   and func.parallel_unsupported_reason() is not None)
    itemsize = float(getattr(func.dtype, "size", 1) or 1)
    feature = StageFeatures(
        name=func.name,
        level="output",
        demoted=demoted,
        points=points,
        work_per_point=expression_work(func),
        bytes_per_point=itemsize,
        resident_bytes=_frame_points(np_shape) * itemsize,
        refills=0.0,
        tile_count=tiles,
        parallel_width=width,
        reduction_strips=strips,
        intermediate=False,
    )
    return [feature], (1 if demoted else 0)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def score_features(features: Sequence[StageFeatures],
                   backend: str | None = None) -> float:
    """Total modelled cost of one candidate (lower is better).

    ``backend`` selects the per-tile dispatch weight
    (:func:`tile_dispatch_cost`); all other terms are backend-independent.
    """
    dispatch = tile_dispatch_cost(backend)
    total = 0.0
    for f in features:
        compute = f.points * f.work_per_point * COST_POINT
        if f.parallel_width > 1.0:
            compute /= 1.0 + PARALLEL_EFFICIENCY * (f.parallel_width - 1.0)
            compute += f.tile_count * COST_TASK_SPAWN
        total += compute
        if f.intermediate:
            weight = MEM_WEIGHT if f.resident_bytes > CACHE_RESIDENT_BYTES \
                else CACHE_WEIGHT
            total += f.points * f.bytes_per_point * weight
        total += f.tile_count * dispatch
        total += f.refills * COST_SCRATCH_REFILL
        if f.reduction_strips > 1.0:
            # Each partial accumulator is merged serially element by element.
            total += f.reduction_strips * (f.resident_bytes
                                           / max(f.bytes_per_point, 1.0)) \
                * MERGE_WEIGHT
    return total


def rank_pipeline_candidates(pipeline, frame_shape: Sequence[int],
                             candidates: Sequence[Sequence[Schedule]],
                             backend: str | None = None
                             ) -> list[CandidateScore]:
    """Score per-stage schedule assignments; best (lowest) first.

    The pipeline's own schedules are saved and restored around the scoring,
    so ranking has no observable effect on the pipeline.  ``backend``
    selects the per-tile dispatch weight.
    """
    saved = [stage.func.schedule for stage in pipeline.stages]
    scores: list[CandidateScore] = []
    try:
        for index, schedules in enumerate(candidates):
            for stage, schedule in zip(pipeline.stages, schedules):
                stage.func.schedule = schedule
            features, demotions = extract_pipeline_features(pipeline,
                                                            frame_shape)
            scores.append(CandidateScore(
                index=index,
                describe=tuple(s.describe() for s in schedules),
                cost=score_features(features, backend),
                demotions=demotions,
                features=tuple(features)))
    finally:
        for stage, schedule in zip(pipeline.stages, saved):
            stage.func.schedule = schedule
    return sorted(scores, key=lambda s: s.sort_key)


def rank_func_candidates(func: Func, np_shape: Sequence[int],
                         candidates: Sequence[Schedule],
                         buffers=None,
                         backend: str | None = None) -> list[CandidateScore]:
    """Single-Func analogue of :func:`rank_pipeline_candidates`."""
    saved = func.schedule
    scores: list[CandidateScore] = []
    try:
        for index, schedule in enumerate(candidates):
            func.schedule = schedule
            features, demotions = extract_func_features(func, np_shape,
                                                        buffers)
            scores.append(CandidateScore(
                index=index,
                describe=(schedule.describe(),),
                cost=score_features(features, backend),
                demotions=demotions,
                features=tuple(features)))
    finally:
        func.schedule = saved
    return sorted(scores, key=lambda s: s.sort_key)
