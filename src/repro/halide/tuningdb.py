"""Persistent tuning database: measured schedules in the artifact store.

Autotuning wall-clock-times candidate schedules, which is a per-process tax
the paper's OpenTuner workflow pays once and amortizes.  This module gives
the repo the same amortization: every tuning session's winner is persisted
in the :class:`~repro.store.store.ArtifactStore` under a dedicated
``tuning/`` stage, keyed by

* the **workload identity** — for pipelines, :func:`pipeline_workload`
  (stage names, expressions, padding, dtypes and the frame shape; the
  *schedules* are the record's payload, so they are excluded from the key),
  and for single Funcs the expression/reduction structure plus the
  realization shape;
* the **machine fingerprint** — architecture, OS and CPU count.  Timings do
  not transfer across machines, so a foreign record must be a clean miss,
  never a wrong-schedule hit;
* ``TUNING_VERSION`` — bumped when the schedule search space or the record
  layout changes incompatibly.

A :class:`TuningRecord` survives pickle round-trips and store restarts like
any other artifact; a corrupt blob is quarantined by the store itself
(``<root>/quarantine/``) and reads as a miss, so warm-start callers fall
back to live tuning instead of failing.  :func:`warm_start_pipeline` /
:func:`warm_start_func` apply the best known schedules at zero timing cost
— this is what lets :class:`~repro.halide.serve.PipelineServer` and
``serve_lifted`` skip candidate evaluation entirely after one ``python -m
repro tune`` run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from ..store import ArtifactKey
from .func import Func, Schedule

#: Store stage directory holding tuning records (not a lift stage: lift
#: artifacts are keyed by app fingerprint + code fingerprint, tuning records
#: by workload + machine — see module docstring).
TUNING_STAGE = "tuning"

#: Bump to invalidate every stored tuning record (search-space or record
#: layout changes).  v2: fingerprint carries the execution backend, so
#: native and NumPy records never cross-contaminate.
TUNING_VERSION = 2


def machine_fingerprint(engine: str | None = None) -> dict:
    """What makes one machine's timings non-transferable to another.

    CPU count is included because the winning schedule's ``parallel`` flag
    and tile sizes depend on the pool width available when it was measured.
    The execution backend is part of the fingerprint for the same reason:
    the native backend's per-tile dispatch is orders of magnitude cheaper
    than the NumPy engines', so a schedule tuned on one is wrong for the
    other.  ``engine=None`` means the process-wide default engine.
    """
    from .realize import get_default_engine
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": int(os.cpu_count() or 1),
        "backend": engine if engine is not None else get_default_engine(),
    }


def _canonical(value):
    """A JSON-stable view of a workload key.

    Tuples become lists, mappings are sorted by stringified key, and
    non-JSON leaves (DTypes, IR key atoms) become their ``str`` form —
    deterministic because every leaf's ``__str__`` is content-derived, never
    an ``id()``-bearing ``repr``.
    """
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(val)
                for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    return str(value)


def tuning_key(workload, machine: dict | None = None) -> ArtifactKey:
    """The content-addressed store key of one (workload, machine) pair."""
    payload = json.dumps({
        "stage": TUNING_STAGE,
        "version": TUNING_VERSION,
        "machine": _canonical(machine if machine is not None
                              else machine_fingerprint()),
        "workload": _canonical(workload),
    }, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return ArtifactKey(stage=TUNING_STAGE, digest=digest, payload=payload)


def tuning_manifest_is_current(manifest: dict) -> bool:
    """Is a stored manifest a live tuning record (for ``cache prune``)?

    Tuning records carry no lift-stage version chain, so the lift-side
    :func:`~repro.store.keys.manifest_is_current` rejects them; this is
    their own currency test.
    """
    key = manifest.get("key")
    return (isinstance(key, dict)
            and key.get("stage") == TUNING_STAGE
            and key.get("version") == TUNING_VERSION)


def _reduction_key(func: Func):
    """Structural key of a Func's reduction update (None without one)."""
    if func.reduction is None:
        return None
    rdom, index_exprs, update = func.reduction
    return (rdom.name, rdom.source, rdom.dimensions,
            tuple(e.cached_key() for e in index_exprs), update.cached_key())


def pipeline_workload(pipeline, frame_shape) -> tuple:
    """Workload identity of a FuncPipeline at one frame shape.

    The pipeline's structure — per stage its name, input, padding, Func
    name and dtype, value and reduction expressions — and the frame shape,
    but no schedule: the stored record *is* the schedule assignment, so a
    lookup must succeed whatever schedules the pipeline currently carries.
    """
    parts = tuple(
        (stage.name, stage.input_name, stage.pad, stage.pad_width,
         stage.func.name, stage.func.dtype,
         stage.func.value.cached_key() if stage.func.value is not None
         else None,
         _reduction_key(stage.func))
        for stage in pipeline.stages)
    return ("pipeline", tuple(int(d) for d in frame_shape), parts)


def func_workload(func: Func, np_shape) -> tuple:
    """Workload identity of a single Func realized at one output shape.

    ``np_shape`` is the output shape in NumPy (outermost-first) order;
    callers holding the x-first ``realize`` shape reverse it first so the
    tune-time and serve-time keys agree.
    """
    return ("func", func.name, str(func.dtype),
            func.value.cached_key() if func.value is not None else None,
            _reduction_key(func),
            tuple(int(d) for d in np_shape))


@dataclass
class TuningRecord:
    """One tuning session's outcome, as persisted in the store.

    ``schedules`` holds one :class:`Schedule` per pipeline stage (a single
    element for Func workloads); ``history`` pairs each timed candidate's
    per-stage ``describe()`` strings with its measured best-of-N seconds.
    """

    schedules: list[Schedule]
    best_time: float
    evaluations: int
    history: list = field(default_factory=list)
    machine: dict = field(default_factory=machine_fingerprint)
    pool_width: int = 1
    engine: str = "default"
    created: str = ""

    def valid_for(self, stage_count: int) -> bool:
        """Defensive shape check before applying a deserialized record."""
        return (isinstance(self.schedules, list)
                and len(self.schedules) == stage_count
                and all(isinstance(s, Schedule) for s in self.schedules))


class TuningDatabase:
    """Lookup/record interface over the ``tuning/`` store stage."""

    def __init__(self, store=None) -> None:
        if store is None:
            from ..store import default_store

            store = default_store()
        self.store = store

    def lookup(self, workload, engine: str | None = None
               ) -> Optional[TuningRecord]:
        """The stored record for this workload on this machine/backend.

        ``engine`` selects which backend's records to consult (default: the
        process-wide default engine — the fingerprint includes it, so
        native and NumPy records never cross-contaminate).  A corrupt blob
        was already quarantined by the store's own read path; a well-formed
        blob that is not a :class:`TuningRecord` (a foreign artifact under
        our digest — effectively impossible, but cheap to guard) is
        likewise a miss.  Either way the caller tunes live.
        """
        artifact = self.store.get(
            tuning_key(workload, machine_fingerprint(engine)))
        if not isinstance(artifact, TuningRecord):
            return None
        return artifact

    def record(self, workload, record: TuningRecord,
               engine: str | None = None) -> None:
        if not record.created:
            record.created = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.store.put(
            tuning_key(workload, machine_fingerprint(engine)), record)

    def entries(self) -> list[dict]:
        """Every tuning manifest in the store (any machine, any version)."""
        return [manifest for manifest in self.store.entries()
                if manifest.get("stage") == TUNING_STAGE]

    def evict(self) -> int:
        """Delete every tuning record; returns how many blobs were removed."""
        stage_root = self.store.root / TUNING_STAGE
        removed = 0
        if not stage_root.exists():
            return removed
        for path in list(stage_root.iterdir()):
            if path.suffix not in (".pkl", ".json"):
                continue
            if path.suffix == ".pkl":
                removed += 1
            try:
                path.unlink()
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------------
# Warm start: apply the best known schedules at zero timing cost
# ---------------------------------------------------------------------------


def warm_start_pipeline(pipeline, frame_shape, store=None,
                        engine: str | None = None) -> Optional[TuningRecord]:
    """Apply this machine's best known schedules to ``pipeline``, if any.

    ``engine`` picks whose records to consult, as in
    :meth:`TuningDatabase.lookup`.  Returns the applied record, or None on
    a miss (no record, foreign machine, corrupt blob, wrong stage count).
    Schedules are applied as fresh copies so later mutation of the pipeline
    never rewrites the record's objects.  Never raises: a broken store must
    degrade to live tuning, not break serving.
    """
    from .autotune import tuner_stats

    record = None
    try:
        db = TuningDatabase(store)
        record = db.lookup(pipeline_workload(pipeline, frame_shape), engine)
    except Exception:
        record = None
    if record is None or not record.valid_for(len(pipeline.stages)):
        tuner_stats["warm_start_misses"] += 1
        return None
    for stage, schedule in zip(pipeline.stages, record.schedules):
        stage.func.schedule = replace(schedule)
    tuner_stats["warm_start_hits"] += 1
    return record


def warm_start_func(func: Func, np_shape, store=None,
                    engine: str | None = None) -> Optional[TuningRecord]:
    """Single-Func analogue of :func:`warm_start_pipeline`."""
    from .autotune import tuner_stats

    record = None
    try:
        db = TuningDatabase(store)
        record = db.lookup(func_workload(func, np_shape), engine)
    except Exception:
        record = None
    if record is None or not record.valid_for(1):
        tuner_stats["warm_start_misses"] += 1
        return None
    func.schedule = replace(record.schedules[0])
    tuner_stats["warm_start_hits"] += 1
    return record
