"""Store-backed lift sessions: resume, provenance and per-stage statistics.

A :class:`LiftSession` drives the stage chain of :mod:`repro.core.stages`
for one (app, filter, seed) scenario.  Asked for a stage's artifact, it
tries the :class:`~repro.store.ArtifactStore` under that stage's
content-addressed key first; only on a miss does it resolve the stages the
computation reads (each the same way) and compute it, persisting the
result.  So the session resumes from the deepest cached stage automatically,
and reads nothing it does not need: a fully warm :meth:`LiftSession.run`
deserializes two small artifacts (``codegen``, which carries the kernels,
and ``buffers``) and performs **zero instrumented program runs**.  The
traces, profiles and concrete trees load through the session when a
:class:`~repro.core.pipeline.LiftResult` field that holds them is first
read; a store holding only the expensive early stages (the traces) still
skips every program run while recomputing the cheap analyses.

``explain()`` returns the full provenance: per stage, the key digest, where
the artifact came from (store hit, computed, or still pending because
nothing read it), how long it took, and how many instrumented runs it cost.
"""

from __future__ import annotations

import threading
import time

from dataclasses import dataclass
from typing import Callable, Optional

from ..apps.base import Application, app_run_count
from ..store import ArtifactKey, ArtifactStore, default_store, stage_key
from .stages import (
    STAGE_VERSIONS,
    STAGES,
    run_buffers_stage,
    run_codegen_stage,
    run_coverage_stage,
    run_forward_stage,
    run_localize_stage,
    run_screen_stage,
    run_trace_stage,
    run_trees_stage,
)


@dataclass
class StageReport:
    """Provenance of one stage within one session."""

    stage: str
    source: str                    # "hit" | "computed" | "pending"
    seconds: float = 0.0
    instrumented_runs: int = 0
    key: Optional[ArtifactKey] = None
    path: Optional[str] = None

    def as_row(self) -> tuple:
        digest = self.key.digest[:12] if self.key else "-"
        return (self.stage, self.source, f"{self.seconds:.4f}s",
                self.instrumented_runs, digest)


class LiftSession:
    """One staged lift of ``filter_name`` from ``app``, seeded by ``seed``.

    ``store`` defaults to the process-wide store at
    :func:`repro.store.default_store_root`; pass ``use_store=False`` for an
    always-cold, purely in-memory lift (what :func:`lift_filter` does).
    """

    def __init__(self, app: Application, filter_name: str, seed: int = 0,
                 store: ArtifactStore | None = None,
                 use_store: bool = True) -> None:
        self.app = app
        self.filter_name = filter_name
        self.seed = seed
        self.store = (store if store is not None else default_store()) \
            if use_store else None
        self._artifacts: dict[str, object] = {}
        self._reports: dict[str, StageReport] = {}
        # Held while a stage loads or computes, so threads reading one
        # result's deferred fields load each stage once.
        self._lock = threading.RLock()

    # -- keys ----------------------------------------------------------------

    def key_for(self, stage: str) -> ArtifactKey:
        """The content-addressed store key of one stage of this session."""
        return stage_key(self.app.fingerprint(), self.filter_name, self.seed,
                         stage, STAGE_VERSIONS, STAGES)

    # -- stage access ----------------------------------------------------------

    def artifact(self, stage: str, refresh: bool = False) -> object:
        """The artifact of ``stage``, loading or computing it on demand.

        The store is tried first; the stages this one is computed from are
        resolved only on a miss.  ``refresh=True`` recomputes this stage
        even when the store holds it (the recomputed artifact is persisted,
        repairing a stale entry after a version bump went unnoticed in a
        long-lived process).
        """
        if stage not in _COMPUTE:
            raise KeyError(f"unknown stage {stage!r} (expected one of {STAGES})")
        with self._lock:
            if not refresh and stage in self._artifacts:
                return self._artifacts[stage]
            key = self.key_for(stage) if self.store is not None else None
            start = time.perf_counter()
            artifact = None
            if key is not None and not refresh:
                artifact = self.store.get(key)
            seconds = time.perf_counter() - start
            source, runs = "hit", 0
            if artifact is None:
                # Each input resolves under its own report, so this stage's
                # timing window and run counter never swallow a dependency's
                # work (artifact("codegen") on a cold session would otherwise
                # charge the whole pipeline to codegen).
                inputs, compute = _COMPUTE[stage]
                arguments = [self.artifact(name) for name in inputs]
                start = time.perf_counter()
                runs_before = app_run_count()
                artifact = compute(self, *arguments)
                if key is not None:
                    self.store.put(key, artifact)
                seconds += time.perf_counter() - start
                source, runs = "computed", app_run_count() - runs_before
            self._artifacts[stage] = artifact
            self._reports[stage] = StageReport(
                stage=stage, source=source, seconds=seconds,
                instrumented_runs=runs, key=key,
                path=str(self.store.blob_path(key)) if key is not None
                else None)
            return artifact

    def loaded(self, stage: str) -> object | None:
        """The artifact of ``stage`` if this session already holds it."""
        return self._artifacts.get(stage)

    def resume_from(self, stage: str) -> None:
        """Force recomputation of ``stage`` and everything after it.

        Earlier stages still come from memory or the store — this is the
        "resume the pipeline from stage N" knob.
        """
        if stage not in STAGES:
            raise KeyError(f"unknown stage {stage!r} (expected one of {STAGES})")
        for name in STAGES[STAGES.index(stage):]:
            self._artifacts.pop(name, None)
            self._reports.pop(name, None)
        for name in STAGES[STAGES.index(stage):]:
            self.artifact(name, refresh=True)

    # -- whole lift ------------------------------------------------------------

    def run(self) -> "LiftResult":
        """Run (or resume) the lift and assemble the :class:`LiftResult`.

        Reads the ``codegen`` and ``buffers`` artifacts, computing whatever
        the store lacks; the result loads its other fields through this
        session when they are first read.
        """
        from .pipeline import LiftResult

        return LiftResult.from_session(self)

    # -- provenance ------------------------------------------------------------

    def explain(self) -> list[StageReport]:
        """Per-stage provenance, in pipeline order (pending stages included)."""
        return [self._reports.get(stage, StageReport(stage=stage, source="pending"))
                for stage in STAGES]

    def stats(self) -> dict:
        """Aggregate session statistics (timings, hits/misses, program runs)."""
        with self._lock:
            reports = list(self._reports.values())
        return {
            "stages_run": len(reports),
            "hits": sum(1 for r in reports if r.source == "hit"),
            "computed": sum(1 for r in reports if r.source == "computed"),
            "pending": len(STAGES) - len(reports),
            "seconds": sum(r.seconds for r in reports),
            "instrumented_runs": sum(r.instrumented_runs for r in reports),
            "stage_seconds": {r.stage: r.seconds
                              for stage in STAGES
                              for r in [self._reports.get(stage)] if r},
        }


#: Per stage: the stages its computation reads, and the computation, called
#: with the session and their artifacts in that order.
_COMPUTE: dict[str, tuple[tuple[str, ...], Callable]] = {
    "coverage": ((), lambda s: run_coverage_stage(
        s.app, s.filter_name, s.seed)),
    "screen": (("coverage",), lambda s, coverage: run_screen_stage(
        s.app, s.filter_name, coverage, s.seed)),
    "localize": (("coverage", "screen"), lambda s, coverage, screen:
                 run_localize_stage(s.app, coverage, screen)),
    "trace": (("localize",), lambda s, localization: run_trace_stage(
        s.app, s.filter_name, localization, s.seed)),
    "forward": (("trace",), lambda s, trace: run_forward_stage(
        s.app, s.filter_name, trace)),
    "buffers": (("trace", "forward"), lambda s, trace, forward:
                run_buffers_stage(s.app, s.filter_name, trace, forward)),
    "trees": (("trace", "forward", "buffers"), lambda s, trace, forward,
              buffers: run_trees_stage(trace, forward, buffers, s.seed)),
    "codegen": (("trees",), lambda s, trees: run_codegen_stage(trees)),
}


def lift_scenario(app_name: str, filter_name: str, seed: int | None = None,
                  store: ArtifactStore | None = None,
                  use_store: bool = True) -> "LiftResult":
    """Lift a registered scenario (see :mod:`repro.apps.registry`) by name."""
    from ..apps.registry import get_scenario

    scenario = get_scenario(app_name, filter_name)
    session = LiftSession(scenario.make_app(), filter_name,
                          seed=scenario.seed if seed is None else seed,
                          store=store, use_store=use_store)
    return session.run()
