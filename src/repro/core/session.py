"""Store-backed lift sessions: resume, provenance and per-stage statistics.

A :class:`LiftSession` drives the stage chain of :mod:`repro.core.stages`
for one (app, filter, seed) scenario.  Before computing a stage it consults
an :class:`~repro.store.ArtifactStore` under the stage's content-addressed
key; afterwards it persists the artifact.  Because every stage is covered,
the session resumes from the deepest cached prefix automatically — a fully
warm lift deserializes eight artifacts and performs **zero instrumented
program runs**, and a store holding only the expensive early stages (the
traces) still skips every program run while recomputing the cheap analyses.

``explain()`` returns the full provenance: per stage, the key digest, where
the artifact came from (store hit vs computed), how long it took, and how
many instrumented runs it cost.
"""

from __future__ import annotations

import time

from dataclasses import dataclass
from typing import Callable, Optional

from ..apps.base import Application, app_run_count
from ..store import ArtifactKey, ArtifactStore, default_store, stage_key
from .codegen import generate_funcs
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
        self._computers: dict[str, Callable[[], object]] = {
            "coverage": lambda: run_coverage_stage(
                self.app, self.filter_name, self.seed),
            "screen": lambda: run_screen_stage(
                self.app, self.filter_name, self.artifact("coverage"), self.seed),
            "localize": lambda: run_localize_stage(
                self.app, self.artifact("coverage"), self.artifact("screen")),
            "trace": lambda: run_trace_stage(
                self.app, self.filter_name, self.artifact("localize"), self.seed),
            "forward": lambda: run_forward_stage(
                self.app, self.filter_name, self.artifact("trace")),
            "buffers": lambda: run_buffers_stage(
                self.app, self.filter_name, self.artifact("trace"),
                self.artifact("forward")),
            "trees": lambda: run_trees_stage(
                self.artifact("trace"), self.artifact("forward"),
                self.artifact("buffers"), self.seed),
            "codegen": lambda: run_codegen_stage(self.artifact("trees")),
        }

    # -- keys ----------------------------------------------------------------

    def key_for(self, stage: str) -> ArtifactKey:
        """The content-addressed store key of one stage of this session."""
        return stage_key(self.app.fingerprint(), self.filter_name, self.seed,
                         stage, STAGE_VERSIONS, STAGES)

    # -- stage access ----------------------------------------------------------

    def artifact(self, stage: str, refresh: bool = False) -> object:
        """The artifact of ``stage``, loading or computing it on demand.

        ``refresh=True`` recomputes this stage even when the store holds it
        (the recomputed artifact is persisted, repairing a stale entry after
        a version bump went unnoticed in a long-lived process).
        """
        if stage not in self._computers:
            raise KeyError(f"unknown stage {stage!r} (expected one of {STAGES})")
        if not refresh and stage in self._artifacts:
            return self._artifacts[stage]
        # Resolve upstream stages first, each under its own report, so this
        # stage's timing window and run counter never swallow a dependency's
        # work (artifact("codegen") on a cold session would otherwise charge
        # the whole pipeline to codegen).
        for upstream in STAGES[:STAGES.index(stage)]:
            if upstream not in self._artifacts:
                self.artifact(upstream)
        key = self.key_for(stage) if self.store is not None else None
        start = time.perf_counter()
        runs_before = app_run_count()
        artifact = None
        source = "computed"
        if key is not None and not refresh:
            artifact = self.store.get(key)
            if artifact is not None:
                source = "hit"
        if artifact is None:
            artifact = self._computers[stage]()
            if key is not None:
                self.store.put(key, artifact)
        self._artifacts[stage] = artifact
        self._reports[stage] = StageReport(
            stage=stage, source=source,
            seconds=time.perf_counter() - start,
            instrumented_runs=app_run_count() - runs_before,
            key=key,
            path=str(self.store.blob_path(key)) if key is not None else None)
        return artifact

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
        """Run (or resume) every stage and assemble the :class:`LiftResult`."""
        from .pipeline import LiftResult

        for stage in STAGES:
            self.artifact(stage)
        trace_artifact = self._artifacts["trace"]
        tree_artifact = self._artifacts["trees"]
        buffer_artifact = self._artifacts["buffers"]
        funcs = {kernel.output: generate_funcs(kernel)
                 for kernel in tree_artifact.kernels}
        return LiftResult(
            app_name=self.app.name,
            filter_name=self.filter_name,
            localization=self._artifacts["localize"],
            trace=trace_artifact.trace,
            forward=self._artifacts["forward"].forward,
            buffer_specs=buffer_artifact.specs,
            concrete_trees=tree_artifact.concrete,
            kernels=tree_artifact.kernels,
            funcs=funcs,
            halide_sources=dict(self._artifacts["codegen"].halide_sources),
            trace_run=trace_artifact.run,
            warnings=list(tree_artifact.warnings))

    # -- provenance ------------------------------------------------------------

    def explain(self) -> list[StageReport]:
        """Per-stage provenance, in pipeline order (pending stages included)."""
        return [self._reports.get(stage, StageReport(stage=stage, source="pending"))
                for stage in STAGES]

    def stats(self) -> dict:
        """Aggregate session statistics (timings, hits/misses, program runs)."""
        reports = [r for r in self._reports.values()]
        return {
            "stages_run": len(reports),
            "hits": sum(1 for r in reports if r.source == "hit"),
            "computed": sum(1 for r in reports if r.source == "computed"),
            "seconds": sum(r.seconds for r in reports),
            "instrumented_runs": sum(r.instrumented_runs for r in reports),
            "stage_seconds": {r.stage: r.seconds
                              for stage in STAGES
                              for r in [self._reports.get(stage)] if r},
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
