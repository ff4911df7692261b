"""The end-to-end Helium lifter.

Drives the program runs of the paper's workflow (Figure 1): two coverage
runs for differencing, one profiling + memory-trace run over the surviving
blocks, and one detailed instruction-trace run of the selected filter
function; then runs expression extraction and code generation, producing both
Halide C++ source text and executable mini-Halide functions, plus a validator
that replays the lifted kernels against the original run's memory.

The individual stages live in :mod:`repro.core.stages` (each producing a
typed, serializable artifact); :class:`~repro.core.session.LiftSession`
drives them, skipping any stage already in the artifact store, and
:func:`lift_filter` is its entry point for an application object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from ..apps.base import Application
from ..dynamo.records import InstructionTrace
from ..halide.func import Func
from .buffers import BufferSpec
from .codegen import LiftedKernel, generate_funcs
from .forward import ForwardAnalysis
from .localization import LocalizationResult
from .stages import TraceRunSnapshot

#: The fields a store-backed lift reads on first use: field -> (the stage
#: whose artifact holds it, how to read it from that artifact).
DEFERRED_FIELDS = {
    "localization": ("localize", lambda artifact: artifact),
    "trace": ("trace", attrgetter("trace")),
    "trace_run": ("trace", attrgetter("run")),
    "forward": ("forward", attrgetter("forward")),
    "concrete_trees": ("trees", attrgetter("concrete")),
    "warnings": ("trees", lambda artifact: list(artifact.warnings)),
}


@dataclass
class LiftResult:
    """Everything Helium produced for one filter.

    What applying the lifted kernels needs (``kernels``, ``funcs``,
    ``halide_sources``, ``buffer_specs``) is always set.  The fields of
    :data:`DEFERRED_FIELDS` (``localization``, ``trace``, ``trace_run``,
    ``forward``, ``concrete_trees``, ``warnings``) are set too when the
    session that built the result held their artifacts, as on every cold
    lift.  On a warm lift each loads on first read instead, through
    :meth:`~repro.core.session.LiftSession.artifact`, which holds the
    session's lock: once, however many threads read it, and a lost or
    corrupt blob is recomputed like any other miss, so every field equals
    the cold lift's.  ``app_params`` are the lifted app's parameters, the
    values its trace ran with.

    Serializes through :mod:`repro.store` — the executable ``funcs`` are
    rebuilt from the kernels on deserialization rather than persisted, so a
    loaded result always carries pristine schedules.  Pickling reads every
    deferred field and never the session.
    """

    app_name: str
    filter_name: str
    localization: LocalizationResult
    trace: InstructionTrace
    forward: ForwardAnalysis
    buffer_specs: dict[str, BufferSpec]
    concrete_trees: list
    kernels: list[LiftedKernel]
    funcs: dict[str, Func]
    halide_sources: dict[str, str]
    trace_run: TraceRunSnapshot
    warnings: list[str] = field(default_factory=list)
    app_params: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_session(cls, session) -> "LiftResult":
        """The result of ``session``'s lift, reading only what it must.

        Loads (or computes) the ``codegen`` and ``buffers`` artifacts; each
        deferred field is set from an artifact the session already holds,
        and otherwise left to load on first read.
        """
        codegen = session.artifact("codegen")
        state = {
            "app_name": session.app.name,
            "filter_name": session.filter_name,
            "buffer_specs": session.artifact("buffers").specs,
            "kernels": codegen.kernels,
            "halide_sources": dict(codegen.halide_sources),
            "app_params": dict(getattr(session.app, "params", {})),
        }
        for name, (stage, read) in DEFERRED_FIELDS.items():
            artifact = session.loaded(stage)
            if artifact is not None:
                state[name] = read(artifact)
        result = cls.__new__(cls)
        result.__setstate__(state)
        if not DEFERRED_FIELDS.keys() <= state.keys():
            result.__dict__["_session"] = session
        return result

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance: on a warm
        # result, the deferred fields nothing has read yet.  The session is
        # dropped once every field is set.
        session = self.__dict__.get("_session")
        if session is not None and name in DEFERRED_FIELDS:
            stage = DEFERRED_FIELDS[name][0]
            artifact = session.artifact(stage)
            for other, (other_stage, read) in DEFERRED_FIELDS.items():
                if other_stage == stage:
                    self.__dict__.setdefault(other, read(artifact))
            if DEFERRED_FIELDS.keys() <= self.__dict__.keys():
                self.__dict__.pop("_session", None)
        try:
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}") from None

    # -- serialization -------------------------------------------------------

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "funcs"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.funcs = {kernel.output: generate_funcs(kernel)
                      for kernel in self.kernels}

    # -- statistics (the paper's Figure 6 row) -------------------------------

    def statistics(self) -> dict:
        stats = self.localization.summary()
        stats.update({
            "memory_dump_bytes": self.trace.dump_size_bytes(),
            "dynamic_instructions": self.trace.dynamic_instruction_count(),
            "tree_sizes": sorted({tree.node_count for tree in self.concrete_trees}),
            "clusters": sum(len(k.clusters) for k in self.kernels),
            "outputs": len(self.kernels),
        })
        return stats

    # -- validation ------------------------------------------------------------

    def realize_outputs(self) -> dict[str, np.ndarray]:
        """Run the lifted kernels on the original run's input buffers."""
        reader = self.trace_run.memory.read_uint
        arrays = {name: spec.read_array(reader) for name, spec in self.buffer_specs.items()}
        results: dict[str, np.ndarray] = {}
        for kernel in self.kernels:
            func = self.funcs[kernel.output]
            spec = self.buffer_specs[kernel.output]
            buffers = {name: arrays[name] for name in kernel.input_names if name in arrays}
            buffers[kernel.output] = arrays[kernel.output]
            from ..halide.realize import realize

            results[kernel.output] = realize(func, spec.extents, buffers)
        return results

    def original_outputs(self) -> dict[str, np.ndarray]:
        """Read the original program's output buffers from its memory."""
        reader = self.trace_run.memory.read_uint
        return {kernel.output: self.buffer_specs[kernel.output].read_array(reader)
                for kernel in self.kernels}

    def validate(self) -> dict[str, bool]:
        """Compare lifted output with the original, buffer by buffer."""
        lifted = self.realize_outputs()
        original = self.original_outputs()
        verdict = {}
        for name, expected in original.items():
            produced = lifted[name]
            if expected.dtype.kind == "f":
                verdict[name] = bool(np.allclose(produced, expected, rtol=1e-12, atol=1e-12))
            else:
                verdict[name] = bool(np.array_equal(produced, expected))
        return verdict


def lift_filter(app: Application, filter_name: str, seed: int = 0,
                store=None) -> LiftResult:
    """Run the whole Helium workflow for one filter.

    With the default ``store=None`` the lift is cold (every instrumented run
    is performed, nothing is persisted); pass an
    :class:`~repro.store.ArtifactStore` to reuse and populate cached stage
    artifacts instead.
    """
    from .session import LiftSession

    return LiftSession(app, filter_name, seed=seed, store=store,
                       use_store=store is not None).run()
