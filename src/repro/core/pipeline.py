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

from dataclasses import dataclass, field

import numpy as np

from ..apps.base import Application
from ..dynamo.records import InstructionTrace
from ..halide.func import Func
from .buffers import BufferSpec
from .codegen import LiftedKernel, generate_funcs
from .forward import ForwardAnalysis
from .localization import LocalizationResult
from .stages import TraceRunSnapshot


@dataclass
class LiftResult:
    """Everything Helium produced for one filter.

    Serializes through :mod:`repro.store` — the executable ``funcs`` are
    rebuilt from the kernels on deserialization rather than persisted, so a
    loaded result always carries pristine schedules.
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

    # -- serialization -------------------------------------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("funcs", None)
        return state

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
