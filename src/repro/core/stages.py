"""The Helium lift workflow as explicit, cacheable stages.

The paper's Figure 1 workflow is a chain of instrumented program runs and
pure analyses.  This module decomposes it into named stages, each consuming
and producing a typed **artifact** (a plain dataclass that serializes through
:mod:`repro.store`), so a lift can be resumed from any point and a warm lift
— every artifact already in the store — performs *zero* instrumented runs:

==========  =========================================  ==================
stage       work                                        instrumented runs
==========  =========================================  ==================
coverage    with-filter + without-filter coverage       2
screen      block profile + coarse memory trace         1
localize    coverage diff -> filter function            0 (pure)
trace       detailed instruction trace + memory dump    1
forward     region reconstruction + taint analysis      0 (pure)
buffers     buffer naming + dimensionality inference    0 (pure)
trees       concrete trees -> clustered symbolic trees  0 (pure)
codegen     symbolic trees -> Halide C++ source text    0 (pure)
==========  =========================================  ==================

:class:`~repro.core.session.LiftSession` drives the chain and handles the
store lookups (``use_store=False`` for an always-cold lift, which is what
:func:`~repro.core.pipeline.lift_filter` runs without a store).

Bump a stage's entry in :data:`STAGE_VERSIONS` whenever its output format or
semantics change; the version participates in every downstream artifact key.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field
from typing import Optional

from ..apps.base import Application
from ..dynamo import (
    CoverageTool,
    InstructionTraceTool,
    MemoryTraceTool,
    ProfileTool,
)
from ..dynamo.records import BlockProfile, InstructionTrace, MemoryTraceRecord
from ..x86.memory import MemorySnapshot
from .buffers import BufferSpec, infer_buffer_generic, infer_buffer_with_known_data
from .codegen import LiftedKernel, generate_halide_cpp
from .forward import ForwardAnalysis, forward_analyze
from .localization import (
    LocalizationResult,
    find_candidate_regions,
    is_stack_address,
    localize,
)
from .regions import (
    MemoryRegion,
    merge_nearby_regions,
    reconstruct_regions,
    region_containing,
    samples_from_itrace,
)
from .symbolic import SymbolicLiftError, abstract_tree, cluster_trees, lift_cluster
from .trees import BufferEntry, BufferMap, ConcreteTree, TreeBuilder

#: Stage names in execution order.  Artifact keys chain the versions of every
#: stage up to and including their own, so bumping one version invalidates it
#: and everything downstream, never upstream.
STAGES = ("coverage", "screen", "localize", "trace",
          "forward", "buffers", "trees", "codegen")

#: Per-stage artifact-format/semantics version (see module docstring).
STAGE_VERSIONS = {
    "coverage": 1,
    "screen": 1,
    "localize": 1,
    "trace": 1,
    "forward": 1,
    "buffers": 1,
    "trees": 2,       # v2: recursive coordinate clusters lift as reductions
    "codegen": 1,
}

#: Instrumented app runs each stage performs (the paper's five-run workflow;
#: the profile and memory-trace tools share one screening run here).
STAGE_RUN_COUNTS = {"coverage": 2, "screen": 1, "localize": 0, "trace": 1,
                    "forward": 0, "buffers": 0, "trees": 0, "codegen": 0}


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


@dataclass
class TraceRunSnapshot:
    """The serializable remains of the detailed-trace program run.

    Stands in for the live :class:`~repro.apps.base.AppRunResult` inside
    artifacts and :class:`~repro.core.pipeline.LiftResult`: the analyses only
    ever need the run's final memory image (lookup-table reconstruction,
    validation) and its visible outputs (known-data inference).
    """

    app_name: str
    filter_name: str
    outputs: dict
    memory: MemorySnapshot


@dataclass
class CoverageArtifact:
    """Stage 1: basic-block coverage of the with/without-filter runs."""

    coverage_with: set[int]
    coverage_without: set[int]

    @property
    def diff(self) -> set[int]:
        return self.coverage_with - self.coverage_without


@dataclass
class ScreenArtifact:
    """Stage 2: block profile + coarse memory trace over the coverage diff."""

    profile: BlockProfile
    memtrace: list[MemoryTraceRecord]
    data_size_estimate: int


@dataclass
class TraceArtifact:
    """Stage 4: the detailed instruction trace and the run it came from."""

    trace: InstructionTrace
    run: TraceRunSnapshot


@dataclass
class ForwardArtifact:
    """Stage 5: reconstructed regions + forward (taint) analysis."""

    regions: list[MemoryRegion]
    candidate_regions: list[MemoryRegion]
    forward: ForwardAnalysis


@dataclass
class BufferArtifact:
    """Stage 6: named buffers and their inferred dimensionality/strides."""

    buffer_map: BufferMap
    specs: dict[str, BufferSpec]


@dataclass
class TreeArtifact:
    """Stage 7: concrete trees and the clustered, lifted symbolic kernels."""

    concrete: list[ConcreteTree]
    kernels: list[LiftedKernel]
    warnings: list[str] = field(default_factory=list)


@dataclass
class CodegenArtifact:
    """Stage 8: printable Halide C++ per output buffer.

    Executable :class:`~repro.halide.func.Func` objects are deliberately not
    persisted — they are rebuilt from the kernels on every load
    (:func:`repro.core.codegen.generate_funcs` is cheap and pure), so cached
    lifts always hand out pristine, unshared schedules.
    """

    halide_sources: dict[str, str]


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def run_coverage_stage(app: Application, filter_name: str, seed: int = 0
                       ) -> CoverageArtifact:
    """Two coverage runs: with the filter applied, and without."""
    with_tool = CoverageTool()
    app.run(filter_name, tools=[with_tool], seed=seed)
    without_tool = CoverageTool()
    app.run(None, tools=[without_tool], seed=seed)
    return CoverageArtifact(coverage_with=with_tool.blocks,
                            coverage_without=without_tool.blocks)


def run_screen_stage(app: Application, filter_name: str,
                     coverage: CoverageArtifact, seed: int = 0) -> ScreenArtifact:
    """One screening run profiling + memory-tracing the surviving blocks."""
    diff = coverage.diff
    profile_tool = ProfileTool(instrumented_blocks=diff)
    memtrace_tool = MemoryTraceTool(instrumented_blocks=diff)
    app.run(filter_name, tools=[profile_tool, memtrace_tool], seed=seed)
    return ScreenArtifact(profile=profile_tool.profile,
                          memtrace=memtrace_tool.records,
                          data_size_estimate=app.data_size_estimate(filter_name))


def run_localize_stage(app: Application, coverage: CoverageArtifact,
                       screen: ScreenArtifact) -> LocalizationResult:
    """Pure: select the filter function from the screening artifacts."""
    result = localize(coverage.coverage_with, coverage.coverage_without,
                      screen.profile, screen.memtrace,
                      screen.data_size_estimate)
    result.static_instruction_count = _static_instruction_count(app, result)
    return result


def _static_instruction_count(app: Application,
                              localization: LocalizationResult) -> int:
    program = app.program
    count = 0
    for block in sorted(localization.filter_function_blocks):
        if block not in program.instruction_at:
            continue
        address = block
        while address in program.instruction_at:
            count += 1
            if program.instruction_at[address].is_block_terminator:
                break
            address += 4
    return count


def run_trace_stage(app: Application, filter_name: str,
                    localization: LocalizationResult, seed: int = 0
                    ) -> TraceArtifact:
    """One detailed run tracing every execution of the filter function."""
    tracer = InstructionTraceTool(
        entry_address=localization.filter_function,
        candidate_instructions=localization.candidate_instructions)
    run = app.run(filter_name, tools=[tracer], seed=seed)
    snapshot = TraceRunSnapshot(app_name=run.app_name,
                                filter_name=run.filter_name,
                                outputs=run.outputs,
                                memory=run.memory.snapshot())
    return TraceArtifact(trace=tracer.trace, run=snapshot)


def run_forward_stage(app: Application, filter_name: str,
                      trace_artifact: TraceArtifact) -> ForwardArtifact:
    """Pure: region reconstruction + forward taint analysis over the trace."""
    trace = trace_artifact.trace
    regions = reconstruct_regions(samples_from_itrace(trace))
    candidates = find_candidate_regions(regions,
                                        app.data_size_estimate(filter_name))
    input_regions = [r for r in candidates if r.read and not r.written]
    forward = forward_analyze(trace, input_regions)
    return ForwardArtifact(regions=regions, candidate_regions=candidates,
                           forward=forward)


def classify_buffers(forward: ForwardAnalysis, regions: list[MemoryRegion],
                     candidates: list[MemoryRegion]) -> BufferMap:
    """Name the image-sized and indirectly-accessed regions (paper 4.3/4.8)."""
    selected: list[MemoryRegion] = list(candidates)
    for address in forward.indirect_access_addresses:
        region = region_containing(regions, address)
        if region is not None and region not in selected and \
                not is_stack_address(region.start):
            selected.append(region)
    # Lookup tables are often only partially exercised by one image, which
    # leaves small holes in their accessed region; fold the fragments of
    # one table back together before naming buffers.
    selected = merge_nearby_regions(selected, max_gap=64, size_ratio=2.0)
    buffer_map = BufferMap()
    inputs = sorted((r for r in selected if not r.written), key=lambda r: r.start)
    outputs = sorted((r for r in selected if r.written), key=lambda r: r.start)
    for index, region in enumerate(inputs, start=1):
        buffer_map.entries.append(BufferEntry(f"input_{index}", region, "input"))
    for index, region in enumerate(outputs, start=1):
        buffer_map.entries.append(BufferEntry(f"output_{index}", region, "output"))
    return buffer_map


def infer_buffer_specs(app: Application, filter_name: str,
                       trace: InstructionTrace, buffer_map: BufferMap,
                       trace_run: TraceRunSnapshot) -> dict[str, BufferSpec]:
    """Per-buffer dimensionality/stride/extent inference (paper 4.3)."""
    known = app.known_data(filter_name, trace_run)
    specs: dict[str, BufferSpec] = {}
    for entry in buffer_map.entries:
        spec = None
        if known is not None:
            arrays = known.inputs if entry.role in ("input", "table") else known.outputs
            for array in arrays:
                spec = infer_buffer_with_known_data(entry.name, entry.region, trace,
                                                    array, entry.role)
                if spec is not None:
                    break
        if spec is None:
            is_float = entry.region.element_size == 8
            spec = infer_buffer_generic(entry.name, entry.region, entry.role,
                                        is_float=is_float)
        specs[entry.name] = spec
    return specs


def run_buffers_stage(app: Application, filter_name: str,
                      trace_artifact: TraceArtifact,
                      forward_artifact: ForwardArtifact) -> BufferArtifact:
    """Pure: buffer naming and dimensionality inference."""
    buffer_map = classify_buffers(forward_artifact.forward,
                                  forward_artifact.regions,
                                  forward_artifact.candidate_regions)
    specs = infer_buffer_specs(app, filter_name, trace_artifact.trace,
                               buffer_map, trace_artifact.run)
    return BufferArtifact(buffer_map=buffer_map, specs=specs)


def run_trees_stage(trace_artifact: TraceArtifact,
                    forward_artifact: ForwardArtifact,
                    buffer_artifact: BufferArtifact, seed: int = 0
                    ) -> TreeArtifact:
    """Pure: concrete trees -> abstraction -> clustering -> symbolic lift."""
    builder = TreeBuilder(trace_artifact.trace, forward_artifact.forward,
                          buffer_artifact.buffer_map)
    concrete = builder.build()
    warnings = list(builder.warnings)
    specs = buffer_artifact.specs
    abstract = [abstract_tree(tree, specs) for tree in concrete]
    clusters = cluster_trees(abstract)
    rng = random.Random(seed)
    kernels: dict[str, LiftedKernel] = {}
    for cluster in clusters:
        try:
            symbolic = lift_cluster(cluster, specs, rng)
        except SymbolicLiftError as error:
            warnings.append(f"cluster on {cluster.buffer} skipped: {error}")
            continue
        kernel = kernels.setdefault(cluster.buffer,
                                    LiftedKernel(output=cluster.buffer,
                                                 dims=specs[cluster.buffer].dimensionality,
                                                 buffer_specs=specs))
        kernel.clusters.append(symbolic)
    return TreeArtifact(concrete=concrete, kernels=list(kernels.values()),
                        warnings=warnings)


def run_codegen_stage(tree_artifact: TreeArtifact) -> CodegenArtifact:
    """Pure: emit the printable Halide C++ for every lifted kernel."""
    return CodegenArtifact(halide_sources={
        kernel.output: generate_halide_cpp(kernel)
        for kernel in tree_artifact.kernels})
