"""Helium's core analyses: code localization and expression extraction."""

from .buffers import BufferDim, BufferSpec, infer_buffer_generic, infer_buffer_with_known_data
from .codegen import LiftedKernel, generate_funcs, generate_halide_cpp
from .forward import ForwardAnalysis, forward_analyze
from .localization import LocalizationError, LocalizationResult, localize
from .pipeline import LiftResult, lift_filter
from .regions import AccessSample, MemoryRegion, reconstruct_regions
from .session import LiftSession, StageReport, lift_scenario
from .stages import (
    STAGES,
    STAGE_VERSIONS,
    BufferArtifact,
    CodegenArtifact,
    CoverageArtifact,
    ForwardArtifact,
    ScreenArtifact,
    TraceArtifact,
    TraceRunSnapshot,
    TreeArtifact,
)
from .symbolic import (
    AbstractTree,
    SymbolicLiftError,
    SymbolicTree,
    TreeCluster,
    abstract_tree,
    cluster_trees,
    lift_cluster,
)
from .trees import BufferEntry, BufferMap, ConcreteTree, PredicateInfo, TreeBuilder

__all__ = [
    "BufferDim", "BufferSpec", "infer_buffer_generic", "infer_buffer_with_known_data",
    "LiftedKernel", "generate_funcs", "generate_halide_cpp",
    "ForwardAnalysis", "forward_analyze",
    "LocalizationError", "LocalizationResult", "localize",
    "LiftResult", "lift_filter",
    "LiftSession", "StageReport", "lift_scenario",
    "STAGES", "STAGE_VERSIONS",
    "BufferArtifact", "CodegenArtifact", "CoverageArtifact", "ForwardArtifact",
    "ScreenArtifact", "TraceArtifact", "TraceRunSnapshot", "TreeArtifact",
    "AccessSample", "MemoryRegion", "reconstruct_regions",
    "AbstractTree", "SymbolicLiftError", "SymbolicTree", "TreeCluster",
    "abstract_tree", "cluster_trees", "lift_cluster",
    "BufferEntry", "BufferMap", "ConcreteTree", "PredicateInfo", "TreeBuilder",
]
