"""A mini-Halide: enough of the Halide front end to host Helium's output.

The real Halide is not available offline, so this package provides the pieces
the lifted code needs — ``Var``, ``Func``, ``ImageParam``, ``RDom``, ``cast``
and ``select`` — together with two NumPy *realization engines*: a tree-walking
interpreter (the oracle) and a compiled backend that lowers each function to a
fused, CSE'd kernel, compiles it once and caches it.  Every engine runs a
Func's schedule through the same lowered loop nest on one executor, and two
throughput layers sit on top: tiled schedules marked ``parallel`` execute
their tiles across a shared worker pool (:mod:`repro.halide.parallel`), and a
batched realization service (:class:`PipelineServer` / :func:`realize_batch`)
compiles a pipeline once and serves many frames concurrently with bounded
queueing.  A small scheduling model (tiling / vectorize-by-numpy /
parallel-by-tiles), Func-level pipeline fusion and a cost-model-guided
autotuner standing in for OpenTuner — candidate schedules are ranked
analytically (:mod:`repro.halide.costmodel`) so only the top-k are timed,
and measured winners persist in the artifact store's ``tuning/`` stage
(:mod:`repro.halide.tuningdb`) for zero-cost warm starts — round out the
front end.
"""

from .func import Func, ImageParam, RDom, Schedule, Var
from .realize import ENGINES, realize, realize_interp, set_default_engine
from .backends import Backend, backend_names, get_backend
from .lower import (
    LoweredPipeline,
    PipelineLoweringError,
    StageDecision,
    lower_func,
    lower_pipeline,
)
from .compile import (
    CompiledKernel,
    clear_kernel_cache,
    compile_func,
    kernel_cache_stats,
)
from .parallel import (
    ParallelFallbackWarning,
    configure_pool,
    execution_stats,
    pool_size,
    reset_execution_stats,
)
from .serve import BatchResult, PipelineServer, realize_batch
from .autotune import (
    PipelineTuneResult,
    TuneResult,
    autotune,
    autotune_pipeline,
    reset_tuner_stats,
    tuner_stats,
)
from .costmodel import (
    CandidateScore,
    StageFeatures,
    rank_func_candidates,
    rank_pipeline_candidates,
    score_features,
)
from .tuningdb import (
    TuningDatabase,
    TuningRecord,
    machine_fingerprint,
    warm_start_func,
    warm_start_pipeline,
)
from .pipeline import FuncPipeline, FuncStage, inline_producer

__all__ = ["Func", "ImageParam", "RDom", "Schedule", "Var", "realize",
           "realize_interp", "set_default_engine", "ENGINES",
           "CompiledKernel", "compile_func", "kernel_cache_stats",
           "clear_kernel_cache", "autotune", "autotune_pipeline",
           "PipelineTuneResult", "TuneResult", "tuner_stats",
           "reset_tuner_stats",
           "FuncPipeline", "FuncStage", "inline_producer",
           "CandidateScore", "StageFeatures", "score_features",
           "rank_func_candidates", "rank_pipeline_candidates",
           "TuningDatabase", "TuningRecord", "machine_fingerprint",
           "warm_start_func", "warm_start_pipeline",
           "ParallelFallbackWarning", "configure_pool", "execution_stats",
           "pool_size", "reset_execution_stats",
           "BatchResult", "PipelineServer", "realize_batch",
           "Backend", "backend_names", "get_backend",
           "LoweredPipeline", "PipelineLoweringError", "StageDecision",
           "lower_func", "lower_pipeline"]
