"""Pipelines of lifted kernels, fused or materialized.

Lifting to the algorithm level lets Helium compose kernels: a fused pipeline
inlines each producer into its consumer (improving locality, paper section
6.4), while the unfused variant materializes every intermediate image the way
the original applications do.

Two granularities are provided.  :class:`FusedPipeline` chains opaque
image-to-image callables and fuses by tiling.  :class:`FuncPipeline` chains
lifted :class:`~repro.halide.func.Func` stages symbolically: pointwise
producers are inlined into their consumers at the IR level (Halide's
``compute_inline``), so the fused stage compiles to one kernel that never
materializes the intermediate image at all.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..ir import BufferAccess, Cast, Expr, canonicalize, substitute
from .func import Func, vectorize_width
from .realize import get_default_engine, realize_interp


@dataclass
class PipelineStage:
    """One kernel in a pipeline: a callable from image to image."""

    name: str
    apply: Callable[[np.ndarray], np.ndarray]


@dataclass
class FusedPipeline:
    """A pipeline of lifted kernels that can run fused or stage-by-stage."""

    stages: list[PipelineStage] = field(default_factory=list)

    def add(self, name: str, apply: Callable[[np.ndarray], np.ndarray]) -> "FusedPipeline":
        self.stages.append(PipelineStage(name, apply))
        return self

    def run_unfused(self, image: np.ndarray) -> np.ndarray:
        """Run stage by stage, materializing every intermediate (legacy style)."""
        current = image
        for stage in self.stages:
            current = np.ascontiguousarray(stage.apply(current))
        return current

    def run_fused(self, image: np.ndarray, tile_rows: int = 32) -> np.ndarray:
        """Run the whole pipeline tile-by-tile to keep intermediates in cache."""
        if image.shape[0] <= tile_rows:
            return self.run_unfused(image)
        outputs = []
        halo = 2 * len(self.stages)
        for start in range(0, image.shape[0], tile_rows):
            stop = min(start + tile_rows, image.shape[0])
            lo = max(0, start - halo)
            hi = min(image.shape[0], stop + halo)
            tile = image[lo:hi]
            result = self.run_unfused(tile)
            outputs.append(result[start - lo: start - lo + (stop - start)])
        return np.concatenate(outputs, axis=0)


# ---------------------------------------------------------------------------
# Func-level pipelines with IR inlining
# ---------------------------------------------------------------------------


@dataclass
class FuncStage:
    """One lifted Func in a pipeline.

    ``input_name`` is the buffer name the stage's expression uses for the
    incoming image; ``pad`` is edge padding (per side, every axis unless
    ``pad_width`` overrides it) applied before realizing, the way the app
    wrappers pad stencil inputs.
    """

    name: str
    func: Func
    input_name: str = "input_1"
    pad: int = 0
    pad_width: tuple | None = None

    def consumes_pointwise(self) -> bool:
        """True when every access to the stage input reads the output point.

        This is the case where inlining the producer is always profitable:
        the consumed region is a single point, so substitution duplicates no
        producer work (inlining into a stencil consumer would recompute the
        producer once per tap).
        """
        if self.func.value is None or self.func.reduction is not None:
            return False
        if self.pad != 0 or self.pad_width is not None:
            return False
        variables = self.func.variables
        for node in self.func.value.walk():
            if not isinstance(node, BufferAccess) or node.buffer != self.input_name:
                continue
            if len(node.indices) != len(variables):
                return False
            for position, index in enumerate(node.indices):
                if index != variables[position]:
                    return False
        return True


def inline_producer(consumer: Func, consumer_input: str, producer: Func) -> Func:
    """Inline ``producer``'s expression into ``consumer`` (compute_inline).

    Every ``consumer_input(idx...)`` access becomes the producer's value with
    its variables substituted by ``idx...`` and re-quantized through the
    producer's output dtype — exactly the values the materialized
    intermediate would have held, so fusion is bit-exact.
    """
    if producer.value is None or producer.reduction is not None:
        raise ValueError(f"cannot inline non-pure producer {producer.name}")

    def rewrite(node: Expr) -> Expr:
        if not isinstance(node, BufferAccess) or node.buffer != consumer_input:
            return node
        if len(node.indices) != len(producer.variables):
            raise ValueError(
                f"cannot inline {producer.name}: access {node} has "
                f"{len(node.indices)} indices but the producer has "
                f"{len(producer.variables)} variables")
        mapping = {var: index for var, index in zip(producer.variables, node.indices)}
        inlined: Expr = Cast(producer.dtype, substitute(producer.value, mapping))
        if node.dtype != producer.dtype:
            inlined = Cast(node.dtype, inlined)
        return inlined

    fused_value = canonicalize(consumer.value.transform(rewrite))
    return Func(name=f"{producer.name}__{consumer.name}",
                variables=list(consumer.variables), value=fused_value,
                dtype=consumer.dtype, inputs=list(producer.inputs),
                schedule=replace(consumer.schedule))


def _stage_identity(stage: FuncStage) -> tuple:
    """What one stage contributes to :meth:`FuncPipeline.lower`'s memo key."""
    func = stage.func
    schedule = func.schedule
    return (stage.name, stage.input_name, stage.pad, stage.pad_width,
            func.name, func.dtype, id(func), id(func.value),
            id(func.reduction), schedule.compute, schedule.compute_at,
            schedule.tile_x, schedule.tile_y, schedule.parallel,
            vectorize_width(schedule))


class FuncPipeline:
    """A pipeline of lifted Funcs lowered to one loop nest, with IR fusion.

    Every realization lowers the pipeline over the frame shape
    (:mod:`repro.halide.lower`) and runs the nest on the selected backend.
    Default-level stages read full-frame inputs carrying an edge ghost ring
    of their ``pad`` (the app wrappers' ``np.pad``, expressed in the nest);
    stages with an explicit compute level (``func.compute_root()`` /
    ``func.compute_at(consumer, var)``) get bounds inferred consumer to
    producer with clamped borders, and ``compute_at`` producers materialize
    into tile-plus-ghost-zone scratch buffers instead of full-frame
    temporaries.  Reduction (RDom) stages lower to an init store plus update
    sweeps — with parallel partial accumulators for associative
    accumulations.  :meth:`realize_interp` is the schedule-free oracle all
    of them are bit-identical to.
    """

    def __init__(self, stages: Sequence[FuncStage] | None = None) -> None:
        self.stages: list[FuncStage] = list(stages or [])
        self._lowered_cache: dict = {}
        self._lower_lock = threading.Lock()

    def add(self, func: Func, input_name: str = "input_1", pad: int = 0,
            pad_width: tuple | None = None, name: str | None = None) -> "FuncPipeline":
        self.stages.append(FuncStage(name=name or func.name, func=func,
                                     input_name=input_name, pad=pad,
                                     pad_width=pad_width))
        return self

    def fused(self) -> "FuncPipeline":
        """Inline producers into pointwise consumers (when regions allow).

        A stage that consumes its input pointwise reads exactly one producer
        point per output point, so substituting the producer's expression
        duplicates no work and the intermediate image is never materialized.
        Stencil consumers keep their producer materialized (inlining there
        would recompute the producer once per tap).
        """
        fused: list[FuncStage] = []
        for stage in self.stages:
            if fused and stage.consumes_pointwise() \
                    and stage.func.schedule.fuse_producers \
                    and fused[-1].func.value is not None \
                    and fused[-1].func.reduction is None:
                producer = fused[-1]
                merged = inline_producer(stage.func, stage.input_name, producer.func)
                fused[-1] = FuncStage(name=f"{producer.name}+{stage.name}",
                                      func=merged, input_name=producer.input_name,
                                      pad=producer.pad, pad_width=producer.pad_width)
                continue
            fused.append(FuncStage(name=stage.name, func=stage.func,
                                   input_name=stage.input_name, pad=stage.pad,
                                   pad_width=stage.pad_width))
        return FuncPipeline(fused)

    #: Bound on memoized lowerings (per pipeline): serving mixed frame
    #: shapes re-lowers per shape, and the memo must not grow with every
    #: resolution ever seen.  Evicts least-recently-used beyond this.
    MAX_LOWERED_CACHE = 8

    def lower(self, frame_shape: tuple[int, ...]):
        """The pipeline lowered over this frame shape (memoized, LRU-bounded).

        Returns a :class:`~repro.halide.lower.LoweredPipeline`; raises
        :class:`~repro.halide.lower.PipelineLoweringError` when the pipeline
        cannot be expressed in the loop-nest IR (a stage whose rank differs
        from the frame's, or a reduction whose RDom does not range over the
        stage's own input at frame rank).

        The memo is keyed on identity: per stage its fields, its Func's
        name and dtype, the Func, value and reduction objects, and the
        schedule fields the nest depends on, plus the frame shape — so a
        ``define``, an ``update`` or an in-place schedule change lowers
        afresh, while an equal copy of a schedule (what a warm start
        installs) reuses the lowering.  The entry keeps the keyed objects
        alive, so their identities stay unambiguous.
        """
        from .lower import lower_pipeline

        frame_shape = tuple(frame_shape)
        key = (frame_shape,) + tuple([_stage_identity(stage)
                                      for stage in self.stages])
        # Locked: concurrent requests share one lowering (and its kernels).
        with self._lower_lock:
            entry = self._lowered_cache.pop(key, None)
            if entry is None:
                entry = (lower_pipeline(self, frame_shape),
                         [(stage.func, stage.func.value, stage.func.reduction)
                          for stage in self.stages])
            self._lowered_cache[key] = entry   # (re-)insert as most recent
            while len(self._lowered_cache) > self.MAX_LOWERED_CACHE:
                self._lowered_cache.pop(next(iter(self._lowered_cache)))
        return entry[0]

    def describe(self, frame_shape: tuple[int, ...]) -> str:
        """The executed plan for this frame shape: per-stage compute levels,
        ghost rings, inferred bounds, scratch sizes and the lowered loop
        nest."""
        return self.lower(tuple(frame_shape)).describe()

    def realize(self, image: np.ndarray, params: Mapping[str, float] | None = None,
                engine: str | None = None, stats: dict | None = None) -> np.ndarray:
        """Run the pipeline on one image (NumPy outermost-first layout).

        Lowers the pipeline over the image's shape (memoized) and executes
        the nest on the selected backend (the process default when None);
        ``stats``, when given, collects store/allocation counters from that
        executor.  For many images, prefer :meth:`realize_batch`, which
        overlaps whole requests across the worker pool.
        """
        from .backends import get_backend

        lowered = self.lower(np.asarray(image).shape)
        choice = engine if engine is not None else get_default_engine()
        return get_backend(choice).execute(lowered, image, params, stats)

    def realize_interp(self, image: np.ndarray,
                       params: Mapping[str, float] | None = None) -> np.ndarray:
        """The schedule-free oracle: stage by stage, each stage's input
        edge-padded as the app wrappers do, then realized through
        :func:`~repro.halide.realize.realize_interp`."""
        current = np.asarray(image)
        for stage in self.stages:
            pad = stage.pad_width if stage.pad_width is not None else stage.pad
            padded = np.pad(current, pad, mode="edge") if pad else current
            current = realize_interp(stage.func, tuple(reversed(current.shape)),
                                     {stage.input_name: padded}, params)
        return current

    def realize_batch(self, images: Sequence[np.ndarray],
                      params: Mapping[str, float] | None = None,
                      engine: str | None = None,
                      max_pending: int | None = None):
        """Realize many images through one compiled pipeline, concurrently.

        Lowers and compiles the pipeline once (on the first request), and
        fans the images out across the shared worker pool with bounded
        queueing; returns a
        :class:`~repro.halide.serve.BatchResult` whose ``outputs`` are in
        input order.  This is the serving path: per-image results are
        bit-identical to calling :meth:`realize` in a loop.
        """
        from .serve import realize_batch as _realize_batch

        requests = [{"image": image, "params": params} for image in images]
        return _realize_batch(self, requests, max_pending=max_pending,
                              engine=engine)
