"""Mini-Halide front-end objects.

Expressions reuse :mod:`repro.ir`; a :class:`Func` maps pure variables to one
expression (possibly wrapped in selects for predicated kernels) and may carry
a reduction update (histogram-style kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..ir import (
    BinOp,
    BufferAccess,
    Cast,
    DType,
    Expr,
    Op,
    UINT8,
    Var as IRVar,
)
from .parallel import parallel_enabled, pool_size


def _strip_self_reference(update: Expr, name: str):
    """For updates of the form ``f(idx) + k`` return ``k`` (the increment)."""
    node = update
    while isinstance(node, Cast):
        node = node.a
    if isinstance(node, BinOp) and node.op == Op.ADD:
        for self_side, other in ((node.a, node.b), (node.b, node.a)):
            inner = self_side
            while isinstance(inner, Cast):
                inner = inner.a
            if isinstance(inner, BufferAccess) and inner.buffer == name:
                return other
    return None


class Var(IRVar):
    """A pure loop variable (alias of the IR variable node)."""


@dataclass
class ImageParam:
    """An input buffer of the lifted kernel."""

    name: str
    dimensions: int
    dtype: DType = UINT8

    def __str__(self) -> str:
        return f"ImageParam({self.name}, {self.dtype.halide_name()}, {self.dimensions})"


@dataclass
class RDom:
    """A reduction domain over another buffer's extents."""

    name: str
    source: str                      # buffer whose bounds define the domain
    dimensions: int

    def vars(self) -> list[IRVar]:
        return [IRVar(f"r_{d}") for d in range(self.dimensions)]


#: Default RDom strip height (source rows per partial accumulator) for an
#: associative-parallel reduction whose schedule carries no ``tile_y``.
DEFAULT_REDUCTION_STRIP = 64

#: The width ``vectorize=True`` denotes: the target's natural one, which the
#: C compiler picks per loop from the narrowest type the loop touches
#: (Halide's ``natural_vector_size``).  A fixed lane count suits one element
#: type only — eight lanes fill an AVX-512 register of doubles but run a
#: uint8 stencil in 8-byte vectors.
NATURAL_VECTOR_WIDTH = -1


def vectorize_width(schedule: "Schedule") -> int:
    """The SIMD width a schedule's ``vectorize`` flag denotes.

    ``True`` means the target's natural width (:data:`NATURAL_VECTOR_WIDTH`);
    an explicit integer ``>= 2`` is a lane count (the autotuner samples
    these); ``False``/``0``/``1`` mean no SIMD directive (0).  Only the
    native backend consumes this — the NumPy engines are whole-region
    vectorized regardless (see :meth:`Schedule.describe`).
    """
    flag = schedule.vectorize
    if flag is True:
        return NATURAL_VECTOR_WIDTH
    if isinstance(flag, int) and not isinstance(flag, bool) and flag >= 2:
        return int(flag)
    return 0


def _width_label(width: int) -> str:
    return "natural" if width == NATURAL_VECTOR_WIDTH else str(width)


@dataclass
class Schedule:
    """A (simulated) Halide schedule.

    The NumPy realizer always vectorizes; tiling controls the block size used
    when evaluating large outputs (affecting locality), ``parallel`` asks
    every engine to execute independent tiles across the shared worker pool
    (see :mod:`repro.halide.parallel`), and ``fuse_producers`` controls
    whether producer functions are inlined or materialized.

    ``compute`` places the Func in a pipeline (its *materialization level*,
    consumed by :mod:`repro.halide.lower`):

    * ``"default"`` — materialized full-frame, reading its full-frame input
      in padded coordinates through an edge ghost ring of the stage's
      padding (the app wrappers' ``np.pad``, expressed in the loop nest);
      eligible for pointwise ``compute_inline`` fusion via
      :meth:`FuncPipeline.fused`.
    * ``"root"`` — explicitly materialized full-frame, with clamped
      (loop-partitioned) borders instead of a ghost ring
      (:func:`Func.compute_root`).
    * ``"at"`` — materialized into a tile-plus-ghost-zone scratch buffer
      once per iteration of the consumer loop named by ``compute_at``
      (:func:`Func.compute_at`); ``compute_at`` is ``(consumer_name,
      var_name)``.

    ``parallel`` is only honoured for tiled pure functions of rank >= 2 — an
    untiled schedule has no independent work units to distribute, so it falls
    back to serial execution (and :func:`describe` says so).  For the full
    per-Func answer (reductions, rank) use :meth:`Func.execution_mode`.
    """

    tile_x: int = 0
    tile_y: int = 0
    #: ``True`` = vectorize at the target's natural width, an int >= 2 =
    #: explicit SIMD lane count (only the native backend emits the
    #: directive; see :func:`vectorize_width`), ``False`` = off.
    vectorize: "bool | int" = True
    parallel: bool = False
    fuse_producers: bool = True
    compute: str = "default"
    compute_at: Optional[tuple[str, str]] = None

    def describe(self, backend: Optional[str] = None) -> str:
        """A Halide-style summary of the schedule, honest about untiled
        parallelism.

        A parallel request the schedule itself can see is impossible (no
        tiles to distribute) is reported as ``parallel(serial:untiled)``.
        Obstacles only the Func knows — reductions, rank < 2 — and the
        environment (pool size, kill switch) are outside a Schedule's view;
        consult :meth:`Func.execution_mode` /
        :meth:`Func.parallel_unsupported_reason` for the full answer.
        Shape-dependent outcomes of ``compute_at`` — the inferred bounds and
        scratch-buffer sizes — live one level up, in
        :meth:`repro.halide.lower.LoweredPipeline.describe`.

        With ``backend`` the vectorize flag reports per-backend truth: only
        the native backend emits a SIMD directive for the inner loop, so
        other engines report it as ignored (they are whole-region vectorized
        by NumPy regardless of the flag).
        """
        parts = []
        if self.compute == "root":
            parts.append("compute_root")
        elif self.compute == "at" and self.compute_at is not None:
            parts.append(f"compute_at({self.compute_at[0]},{self.compute_at[1]})")
        if self.tile_x and self.tile_y:
            parts.append(f"tile({self.tile_x},{self.tile_y})")
        if self.vectorize:
            width = vectorize_width(self)
            if backend == "native":
                parts.append(f"vectorize({_width_label(width)})")
            elif backend is not None:
                parts.append(f"vectorize(ignored:{backend})")
            elif self.vectorize is True:
                parts.append("vectorize")
            else:
                parts.append(f"vectorize({width})")
        if self.parallel:
            if self.tile_x and self.tile_y:
                parts.append("parallel")
            else:
                parts.append("parallel(serial:untiled)")
        if self.fuse_producers and self.compute == "default":
            parts.append("compute_inline")
        return ".".join(parts) if parts else "root"


@dataclass
class Func:
    """A lifted Halide function.

    A Func owns its variables (innermost first, matching the lifted buffer
    indexing), a pure expression and/or a reduction update, the input
    :class:`ImageParam` descriptors recovered by the lifter, and a
    :class:`Schedule`.  Realize one with :func:`repro.halide.realize`, or
    serve many requests through :class:`repro.halide.PipelineServer`.
    """

    name: str
    variables: list[IRVar]
    value: Optional[Expr] = None
    dtype: DType = UINT8
    #: Reduction update: (rdom, index_expr_per_dim, update_expr).
    reduction: Optional[tuple[RDom, list[Expr], Expr]] = None
    inputs: list[ImageParam] = field(default_factory=list)
    schedule: Schedule = field(default_factory=Schedule)

    @property
    def dimensions(self) -> int:
        return len(self.variables)

    def define(self, value: Expr) -> "Func":
        """Set the pure definition (the value computed at every point)."""
        self.value = value
        return self

    def update(self, rdom: RDom, index_exprs: Sequence[Expr], expr: Expr) -> "Func":
        """Attach a reduction update over ``rdom`` (histogram-style)."""
        self.reduction = (rdom, list(index_exprs), expr)
        return self

    def tile(self, tile_x: int, tile_y: int) -> "Func":
        """Evaluate in ``tile_x`` x ``tile_y`` blocks (locality + parallel units)."""
        self.schedule.tile_x = tile_x
        self.schedule.tile_y = tile_y
        return self

    def vectorize(self, enabled: "bool | int" = True) -> "Func":
        """Request SIMD inner loops on the native backend.

        ``True`` uses the target's natural width
        (:data:`NATURAL_VECTOR_WIDTH`); an explicit integer ``>= 2`` sets the
        lane count (the autotuner samples these).  The NumPy engines are
        whole-region vectorized either way and report the directive as
        ignored (``Schedule.describe(backend=...)``).
        """
        self.schedule.vectorize = enabled
        return self

    def parallel(self, enabled: bool = True) -> "Func":
        """Request tile-parallel execution on the shared worker pool.

        Effective together with :meth:`tile` on a pure rank>=2 function, and
        on associative reductions (RDom strips accumulate into private
        partial accumulators, merged serially); otherwise lowering warns
        once and the loop runs serially (see
        :meth:`parallel_unsupported_reason`).
        """
        self.schedule.parallel = enabled
        return self

    def compute_root(self) -> "Func":
        """Materialize this Func full-frame, with clamped borders.

        In a :class:`~repro.halide.pipeline.FuncPipeline` (lowered by
        :mod:`repro.halide.lower`), an explicit ``compute_root`` stage gets
        one full-frame buffer and handles its borders by clamped ghost reads
        — a pure-shift interior store plus thin clamped border slabs —
        instead of reading a ghost-ringed input the way a ``default`` stage
        does.  Bit-identical to
        :meth:`~repro.halide.pipeline.FuncPipeline.realize_interp`.
        """
        self.schedule.compute = "root"
        self.schedule.compute_at = None
        return self

    def compute_at(self, consumer: "Func | str", var: "IRVar | str") -> "Func":
        """Materialize this Func per-iteration of ``consumer``'s loop ``var``.

        Instead of a full-frame intermediate, the lowering allocates a
        scratch buffer of tile-plus-ghost-zone size and fills it once per
        consumer tile (or row strip, for an untiled consumer) — Halide's
        locality scheduling.  ``var`` must be one of the consumer's pure
        variables; which loop it anchors to is resolved at lowering time
        against the consumer's own schedule (tiled consumers anchor at the
        tile loops).
        """
        consumer_name = consumer if isinstance(consumer, str) else consumer.name
        var_name = var if isinstance(var, str) else var.name
        self.schedule.compute = "at"
        self.schedule.compute_at = (consumer_name, var_name)
        return self

    def reduction_increment(self) -> Optional[Expr]:
        """The pure increment ``k`` of an update ``f(idx) = f(idx) + k``.

        None when the Func has no reduction, or when its update is not an
        accumulation of a self-independent increment (scatter-assign
        updates, or increments/indices that read the accumulator itself).
        """
        if self.reduction is None:
            return None
        rdom, index_exprs, update = self.reduction
        increment = _strip_self_reference(update, self.name)
        if increment is None:
            return None
        for expr in (increment, *index_exprs):
            for node in expr.walk():
                if isinstance(node, BufferAccess) and node.buffer == self.name:
                    return None            # reads the running accumulator
        return increment

    def reduction_is_associative(self) -> bool:
        """Can this reduction be split into parallel partial accumulators?

        True for modular-integer accumulations ``f(idx) = f(idx) + k`` whose
        increment and index expressions never read the accumulator: wrapping
        integer addition is associative and commutative, so disjoint RDom
        sweeps into private partials merged serially are bit-identical to
        the one serial whole-domain sweep.  Float accumulations (rounding
        depends on summation order) and scatter-assign updates (last write
        wins) are not.
        """
        if self.reduction is None or not self.dtype.is_integer:
            return False
        return self.reduction_increment() is not None

    def reduction_strip_rows(self) -> int:
        """Source rows per partial accumulator for a parallel reduction.

        The reduction analogue of a tile size: ``tile_y`` splits the RDom's
        outermost (NumPy) axis into strips, each accumulated into a private
        partial; untiled schedules use :data:`DEFAULT_REDUCTION_STRIP`.
        Autotuning samples this together with the parallel flag.
        """
        return self.schedule.tile_y if self.schedule.tile_y > 0 \
            else DEFAULT_REDUCTION_STRIP

    def parallel_unsupported_reason(self) -> Optional[str]:
        """Why ``schedule.parallel`` cannot be honoured, or None if it can.

        Parallel execution distributes the tiles of a pure, rank>=2 tiled
        loop nest — or, for an associative reduction, disjoint RDom strips
        accumulated into private partials and merged serially.  Anything
        else has no independent decomposition to fan out.
        """
        if self.reduction is not None:
            if not self.reduction_is_associative():
                return ("the reduction update is not an associative integer "
                        "accumulation (no parallel partial accumulators)")
            return None
        if self.value is None:
            return "the function has no pure definition to tile"
        if len(self.variables) < 2:
            return "parallel tiling needs at least two loop dimensions"
        if self.schedule.tile_x <= 0 or self.schedule.tile_y <= 0:
            return "the schedule is untiled (call .tile(tx, ty) first)"
        return None

    def execution_mode(self, backend: Optional[str] = None) -> str:
        """The real execution mode of the engines for this Func.

        ``"parallel"`` when tiles will be offered to the worker pool,
        ``"serial"`` otherwise — not requested, requested but unsupported, or
        impossible in this environment (single-worker pool, or the
        ``REPRO_PARALLEL=0`` kill switch).  Per-call outcomes — the cost
        heuristic can still keep a small realization serial — are tallied in
        :data:`repro.halide.parallel.execution_stats`.

        With a ``backend`` name the mode also reports the vectorize
        directive honestly: only the native backend emits it, so
        ``execution_mode("native")`` appends ``+vectorize(W)`` (or
        ``+vectorize(natural)``) while the NumPy engines append
        ``+vectorize(ignored)``.
        """
        mode = "serial"
        if self.schedule.parallel and self.parallel_unsupported_reason() is None \
                and parallel_enabled() and pool_size() >= 2:
            mode = "parallel"
        if backend is not None and self.schedule.vectorize:
            width = vectorize_width(self.schedule)
            if backend == "native":
                mode += f"+vectorize({_width_label(width)})"
            else:
                mode += "+vectorize(ignored)"
        return mode

    def __str__(self) -> str:
        vars_text = ", ".join(v.name for v in self.variables)
        return f"{self.name}({vars_text}) = {self.value}"
