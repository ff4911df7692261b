"""Lowering: scheduled pipelines -> loop-nest ``Stmt`` IR with bounds inference.

This is the layer a Halide-style compiler inserts between the scheduled
front end and its backends.  :func:`lower_pipeline` takes a
:class:`~repro.halide.pipeline.FuncPipeline` and produces a
:class:`LoweredPipeline`: a :class:`~repro.ir.stmt.Stmt` tree that any
backend (:mod:`repro.halide.backends`) can execute, plus a per-stage report
of the scheduling decisions actually taken.  Every pipeline realization
runs such a nest.

A stage at the ``default`` compute level reads a full-frame input — the
frame itself or the output of a root or default producer — exactly as the
app wrappers did with ``np.pad(..., mode="edge")``, expressed in the nest:
that buffer is allocated with an edge *ghost ring* of the stage's
``pad``/``pad_width``, one :class:`~repro.ir.stmt.PadEdge` fills the ring
once the buffer is produced (the frame is edge-padded once, on entry to the
backend's ``execute``), and the stage's Func runs unchanged in padded
coordinates: one ``Store`` per region — its tile loops when tiled — or, for
a reduction, an init store plus the update sweep over the padded domain.

Explicit compute levels (``compute_root`` / ``compute_at``) get
**interval-based bounds inference**: required regions are propagated
consumer -> producer through each stage's stencil footprint (the per-axis
min/max of its shifted-window taps, with the stage's edge padding folded
in), so a ``compute_at`` producer materializes exactly the
tile-plus-ghost-zone region its consumer tile reads — never the full frame.
Their borders are handled by *clamping* instead of input padding: a region
that pokes outside the frame is clamped to the frame and the missing ghost
rows are edge-replicated (:class:`~repro.ir.stmt.PadEdge`), bit-identical
to edge padding.  Tiles whose footprint stays inside the frame take a
pure-shift fast path; border tiles take a clamped-index path — the
:class:`~repro.ir.stmt.IfThenElse` split Halide calls loop partitioning.

Reduction (RDom) stages are first-class lowered stages: the pure initializer
becomes an ordinary :class:`~repro.ir.stmt.Store`, the update becomes a
:class:`~repro.ir.stmt.ReduceLoop` sweep over the RDom source (the stage's
whole, ghost-ringed input), and associative accumulations scheduled
``parallel`` lower to a **two-phase schedule**: disjoint source strips fill
private partial accumulators under a parallel :class:`~repro.ir.stmt.For`,
then a deterministic serial merge loop (:class:`~repro.ir.stmt.AccumMerge`)
folds the partials into the output.  Non-associative updates
(scatter-assign, float accumulation) keep a single serialized whole-domain
sweep — bit-identical to the interpreter oracle by construction.

A single Func lowers through :func:`lower_func` — the nest
:func:`repro.halide.realize.realize` executes on every engine: one store
(or the same tile loops a tiled pipeline stage gets) plus, for reductions,
the same update sweeps.

What demotes to ``compute_root`` (recorded in the report): taps into the
producer that are not axis-aligned shifted windows (no finite footprint to
infer bounds from), ``compute_at`` requests on or into a reduction stage
(an accumulator materializes whole, and its consumer reads whole frames),
and anchor names that do not match the consuming stage.  What the nest
cannot express raises :class:`PipelineLoweringError`: a stage whose rank
differs from the frame's, and a reduction whose RDom does not range over
the stage's own input at frame rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..ir import (
    AccumMerge,
    Allocate,
    BinOp,
    Block,
    BufferAccess,
    Const,
    Expr,
    For,
    IfThenElse,
    INT32,
    Let,
    Op,
    PadEdge,
    Param,
    ProducerConsumer,
    ReduceLoop,
    Stmt,
    Store,
    Var as IRVar,
    canonicalize,
)
from .func import Func, RDom, Schedule
from .parallel import warn_serial_fallback


class PipelineLoweringError(Exception):
    """The pipeline's geometry cannot be expressed as a loop nest over its
    frame (a rank-changing stage, or an RDom over a buffer that is not the
    stage input); ``FuncPipeline.realize``/``describe`` and a
    ``PipelineServer`` given a ``frame_shape`` raise it."""


#: Default strip height for ``compute_at`` under an untiled consumer: the
#: producer materializes per consumer row, Halide's ``compute_at(f, y)``.
STRIP_HEIGHT = 1


# ---------------------------------------------------------------------------
# Scalar expression helpers (ints folded, Exprs built otherwise)
# ---------------------------------------------------------------------------


def _e(value) -> Expr:
    return Const(int(value), INT32) if isinstance(value, int) else value


def _add(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if isinstance(b, int) and b == 0:
        return a
    if isinstance(a, int) and a == 0:
        return b
    return BinOp(Op.ADD, _e(a), _e(b), INT32)


def _sub(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a - b
    if isinstance(b, int) and b == 0:
        return a
    return BinOp(Op.SUB, _e(a), _e(b), INT32)


def _mul(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    if isinstance(b, int) and b == 1:
        return a
    return BinOp(Op.MUL, _e(a), _e(b), INT32)


def _min_(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return min(a, b)
    return BinOp(Op.MIN, _e(a), _e(b), INT32)


def _max_(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return max(a, b)
    return BinOp(Op.MAX, _e(a), _e(b), INT32)


def _clamp(value, lo, hi):
    return _min_(_max_(value, lo), hi)


def _and_(a: Optional[Expr], b: Expr) -> Expr:
    return b if a is None else BinOp(Op.AND, a, b, INT32)


class _Lets:
    """Ordered scalar bindings for one loop body.

    Region origins, extents and clamped bounds are shared by many statements
    in a region; binding each once per iteration (a :class:`Let`) keeps the
    executor's scalar evaluation O(1) per reference instead of re-walking a
    growing bounds expression.
    """

    def __init__(self) -> None:
        self.bindings: list[tuple[str, Expr]] = []

    def bind(self, name: str, value):
        if isinstance(value, (int, IRVar)):
            return value                   # already trivial to evaluate
        self.bindings.append((name, value))
        return IRVar(name)

    def wrap(self, stmt: Stmt) -> Stmt:
        for name, value in reversed(self.bindings):
            stmt = Let(name, value, stmt)
        return stmt


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------


def _shift_of_index(index: Expr) -> Optional[tuple[str, int]]:
    """Match ``var``, ``var + c`` or ``c + var``; None for anything else."""
    if isinstance(index, IRVar):
        return index.name, 0
    if isinstance(index, BinOp) and index.op == Op.ADD:
        a, b = index.a, index.b
        if isinstance(a, IRVar) and isinstance(b, Const) and isinstance(b.value, int):
            return a.name, int(b.value)
        if isinstance(b, IRVar) and isinstance(a, Const) and isinstance(a.value, int):
            return b.name, int(a.value)
    return None


@dataclass
class _Footprint:
    """Per-NumPy-axis effective tap offsets of one stage into its input.

    ``lo[a]``/``hi[a]`` bound the stencil reach along axis ``a`` *after*
    folding in the stage's edge padding: an access ``input(x + o)`` into an
    input padded by ``p`` reads unpadded coordinate ``x + o - p``, so its
    effective offset is ``o - p``.  ``stencil`` is False when some tap is
    not an axis-aligned shifted window (bounds not inferable).
    """

    lo: list[int]
    hi: list[int]
    stencil: bool = True
    reads_input: bool = True


def _stage_footprint(func: Func, input_name: str,
                     pad_before: Sequence[int]) -> _Footprint:
    rank = len(func.variables)
    var_position = {v.name: p for p, v in enumerate(func.variables)}
    lo: list[Optional[int]] = [None] * rank
    hi: list[Optional[int]] = [None] * rank
    stencil = True
    any_access = False
    if func.value is None:
        return _Footprint([0] * rank, [0] * rank, stencil=False,
                          reads_input=False)
    for node in func.value.walk():
        if not isinstance(node, BufferAccess) or node.buffer != input_name:
            continue
        any_access = True
        if len(node.indices) != rank:
            stencil = False
            continue
        offsets = []
        for position, index in enumerate(node.indices):
            shift = _shift_of_index(index)
            if shift is None or var_position.get(shift[0]) != position:
                offsets = None
                break
            offsets.append(shift[1])
        if offsets is None:
            stencil = False
            continue
        for position, offset in enumerate(offsets):
            axis = rank - 1 - position
            eff = offset - pad_before[axis]
            lo[axis] = eff if lo[axis] is None else min(lo[axis], eff)
            hi[axis] = eff if hi[axis] is None else max(hi[axis], eff)
    lo = [0 if v is None else v for v in lo]
    hi = [0 if v is None else v for v in hi]
    if not any_access:
        return _Footprint(lo, hi, stencil=stencil, reads_input=False)
    return _Footprint(lo, hi, stencil=stencil)


def _pad_pairs(stage, rank: int) -> list[tuple[int, int]]:
    """The stage's ``np.pad`` amounts as (before, after) per NumPy axis."""
    if stage.pad_width is not None:
        pw = stage.pad_width
        if isinstance(pw, int):
            return [(pw, pw)] * rank
        pw = tuple(pw)
        if len(pw) == 2 and all(isinstance(v, int) for v in pw):
            return [(int(pw[0]), int(pw[1]))] * rank
        if len(pw) != rank:
            raise PipelineLoweringError(
                f"stage {stage.name}: pad_width {pw!r} does not match rank {rank}")
        return [(int(b), int(a)) for b, a in pw]
    return [(int(stage.pad), int(stage.pad))] * rank


def _ringed(shape: Sequence[int], ring) -> tuple[int, ...]:
    """``shape`` grown by a per-axis ``(before, after)`` ghost ring."""
    return tuple(d + b + a for d, (b, a) in zip(shape, ring))


def _out_offset(ctx: "_StageCtx", origin: Sequence) -> tuple:
    """Where a region at frame ``origin`` lands in ``ctx``'s output buffer
    (shifted past the ghost ring's leading edge when it has one)."""
    if ctx.out_ring is None:
        return tuple(origin)
    return tuple(_add(o, b) for o, (b, _a) in zip(origin, ctx.out_ring))


# ---------------------------------------------------------------------------
# Expression retargeting
# ---------------------------------------------------------------------------


def _retarget(expr: Expr, input_name: str, target: str, *,
              delta_by_pos: Optional[Sequence[int]] = None,
              clamp_by_pos: Optional[Sequence[tuple[int, int, int]]] = None,
              var_params: Optional[dict[str, Param]] = None) -> Expr:
    """Rewrite every tap into ``input_name`` to read ``target`` instead.

    Exactly one of the two index rewrites applies:

    * ``delta_by_pos`` — shifted-window taps get their offsets adjusted by a
      per-position constant (pure shifts stay pure shifts, keeping the
      backends' dense window loads);
    * ``clamp_by_pos`` — each index expression ``e`` becomes
      ``clamp(e - pad, 0, dim - 1)`` with per-position ``(pad, 0, dim-1)``,
      reproducing edge padding for border regions and complex taps.

    ``var_params`` maps loop-variable names to :class:`Param` nodes added to
    every occurrence *outside* the rewritten taps — the mechanism that keeps
    expressions evaluated in tile-local coordinates correct when they also
    use the loop variables directly (the Param carries the tile base).
    """

    def rec(node: Expr) -> Expr:
        if isinstance(node, BufferAccess) and node.buffer == input_name:
            new_indices = []
            for position, index in enumerate(node.indices):
                if delta_by_pos is not None:
                    shift = _shift_of_index(index)
                    if shift is None:
                        # Complex index: keep it, add the delta (used by the
                        # C++ emitter; lowering guards shift stores behind
                        # the stencil check and never reaches this).
                        rewritten = rec(index)
                        delta = delta_by_pos[position]
                        new_indices.append(
                            rewritten if delta == 0
                            else BinOp(Op.ADD, rewritten, Const(delta, INT32),
                                       INT32))
                        continue
                    name, offset = shift
                    new_offset = offset + delta_by_pos[position]
                    var = IRVar(name)
                    new_indices.append(
                        var if new_offset == 0
                        else BinOp(Op.ADD, var, Const(new_offset, INT32), INT32))
                else:
                    pad, lo, hi = clamp_by_pos[position]
                    shifted = rec(index)
                    if pad:
                        shifted = BinOp(Op.SUB, shifted, Const(pad, INT32), INT32)
                    new_indices.append(_clamp(shifted, Const(lo, INT32),
                                              Const(hi, INT32)))
            return BufferAccess(target, new_indices, node.dtype)
        if isinstance(node, IRVar) and var_params and node.name in var_params:
            return BinOp(Op.ADD, node, var_params[node.name], node.dtype)
        children = [rec(child) for child in node.children]
        if children != list(node.children):
            return node.with_children(children)
        return node

    return rec(expr)


def _rename_buffers(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Rewrite every tap into a renamed buffer (indices rewritten too)."""

    def rec(node: Expr) -> Expr:
        if isinstance(node, BufferAccess) and node.buffer in mapping:
            return BufferAccess(mapping[node.buffer],
                                [rec(index) for index in node.indices],
                                node.dtype)
        children = [rec(child) for child in node.children]
        if children != list(node.children):
            return node.with_children(children)
        return node

    return rec(expr)


def _reduction_sweep(sched_func: Func, update_func: Func, out_buffer: str,
                     partials_buffer: str, out_shape: Sequence[int],
                     source_shape: Sequence[int], var_prefix: str,
                     let_prefix: str) -> tuple[Stmt, str]:
    """The update phase of one reduction: serial sweep or two-phase strips.

    ``sched_func`` supplies the schedule (parallel flag, strip height) and
    ``update_func`` is what the sweeps execute (taps already retargeted by
    the caller; the two may be the same Func).  Associative accumulations
    scheduled ``parallel`` produce the two-phase form — per-strip private
    partial accumulators (a zero-filled ``Allocate`` of one ``out_shape``
    slab per strip) filled under a parallel ``For``, then a deterministic
    serial merge loop — everything else the single serialized whole-domain
    ``ReduceLoop`` the oracle runs.  Returns ``(stmt, description)``; both
    the pipeline lowering and :func:`lower_func` build from this one helper
    so they can never drift apart.
    """
    rank = len(source_shape)
    associative = update_func.reduction_is_associative()
    strip = sched_func.reduction_strip_rows()
    rows = source_shape[0] if source_shape else 0
    strips = -(-rows // strip) if rows else 1
    parallel = (sched_func.schedule.parallel and associative and strips >= 2
                and sched_func.parallel_unsupported_reason() is None)
    if not parallel:
        description = ("serial whole-domain sweep"
                       + ("" if associative else " (non-associative update)"))
        return ReduceLoop(buffer=out_buffer, func=update_func,
                          source_origin=(0,) * rank,
                          source_extent=tuple(source_shape),
                          associative=associative,
                          label="whole-domain"), description

    strip_var = IRVar(f"{var_prefix}.rstrip")
    lets = _Lets()
    lo = lets.bind(f"{let_prefix}lo", _mul(strip_var, strip))
    ext0 = lets.bind(f"{let_prefix}ext", _min_(strip, _sub(rows, lo)))
    sweep = ReduceLoop(buffer=partials_buffer, func=update_func,
                       source_origin=tuple([lo] + [0] * (rank - 1)),
                       source_extent=tuple([ext0] + list(source_shape[1:])),
                       associative=True, target_index=strip_var,
                       label="partial")
    fill = For(strip_var.name, 0, strips, lets.wrap(sweep), kind="parallel")
    merge_var = IRVar(f"{var_prefix}.merge")
    merge = For(merge_var.name, 0, strips,
                AccumMerge(target=out_buffer, source=partials_buffer,
                           index=merge_var, label="merge"))
    description = f"two-phase ({strips} strips x {strip} rows + serial merge)"
    return Allocate(partials_buffer, update_func.dtype,
                    (strips,) + tuple(out_shape),
                    Block([fill, merge]), fill=0), description


def _loop_kind(func: Func) -> str:
    """``"parallel"`` when ``func``'s tile loop may fan out, else ``"serial"``."""
    if func.schedule.parallel and func.parallel_unsupported_reason() is None:
        return "parallel"
    return "serial"


def _tile_loops(name: str, let_prefix: str, shape: Sequence[int],
                tile_w: int, tile_h: int, kind: str, region) -> Stmt:
    """The tile ``For`` pair over the two innermost axes of ``shape``.

    ``region(origin, extent, lets, static_extent)`` builds the body for one
    tile (origin/extent in NumPy axis order, bound through ``lets``;
    ``static_extent`` is the steady-state tile size).  The outer loop is
    ``kind``; tiles are disjoint, which is what lets a ``"parallel"`` loop
    fan them out.
    """
    rank = len(shape)
    height, width = shape[rank - 2], shape[rank - 1]
    vy = IRVar(f"{name}.tile_y")
    vx = IRVar(f"{name}.tile_x")
    lets = _Lets()
    oy = lets.bind(f"{let_prefix}.oy", _mul(vy, tile_h))
    ox = lets.bind(f"{let_prefix}.ox", _mul(vx, tile_w))
    ey = lets.bind(f"{let_prefix}.ey", _min_(tile_h, _sub(height, oy)))
    ex = lets.bind(f"{let_prefix}.ex", _min_(tile_w, _sub(width, ox)))
    origin = [0] * (rank - 2) + [oy, ox]
    extent = list(shape[:rank - 2]) + [ey, ex]
    static_extent = (list(shape[:rank - 2])
                     + [min(tile_h, height), min(tile_w, width)])
    body = lets.wrap(region(origin, extent, lets, static_extent))
    loops = For(vx.name, 0, -(-width // tile_w), body)
    return For(vy.name, 0, -(-height // tile_h), loops, kind=kind)


def _used_params(expr: Expr, candidates: dict[str, object]) -> dict:
    names = {node.name for node in expr.walk() if isinstance(node, Param)}
    return {name: value for name, value in candidates.items() if name in names}


# ---------------------------------------------------------------------------
# Per-stage lowering state
# ---------------------------------------------------------------------------


@dataclass
class StageDecision:
    """What the lowering actually did with one stage (for ``describe()``)."""

    name: str
    func_name: str
    level: str                         # 'output', 'default', 'root' or 'at'
    anchor: Optional[tuple[str, str]] = None
    requested: str = "default"
    demoted_reason: Optional[str] = None
    footprint: Optional[list[tuple[int, int]]] = None   # per np axis (lo, hi)
    scratch_extent: Optional[tuple[int, ...]] = None    # steady-state, np order
    buffer: str = ""
    #: For reduction stages: the update schedule actually lowered, e.g.
    #: ``"two-phase (10 strips x 64 rows + serial merge)"`` or
    #: ``"serial whole-domain sweep"``.
    reduction: Optional[str] = None
    #: Per NumPy axis ``(before, after)`` edge ghost ring around the
    #: full-frame input this stage reads in padded coordinates (None when
    #: it reads through clamped stores or compute_at scratch).
    ghost_ring: Optional[list[tuple[int, int]]] = None

    def describe(self) -> str:
        parts = [f"{self.name}: {self.level}"]
        if self.level == "at" and self.anchor:
            parts[0] = (f"{self.name}: compute_at({self.anchor[0]}, "
                        f"{self.anchor[1]})")
        elif self.level == "root":
            parts[0] = f"{self.name}: compute_root"
        if self.ghost_ring is not None and any(map(any, self.ghost_ring)):
            ring = "x".join(f"[{b},{a}]" for b, a in self.ghost_ring)
            parts.append(f"reads its input through edge ghost ring {ring}")
        if self.footprint is not None:
            ghost = "x".join(f"[{lo},{hi}]" for lo, hi in self.footprint)
            parts.append(f"consumer footprint {ghost}")
        if self.scratch_extent is not None:
            parts.append("scratch "
                         + "x".join(str(e) for e in self.scratch_extent))
        if self.reduction is not None:
            parts.append(f"reduction {self.reduction}")
        if self.demoted_reason:
            parts.append(f"(demoted from {self.requested}: "
                         f"{self.demoted_reason})")
        return ", ".join(parts)


@dataclass
class _StageCtx:
    index: int
    stage: object                      # FuncStage
    func: Func
    input_buffer: str                  # resolved buffer id the taps read
    output_buffer: str                 # resolved buffer id this stage writes
    pad_before: list[int]
    footprint: _Footprint              # taps into its own input
    level: str                         # 'output' | 'default' | 'root' | 'at'
    decision: StageDecision = None
    #: Per-axis (before, after) pads when the stage runs its Func in padded
    #: coordinates over a ghost-ringed full-frame input; None otherwise.
    in_ring: Optional[list[tuple[int, int]]] = None
    #: The ghost ring around this stage's output buffer (its reader's
    #: non-zero ``in_ring``); None when the buffer has no ring.
    out_ring: Optional[list[tuple[int, int]]] = None


@dataclass
class LoweredPipeline:
    """A pipeline lowered to the ``Stmt`` IR, ready for any backend."""

    stmt: Stmt
    input_name: str                    # buffer name bound to the frame image
    output: str                        # buffer name holding the result
    frame_shape: tuple[int, ...]       # NumPy order
    out_dtype: object
    decisions: list[StageDecision] = field(default_factory=list)
    #: The output is first written by one whole-frame store at the top of
    #: the nest, which may allocate it itself; otherwise ``execute`` binds
    #: it before running.  (Allocating a frame-sized destination ahead of a
    #: store's temporaries put fresh pages under every frame.)
    output_by_store: bool = False
    #: Backend memo: the native program built for this lowering, per frame
    #: dtype, param kinds and toolchain (the nest is immutable, so the memo
    #: can never go stale).
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def input_ring(self) -> Optional[tuple[tuple[int, int], ...]]:
        """Per-axis (before, after) edge padding the frame gets on entry:
        the first stage's ghost ring, or None when it reads no ring."""
        ring = self.decisions[0].ghost_ring if self.decisions else None
        if ring is None or not any(map(any, ring)):
            return None
        return tuple(ring)

    def describe(self) -> str:
        """Per-stage scheduling decisions plus the lowered loop nest."""
        lines = [f"lowered pipeline over frame {list(self.frame_shape)}"]
        if self.input_ring is not None:
            ring = "x".join(f"[{b},{a}]" for b, a in self.input_ring)
            lines[0] += f", {self.input_name} edge-padded by {ring} on entry"
        for decision in self.decisions:
            lines.append("  " + decision.describe())
        lines.append("loop nest:")
        lines.extend("  " + line for line in self.stmt.pretty().splitlines())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    def __init__(self, pipeline, frame_shape: tuple[int, ...]) -> None:
        self.pipeline = pipeline
        self.frame_shape = tuple(int(d) for d in frame_shape)
        self.rank = len(self.frame_shape)

    # -- stage classification ------------------------------------------------

    def _contexts(self) -> list[_StageCtx]:
        stages = self.pipeline.stages
        if not stages:
            raise PipelineLoweringError("cannot lower an empty pipeline")
        contexts: list[_StageCtx] = []
        for index, stage in enumerate(stages):
            func = stage.func
            if func.reduction is None and func.value is None:
                raise PipelineLoweringError(
                    f"stage {stage.name} has no definition")
            if len(func.variables) != self.rank:
                raise PipelineLoweringError(
                    f"stage {stage.name} has rank {len(func.variables)}, the "
                    f"frame rank {self.rank}: the loop nest runs every stage "
                    "over the frame")
            pad_before = [pair[0] for pair in _pad_pairs(stage, self.rank)]
            if func.reduction is not None:
                self._check_reduction_lowerable(stage, func)
                # A reduction reads its whole input domain: no finite stencil
                # footprint, and nothing upstream can compute_at into it.
                footprint = _Footprint([0] * self.rank, [0] * self.rank,
                                       stencil=False)
            else:
                footprint = _stage_footprint(func, stage.input_name,
                                             pad_before)
            contexts.append(_StageCtx(
                index=index, stage=stage, func=func,
                input_buffer="", output_buffer="",
                pad_before=pad_before, footprint=footprint, level="root"))

        # Resolve compute levels back to front; the last stage is the output.
        for index, ctx in enumerate(contexts):
            schedule = ctx.func.schedule
            requested = schedule.compute
            is_last = index == len(contexts) - 1
            level = "default" if requested == "default" else "root"
            reason, anchor = None, None
            if is_last:
                level = "output"
                if requested == "at":
                    reason = "the output stage has no consumer to compute at"
            elif requested == "at":
                consumer = contexts[index + 1]
                anchor = schedule.compute_at
                consumer_names = {consumer.stage.name, consumer.func.name}
                consumer_vars = {v.name for v in consumer.func.variables}
                if ctx.func.reduction is not None:
                    reason = ("a reduction accumulator materializes whole; "
                              "compute_at is not supported")
                elif consumer.func.reduction is not None:
                    reason = (f"consumer {consumer.stage.name} is a "
                              "reduction stage (its RDom sweeps the whole "
                              "input domain)")
                elif anchor is None or anchor[0] not in consumer_names:
                    reason = (f"compute_at consumer {anchor and anchor[0]!r} "
                              f"is not the consuming stage "
                              f"{consumer.stage.name!r}")
                elif anchor[1] not in consumer_vars:
                    reason = (f"anchor var {anchor[1]!r} is not a pure "
                              f"variable of {consumer.stage.name}")
                elif not consumer.footprint.stencil:
                    reason = ("the consumer's taps are not an axis-aligned "
                              "shifted window; bounds not inferable")
                else:
                    level = "at"
            ctx.level = level
            ctx.decision = StageDecision(
                name=ctx.stage.name, func_name=ctx.func.name, level=level,
                anchor=anchor if level == "at" else None,
                requested=requested,
                demoted_reason=reason)
        # Record the consumer footprint on each producer's decision (that is
        # the ghost zone its materialization carries).
        for index, ctx in enumerate(contexts[:-1]):
            consumer = contexts[index + 1]
            if consumer.footprint.stencil:
                ctx.decision.footprint = list(zip(consumer.footprint.lo,
                                                  consumer.footprint.hi))
        return contexts

    # -- driver --------------------------------------------------------------

    @staticmethod
    def _group(contexts: list[_StageCtx]) -> list[tuple[_StageCtx, list[_StageCtx]]]:
        """Group stages: each group is (consumer, [compute_at chain into it])."""
        groups: list[tuple[_StageCtx, list[_StageCtx]]] = []
        chain: list[_StageCtx] = []
        for ctx in contexts:
            if ctx.level == "at":
                chain.append(ctx)
            else:
                groups.append((ctx, chain))
                chain = []
        return groups

    def _loop_extremes(self, consumer: _StageCtx) -> tuple[list[int], list[int]]:
        """Smallest first-tile and last-tile extents per axis of the
        consumer's loop nest (the worst cases for border regions)."""
        rank = self.rank
        schedule = consumer.func.schedule
        first = list(self.frame_shape)
        last = list(self.frame_shape)

        def split(axis: int, step: int) -> None:
            dim = self.frame_shape[axis]
            first[axis] = min(step, dim)
            remainder = dim % step
            last[axis] = remainder if (remainder and dim > step) \
                else min(step, dim)

        if schedule.tile_x > 0 and schedule.tile_y > 0 and rank >= 2:
            split(rank - 2, schedule.tile_y)
            split(rank - 1, schedule.tile_x)
        else:
            split(rank - 2 if rank >= 2 else 0, STRIP_HEIGHT)
        return first, last

    def _demote_unsafe_regions(self, contexts: list[_StageCtx]) -> None:
        """Demote compute_at stages whose required region can fall entirely
        outside the frame for some border tile.

        The clamped-region machinery handles regions *straddling* the frame
        edge; a region with no in-domain point at all (a one-sided footprint
        at least as deep as a border tile) has nothing to snap to inside its
        own allocation, so those geometries take the full-frame path instead.
        The check is static: frame shape, tile extents and accumulated
        footprints are all known at lowering time.
        """
        while True:
            demoted = False
            for consumer, chain in self._group(contexts):
                if not chain:
                    continue
                first, last = self._loop_extremes(consumer)
                acc_lo = [0] * self.rank
                acc_hi = [0] * self.rank
                readers = chain[1:] + [consumer]
                for ctx, reader in zip(reversed(chain), reversed(readers)):
                    fp = reader.footprint
                    acc_lo = [a + fp.lo[i] for i, a in enumerate(acc_lo)]
                    acc_hi = [a + fp.hi[i] for i, a in enumerate(acc_hi)]
                    bad = next((axis for axis in range(self.rank)
                                if first[axis] - 1 + acc_hi[axis] < 0
                                or acc_lo[axis] > last[axis] - 1), None)
                    if bad is None:
                        continue
                    ctx.level = "root"
                    ctx.decision.level = "root"
                    ctx.decision.anchor = None
                    ctx.decision.demoted_reason = (
                        f"a border tile of {consumer.stage.name} can require "
                        f"a region of {ctx.stage.name} entirely outside the "
                        f"frame (accumulated footprint "
                        f"[{acc_lo[bad]},{acc_hi[bad]}] on axis {bad}, tile "
                        f"extents down to {min(first[bad], last[bad])})")
                    demoted = True
                    break
                if demoted:
                    break                  # regroup and re-check from scratch
            if not demoted:
                return

    def lower(self) -> LoweredPipeline:
        contexts = self._contexts()
        self._demote_unsafe_regions(contexts)
        frame_input = contexts[0].stage.input_name

        # Buffer naming: frame input feeds stage 0; every root or default
        # stage gets a full-frame intermediate; compute_at stages get
        # per-region scratch.
        for index, ctx in enumerate(contexts):
            ctx.input_buffer = frame_input if index == 0 \
                else contexts[index - 1].output_buffer
            if ctx.level == "output":
                ctx.output_buffer = f"{ctx.stage.name}.out"
            elif ctx.level in ("root", "default"):
                ctx.output_buffer = f"{ctx.stage.name}.root#{index}"
            else:
                ctx.output_buffer = f"{ctx.stage.name}.scratch#{index}"
            ctx.decision.buffer = ctx.output_buffer
            # Default-level stages (and reductions, which sweep their whole
            # padded input) read a full-frame input in padded coordinates;
            # its buffer carries their pads as an edge ghost ring.
            full_frame_input = index == 0 or contexts[index - 1].level != "at"
            if full_frame_input and (ctx.func.schedule.compute == "default"
                                     or ctx.func.reduction is not None):
                ctx.in_ring = _pad_pairs(ctx.stage, self.rank)
                ctx.decision.ghost_ring = ctx.in_ring
                if index and any(map(any, ctx.in_ring)):
                    contexts[index - 1].out_ring = ctx.in_ring

        # Build front to back: each full-frame buffer is allocated around
        # what produces it and the one group that consumes it, so it is
        # freed as soon as that consumer has run.
        stmt: Optional[Stmt] = None
        producer: Optional[_StageCtx] = None
        for consumer, at_chain in self._group(contexts):
            group_stmt = self._lower_group(consumer, at_chain)
            if producer is None:
                stmt = group_stmt
            else:
                shape, ring = self.frame_shape, producer.out_ring
                if ring is not None:
                    shape = _ringed(shape, ring)
                    stmt = Block([stmt, PadEdge(
                        producer.output_buffer, tuple(b for b, _ in ring),
                        self.frame_shape)])
                stmt = Allocate(
                    producer.output_buffer, producer.func.dtype, shape,
                    Block([ProducerConsumer(producer.stage.name, stmt,
                                            group_stmt)]))
            producer = consumer
        # An output stage that starts with one whole-frame store lets that
        # store materialize the output after its own temporaries, as a
        # NumPy expression would (see ``LoweredPipeline.output_by_store``).
        first = group_stmt.stmts[0] if isinstance(group_stmt, Block) \
            else group_stmt
        output_by_store = (isinstance(first, Store)
                           and first.buffer == producer.output_buffer
                           and not any(first.offset)
                           and tuple(first.extent) == self.frame_shape)
        return LoweredPipeline(
            stmt=stmt, input_name=frame_input,
            output=contexts[-1].output_buffer,
            frame_shape=self.frame_shape,
            out_dtype=contexts[-1].func.dtype,
            decisions=[ctx.decision for ctx in contexts],
            output_by_store=output_by_store)

    # -- group lowering ------------------------------------------------------

    # -- reduction stages ----------------------------------------------------

    def _check_reduction_lowerable(self, stage, func: Func) -> None:
        """Raise :class:`PipelineLoweringError` for reduction geometries the
        loop-nest IR cannot express."""
        rdom = func.reduction[0]
        if rdom.source != stage.input_name:
            raise PipelineLoweringError(
                f"reduction stage {stage.name}: RDom ranges over "
                f"{rdom.source!r}, not the stage input {stage.input_name!r}")
        if rdom.dimensions != self.rank:
            raise PipelineLoweringError(
                f"reduction stage {stage.name}: RDom rank {rdom.dimensions} "
                f"!= frame rank {self.rank}")

    def _reduction_update_func(self, ctx: _StageCtx) -> Func:
        """The reduction update retargeted to the lowered buffer names.

        Taps into the stage input read the resolved input buffer; the
        accumulator self-reference follows the clone's name (the reduction
        sweep binds the target buffer under it).  The name is deterministic
        per stage so the compiled backend's kernel cache hits across
        frames.
        """
        rdom, index_exprs, update = ctx.func.reduction
        name = f"{ctx.stage.name}#{ctx.index}.update"
        mapping = {}
        if ctx.stage.input_name != ctx.input_buffer:
            mapping[ctx.stage.input_name] = ctx.input_buffer
        if ctx.func.name != name:
            mapping[ctx.func.name] = name
        clone = Func(name=name, variables=list(ctx.func.variables),
                     value=None, dtype=ctx.func.dtype,
                     inputs=list(ctx.func.inputs),
                     schedule=Schedule(fuse_producers=False,
                                       vectorize=ctx.func.schedule.vectorize))
        clone.reduction = (
            RDom(rdom.name, source=ctx.input_buffer,
                 dimensions=rdom.dimensions),
            [canonicalize(_rename_buffers(e, mapping)) for e in index_exprs],
            canonicalize(_rename_buffers(update, mapping)))
        return clone

    def _lower_reduction(self, ctx: _StageCtx) -> Stmt:
        """Init store + update sweep(s) for one reduction stage.

        Both run in padded coordinates: the init store over the frame, the
        sweep over the whole ghost-ringed input (the RDom domain an
        ``np.pad``-ed input would have).  Associative accumulations
        scheduled ``parallel`` take the two-phase form: a parallel loop
        fills one private partial accumulator per RDom row strip
        (``Allocate`` with an identity fill), then a serial merge loop folds
        the partials into the initialized output — bit-identical to the
        serial whole-domain sweep because wrapping integer addition is
        associative and commutative.  Everything else (non-associative
        updates, serial schedules, single-strip domains) keeps the one
        serialized whole-domain ``ReduceLoop`` the oracle runs.  When the
        consumer needs a ghost ring around the accumulator, the stage
        accumulates into a ring-free scratch copy first (scatter indices
        address the frame) and stores it into the ringed buffer.
        """
        rank = self.rank
        func = ctx.func
        target = ctx.output_buffer if ctx.out_ring is None \
            else f"{ctx.stage.name}.acc#{ctx.index}"
        init_value = func.value if func.value is not None else Const(0, INT32)
        init_func = Func(name=func.name, variables=list(func.variables),
                         value=init_value, dtype=func.dtype,
                         inputs=list(func.inputs))
        init_ctx = _StageCtx(
            index=ctx.index, stage=ctx.stage, func=init_func,
            input_buffer=ctx.input_buffer, output_buffer=target,
            pad_before=ctx.pad_before, footprint=ctx.footprint,
            level=ctx.level, decision=ctx.decision, in_ring=ctx.in_ring)
        init = self._store_global(init_ctx, [0] * rank,
                                  list(self.frame_shape), _Lets(),
                                  static=True)

        update_func = self._reduction_update_func(ctx)
        sweep, description = _reduction_sweep(
            func, update_func, target,
            f"{ctx.stage.name}.partials#{ctx.index}",
            self.frame_shape, _ringed(self.frame_shape, ctx.in_ring),
            ctx.stage.name, f"s{ctx.index}.r")
        ctx.decision.reduction = description
        if ctx.out_ring is None:
            return Block([init, sweep])
        copy = Func(name=f"{ctx.stage.name}#{ctx.index}.ring",
                    variables=list(func.variables),
                    value=BufferAccess(target, list(func.variables),
                                       func.dtype),
                    dtype=func.dtype)
        store = Store(buffer=ctx.output_buffer,
                      offset=_out_offset(ctx, [0] * rank),
                      extent=self.frame_shape, func=copy,
                      eval_origin=(0,) * rank, label="ring")
        return Allocate(target, func.dtype, self.frame_shape,
                        Block([init, sweep, store]))

    # -- pure-stage group lowering -------------------------------------------

    def _lower_group(self, consumer: _StageCtx,
                     chain: list[_StageCtx]) -> Stmt:
        if consumer.func.reduction is not None:
            return self._lower_reduction(consumer)
        schedule = consumer.func.schedule
        rank = self.rank
        tiled = (schedule.tile_x > 0 and schedule.tile_y > 0 and rank >= 2)
        prefix = f"s{consumer.index}"

        if tiled:
            def region(origin, extent, lets, static_extent):
                return self._lower_region(consumer, chain, origin, extent,
                                          lets, static_extent)

            return _tile_loops(consumer.stage.name, prefix, self.frame_shape,
                               schedule.tile_x, schedule.tile_y,
                               _loop_kind(consumer.func), region)

        if chain:
            # Untiled consumer with compute_at producers: row strips
            # (Halide's compute_at(f, y)).
            axis = rank - 2 if rank >= 2 else 0
            extent_axis = self.frame_shape[axis]
            var = IRVar(f"{consumer.stage.name}.strip")
            lets = _Lets()
            o_strip = lets.bind(f"{prefix}.oy", _mul(var, STRIP_HEIGHT))
            origin = [0] * rank
            extent = list(self.frame_shape)
            static_extent = list(self.frame_shape)
            origin[axis] = o_strip
            extent[axis] = lets.bind(
                f"{prefix}.ey", _min_(STRIP_HEIGHT, _sub(extent_axis, o_strip)))
            static_extent[axis] = min(STRIP_HEIGHT, extent_axis)
            body = lets.wrap(self._lower_region(
                consumer, chain, origin, extent, lets, static_extent))
            return For(var.name, 0, -(-extent_axis // STRIP_HEIGHT), body)

        # Whole-frame store: split borders statically.
        return self._lower_region(consumer, chain,
                                  [0] * rank, list(self.frame_shape),
                                  _Lets(), list(self.frame_shape), static=True)

    def _lower_region(self, consumer: _StageCtx, chain: list[_StageCtx],
                      origin: list, extent: list, lets: "_Lets",
                      static_extent: list, static: bool = False) -> Stmt:
        """The body computing ``consumer`` over one region, producing its
        compute_at chain into scratch buffers first."""
        if not chain:
            return self._store_global(consumer, origin, extent, lets,
                                      static=static)

        # Bounds inference: required regions consumer -> producer, unclamped
        # (the unclamped base keeps scratch offsets lowering-time constants).
        regions: dict[int, tuple[list, list]] = {}
        cur_origin, cur_extent = list(origin), list(extent)
        cur_static = list(static_extent)
        consumers = chain[1:] + [consumer]
        for ctx, reader in zip(reversed(chain), reversed(consumers)):
            fp = reader.footprint
            prefix = f"s{ctx.index}"
            cur_origin = [lets.bind(f"{prefix}.ro{a}", _add(o, fp.lo[a]))
                          for a, o in enumerate(cur_origin)]
            cur_extent = [lets.bind(f"{prefix}.re{a}",
                                    _add(e, fp.hi[a] - fp.lo[a]))
                          for a, e in enumerate(cur_extent)]
            cur_static = [s + (fp.hi[a] - fp.lo[a])
                          for a, s in enumerate(cur_static)]
            regions[ctx.index] = (list(cur_origin), list(cur_extent))
            ctx.decision.scratch_extent = tuple(cur_static)

        stmt: Stmt = self._store_consume(consumer, chain[-1], origin, extent)
        for position in range(len(chain) - 1, -1, -1):
            ctx = chain[position]
            r_origin, r_extent = regions[ctx.index]
            if position == 0:
                produce = self._produce_global(ctx, r_origin, r_extent, lets)
            else:
                produce = self._produce_local(ctx, r_origin, r_extent, lets)
            stmt = ProducerConsumer(ctx.stage.name, produce, stmt)
        for ctx in reversed(chain):
            r_origin, r_extent = regions[ctx.index]
            stmt = Allocate(ctx.output_buffer, ctx.func.dtype,
                            tuple(r_extent), stmt)
        return stmt

    # -- stores --------------------------------------------------------------

    def _clamped_region(self, ctx: _StageCtx, origin: list, extent: list,
                        lets: "_Lets"):
        """Clamp a required region to the stage's domain (the frame).

        Returns (clamped origin, clamped extent, scratch offset) — the
        clamped region is never empty (it snaps to the nearest in-domain
        row/column, whose values the ghost zone replicates).
        """
        prefix = f"s{ctx.index}"
        c_origin, c_extent, offset = [], [], []
        for axis in range(self.rank):
            dim = self.frame_shape[axis]
            lo = lets.bind(f"{prefix}.co{axis}",
                           _clamp(origin[axis], 0, dim - 1))
            hi = lets.bind(
                f"{prefix}.chi{axis}",
                _clamp(_sub(_add(origin[axis], extent[axis]), 1), 0, dim - 1))
            c_origin.append(lo)
            c_extent.append(lets.bind(f"{prefix}.ce{axis}",
                                      _add(_sub(hi, lo), 1)))
            offset.append(lets.bind(f"{prefix}.coff{axis}",
                                    _sub(lo, origin[axis])))
        return c_origin, c_extent, offset

    def _taps_interior_cond(self, fp: _Footprint, origin: list,
                            extent: list) -> Optional[Expr]:
        """Loop-var condition: every tap of this store stays in the input."""
        cond: Optional[Expr] = None
        for axis in range(self.rank):
            dim = self.frame_shape[axis]
            if fp.lo[axis] < 0:
                term = _add(origin[axis], fp.lo[axis])
                cond = _and_(cond, BinOp(Op.GE, _e(term), Const(0, INT32), INT32))
            if fp.hi[axis] > 0:
                term = _add(_add(origin[axis], extent[axis]), fp.hi[axis])
                cond = _and_(cond, BinOp(Op.LE, _e(term), Const(dim, INT32), INT32))
        return cond

    def _store_func(self, ctx: _StageCtx, expr: Expr, variant: str) -> Func:
        """A pure Func wrapping one store's rewritten expression.

        The name is deterministic per (stage, variant) so the compiled
        backend's kernel cache hits across tiles and across lowerings.
        """
        return Func(name=f"{ctx.stage.name}#{ctx.index}.{variant}",
                    variables=list(ctx.func.variables),
                    value=canonicalize(expr), dtype=ctx.func.dtype,
                    inputs=list(ctx.func.inputs),
                    schedule=Schedule(fuse_producers=False,
                                      vectorize=ctx.func.schedule.vectorize))

    def _variant_funcs(self, ctx: _StageCtx):
        """A memoizing ``func_for(variant)`` over the store rewrites of one
        stage: pure-shift interior, clamped border, or — ``"padded"`` — the
        stage's own taps into its ghost-ringed input."""
        cache: dict[str, Func] = {}

        def func_for(variant: str) -> Func:
            func = cache.get(variant)
            if func is None:
                if variant == "padded":
                    expr = _rename_buffers(
                        ctx.func.value,
                        {ctx.stage.input_name: ctx.input_buffer})
                elif variant == "interior":
                    expr = self._shift_expr(ctx)
                else:
                    expr = self._clamped_expr(ctx)
                func = self._store_func(ctx, expr, variant)
                cache[variant] = func
            return func

        return func_for

    def _shift_expr(self, ctx: _StageCtx) -> Expr:
        """Taps rewritten to pure shifts into the (unpadded) input buffer."""
        delta = [-ctx.pad_before[self.rank - 1 - p] for p in range(self.rank)]
        return _retarget(ctx.func.value, ctx.stage.input_name,
                         ctx.input_buffer, delta_by_pos=delta)

    def _clamped_expr(self, ctx: _StageCtx) -> Expr:
        """Taps rewritten to clamped (edge-replicating) loads."""
        clamp = []
        for position in range(self.rank):
            axis = self.rank - 1 - position
            clamp.append((ctx.pad_before[axis], 0, self.frame_shape[axis] - 1))
        return _retarget(ctx.func.value, ctx.stage.input_name,
                         ctx.input_buffer, clamp_by_pos=clamp)

    def _partitioned_stores(self, ctx: _StageCtx, origin: list, extent: list,
                            make_store, lets: "_Lets", prefix: str) -> Stmt:
        """Loop partitioning for one region store with a stencil footprint.

        Fast path: when every tap of the whole region stays inside the input
        (a runtime condition over the loop variables), a single pure-shift
        store runs.  Otherwise the region splits into clamped border slabs
        (thin: only the rows/columns whose taps actually leave the frame)
        plus a pure-shift interior sub-store — so even a full-width strip
        pays the gather cost only on its border rows.  ``make_store(origin,
        extent, variant, label)`` builds the store for one piece.
        """
        fp = ctx.footprint
        hi_index = [lets.bind(f"{prefix}.hi{a}",
                              _sub(_add(origin[a], extent[a]), 1))
                    for a in range(self.rank)]
        interior_lo = [
            lets.bind(f"{prefix}.ilo{a}", _max_(origin[a], -fp.lo[a]))
            if fp.lo[a] < 0 else origin[a]
            for a in range(self.rank)]
        interior_hi = [
            lets.bind(f"{prefix}.ihi{a}",
                      _min_(hi_index[a], self.frame_shape[a] - 1 - fp.hi[a]))
            if fp.hi[a] > 0 else hi_index[a]
            for a in range(self.rank)]

        pieces: list[Stmt] = []
        for axis in range(self.rank):
            def slab(lo_axis, extent_axis, label):
                o, e = [], []
                for a in range(self.rank):
                    if a < axis:
                        o.append(interior_lo[a])
                        e.append(_add(_sub(interior_hi[a], interior_lo[a]), 1))
                    elif a == axis:
                        o.append(lo_axis)
                        e.append(extent_axis)
                    else:
                        o.append(origin[a])
                        e.append(extent[a])
                return make_store(o, e, "clamped", label)

            if fp.lo[axis] < 0:
                pieces.append(slab(origin[axis],
                                   _sub(interior_lo[axis], origin[axis]),
                                   f"border-lo{axis}"))
            if fp.hi[axis] > 0:
                pieces.append(slab(_add(interior_hi[axis], 1),
                                   _sub(hi_index[axis], interior_hi[axis]),
                                   f"border-hi{axis}"))
        pieces.append(make_store(
            interior_lo,
            [_add(_sub(interior_hi[a], interior_lo[a]), 1)
             for a in range(self.rank)],
            "interior", "interior"))

        cond = self._taps_interior_cond(fp, origin, extent)
        whole = make_store(origin, extent, "interior", "interior-whole")
        if cond is None:
            return whole
        return IfThenElse(cond, whole, Block(pieces))

    def _store_global(self, ctx: _StageCtx, origin: list, extent: list,
                      lets: "_Lets", static: bool = False) -> Stmt:
        """Store a stage over a region of its full-frame output buffer,
        reading its (full-frame) input in global coordinates — or, with an
        ``in_ring``, in the padded coordinates of its ghost-ringed input."""
        fp = ctx.footprint
        target = ctx.output_buffer
        func_for = self._variant_funcs(ctx)

        def make_store(o, e, variant, label):
            return Store(buffer=target, offset=_out_offset(ctx, o),
                         extent=tuple(e), func=func_for(variant),
                         eval_origin=tuple(o), label=label)

        if ctx.in_ring is not None:
            return make_store(origin, extent, "padded", "padded")
        if not fp.reads_input:
            return make_store(origin, extent, "interior", "pointwise")
        if not fp.stencil:
            return make_store(origin, extent, "clamped", "complex-taps")
        if all(fp.lo[a] == 0 and fp.hi[a] == 0 for a in range(self.rank)):
            # Every tap reads exactly the output point: never out of bounds.
            return make_store(origin, extent, "interior", "pointwise")
        if not static:
            return self._partitioned_stores(ctx, origin, extent, make_store,
                                            lets, f"s{ctx.index}.g")

        # Static whole-frame split: interior block + clamped border slabs,
        # with all the bounds folded to constants at lowering time.
        interior_lo = [max(0, -fp.lo[a]) for a in range(self.rank)]
        interior_hi = [min(self.frame_shape[a] - 1,
                           self.frame_shape[a] - 1 - fp.hi[a])
                       for a in range(self.rank)]
        if any(interior_hi[a] < interior_lo[a] for a in range(self.rank)):
            return make_store(origin, extent, "clamped", "border-only")
        stmts: list[Stmt] = []
        for axis in range(self.rank):
            def slab(lo_axis, hi_axis, label):
                o, e = [], []
                for a in range(self.rank):
                    if a < axis:
                        o.append(interior_lo[a])
                        e.append(interior_hi[a] - interior_lo[a] + 1)
                    elif a == axis:
                        o.append(lo_axis)
                        e.append(hi_axis - lo_axis + 1)
                    else:
                        o.append(0)
                        e.append(self.frame_shape[a])
                if any(ext <= 0 for ext in e):
                    return None
                return make_store(o, e, "clamped", label)

            before = slab(0, interior_lo[axis] - 1, f"border-lo{axis}")
            after = slab(interior_hi[axis] + 1, self.frame_shape[axis] - 1,
                         f"border-hi{axis}")
            for piece in (before, after):
                if piece is not None:
                    stmts.append(piece)
        stmts.append(make_store(
            interior_lo,
            [interior_hi[a] - interior_lo[a] + 1 for a in range(self.rank)],
            "interior", "interior"))
        return Block(stmts)

    def _produce_global(self, ctx: _StageCtx, origin: list, extent: list,
                        lets: "_Lets") -> Stmt:
        """Produce a compute_at stage whose input is a full-frame buffer.

        Evaluates over the region clamped to the frame (global coordinates),
        then edge-replicates the ghost rows the unclamped region wanted.
        """
        fp = ctx.footprint
        c_origin, c_extent, offset = self._clamped_region(ctx, origin, extent,
                                                          lets)
        func_for = self._variant_funcs(ctx)

        def make_store(o, e, variant, label):
            # Scratch-relative write position: global minus the unclamped
            # region base the allocation is aligned to.
            scratch_offset = tuple(_sub(o[a], origin[a])
                                   for a in range(self.rank))
            return Store(buffer=ctx.output_buffer, offset=scratch_offset,
                         extent=tuple(e), func=func_for(variant),
                         eval_origin=tuple(o), label=label)

        if not fp.reads_input:
            body: Stmt = make_store(c_origin, c_extent, "interior", "produce")
        elif not fp.stencil:
            body = make_store(c_origin, c_extent, "clamped",
                              "produce-complex")
        elif all(fp.lo[a] == 0 and fp.hi[a] == 0 for a in range(self.rank)):
            body = make_store(c_origin, c_extent, "interior", "produce")
        else:
            body = self._partitioned_stores(ctx, c_origin, c_extent,
                                            make_store, lets,
                                            f"s{ctx.index}.p")
        return Block([body, PadEdge(ctx.output_buffer, tuple(offset),
                                    tuple(c_extent))])

    def _produce_local(self, ctx: _StageCtx, origin: list, extent: list,
                       lets: "_Lets") -> Stmt:
        """Produce a compute_at stage whose input is another scratch buffer.

        Evaluation runs in coordinates local to this stage's unclamped
        region base; taps into the upstream scratch become constant shifts,
        and any direct use of the loop variables is corrected back to global
        coordinates through per-tile Params.
        """
        fp = ctx.footprint
        c_origin, c_extent, offset = self._clamped_region(ctx, origin, extent,
                                                          lets)
        # Tap rewrite: global tap (x_global + eff) lands in upstream scratch
        # at (x_global + eff - upstream_base); with x evaluated relative to
        # this region's base, the shift is eff - fp.lo — a constant.
        delta = []
        var_params: dict[str, Param] = {}
        param_candidates: dict[str, object] = {}
        for position in range(self.rank):
            axis = self.rank - 1 - position
            delta.append(-ctx.pad_before[axis] - fp.lo[axis])
        for position, var in enumerate(ctx.func.variables):
            axis = self.rank - 1 - position
            name = f"_lower_base{ctx.index}_a{axis}"
            var_params[var.name] = Param(name, 0, INT32)
            param_candidates[name] = origin[axis]
        expr = _retarget(ctx.func.value, ctx.stage.input_name,
                         ctx.input_buffer, delta_by_pos=delta,
                         var_params=var_params)
        params = _used_params(expr, param_candidates)
        # Evaluation origin: the clamped region start, relative to the
        # unclamped base (scratch-local coordinates, equal to `offset`).
        store = Store(buffer=ctx.output_buffer, offset=tuple(offset),
                      extent=tuple(c_extent),
                      func=self._store_func(ctx, expr, "local"),
                      eval_origin=tuple(offset),
                      param_exprs=params, label="produce-local")
        return Block([store, PadEdge(ctx.output_buffer, tuple(offset),
                                     tuple(c_extent))])

    def _store_consume(self, consumer: _StageCtx, producer: _StageCtx,
                       origin: list, extent: list) -> Stmt:
        """The consumer's store, reading its producer's scratch buffer in
        region-local coordinates."""
        fp = consumer.footprint
        delta = []
        var_params: dict[str, Param] = {}
        param_candidates: dict[str, object] = {}
        for position in range(self.rank):
            axis = self.rank - 1 - position
            delta.append(-consumer.pad_before[axis] - fp.lo[axis])
        for position, var in enumerate(consumer.func.variables):
            axis = self.rank - 1 - position
            name = f"_lower_base{consumer.index}_a{axis}"
            var_params[var.name] = Param(name, 0, INT32)
            param_candidates[name] = origin[axis]
        expr = _retarget(consumer.func.value, consumer.stage.input_name,
                         producer.output_buffer, delta_by_pos=delta,
                         var_params=var_params)
        params = _used_params(expr, param_candidates)
        return Store(buffer=consumer.output_buffer,
                     offset=_out_offset(consumer, origin),
                     extent=tuple(extent),
                     func=self._store_func(consumer, expr, "consume"),
                     eval_origin=tuple([0] * self.rank),
                     param_exprs=params, label="consume")


def func_output_buffer(func: Func) -> str:
    """The buffer name :func:`lower_func`'s nest writes ``func``'s output to."""
    return f"{func.name}.out"


def lower_func(func: Func, out_shape: Sequence[int],
               source_shape: Optional[Sequence[int]] = None) -> Stmt:
    """The loop nest :func:`repro.halide.realize.realize` runs for one Func.

    ``out_shape`` is the output domain and ``source_shape`` the reduction
    source's extents (both NumPy axis order; the latter only for
    reductions).  The nest reads the Func's inputs under their own names
    and writes :func:`func_output_buffer`:

    * a pure Func is one full-output ``Store``, or — tiled — the tile
      ``For`` pair :meth:`_Lowerer._lower_group` builds for a tiled stage
      (parallel when :meth:`Func.parallel_unsupported_reason` is None);
    * a reduction is an init ``Store`` of its pure value (a Func without
      one realizes into a zero-filled output) followed by the update
      sweep(s) of :func:`_reduction_sweep`.

    Every ``Store`` and ``ReduceLoop`` executes ``func`` itself, so one
    kernel serves every schedule.  A ``parallel`` request the Func cannot
    honour warns :class:`~repro.halide.parallel.ParallelFallbackWarning`
    here, once per kernel.
    """
    out_shape = tuple(int(e) for e in out_shape)
    rank = len(out_shape)
    out_buffer = func_output_buffer(func)
    schedule = func.schedule
    if schedule.parallel:
        reason = func.parallel_unsupported_reason()
        if reason is not None:
            from .compile import func_signature

            warn_serial_fallback(func_signature(func), reason)

    def store(origin, extent, label: str) -> Store:
        return Store(buffer=out_buffer, offset=tuple(origin),
                     extent=tuple(extent), func=func,
                     eval_origin=tuple(origin), label=label)

    if func.reduction is None:
        if schedule.tile_x > 0 and schedule.tile_y > 0 and rank >= 2:
            return _tile_loops(func.name, func.name, out_shape,
                               schedule.tile_x, schedule.tile_y,
                               _loop_kind(func),
                               lambda o, e, _lets, _static: store(o, e, "tile"))
        return store((0,) * rank, out_shape, "whole")
    source_shape = tuple(int(e) for e in source_shape)
    sweep, _description = _reduction_sweep(
        func, func, out_buffer, f"{func.name}.partials",
        out_shape, source_shape, func.name, f"{func.name}.r")
    if func.value is None:
        return sweep
    return Block([store((0,) * rank, out_shape, "init"), sweep])


def lower_pipeline(pipeline, frame_shape: Sequence[int]) -> LoweredPipeline:
    """Lower a :class:`FuncPipeline` over a frame of this shape.

    ``frame_shape`` is in NumPy (outermost-first) order.  Raises
    :class:`PipelineLoweringError` when the pipeline cannot be expressed in
    the loop-nest IR (see the module docstring).
    """
    return _Lowerer(pipeline, tuple(frame_shape)).lower()
