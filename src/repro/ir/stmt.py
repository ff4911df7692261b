"""Lowered loop-nest statement IR (the mini-Halide ``Stmt`` level).

The expression IR in :mod:`repro.ir.expr` says *what* a function computes at
one point; this module says *how* a whole pipeline is executed: the loop
nest over tiles, where intermediate buffers live, how big they are, and when
producers run relative to their consumers.  It is the layer a Halide-style
compiler inserts between the scheduled front end and any backend, and it is
what :mod:`repro.halide.lower` produces from a scheduled
:class:`~repro.halide.pipeline.FuncPipeline`.

Granularity: loops here iterate over *tiles and strips*, not pixels.  A
:class:`Store` computes a whole rectangular region of one function in a
single vectorized evaluation (NumPy supplies the dense inner loops, exactly
as it does for the two realization engines), so a lowered tree stays cheap
to walk in Python while still expressing the scheduling decisions that
matter: materialization level, bounds, scratch allocation, border handling
and parallelism.

Scalar positions (loop bounds, region origins/extents, branch conditions)
hold either Python ints or expression-IR trees over the loop variables
introduced by enclosing :class:`For` nodes; the executor in
:mod:`repro.halide.backends.base` evaluates them per iteration.  All
origin/extent tuples are in NumPy axis order (outermost first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .expr import Expr

#: A scalar position in the loop nest: a constant or an expression over the
#: enclosing loop variables.
Scalar = Union[int, Expr]


@dataclass
class Stmt:
    """Base class for loop-nest statement nodes.

    Every node carries a ``cache`` dict, the executor's memo: a node's
    compiled scalar positions and per-backend kernels (so repeated tiles and
    frames make no kernel-cache lookup), and on a nest's root the native
    programs built for it.  Lowered trees are immutable, so the memo can
    never go stale.
    """

    cache: dict = field(default_factory=dict, repr=False, compare=False,
                        kw_only=True)

    @property
    def children(self) -> tuple["Stmt", ...]:
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """Yield this statement and every nested statement, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def pretty(self, indent: int = 0) -> str:
        """A readable rendering of the loop nest (see ``stmt_to_str``)."""
        return "\n".join(self._lines(indent))

    def _lines(self, indent: int) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __str__(self) -> str:
        return self.pretty()


def _s(value: Scalar) -> str:
    return str(value)


def _tuple_str(values: Sequence[Scalar]) -> str:
    return "(" + ", ".join(_s(v) for v in values) + ")"


@dataclass
class Block(Stmt):
    """A sequence of statements executed in order."""

    stmts: list[Stmt] = field(default_factory=list)

    @property
    def children(self) -> tuple[Stmt, ...]:
        return tuple(self.stmts)

    def _lines(self, indent: int) -> list[str]:
        lines: list[str] = []
        for stmt in self.stmts:
            lines.extend(stmt._lines(indent))
        return lines


@dataclass
class For(Stmt):
    """A loop over ``name`` from ``min`` for ``extent`` iterations (step 1).

    ``kind`` is ``"serial"`` or ``"parallel"``; parallel loops promise that
    their iterations write disjoint regions, so the executor may fan them
    out across the shared worker pool with bit-identical results.
    """

    name: str
    min: Scalar
    extent: Scalar
    body: Stmt
    kind: str = "serial"

    @property
    def children(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        tag = "" if self.kind == "serial" else f" [{self.kind}]"
        lines = [f"{pad}for {self.name} in [{_s(self.min)}, "
                 f"{_s(self.min)} + {_s(self.extent)}){tag} {{"]
        lines.extend(self.body._lines(indent + 1))
        lines.append(f"{pad}}}")
        return lines


@dataclass
class Let(Stmt):
    """Bind a scalar (evaluated once) to a name visible in ``body``.

    The lowering binds region origins, extents and clamped bounds per loop
    iteration so the many statements referencing them evaluate a single
    variable instead of re-walking a shared bounds expression.
    """

    name: str
    value: Scalar
    body: Stmt

    @property
    def children(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}let {self.name} = {_s(self.value)}"]
        lines.extend(self.body._lines(indent))
        return lines


@dataclass
class Allocate(Stmt):
    """A scratch buffer scoped to ``body`` (freed when the body finishes).

    ``extents`` are in NumPy axis order and may depend on the enclosing loop
    variables — a partial tile at the frame edge allocates a smaller buffer.
    ``fill`` (when not None) zero-/value-initializes the allocation; partial
    reduction accumulators start at the combine op's identity this way.
    """

    buffer: str
    dtype: object                       # repro.ir.types.DType
    extents: tuple[Scalar, ...]
    body: Stmt
    fill: Optional[object] = None

    @property
    def children(self) -> tuple[Stmt, ...]:
        return (self.body,)

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        fill = "" if self.fill is None else f" = {self.fill}"
        lines = [f"{pad}allocate {self.buffer}[{self.dtype}]"
                 f"{_tuple_str(self.extents)}{fill} {{"]
        lines.extend(self.body._lines(indent + 1))
        lines.append(f"{pad}}}")
        return lines


@dataclass
class ProducerConsumer(Stmt):
    """Produce one function's values, then run the consumer that reads them."""

    name: str
    produce: Stmt
    consume: Stmt

    @property
    def children(self) -> tuple[Stmt, ...]:
        return (self.produce, self.consume)

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}produce {self.name} {{"]
        lines.extend(self.produce._lines(indent + 1))
        lines.append(f"{pad}}} consume {{")
        lines.extend(self.consume._lines(indent + 1))
        lines.append(f"{pad}}}")
        return lines


@dataclass
class IfThenElse(Stmt):
    """A branch on a scalar condition over the enclosing loop variables.

    The lowering uses this for border handling: a tile whose stencil
    footprint stays inside the frame takes the fast pure-shift branch; a
    tile touching the border takes the clamped branch.
    """

    condition: Expr
    then_case: Stmt
    else_case: Optional[Stmt] = None

    @property
    def children(self) -> tuple[Stmt, ...]:
        if self.else_case is None:
            return (self.then_case,)
        return (self.then_case, self.else_case)

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        lines = [f"{pad}if ({self.condition}) {{"]
        lines.extend(self.then_case._lines(indent + 1))
        if self.else_case is not None:
            lines.append(f"{pad}}} else {{")
            lines.extend(self.else_case._lines(indent + 1))
        lines.append(f"{pad}}}")
        return lines


@dataclass
class Store(Stmt):
    """Compute one function over a region and write it into a buffer.

    ``func`` is a pure mini-Halide Func (its expression already rewritten by
    the lowering for this coordinate frame); the executor evaluates it
    vectorized over ``extent`` points per axis with variable grids starting
    at ``eval_origin``, and writes the block at ``offset`` inside
    ``buffer``.  ``param_exprs`` are scalar values (per enclosing-loop
    iteration) bound as extra realization params — the lowering uses them to
    pass runtime tile bases into a kernel that is compiled only once.
    """

    buffer: str
    offset: tuple[Scalar, ...]
    extent: tuple[Scalar, ...]
    func: object                        # repro.halide.func.Func (pure)
    eval_origin: tuple[Scalar, ...]
    param_exprs: dict[str, Scalar] = field(default_factory=dict)
    label: str = ""

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        tag = f"  # {self.label}" if self.label else ""
        return [f"{pad}{self.buffer}[{_tuple_str(self.offset)} + "
                f"{_tuple_str(self.extent)}] = {getattr(self.func, 'name', '?')}"
                f"(grid @ {_tuple_str(self.eval_origin)}){tag}"]


@dataclass
class ReduceLoop(Stmt):
    """Apply one reduction update sweep over a sub-region of its RDom source.

    ``func`` is a mini-Halide Func carrying a reduction update (its taps
    already retargeted by the lowering for this buffer frame); the executor
    evaluates the update's index expressions and increment over the RDom grid
    restricted to ``source_origin``/``source_extent`` (NumPy axis order,
    *global* source coordinates) and applies them in place to ``buffer`` — or
    to ``buffer[target_index]`` when ``target_index`` selects one slab of a
    partial-accumulator stack.

    ``associative`` records the lowering's proof that the combine op is an
    associative (modular-integer) accumulation: only then may disjoint source
    sweeps run in parallel into private partials and merge later.  A
    non-associative update (scatter-assign, float accumulation) must sweep
    the whole domain in one serial statement to stay bit-identical to the
    interpreter oracle.
    """

    buffer: str
    func: object                        # repro.halide.func.Func (reduction)
    source_origin: tuple[Scalar, ...]
    source_extent: tuple[Scalar, ...]
    associative: bool = False
    target_index: Optional[Scalar] = None
    label: str = ""

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        target = self.buffer if self.target_index is None \
            else f"{self.buffer}[{_s(self.target_index)}]"
        rdom = getattr(self.func, "reduction", None)
        source = rdom[0].source if rdom else "?"
        op = "(+)=" if self.associative else "update="
        tag = f"  # {self.label}" if self.label else ""
        return [f"{pad}{target} {op} {getattr(self.func, 'name', '?')} over "
                f"{source}[{_tuple_str(self.source_origin)} + "
                f"{_tuple_str(self.source_extent)}]{tag}"]


@dataclass
class AccumMerge(Stmt):
    """Merge one partial-accumulator slab into the output accumulator.

    ``target += source[index]`` with wrapping integer addition — the
    deterministic serial merge phase of a two-phase parallel reduction.  The
    executor always runs merges serially in loop order; for the modular
    integer sums the lowering emits this for, any order is bit-identical
    anyway, which is what makes the parallel fill phase safe.
    """

    target: str
    source: str
    index: Scalar
    label: str = ""

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        tag = f"  # {self.label}" if self.label else ""
        return [f"{pad}{self.target} += {self.source}[{_s(self.index)}]{tag}"]


@dataclass
class PadEdge(Stmt):
    """Replicate a buffer's written interior outward to its edges.

    ``offset``/``extent`` delimit the region that holds computed values; the
    executor replicates its faces axis by axis (NumPy ``pad`` edge-mode
    semantics) until the whole allocation is filled.  This is how a clamped
    ghost zone materializes: values outside the producer's domain repeat the
    nearest computed row/column.
    """

    buffer: str
    offset: tuple[Scalar, ...]
    extent: tuple[Scalar, ...]

    def _lines(self, indent: int) -> list[str]:
        pad = "  " * indent
        return [f"{pad}pad_edge {self.buffer} interior "
                f"{_tuple_str(self.offset)} + {_tuple_str(self.extent)}"]


def stmt_to_str(stmt: Stmt) -> str:
    """Render a lowered tree as indented pseudo-code (for ``--explain``)."""
    return stmt.pretty()
