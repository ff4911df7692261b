"""The backend interface and the shared loop-nest executor.

A backend supplies, through :meth:`Backend.kernels`, the two primitives a
lowered loop nest needs for one Func: an evaluator writing the *pure* Func
vectorized over one rectangular region (NumPy axis order) into a
destination view, behind every :class:`~repro.ir.stmt.Store`, and a sweep
applying the Func's reduction update over one RDom sub-region in place,
behind every :class:`~repro.ir.stmt.ReduceLoop`.  Each node resolves the
pair once and memoizes it, so a warm frame makes no kernel lookup.
Everything else — walking the loop nest, allocating scratch buffers,
branching between interior and border stores, edge-replicating ghost
zones, fanning parallel loops out across the shared worker pool and
retrying a transiently failed iteration — is backend-independent and lives
in :meth:`Backend.run`, which both :meth:`Backend.execute` (a lowered
pipeline on one frame) and :func:`repro.halide.realize.realize` (one Func's
:func:`~repro.halide.lower.lower_func` nest) call.  That keeps the engines
honest: every engine runs the *same* loop nest with the same bounds, so a
differential test that compares them exercises the schedule itself, not two
unrelated executors.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping, Optional

import numpy as np

from ...ir import (
    AccumMerge,
    Allocate,
    Block,
    Expr,
    For,
    IfThenElse,
    Let,
    PadEdge,
    ProducerConsumer,
    ReduceLoop,
    Stmt,
    Store,
)
from ...ir import BinOp, Const, Op, Param, UnOp, Var
from ...reliability.faults import fault_point
from ...reliability.policy import TransientExecutionError
from ..parallel import (
    choose_tile_executor,
    maybe_kill_pool,
    record_execution,
    submit_task,
)
from ..realize import RealizationError, _evaluate

#: Python source for the scalar vocabulary the lowering builds bounds from
#: (Const/Var/Param and these operators).
_SCALAR_SOURCE = {
    Op.ADD: "({} + {})", Op.SUB: "({} - {})", Op.MUL: "({} * {})",
    Op.MIN: "min({}, {})", Op.MAX: "max({}, {})",
    Op.AND: "({} & {})", Op.OR: "({} | {})",
    Op.LT: "int({} < {})", Op.LE: "int({} <= {})", Op.GT: "int({} > {})",
    Op.GE: "int({} >= {})", Op.EQ: "int({} == {})", Op.NE: "int({} != {})",
}


def _scalar_source(value) -> Optional[str]:
    """Python source computing one scalar from ``env``/``params``, or None
    when it falls outside :data:`_SCALAR_SOURCE`'s vocabulary."""
    if isinstance(value, int):
        return repr(value)
    kind = type(value)
    if kind is Const:
        return repr(int(value.value))
    if kind is Var:
        return f"env[{value.name!r}]"
    if kind is Param:
        return f"int(params.get({value.name!r}, {int(value.value)!r}))"
    if kind is BinOp and value.op in _SCALAR_SOURCE:
        a, b = _scalar_source(value.a), _scalar_source(value.b)
        if a is not None and b is not None:
            return _SCALAR_SOURCE[value.op].format(a, b)
    if kind is UnOp and value.op == Op.NEG:
        a = _scalar_source(value.a)
        if a is not None:
            return f"(-{a})"
    return None


def _compile_scalars(values) -> Callable[[Mapping, Mapping], tuple]:
    """``fn(env, params)`` evaluating a tuple of loop-nest scalars.

    Loop bounds, region origins/extents and branch conditions are evaluated
    per tile; walking their expression trees (let alone the vectorized
    interpreter, which allocates a NumPy array per node) would dominate
    small-tile execution, so each node's positions compile once to one
    Python function.  Anything outside the vocabulary evaluates through the
    interpreter.
    """
    namespace = {"RealizationError": RealizationError, "_evaluate": _evaluate}
    sources = []
    for index, value in enumerate(values):
        source = _scalar_source(value)
        if source is None:
            namespace[f"_e{index}"] = value
            source = f"int(_evaluate(_e{index}, env, {{}}, params))"
        sources.append(source + ", ")
    exec("def fn(env, params):\n"
         "    try:\n"
         f"        return ({''.join(sources)})\n"
         "    except KeyError as exc:\n"
         "        raise RealizationError(\n"
         "            f'unbound loop variable {exc.args[0]}') from None\n",
         namespace)
    return namespace["fn"]


def _node_scalars(stmt, values) -> Callable[[Mapping, Mapping], tuple]:
    """:func:`_compile_scalars` of one node's positions, memoized on it."""
    fn = stmt.cache.get("scalars")
    if fn is None:
        fn = stmt.cache["scalars"] = _compile_scalars(values)
    return fn


class _ExecState:
    """Per-execution bookkeeping shared by the Stmt walkers.

    ``stats`` is None when the caller asked for no counters.  ``faults`` is
    False on the interpreter's frames, which fire no fault site: serving
    degrades to them.
    """

    __slots__ = ("params", "stats", "frame_shape", "lock", "faults")

    def __init__(self, params: dict, stats: Optional[dict],
                 frame_shape: tuple, faults: bool = True) -> None:
        self.params = params
        self.stats = stats
        self.frame_shape = frame_shape
        self.lock = threading.Lock() if stats is not None else None
        self.faults = faults

    def tally(self, key: str, amount: int = 1) -> None:
        if self.stats is None:
            return
        with self.lock:
            self.stats[key] = self.stats.get(key, 0) + amount

    def track_scratch(self, name: str, shape: tuple[int, ...]) -> None:
        if self.stats is None:
            return
        with self.lock:
            elems = 1
            for extent in shape:
                elems *= extent
            peak = self.stats.get("scratch_peak_elems", 0)
            if elems > peak:
                self.stats["scratch_peak_elems"] = elems
            shapes = self.stats.setdefault("scratch_shapes", {})
            previous = shapes.get(name)
            if previous is None or elems > int(np.prod(previous)):
                shapes[name] = tuple(shape)


def _scalar(value, env: Mapping, params: Mapping) -> int:
    """Evaluate a scalar outside the node memos: For bounds, Allocate
    extents, reduction target and merge indices.

    The lowering builds these as plain ints or loop variables (region
    extents are bound through Lets); anything else evaluates through the
    interpreter.
    """
    if isinstance(value, int):
        return value
    if type(value) is Var:
        try:
            return env[value.name]
        except KeyError:
            raise RealizationError(
                f"unbound loop variable {value.name}") from None
    return int(_evaluate(value, env, {}, params))


def _attempt(run_one, index: int, faults: bool) -> None:
    """One iteration of a parallel loop: the ``tile.execute`` fault site."""
    if faults:
        fault_point("tile.execute")
    run_one(index)


def _reset_partials(body: Stmt, env: Mapping, buffers: Mapping,
                    params: Mapping) -> None:
    """Zero the private partial slabs one loop iteration accumulates into.

    Accumulation is not idempotent, so a retried reduction strip must
    restart its partial from zero; stores overwrite and need nothing.
    """
    for node in body.walk():
        if isinstance(node, ReduceLoop) and node.target_index is not None:
            buffers[node.buffer][_scalar(node.target_index, env, params)] = 0


def bind_buffers(lowered, image: np.ndarray, allocate_output: bool) -> dict:
    """The buffers a lowered pipeline's nest starts from.

    The frame is bound under ``lowered.input_name``, edge-padded once when
    the first stage reads it through a ghost ring (``lowered.input_ring``).
    The output is allocated only when ``allocate_output`` is true; a
    backend whose first whole-frame store can materialize it passes
    ``not lowered.output_by_store``.
    """
    frame = np.asarray(image)
    if frame.shape != lowered.frame_shape:
        raise RealizationError(
            f"lowered pipeline expects frame {lowered.frame_shape}, "
            f"got {frame.shape}")
    ring = lowered.input_ring
    if ring is not None:
        frame = np.pad(frame, ring, mode="edge")
    buffers = {lowered.input_name: frame}
    if allocate_output:
        buffers[lowered.output] = np.empty(
            lowered.frame_shape, dtype=lowered.out_dtype.to_numpy())
    return buffers


def run_parallel_loop(stmt: For, env: Mapping, buffers: Mapping,
                      state: _ExecState, start: int, count: int,
                      run_one) -> None:
    """Run every iteration of a ``parallel`` For; ``run_one(index)`` runs one.

    Iterations write disjoint regions (the lowering's contract), so the cost
    heuristic may fan them out across the shared pool in any order.  Each
    iteration fires ``tile.execute``; ``pool.die`` fires before a fan-out
    (neither on the interpreter's frames).  An iteration that fails
    transiently is retried once, serially, after every other iteration has
    run — so a seeded fault plan fires the same schedule on every run —
    with its private reduction partials reset.
    """
    fan_out = choose_tile_executor(state.frame_shape, count)
    indices = range(start, start + count)
    faults = state.faults
    failed = []
    if fan_out:
        if faults:
            maybe_kill_pool()
        futures = [submit_task(_attempt, run_one, index, faults)
                   for index in indices]
        for index, future in zip(indices, futures):
            try:
                future.result()
            except TransientExecutionError as exc:
                failed.append((index, exc))
    else:
        for index in indices:
            try:
                _attempt(run_one, index, faults)
            except TransientExecutionError as exc:
                failed.append((index, exc))
    for index, error in failed:
        _reset_partials(stmt.body, {**env, stmt.name: index}, buffers,
                        state.params)
        try:
            _attempt(run_one, index, faults)
        except TransientExecutionError as exc:
            raise exc from error
    record_execution(fan_out, count, retries=len(failed))
    state.tally("parallel_loops" if fan_out else "serial_loops")


class Backend:
    """Interface every execution engine implements."""

    name: str = ""
    #: Fault site fired once per frame :meth:`run` executes — None for the
    #: interpreter, the oracle every failure degrades to, whose frames then
    #: fire no ``tile.execute``/``pool.die`` either.
    frame_fault_site: Optional[str] = "kernel.execute"

    # -- primitives ----------------------------------------------------------

    def kernels(self, func) -> tuple:
        """``(evaluate, reduce)`` for one Func, resolved once.

        ``evaluate(origin, extent, buffers, params, out)`` writes the pure
        value over one region into ``out``; ``reduce(out, origin, extent,
        buffers, params)`` applies the reduction update over one RDom
        sub-region in place (``origin``/``extent`` a rectangle of the
        reduction source, NumPy axis order, global coordinates).  The
        executor memoizes the pair on each node.
        """
        raise NotImplementedError

    # -- execution -----------------------------------------------------------

    def execute(self, lowered, image: np.ndarray,
                params: Mapping[str, float] | None = None,
                stats: Optional[dict] = None) -> np.ndarray:
        """Run a :class:`~repro.halide.lower.LoweredPipeline` on one frame.

        The frame and output are bound by :func:`bind_buffers`; the output
        is left to its first store when that store materializes it.
        ``stats``, when given, is filled with execution counters: stores,
        allocations, per-buffer peak scratch shapes, ``scratch_peak_elems``
        and parallel/serial loop tallies — the numbers the locality
        benchmark and ``--explain`` report.
        """
        buffers = bind_buffers(lowered, image,
                               allocate_output=not lowered.output_by_store)
        self.run(lowered.stmt, buffers, params, stats, lowered.frame_shape)
        return buffers[lowered.output]

    def run(self, stmt: Stmt, buffers: dict,
            params: Mapping[str, float] | None = None,
            stats: Optional[dict] = None, frame_shape: tuple = ()) -> None:
        """Execute one frame's loop nest over bound ``buffers`` in place.

        The one executor behind :meth:`execute` and
        :func:`repro.halide.realize.realize`.  ``frame_shape`` sizes the
        parallel cost heuristic.
        """
        faults = self.frame_fault_site is not None
        if faults:
            fault_point(self.frame_fault_site)
        state = _ExecState(params=dict(params or {}), stats=stats,
                           frame_shape=tuple(frame_shape), faults=faults)
        self._exec(stmt, {}, buffers, state)

    def _node_kernels(self, stmt) -> tuple:
        """The :meth:`kernels` pair a Store/ReduceLoop executes, memoized
        on the node."""
        kernels = stmt.cache.get(self.name)
        if kernels is None:
            kernels = stmt.cache[self.name] = self.kernels(stmt.func)
        return kernels

    def _exec(self, stmt: Stmt, env: dict, buffers: dict,
              state: _ExecState) -> None:
        if isinstance(stmt, Store):
            self._exec_store(stmt, env, buffers, state)
            return
        if isinstance(stmt, Block):
            for inner in stmt.stmts:
                self._exec(inner, env, buffers, state)
            return
        if isinstance(stmt, Let):
            value = _node_scalars(stmt, (stmt.value,))(env, state.params)
            env[stmt.name] = value[0]
            self._exec(stmt.body, env, buffers, state)
            return
        if isinstance(stmt, For):
            self._exec_for(stmt, env, buffers, state)
            return
        if isinstance(stmt, Allocate):
            extents = tuple(_scalar(e, env, state.params)
                            for e in stmt.extents)
            dtype = stmt.dtype.to_numpy()
            buffers[stmt.buffer] = np.empty(extents, dtype=dtype) \
                if stmt.fill is None else np.full(extents, stmt.fill,
                                                  dtype=dtype)
            state.tally("allocations")
            state.track_scratch(stmt.buffer, extents)
            try:
                self._exec(stmt.body, env, buffers, state)
            finally:
                del buffers[stmt.buffer]
            return
        if isinstance(stmt, ProducerConsumer):
            self._exec(stmt.produce, env, buffers, state)
            self._exec(stmt.consume, env, buffers, state)
            return
        if isinstance(stmt, IfThenElse):
            condition = _node_scalars(stmt, (stmt.condition,))
            if condition(env, state.params)[0] != 0:
                self._exec(stmt.then_case, env, buffers, state)
            elif stmt.else_case is not None:
                self._exec(stmt.else_case, env, buffers, state)
            return
        if isinstance(stmt, ReduceLoop):
            self._exec_reduce(stmt, env, buffers, state)
            return
        if isinstance(stmt, AccumMerge):
            self._exec_merge(stmt, env, buffers, state)
            return
        if isinstance(stmt, PadEdge):
            self._exec_pad_edge(stmt, env, buffers, state)
            return
        raise RealizationError(f"cannot execute {type(stmt).__name__}")

    def _exec_for(self, stmt: For, env: dict, buffers: dict,
                  state: _ExecState) -> None:
        start = _scalar(stmt.min, env, state.params)
        count = _scalar(stmt.extent, env, state.params)
        if count <= 0:
            return
        if stmt.kind == "parallel":
            # Each iteration gets its own buffer scope: scratch allocated
            # inside the loop body stays thread-private, while the shared
            # full-frame arrays are reached through the same references.
            def run_one(index: int) -> None:
                self._exec(stmt.body, {**env, stmt.name: index},
                           dict(buffers), state)

            run_parallel_loop(stmt, env, buffers, state, start, count,
                              run_one)
            return
        iter_env = dict(env)
        for index in range(count):
            iter_env[stmt.name] = start + index
            self._exec(stmt.body, iter_env, buffers, state)

    def _exec_store(self, stmt: Store, env: dict, buffers: dict,
                    state: _ExecState) -> None:
        rank = len(stmt.extent)
        values = _node_scalars(stmt, stmt.extent + stmt.offset + stmt.eval_origin
                               + tuple(stmt.param_exprs.values()))(
            env, state.params)
        extent = values[:rank]
        offset = values[rank:2 * rank]
        eval_origin = values[2 * rank:3 * rank]
        params = state.params
        if stmt.param_exprs:
            params = dict(params)
            params.update(zip(stmt.param_exprs, values[3 * rank:]))
        evaluate = self._node_kernels(stmt)[0]
        target = buffers.get(stmt.buffer)
        if target is None:
            # A store into a buffer nothing has bound yet materializes it
            # (the whole output of an untiled Func's nest): the evaluator
            # allocates it after its own temporaries, as a NumPy expression
            # would, instead of the caller allocating it up front.
            if any(offset) or any(e < 0 for e in extent):
                raise RealizationError(f"no buffer {stmt.buffer} to store into")
            buffers[stmt.buffer] = evaluate(eval_origin, extent, buffers,
                                            params, None)
        elif any(e <= 0 for e in extent):
            return
        else:
            # The evaluator writes straight into the destination view (a 0-d
            # target is viewed whole: indexing it with () would copy).
            region = tuple(slice(o, o + e) for o, e in zip(offset, extent))
            evaluate(eval_origin, extent, buffers, params,
                     target[region or ...])
        state.tally("stores")

    def _exec_reduce(self, stmt: ReduceLoop, env: dict, buffers: dict,
                     state: _ExecState) -> None:
        target = buffers.get(stmt.buffer)
        if target is None:
            raise RealizationError(f"no buffer {stmt.buffer} to reduce into")
        if stmt.target_index is not None:
            target = target[_scalar(stmt.target_index, env, state.params)]
        rank = len(stmt.source_origin)
        values = _node_scalars(stmt, stmt.source_origin + stmt.source_extent)(
            env, state.params)
        origin, extent = values[:rank], values[rank:]
        if any(e <= 0 for e in extent):
            return
        reduce = self._node_kernels(stmt)[1]
        reduce(target, origin, extent, buffers, state.params)
        state.tally("reduce_sweeps")

    def _exec_merge(self, stmt: AccumMerge, env: dict, buffers: dict,
                    state: _ExecState) -> None:
        target = buffers.get(stmt.target)
        source = buffers.get(stmt.source)
        if target is None or source is None:
            raise RealizationError(
                f"no buffers {stmt.target}/{stmt.source} to merge")
        slab = source[_scalar(stmt.index, env, state.params)]
        np.add(target, slab.astype(target.dtype, copy=False), out=target)
        state.tally("merges")

    def _exec_pad_edge(self, stmt: PadEdge, env: dict, buffers: dict,
                       state: _ExecState) -> None:
        array = buffers.get(stmt.buffer)
        if array is None:
            raise RealizationError(f"no buffer {stmt.buffer} to pad")
        values = _node_scalars(stmt, stmt.offset + stmt.extent)(
            env, state.params)
        offset, extent = values[:array.ndim], values[array.ndim:]
        padded = False
        for axis in range(array.ndim):
            before = offset[axis]
            after = array.shape[axis] - offset[axis] - extent[axis]
            index = [slice(None)] * array.ndim
            source = [slice(None)] * array.ndim
            if before > 0:
                index[axis] = slice(0, before)
                source[axis] = slice(before, before + 1)
                array[tuple(index)] = array[tuple(source)]
                padded = True
            if after > 0:
                edge = offset[axis] + extent[axis]
                index[axis] = slice(edge, array.shape[axis])
                source[axis] = slice(edge - 1, edge)
                array[tuple(index)] = array[tuple(source)]
                padded = True
        if padded:
            state.tally("ghost_pads")
