"""The native backend: whole-nest C compilation with GIL-free segments.

Where the compiled engine dispatches one fused-NumPy kernel per ``Store``
from Python, this backend hands :mod:`.cgen` the *entire* loop nest — a
lowered pipeline's (:meth:`Backend.execute`) or a single Func's
(:func:`repro.halide.realize.realize`), both through :meth:`NativeBackend.run`
— and executes the resulting shared object through cffi in ABI mode.  Each
parallel-free subtree becomes one C function ("segment"), so a nest without
parallel loops is one GIL-free call per frame; parallel ``For`` loops stay
in Python so the shared worker pool keeps making the placement decision
(:func:`repro.halide.parallel.choose_tile_executor`), but every segment
call releases the GIL for its whole duration, so the fan-out scales with
cores.

Segments address every buffer as C-contiguous in native byte order, so a
frame binds a contiguous copy of any other array the nest reads or writes
(buffers a caller binds that the nest never touches are left alone);
buffers the nest writes without anything binding them (the whole-output
store of an untiled Func) are allocated before the call.

Compilation is cached at three levels:

* an in-process table keyed on the *source digest* (sha256 of the C source,
  the toolchain fingerprint, :data:`CFLAGS` and the host target that
  ``-march=native`` resolves to) holding each loaded library weakly: it
  stays loaded while a memoized program uses it, so the number loaded is
  bounded by the live nests (``realize`` keeps at most
  :data:`~repro.halide.realize.MAX_FUNC_NESTS`, each ``FuncPipeline``
  :attr:`~repro.halide.pipeline.FuncPipeline.MAX_LOWERED_CACHE` per
  pipeline), not by the shapes a process has seen;
* the :class:`~repro.store.ArtifactStore` under a new ``native/`` stage,
  keyed on the same digest, holding the ``.so`` bytes — a warm start costs
  zero compiler invocations, and a store shared across hosts never hands
  out a library built for an ISA this one lacks;
* a memo on the nest's root statement (its ``cache``), keyed on the
  dtypes (the NumPy dtype objects, whose names NumPy computes in Python
  per access) and ranks of the buffers the nest touches, the param kinds
  and the toolchain, so repeated frames skip even the source generation:
  one dict lookup per frame.

Degradation, not failure: no C compiler on PATH, cffi missing, a construct
:mod:`.cgen` cannot translate, or a (possibly injected — fault site
``native.compile``) compiler failure all fall back to the compiled-NumPy
backend for that frame, bit-identical by construction.  ``native_stats()``
counts every path so tests can prove which one ran.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
import weakref
from typing import Mapping, Optional

import numpy as np

try:  # pragma: no cover - exercised via the degraded path when absent
    import cffi
except ImportError:  # pragma: no cover
    cffi = None

from ...ir import (
    AccumMerge, Allocate, For, IfThenElse, PadEdge, ReduceLoop, Store,
    iter_buffer_accesses)
from ...ir.types import dtype_from_name
from ...reliability.faults import InjectedFault, fault_point
from ...store import ArtifactKey, default_store
from ..parallel import choose_tile_executor, record_execution
from ..realize import RealizationError
from .base import Backend, _ExecState, _scalar, run_parallel_loop
from .cgen import CGenError, NestProgram, SegmentSpec, generate_nest

__all__ = ["CFLAGS", "NativeBackend", "NativeCompileError", "host_target",
           "native_stats", "reset_native_caches", "toolchain_path"]

#: ArtifactStore stage for cached shared objects.
NATIVE_STAGE = "native"

#: Compiler flags of every nest.  ``-march=native`` builds for the host's
#: ISA (the digest records what it resolves to, see :func:`host_target`) and
#: ``-fopenmp-simd`` honours cgen's ``#pragma omp simd`` without linking an
#: OpenMP runtime; gcc vectorizes those loops at ``-O2`` already, and a
#: nest's build is paid inside one of its frames.  ``-fwrapv``: signed wrap
#: is defined (belt-and-braces; cgen already emits unsigned arithmetic).
#: ``-ffp-contract=off``: no FMA fusion, so float results match NumPy's
#: one-op-at-a-time evaluation.
CFLAGS = ("-O2", "-march=native", "-fopenmp-simd", "-ffp-contract=off",
          "-fwrapv", "-fPIC", "-shared")

_DIV_ZERO_MESSAGE = "integer division by zero (x86 idiv raises #DE)"

_RC_MESSAGES = {
    1: _DIV_ZERO_MESSAGE,
    2: "reduction scatter index out of bounds",
    3: "native scratch allocation failed",
    4: "buffer read index out of bounds",
}


class NativeCompileError(RealizationError):
    """The C toolchain rejected a generated nest (degradable)."""


_STATS_LOCK = threading.Lock()
_STATS = {
    "compiles": 0,          # actual compiler invocations
    "so_cache_hits": 0,     # in-process (ffi, lib) reuse
    "store_hits": 0,        # .so bytes served from the ArtifactStore
    "compile_failures": 0,  # real or injected toolchain failures
    "degraded": 0,          # frames served by the compiled backend instead
    "native_frames": 0,     # frames fully executed natively
    "segment_calls": 0,     # C segment invocations
    "no_toolchain": 0,      # degrade because no C compiler was found
}


def native_stats() -> dict:
    """A snapshot of the native backend's counters."""
    with _STATS_LOCK:
        return dict(_STATS)


def _bump(key: str, amount: int = 1) -> None:
    with _STATS_LOCK:
        _STATS[key] += amount


# -- toolchain ---------------------------------------------------------------

#: ``(REPRO_NATIVE_CC, CC)`` values -> resolved compiler path (or None).
_TOOLCHAINS: dict = {}


def toolchain_path() -> Optional[str]:
    """The C compiler to use, or ``None`` (degrade) when there is none.

    ``REPRO_NATIVE_CC`` (then ``CC``) overrides discovery; setting either to
    a path that does not resolve *disables* the backend — which is how CI
    proves the compilerless fallback without uninstalling gcc.  Resolved
    once per pair of those two values (a frame would otherwise pay a
    ``PATH`` search per call), so changing either re-resolves.
    """
    overrides = (os.environ.get("REPRO_NATIVE_CC"), os.environ.get("CC"))
    if overrides not in _TOOLCHAINS:
        _TOOLCHAINS[overrides] = _find_toolchain(overrides)
    return _TOOLCHAINS[overrides]


def _find_toolchain(overrides: tuple) -> Optional[str]:
    for value in overrides:
        if value is not None:
            return shutil.which(value) if value else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


_FINGERPRINTS: dict = {}


def _toolchain_fingerprint(cc: str) -> str:
    cached = _FINGERPRINTS.get(cc)
    if cached is not None:
        return cached
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        fingerprint = out.splitlines()[0].strip() if out else cc
    except Exception:
        fingerprint = cc
    _FINGERPRINTS[cc] = fingerprint
    return fingerprint


#: compiler path -> the target ``-march=native`` resolves to
_TARGETS: dict = {}


def host_target(cc: str) -> str:
    """The ISA ``-march=native`` selects for ``cc`` on this host.

    The ``-m`` flags and tuning ``--param`` values (gcc) or the target CPU
    and features (clang) that ``cc -###`` would pass to the compiler
    proper; resolved once per compiler.  Empty when that dry run prints no
    such line — a compiler that cannot target the host then fails the
    build, which degrades.
    """
    cached = _TARGETS.get(cc)
    if cached is not None:
        return cached
    target = []
    try:
        dry_run = subprocess.run(
            [cc, "-march=native", "-###", "-E", "-x", "c", os.devnull],
            capture_output=True, text=True, timeout=30).stderr
        line = next(line for line in dry_run.splitlines() if "cc1" in line)
        tokens = shlex.split(line)
        target = [token for prev, token in zip([""] + tokens, tokens)
                  if token.startswith("-m") or prev in (
                      "--param", "-target-cpu", "-target-feature")]
    except Exception:
        pass
    cached = _TARGETS[cc] = " ".join(target)
    return cached


# -- caches ------------------------------------------------------------------

_COMPILE_LOCK = threading.Lock()
#: source digest -> :class:`_Library`, held only while a program uses it
_SO_CACHE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
#: source digests whose real compilation failed (never retried this process)
_FAILED: set = set()
#: program-memo sentinel: this nest permanently degrades (for that key)
_DEGRADED = object()
#: Part of every program-memo key; :func:`reset_native_caches` bumps it, so a
#: nest's next frame builds its program again instead of reusing one.
_GENERATION = 0
_SO_DIR: list = []  # lazily-created scratch dir for store-served .so files


def reset_native_caches() -> None:
    """Drop all in-process caches (tests only; on-disk store is untouched).

    Also rotates the scratch directory so previously materialized ``.so``
    files stop short-circuiting the store lookup, and retires every nest's
    memoized programs — warm-start tests need the next frame, even of an
    existing nest, to go back to the artifact store.
    """
    global _GENERATION
    with _COMPILE_LOCK:
        _SO_CACHE.clear()
        _FAILED.clear()
        _GENERATION += 1
        _TOOLCHAINS.clear()
        if _SO_DIR:
            shutil.rmtree(_SO_DIR[0], ignore_errors=True)
            _SO_DIR.clear()


def _so_scratch_dir() -> str:
    if not _SO_DIR:
        _SO_DIR.append(tempfile.mkdtemp(prefix="repro-native-"))
    return _SO_DIR[0]


def _store_key(digest: str) -> ArtifactKey:
    payload = ('{"stage":"%s","digest":"%s"}' % (NATIVE_STAGE, digest))
    return ArtifactKey(stage=NATIVE_STAGE, digest=digest, payload=payload)


class _Library:
    """A loaded shared object; cffi unloads it once this is collected."""

    __slots__ = ("ffi", "lib", "__weakref__")

    def __init__(self, ffi, lib) -> None:
        self.ffi = ffi
        self.lib = lib


class _Bundle:
    """One compiled nest ready to execute.

    ``outputs`` lists ``(name, shape, numpy dtype)`` for each buffer a
    whole-buffer ``Store`` writes without anything binding it; a frame
    allocates it before the C call.
    """

    __slots__ = ("program", "library", "digest", "outputs")

    def __init__(self, program: NestProgram, library: _Library, digest: str,
                 outputs: tuple) -> None:
        self.program = program
        self.library = library
        self.digest = digest
        self.outputs = outputs


def _nest_buffers(stmt) -> tuple:
    """Sorted names of the buffers the nest ``stmt`` loads or stores,
    memoized on its root: what a frame binds, keys and copies, whatever
    else the caller passed."""
    names = stmt.cache.get("buffers")
    if names is not None:
        return names
    found = set()
    for node in stmt.walk():
        exprs = []
        if isinstance(node, AccumMerge):
            found.update((node.target, node.source))
        elif isinstance(node, (Store, ReduceLoop, PadEdge)):
            found.add(node.buffer)
        if isinstance(node, IfThenElse):
            exprs.append(node.condition)
        elif isinstance(node, Store):
            exprs.append(node.func.value)
        elif isinstance(node, ReduceLoop) and node.func.reduction:
            _, index_exprs, update = node.func.reduction
            exprs.extend(index_exprs)
            exprs.append(update)
        for expr in exprs:
            found.update(access.buffer
                         for access in iter_buffer_accesses(expr))
    names = stmt.cache["buffers"] = tuple(sorted(found))
    return names


def _materialized_outputs(stmt, bound) -> tuple:
    """``(name, shape, dtype)`` of each buffer a ``Store`` in ``stmt`` writes
    that neither ``bound`` nor the nest's own ``Allocate`` provides.

    The executor's contract (``Backend._exec_store``) lets such a store
    materialize its buffer whole, so it must cover it from the origin with
    constant extents; anything else cannot run as C (:class:`CGenError`).
    """
    nodes = list(stmt.walk())
    provided = set(bound) | {node.buffer for node in nodes
                             if isinstance(node, Allocate)}
    outputs = {}
    for node in nodes:
        if not isinstance(node, Store) or node.buffer in provided \
                or node.buffer in outputs:
            continue
        if not all(type(e) is int for e in node.extent) or any(node.offset):
            raise CGenError(f"no buffer {node.buffer!r} to store into")
        outputs[node.buffer] = (node.buffer, tuple(node.extent),
                                node.func.dtype)
    return tuple(outputs.values())


class _NativeState(_ExecState):
    __slots__ = ("bundle",)

    def __init__(self, params, stats, frame_shape, bundle) -> None:
        super().__init__(params, stats, frame_shape)
        self.bundle = bundle


class NativeBackend(Backend):
    """Execute loop nests as native code; degrade to compiled otherwise."""

    name = "native"

    def _compiled(self):
        from . import get_backend
        return get_backend("compiled")

    # -- compilation ---------------------------------------------------------

    def _program_for(self, stmt, buffers: Mapping, names: tuple,
                     params: Mapping) -> Optional[_Bundle]:
        """The compiled bundle for this nest, or ``None`` to degrade.

        Memoized on the nest's root (its ``cache``) per name, dtype and
        rank of each bound buffer the nest touches (``names``), param kinds
        and toolchain (and :data:`_GENERATION`); shapes and vectorize
        widths are fixed by the nest itself.  Permanent degrades
        (``CGenError``, missing toolchain/cffi, real compile failures) are
        memoized too; an :class:`InjectedFault` propagates so each frame
        under chaos degrades independently.
        """
        kinds = tuple(sorted(
            [(name, "float" if isinstance(value, float) else "int")
             for name, value in params.items()]))
        bound = tuple([(name, buffers[name].dtype, buffers[name].ndim)
                       for name in names if name in buffers])
        key = (_GENERATION, bound, kinds, toolchain_path() or "")
        cached = stmt.cache.get(key)
        if cached is not None:
            return None if cached is _DEGRADED else cached
        try:
            bundle = self._build(stmt, bound, kinds)
        except InjectedFault:
            raise
        except (CGenError, NativeCompileError, RealizationError, OSError):
            bundle = None
        stmt.cache[key] = _DEGRADED if bundle is None else bundle
        return bundle

    def _build(self, stmt, bound: tuple, kinds: tuple) -> Optional[_Bundle]:
        if cffi is None:
            return None
        cc = toolchain_path()
        if cc is None:
            _bump("no_toolchain")
            return None
        try:
            table = {name: (dtype_from_name(dtype.name), rank)
                     for name, dtype, rank in bound}
        except ValueError as exc:       # a dtype C has no type for (bool...)
            raise CGenError(str(exc)) from None
        outputs = _materialized_outputs(stmt, table)
        for name, shape, dtype in outputs:
            table[name] = (dtype, len(shape))
        program = generate_nest(stmt, table, dict(kinds))
        outputs = tuple((name, shape, dtype.to_numpy())
                        for name, shape, dtype in outputs)
        digest = hashlib.sha256("\0".join(
            (program.source, _toolchain_fingerprint(cc), " ".join(CFLAGS),
             host_target(cc))).encode()).hexdigest()
        with _COMPILE_LOCK:
            if digest in _FAILED:
                return None
            library = _SO_CACHE.get(digest)
            if library is not None:
                _bump("so_cache_hits")
                return _Bundle(program, library, digest, outputs)
            so_path = self._materialize_so(cc, program, digest)
            if so_path is None:
                return None
            ffi = cffi.FFI()
            ffi.cdef(program.cdef)
            library = _SO_CACHE[digest] = _Library(ffi, ffi.dlopen(so_path))
        return _Bundle(program, library, digest, outputs)

    def _materialize_so(self, cc: str, program: NestProgram,
                        digest: str) -> Optional[str]:
        """Path to the shared object for ``digest``, compiling if needed."""
        so_path = os.path.join(_so_scratch_dir(), f"{digest}.so")
        if os.path.exists(so_path):
            return so_path
        store = None
        try:
            store = default_store()
            blob = store.get(_store_key(digest))
        except Exception:
            blob = None
        if isinstance(blob, bytes):
            with open(so_path, "wb") as handle:
                handle.write(blob)
            _bump("store_hits")
            return so_path
        try:
            fault_point("native.compile")
        except InjectedFault:
            _bump("compile_failures")
            raise
        src_path = os.path.join(_so_scratch_dir(), f"{digest}.c")
        with open(src_path, "w") as handle:
            handle.write(program.source)
        result = subprocess.run(
            [cc, *CFLAGS, "-o", so_path, src_path, "-lm"],
            capture_output=True, text=True)
        if result.returncode != 0:
            _bump("compile_failures")
            _FAILED.add(digest)
            raise NativeCompileError(
                f"{cc} failed (rc {result.returncode}): "
                f"{result.stderr.strip()[:500]}")
        _bump("compiles")
        if store is not None:
            try:
                with open(so_path, "rb") as handle:
                    store.put(_store_key(digest), handle.read())
            except Exception:
                pass
        return so_path

    # -- execution -----------------------------------------------------------

    def run(self, stmt, buffers: dict,
            params: Mapping[str, float] | None = None,
            stats: Optional[dict] = None, frame_shape: tuple = ()) -> None:
        """Execute one frame's nest as C, or degrade that frame to compiled.

        Fires ``kernel.execute`` once, then binds a C-contiguous,
        native-order copy of any array the nest touches that is not one and
        allocates the buffers C writes that nothing bound.
        """
        fault_point(self.frame_fault_site)
        params = dict(params or {})
        names = _nest_buffers(stmt)
        try:
            bundle = self._program_for(stmt, buffers, names, params)
        except InjectedFault:
            bundle = None
        if bundle is None:
            _bump("degraded")
            self._compiled()._exec(stmt, {}, buffers, _ExecState(
                params=params, stats=stats, frame_shape=tuple(frame_shape)))
            return
        for name in names:
            array = buffers.get(name)
            if array is not None and not (array.flags.c_contiguous
                                          and array.dtype.isnative):
                buffers[name] = np.ascontiguousarray(
                    array, dtype=array.dtype.newbyteorder("="))
        for name, shape, dtype in bundle.outputs:
            if name not in buffers:
                buffers[name] = np.empty(shape, dtype=dtype)
        state = _NativeState(params=params, stats=stats,
                             frame_shape=tuple(frame_shape), bundle=bundle)
        self._exec(stmt, {}, buffers, state)
        _bump("native_frames")

    def _exec(self, stmt, env, buffers, state) -> None:
        program = state.bundle.program
        if isinstance(stmt, For) and stmt.kind == "parallel" \
                and id(stmt) in program.segment_for:
            self._exec_parallel_for(stmt, env, buffers, state)
            return
        spec = program.segment_for.get(id(stmt))
        if spec is not None:
            self._call_segment(spec, env, buffers, state)
            return
        super()._exec(stmt, env, buffers, state)

    def _exec_parallel_for(self, stmt, env, buffers, state) -> None:
        program = state.bundle.program
        start = _scalar(stmt.min, env, state.params)
        count = _scalar(stmt.extent, env, state.params)
        if count <= 0:
            return
        body_spec = program.parallel_body.get(id(stmt))
        if body_spec is None or not choose_tile_executor(state.frame_shape,
                                                         count):
            # One GIL-free call runs every iteration.
            record_execution(False, count)
            state.tally("serial_loops")
            self._call_segment(program.segment_for[id(stmt)], env, buffers,
                               state)
            return

        def run_one(index: int) -> None:
            self._call_segment(body_spec, {**env, stmt.name: index}, buffers,
                               state)

        run_parallel_loop(stmt, env, buffers, state, start, count, run_one)

    def _call_segment(self, spec: SegmentSpec, env: Mapping,
                      buffers: Mapping, state) -> None:
        library = state.bundle.library
        ffi = library.ffi
        # The buffer views, kept alive until the call returns.
        views = []
        shapes: list = []
        for name, rank in zip(spec.buffers, spec.ranks):
            array = buffers.get(name)
            if array is None:
                raise RealizationError(
                    f"native segment references unbound buffer {name!r}")
            if array.ndim != rank:
                raise RealizationError(
                    f"buffer {name!r} is rank {array.ndim}, segment "
                    f"expects {rank}")
            views.append(ffi.from_buffer(array))
            shapes.extend(array.shape)
        env_vals = []
        for name in spec.env_vars:
            value = env.get(name)
            if value is None:
                value = state.params.get(name)
            if value is None:
                raise RealizationError(f"unbound loop variable {name}")
            env_vals.append(int(value))
        params = state.params
        iparams = [int(params.get(name, default))
                   for name, default in spec.int_params]
        fparams = [float(params.get(name, default))
                   for name, default in spec.float_params]
        bufs_arg = ffi.new("void *[]", views) if views else ffi.NULL
        shapes_arg = ffi.new("int64_t[]", shapes) if shapes else ffi.NULL
        env_arg = ffi.new("int64_t[]", env_vals) if env_vals else ffi.NULL
        ip_arg = ffi.new("int64_t[]", iparams) if iparams else ffi.NULL
        fp_arg = ffi.new("double[]", fparams) if fparams else ffi.NULL
        # The cffi ABI-mode call releases the GIL for the whole segment.
        rc = getattr(library.lib, spec.name)(
            bufs_arg, shapes_arg, env_arg, ip_arg, fp_arg)
        _bump("segment_calls")
        del views
        if rc != 0:
            raise RealizationError(
                _RC_MESSAGES.get(rc, f"native segment failed (rc {rc})"))
