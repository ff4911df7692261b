"""The native backend: whole-nest C compilation with GIL-free segments.

Where the compiled engine dispatches one fused-NumPy kernel per ``Store``
from Python, this backend hands :mod:`.cgen` the *entire* lowered loop nest
and executes the resulting shared object through cffi in ABI mode.  Each
parallel-free subtree becomes one C function ("segment"); parallel ``For``
loops stay in Python so the shared worker pool keeps making the placement
decision (:func:`repro.halide.parallel.choose_tile_executor`), but every
segment call releases the GIL for its whole duration, so the fan-out finally
scales with cores.

Compilation is cached at three levels:

* an in-process table keyed on the *source digest* (sha256 of the C source
  plus the toolchain fingerprint) holding open ``(ffi, lib)`` handles;
* the :class:`~repro.store.ArtifactStore` under a new ``native/`` stage,
  keyed on the same digest, holding the ``.so`` bytes — a warm start costs
  zero compiler invocations;
* a memo on each :class:`~repro.halide.lower.LoweredPipeline` itself, keyed
  on frame dtype, param kinds and toolchain, so a lowering's repeated
  frames skip even the source generation: one dict lookup per frame.

Degradation, not failure: no C compiler on PATH, cffi missing, a construct
:mod:`.cgen` cannot translate, or a (possibly injected — fault site
``native.compile``) compiler failure all fall back to the compiled-NumPy
backend, bit-identical by construction.  ``native_stats()`` counts every
path so tests can prove which one ran.  A single Func's nest
(:func:`repro.halide.realize.realize`) has no C form yet: it runs the
compiled kernels through the shared executor.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Mapping, Optional

import numpy as np

try:  # pragma: no cover - exercised via the degraded path when absent
    import cffi
except ImportError:  # pragma: no cover
    cffi = None

from ...ir import For
from ...ir.types import dtype_from_name
from ...reliability.faults import InjectedFault, fault_point
from ...store import ArtifactKey, default_store
from ..parallel import choose_tile_executor, record_execution
from ..realize import RealizationError
from .base import (Backend, _ExecState, _scalar, bind_buffers,
                   run_parallel_loop)
from .cgen import CGenError, NestProgram, SegmentSpec, generate_nest

__all__ = ["NativeBackend", "NativeCompileError", "native_stats",
           "reset_native_caches", "toolchain_path"]

#: ArtifactStore stage for cached shared objects.
NATIVE_STAGE = "native"

_DIV_ZERO_MESSAGE = "integer division by zero (x86 idiv raises #DE)"

_RC_MESSAGES = {
    1: _DIV_ZERO_MESSAGE,
    2: "reduction scatter index out of bounds",
    3: "native scratch allocation failed",
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


# -- caches ------------------------------------------------------------------

_COMPILE_LOCK = threading.Lock()
#: source digest -> (ffi, lib) open handles
_SO_CACHE: dict = {}
#: source digests whose real compilation failed (never retried this process)
_FAILED: set = set()
#: program-memo sentinel: this lowering permanently degrades
_DEGRADED = object()
#: Part of every program-memo key; :func:`reset_native_caches` bumps it, so a
#: lowering's next frame builds its program again instead of reusing one.
_GENERATION = 0
_SO_DIR: list = []  # lazily-created scratch dir for store-served .so files


def reset_native_caches() -> None:
    """Drop all in-process caches (tests only; on-disk store is untouched).

    Also rotates the scratch directory so previously materialized ``.so``
    files stop short-circuiting the store lookup, and retires every
    lowering's memoized programs — warm-start tests need the next frame,
    even of an existing lowering, to go back to the artifact store.
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


class _Bundle:
    """One compiled nest ready to execute."""

    __slots__ = ("program", "ffi", "lib", "digest")

    def __init__(self, program: NestProgram, ffi, lib, digest: str) -> None:
        self.program = program
        self.ffi = ffi
        self.lib = lib
        self.digest = digest


class _NativeState(_ExecState):
    __slots__ = ("bundle",)

    def __init__(self, params, stats, frame_shape, bundle) -> None:
        super().__init__(params, stats, frame_shape)
        self.bundle = bundle


class NativeBackend(Backend):
    """Execute lowered nests as native code; degrade to compiled otherwise."""

    name = "native"

    def _compiled(self):
        from . import get_backend
        return get_backend("compiled")

    def kernels(self, func) -> tuple:
        # Stores outside a C segment (degraded frames, single-Func nests)
        # run the compiled engine's kernels.
        return self._compiled().kernels(func)

    # -- compilation ---------------------------------------------------------

    def _program_for(self, lowered, frame: np.ndarray,
                     params: Mapping) -> Optional[_Bundle]:
        """The compiled bundle for this lowering, or ``None`` to degrade.

        Memoized on the lowering (its ``cache``) per frame dtype, param
        kinds and toolchain (and :data:`_GENERATION`); the nest's vectorize
        widths are fixed by the lowering itself.  Permanent degrades (``CGenError``, missing
        toolchain/cffi, real compile failures) are memoized too; an
        :class:`InjectedFault` propagates so each frame under chaos degrades
        independently.
        """
        kinds = tuple(sorted(
            (name, "float" if isinstance(value, float) else "int")
            for name, value in params.items()))
        key = (_GENERATION, frame.dtype.name, kinds, toolchain_path() or "")
        cached = lowered.cache.get(key)
        if cached is not None:
            return None if cached is _DEGRADED else cached
        try:
            bundle = self._build(lowered, frame, params)
        except InjectedFault:
            raise
        except (CGenError, NativeCompileError, RealizationError, OSError):
            bundle = None
        lowered.cache[key] = _DEGRADED if bundle is None else bundle
        return bundle

    def _build(self, lowered, frame: np.ndarray,
               params: Mapping) -> Optional[_Bundle]:
        if cffi is None:
            return None
        cc = toolchain_path()
        if cc is None:
            _bump("no_toolchain")
            return None
        frame_dtype = dtype_from_name(frame.dtype.name)
        param_kinds = {
            name: ("float" if isinstance(value, float) else "int")
            for name, value in (params or {}).items()}
        program = generate_nest(lowered, frame_dtype, param_kinds)
        fingerprint = _toolchain_fingerprint(cc)
        digest = hashlib.sha256(
            (program.source + "\0" + fingerprint).encode()).hexdigest()
        with _COMPILE_LOCK:
            if digest in _FAILED:
                return None
            handles = _SO_CACHE.get(digest)
            if handles is not None:
                _bump("so_cache_hits")
                return _Bundle(program, handles[0], handles[1], digest)
            so_path = self._materialize_so(cc, program, digest)
            if so_path is None:
                return None
            ffi = cffi.FFI()
            ffi.cdef(program.cdef)
            lib = ffi.dlopen(so_path)
            _SO_CACHE[digest] = (ffi, lib)
        return _Bundle(program, ffi, lib, digest)

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
        # -fwrapv: signed wrap is defined (belt-and-braces; cgen already
        # emits unsigned arithmetic).  -ffp-contract=off: no FMA fusion, so
        # float results match NumPy's one-op-at-a-time evaluation.
        result = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fwrapv",
             "-o", so_path, src_path, "-lm"],
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

    def execute(self, lowered, image: np.ndarray,
                params: Mapping[str, float] | None = None,
                stats: Optional[dict] = None) -> np.ndarray:
        frame = np.ascontiguousarray(np.asarray(image))
        try:
            bundle = self._program_for(lowered, frame, params or {})
        except InjectedFault:
            bundle = None
        if bundle is None:
            _bump("degraded")
            return self._compiled().execute(lowered, frame, params, stats)
        # C segments write into bound buffers only, so the output is
        # allocated up front even where a Python store would materialize it.
        buffers = bind_buffers(lowered, frame, allocate_output=True)
        state = _NativeState(params=dict(params or {}), stats=stats,
                             frame_shape=lowered.frame_shape,
                             bundle=bundle)
        self._exec(lowered.stmt, {}, buffers, state)
        _bump("native_frames")
        return buffers[lowered.output]

    def _exec(self, stmt, env, buffers, state) -> None:
        bundle = getattr(state, "bundle", None)
        if bundle is None:
            super()._exec(stmt, env, buffers, state)
            return
        program = bundle.program
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
        bundle = state.bundle
        ffi = bundle.ffi
        keepalive = []
        buf_ptrs = []
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
            view = ffi.from_buffer(array)
            keepalive.append(view)
            buf_ptrs.append(ffi.cast("void *", view))
            shapes.extend(array.shape)
        env_vals = []
        for name in spec.env_vars:
            value = env.get(name)
            if value is None:
                value = state.params.get(name)
            if value is None:
                raise RealizationError(f"unbound loop variable {name}")
            env_vals.append(int(value))
        iparams = [int(state.params.get(name, spec.param_defaults.get(name, 0)))
                   for name in spec.int_params]
        fparams = [float(state.params.get(name, spec.param_defaults.get(name, 0.0)))
                   for name in spec.float_params]
        bufs_arg = ffi.new("void *[]", buf_ptrs) if buf_ptrs else ffi.NULL
        shapes_arg = ffi.new("int64_t[]", shapes) if shapes else ffi.NULL
        env_arg = ffi.new("int64_t[]", env_vals) if env_vals else ffi.NULL
        ip_arg = ffi.new("int64_t[]", iparams) if iparams else ffi.NULL
        fp_arg = ffi.new("double[]", fparams) if fparams else ffi.NULL
        # The cffi ABI-mode call releases the GIL for the whole segment.
        rc = getattr(bundle.lib, spec.name)(
            bufs_arg, shapes_arg, env_arg, ip_arg, fp_arg)
        _bump("segment_calls")
        del keepalive
        if rc != 0:
            raise RealizationError(
                _RC_MESSAGES.get(rc, f"native segment failed (rc {rc})"))
