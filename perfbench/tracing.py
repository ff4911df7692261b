"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits the program.  ``Tracer.install()`` wraps public
entry points of each layer (see :data:`TARGETS`) in place; a wrapper records
a span only while the calling context belongs to a traced operation, so an
untraced operation in the same process pays one context-variable read per
call.  Spans live in memory (``Tracer.spans``) until the run writes them out.

A span is ``(label, start, end, span_id, parent_id, op_id)``: ``op_id`` is the
id of the benchmark operation (one lift, one frame, one request) that caused
it, so every span of one request shares it.  The worker-pool hand-off is
wrapped too, so spans opened on pool threads keep their parent and request.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import sys
import time

#: ``(tracer, span_id, op_id)`` while a traced operation runs, else ``None``.
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("perfbench_span",
                                                         default=None)


def _stage_label(args, kwargs) -> str:
    stage = args[1] if len(args) > 1 else kwargs.get("stage")
    return f"core.{stage}"


#: (module, attribute path, span label): the layer entry points wrapped.
#: A label may be a function of the call's ``(args, kwargs)``.
TARGETS = (
    ("repro.core.session", "LiftSession.artifact", _stage_label),
    ("repro.core.pipeline", "LiftResult.validate", "core.validate"),
    ("repro.store.store", "ArtifactStore.get", "store.get"),
    ("repro.store.store", "ArtifactStore.put", "store.put"),
    ("repro.rejuvenation.lifted", "photoshop_kernel_request",
     "rejuvenation.request"),
    ("repro.rejuvenation.lifted", "irfanview_kernel_request",
     "rejuvenation.request"),
    ("repro.halide.realize", "realize", "halide.realize"),
    ("repro.halide.compile", "compile_func", "halide.compile"),
    ("repro.halide.pipeline", "FuncPipeline.lower", "halide.lower"),
    ("repro.halide.pipeline", "FuncPipeline.realize", "halide.pipeline"),
    ("repro.halide.backends.base", "Backend.execute", "halide.execute"),
    ("repro.halide.serve", "PipelineServer.submit", "serve.submit"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, label: str):
        """A root span for one benchmark operation; traces everything inside."""
        span_id = next(self._ids)
        token = _ACTIVE.set((self, span_id, span_id))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            _ACTIVE.reset(token)
            self.spans.append((label, start, end, span_id, None, span_id))

    def _wrap(self, label, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = _ACTIVE.get()
            if active is None or active[0] is not self:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            name = label(args, kwargs) if callable(label) else label
            token = _ACTIVE.set((self, span_id, active[2]))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _ACTIVE.reset(token)
                self.spans.append((name, start, end, span_id, active[1],
                                   active[2]))
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry point and the pool hand-off."""
        import importlib

        for module_name, path, label in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                base = getattr(module, class_name)
                for cls in (base, *_subclasses(base)):
                    if attr in cls.__dict__:
                        self._patch(cls, attr,
                                    self._wrap(label, cls.__dict__[attr]))
            else:
                original = getattr(module, path)
                self._replace_everywhere(original, self._wrap(label, original))
        parallel = importlib.import_module("repro.halide.parallel")
        self._replace_everywhere(parallel.submit_task,
                                 _context_carrying(parallel.submit_task))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind a function in every loaded ``repro`` module importing it."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, tuple[str, float, int]]:
        """``span_id -> (label, self seconds, op_id)``.

        Self time is the span's duration minus the part of it its child
        spans cover (children on pool threads may overlap each other).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, _, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for label, start, end, span_id, _, op_id in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                lo, hi = max(child_start, cursor), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span_id] = (label, end - start - covered, op_id)
        return result

    def by_op(self) -> dict[int, dict[str, float]]:
        """``op_id -> {label: summed self seconds}`` over each op's spans."""
        totals: dict[int, dict[str, float]] = {}
        for label, seconds, op_id in self.self_times().values():
            per_op = totals.setdefault(op_id, {})
            per_op[label] = per_op.get(label, 0.0) + seconds
        return totals

    def durations(self, label: str) -> list[float]:
        return [end - start for name, start, end, *_ in self.spans
                if name == label]

    def write(self, path) -> None:
        """Chrome trace-event JSON (opens in Perfetto); the first 20000 spans."""
        events = [{"name": label, "ph": "X", "pid": 1, "tid": op_id,
                   "ts": start * 1e6, "dur": (end - start) * 1e6,
                   "args": {"id": span_id, "parent": parent}}
                  for label, start, end, span_id, parent, op_id
                  in sorted(self.spans, key=lambda s: s[1])[:20000]]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _context_carrying(submit_task):
    """``submit_task`` that runs the task in the submitter's span context."""
    @functools.wraps(submit_task)
    def carrying(fn, *args):
        if _ACTIVE.get() is None:
            return submit_task(fn, *args)
        return submit_task(contextvars.copy_context().run, fn, *args)
    return carrying
