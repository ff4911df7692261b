"""Deterministic fault injection for the chaos/differential suite.

A :class:`FaultPlan` names *failure sites* — fixed points in the serving,
execution, and storage layers instrumented with :func:`fault_point` /
:func:`fault_payload` calls — and gives each a schedule: a probability, a
maximum fire count, a number of checks to skip first.  Decisions are drawn
from a per-site RNG seeded from the plan seed, so the same plan replays the
same fault sequence on every run; the chaos tests rely on that to assert
exact degradation behaviour.

Activate a plan with the :func:`inject` context manager, or process-wide via
the ``REPRO_FAULTS`` environment variable (parsed on first use)::

    REPRO_FAULTS="tile.execute:p=0.5,n=2;serve.latency:latency=0.05,p=1"

Grammar (semicolon-separated entries, comma-separated parameters)::

    plan    := entry (";" entry)*
    entry   := site [":" param ("," param)*]
    param   := "p=" FLOAT      fire probability per check   (default 1.0)
             | "n=" INT        maximum number of fires      (default unlimited)
             | "after=" INT    checks to skip before firing (default 0)
             | "latency=" SECS injected delay for latency sites
             | "seed=" INT     plan-wide RNG seed (last one wins)

When no plan is active every instrumented site is a single ``None`` check —
the harness costs nothing in production, which the ``fig9_resilience``
benchmark asserts (< 3% overhead with faults disabled).
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Optional

from .policy import TransientExecutionError

#: Environment variable holding a fault plan spec (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Every instrumented failure site.  Injection at an unknown site is a
#: spec error, not a silent no-op — chaos schedules must name real code.
FAULT_SITES = (
    "compile.kernel",          # kernel codegen raises (repro.halide.compile)
    "native.compile",          # native C toolchain invocation fails (backends/native.py)
    "kernel.execute",          # a compiled-engine frame raises (backends/base.py)
    "tile.execute",            # one parallel-loop iteration raises (backends/base.py)
    "pool.die",                # the shared worker pool is shut down under us
    "serve.latency",           # injected delay in the request path (serve.py)
    "store.corrupt_blob",      # put() persists a corrupted payload
    "store.partial_write",     # put() persists a truncated payload
    "store.crash_after_blob",  # put() crashes between blob and manifest
)

#: Sites whose firing injects a delay rather than raising.
LATENCY_SITES = frozenset({"serve.latency"})


class InjectedFault(TransientExecutionError):
    """The typed error a raising fault site throws when its schedule fires.

    Subclasses :class:`~repro.reliability.policy.TransientExecutionError`
    deliberately: an injected fault models a failure that may not recur, so
    the retry/degradation machinery treats it exactly like a real one.
    """

    def __init__(self, site: str, index: int) -> None:
        super().__init__(f"injected fault at {site} (check #{index})")
        self.site = site
        self.index = index


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec (or programmatic rule) is malformed."""


@dataclass
class FaultRule:
    """Schedule for one site: when (and how often) it fires."""

    site: str
    probability: float = 1.0
    count: Optional[int] = None       # max fires; None = unlimited
    after: int = 0                    # checks to skip before the first fire
    latency: float = 0.0              # injected delay, latency sites only

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{', '.join(FAULT_SITES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(f"probability must be in [0, 1], "
                                 f"got {self.probability}")
        if self.count is not None and self.count < 0:
            raise FaultSpecError("count must be >= 0")
        if self.after < 0:
            raise FaultSpecError("after must be >= 0")
        if self.latency < 0:
            raise FaultSpecError("latency must be >= 0")


class FaultPlan:
    """A reproducible set of fault rules, with per-site fire bookkeeping.

    ``fire(site)`` consults the site's rule and draws from a site-private
    RNG seeded from ``(seed, site)``: two plans with the same rules and seed
    fire identically regardless of which other sites are being checked in
    between.  ``fired`` / ``checks`` / ``log`` expose what actually happened
    for test assertions.
    """

    def __init__(self, rules: "list[FaultRule] | None" = None,
                 seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: dict[str, FaultRule] = {}
        self.checks: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.log: list[tuple[str, int]] = []
        self._rngs: dict[str, random.Random] = {}
        self._lock = threading.Lock()
        for rule in rules or []:
            self.add(rule)

    def add(self, rule: FaultRule) -> "FaultPlan":
        if rule.site in self.rules:
            raise FaultSpecError(f"duplicate rule for site {rule.site!r}")
        self.rules[rule.site] = rule
        self.checks[rule.site] = 0
        self.fired[rule.site] = 0
        self._rngs[rule.site] = random.Random(f"{self.seed}:{rule.site}")
        return self

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        rules: list[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, params = chunk.partition(":")
            kwargs: dict = {}
            for param in params.split(",") if params else []:
                param = param.strip()
                if not param:
                    continue
                name, eq, value = param.partition("=")
                if not eq:
                    raise FaultSpecError(
                        f"malformed fault parameter {param!r} "
                        f"(expected name=value)")
                name = name.strip()
                try:
                    if name == "p":
                        kwargs["probability"] = float(value)
                    elif name == "n":
                        kwargs["count"] = int(value)
                    elif name == "after":
                        kwargs["after"] = int(value)
                    elif name == "latency":
                        kwargs["latency"] = float(value)
                    elif name == "seed":
                        seed = int(value)
                    else:
                        raise FaultSpecError(
                            f"unknown fault parameter {name!r} "
                            f"(expected p/n/after/latency/seed)")
                except ValueError as error:
                    if isinstance(error, FaultSpecError):
                        raise
                    raise FaultSpecError(
                        f"bad value for {name!r}: {value!r}") from error
            rules.append(FaultRule(site.strip(), **kwargs))
        plan = cls(seed=seed)
        for rule in rules:
            plan.add(rule)
        return plan

    def fire(self, site: str) -> Optional[FaultRule]:
        """One check at ``site``: the rule if it fires this time, else None."""
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            index = self.checks[site]
            self.checks[site] = index + 1
            if index < rule.after:
                return None
            if rule.count is not None and self.fired[site] >= rule.count:
                return None
            if rule.probability < 1.0 and \
                    self._rngs[site].random() >= rule.probability:
                return None
            self.fired[site] += 1
            self.log.append((site, index))
            return rule

    def total_fired(self) -> int:
        with self._lock:
            return sum(self.fired.values())

    def describe(self) -> str:
        parts = []
        for site, rule in sorted(self.rules.items()):
            params = [f"p={rule.probability:g}"]
            if rule.count is not None:
                params.append(f"n={rule.count}")
            if rule.after:
                params.append(f"after={rule.after}")
            if rule.latency:
                params.append(f"latency={rule.latency:g}")
            parts.append(f"{site}:{','.join(params)}")
        return ";".join(parts)


# ---------------------------------------------------------------------------
# Process-wide activation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()
_ENV_LOADED = False


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Make ``plan`` the process-wide active plan; returns the previous one."""
    global _ACTIVE, _ENV_LOADED
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, plan
        _ENV_LOADED = True        # explicit install overrides env activation
        return previous


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan (env-activated lazily), or ``None``."""
    _maybe_load_env()
    return _ACTIVE


def install_from_env() -> Optional[FaultPlan]:
    """(Re)parse ``$REPRO_FAULTS`` and install the result (None clears)."""
    spec = os.environ.get(FAULTS_ENV, "").strip()
    plan = FaultPlan.parse(spec) if spec else None
    install(plan)
    return plan


def _maybe_load_env() -> None:
    global _ENV_LOADED
    if _ENV_LOADED:
        return
    with _ACTIVE_LOCK:
        if _ENV_LOADED:
            return
        _ENV_LOADED = True
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if spec:
        install(FaultPlan.parse(spec))


class inject:
    """Context manager activating a plan (or spec string) for a block::

        with inject("tile.execute:n=1", seed=7) as plan:
            realize(...)
        assert plan.fired["tile.execute"] == 1
    """

    def __init__(self, plan: "FaultPlan | str", seed: int = 0) -> None:
        self.plan = FaultPlan.parse(plan, seed=seed) \
            if isinstance(plan, str) else plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = install(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        install(self._previous)


# ---------------------------------------------------------------------------
# Instrumentation primitives (called from the execution layers)
# ---------------------------------------------------------------------------


def fault_fires(site: str) -> Optional[FaultRule]:
    """Low-level check: the firing rule, or ``None``.

    For sites whose effect is not a raise (pool shutdown, payload
    corruption) the *call site* applies the effect; raising sites go through
    :func:`fault_point` instead.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.fire(site)


def fault_point(site: str) -> None:
    """One instrumented failure site: raises / delays when scheduled.

    The no-plan fast path is a single ``None`` check, so instrumenting hot
    paths (per-tile, per-request) costs nothing when faults are off.
    """
    plan = active_plan()
    if plan is None:
        return
    rule = plan.fire(site)
    if rule is None:
        return
    if site in LATENCY_SITES:
        if rule.latency > 0:
            time.sleep(rule.latency)
        return
    raise InjectedFault(site, plan.checks[site] - 1)


def fault_payload(site: str, data: bytes) -> bytes:
    """``data`` mangled when the storage site fires, unchanged when clean.

    ``store.partial_write`` truncates (a crash mid-write); everything else
    flips bytes across the payload (bit rot), including the header so the
    corruption is *detectable* — the chaos contract is corrupt-and-caught,
    never silently wrong.
    """
    rule = fault_fires(site)
    if rule is None:
        return data
    if site == "store.partial_write":
        return data[:max(1, len(data) // 3)]
    mangled = bytearray(data)
    for position in range(0, len(mangled), 7):
        mangled[position] ^= 0xFF
    return bytes(mangled)
