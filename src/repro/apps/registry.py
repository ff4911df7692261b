"""Declarative registry of every liftable (app, filter) scenario.

The registry is the single enumeration of what Helium can lift in this
repository: the CLI (``python -m repro``), the store-backed rejuvenation
wrappers and the benchmarks all resolve scenarios here instead of
hand-constructing trace apps.  A scenario bundles

* the **app factory** — builds the application configured with the small
  *trace-sized* workload the lift runs on (the paper traces a small image
  and applies the lifted kernel to arbitrarily large ones), including any
  filter-specific trace data (e.g. brightness needs a trace image covering
  every byte value so the captured lookup table is complete);
* the default **seed** threaded through the instrumented runs;
* **tags** used by tests and benchmarks to select families of scenarios.

Adding a new kgen-backed filter is one :func:`register` call (or one entry
in the app's spec table, for the bulk registrations below) — no new wrapper
code anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import Application


@dataclass(frozen=True)
class Scenario:
    """One liftable (app, filter) pair and how to build its trace app."""

    app_name: str
    filter_name: str
    factory: Callable[[], Application]
    seed: int = 0
    description: str = ""
    tags: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        return (self.app_name, self.filter_name)

    def make_app(self) -> Application:
        """A fresh application instance carrying the trace-sized workload."""
        return self.factory()


_REGISTRY: dict[tuple[str, str], Scenario] = {}


class UnknownScenarioError(KeyError):
    """Raised when an (app, filter) pair is not registered."""


def register(scenario: Scenario) -> Scenario:
    """Register one scenario (latest registration wins, enabling overrides)."""
    _REGISTRY[scenario.key] = scenario
    return scenario


def get_scenario(app_name: str, filter_name: str) -> Scenario:
    try:
        return _REGISTRY[(app_name, filter_name)]
    except KeyError:
        known = ", ".join(sorted(f"{a}/{f}" for a, f in _REGISTRY))
        raise UnknownScenarioError(
            f"no scenario {app_name}/{filter_name}; known: {known}") from None


def scenarios(app_name: str | None = None, tag: str | None = None) -> list[Scenario]:
    """Every registered scenario, optionally filtered by app and/or tag."""
    found = [scenario for scenario in _REGISTRY.values()
             if (app_name is None or scenario.app_name == app_name)
             and (tag is None or tag in scenario.tags)]
    return sorted(found, key=lambda s: s.key)


def app_names() -> list[str]:
    return sorted({scenario.app_name for scenario in _REGISTRY.values()})


# ---------------------------------------------------------------------------
# Built-in scenarios (the paper's evaluation set)
# ---------------------------------------------------------------------------


def _photoshop_trace_app():
    from .photoshop import PhotoshopApp

    return PhotoshopApp(width=16, height=12, seed=11)


def _photoshop_brightness_trace_app():
    # Table-driven kernels are only lifted for the table entries the trace
    # exercises (paper section 5: the user must craft inputs that cover the
    # behaviour); use a trace image containing every byte value so the
    # captured lookup table is complete.
    from .photoshop import PhotoshopApp

    app = PhotoshopApp(width=32, height=16, seed=11)
    full_range = np.arange(512, dtype=np.uint8).reshape(16, 32)
    app.planes = {channel: np.roll(full_range, shift, axis=1).copy()
                  for shift, channel in enumerate(("r", "g", "b"))}
    return app


def _irfanview_trace_app():
    from .irfanview import IrfanViewApp

    return IrfanViewApp(width=14, height=10, seed=12)


def _minigmg_trace_app():
    from .minigmg import MiniGMGApp

    return MiniGMGApp(nx=6, ny=5, nz=4)


#: Filters whose lifted kernel is a reduction (RDom update stage): served
#: and benchmarked through the parallel partial-accumulator path.
REDUCTION_FILTERS = {("photoshop", "equalize"), ("photoshop", "column_sum"),
                     ("irfanview", "equalize")}


def _register_builtin_scenarios() -> None:
    from .irfanview import FILTER_SPECS as IV_SPECS, \
        FLOAT_STENCIL_FILTERS as IV_FLOAT_STENCILS, \
        PARTIALLY_LIFTED as IV_PARTIAL
    from .photoshop import FILTER_SPECS as PS_SPECS, FULLY_LIFTED

    for name in PS_SPECS:
        factory = _photoshop_brightness_trace_app if name == "brightness" \
            else _photoshop_trace_app
        tags = ("photoshop", "planar",
                "fully-lifted" if name in FULLY_LIFTED else "partially-lifted")
        if ("photoshop", name) in REDUCTION_FILTERS:
            tags = tags + ("reduction",)
        register(Scenario(app_name="photoshop", filter_name=name,
                          factory=factory, tags=tags,
                          description=f"Photoshop {name} on planar RGB"))
    for name in IV_SPECS:
        tags = ("irfanview", "interleaved",
                "partially-lifted" if name in IV_PARTIAL else "fully-lifted")
        if name in IV_FLOAT_STENCILS:
            tags = tags + ("float-stencil",)
        if ("irfanview", name) in REDUCTION_FILTERS:
            tags = tags + ("reduction",)
        register(Scenario(app_name="irfanview", filter_name=name,
                          factory=_irfanview_trace_app,
                          tags=tags,
                          description=f"IrfanView {name} on interleaved RGB"))
    register(Scenario(app_name="minigmg", filter_name="smooth",
                      factory=_minigmg_trace_app,
                      tags=("minigmg", "stencil3d", "fully-lifted"),
                      description="miniGMG weighted-Jacobi smooth (float64)"))


_register_builtin_scenarios()
