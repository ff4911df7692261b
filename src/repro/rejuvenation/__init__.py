"""Rejuvenation: running lifted kernels standalone, fused, or patched in-situ,
and the legacy runtime models they are compared against."""

from .legacy import (
    legacy_irfanview_filter,
    legacy_minigmg_smooth,
    legacy_photoshop_filter,
)
from .lifted import (
    apply_lifted_irfanview,
    apply_lifted_minigmg,
    apply_lifted_photoshop,
    clear_lift_memo,
    lift_irfanview_filter,
    lift_minigmg_smooth,
    lift_photoshop_filter,
    lifted_pipeline,
    photoshop_reference,
)
from .insitu import insitu_lifted_photoshop
from .serving import make_serve_requests, serve_lifted

__all__ = [
    "legacy_irfanview_filter", "legacy_minigmg_smooth", "legacy_photoshop_filter",
    "apply_lifted_irfanview", "apply_lifted_minigmg", "apply_lifted_photoshop",
    "clear_lift_memo", "lift_irfanview_filter", "lift_minigmg_smooth",
    "lift_photoshop_filter", "lifted_pipeline", "photoshop_reference",
    "insitu_lifted_photoshop",
    "make_serve_requests", "serve_lifted",
]
