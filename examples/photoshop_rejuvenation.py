"""Rejuvenate the Photoshop filters: lift them once, run them on a big image.

Reproduces the Figure 7 experiment at example scale: each fully-lifted filter
is lifted from a small traced run, then applied to a larger image through the
mini-Halide backend and compared against the legacy runtime model.  Exits
non-zero when a filter's ``correct`` verdict is False.

Run with:  python examples/photoshop_rejuvenation.py
"""

import sys
import time

import numpy as np

from repro.apps.images import make_test_planes
from repro.rejuvenation import (
    apply_lifted_photoshop,
    legacy_photoshop_filter,
    lift_photoshop_filter,
    photoshop_reference,
)

FILTERS = ["invert", "blur", "blur_more", "sharpen", "sharpen_more", "threshold", "box_blur"]
PARAMS = {"threshold": 128, "brightness": 40}


def main() -> int:
    planes = make_test_planes(320, 240, seed=9)
    all_correct = True
    print(f"{'filter':14s} {'legacy ms':>10s} {'lifted ms':>10s} {'speedup':>8s}  correct")
    for name in FILTERS:
        lifted = lift_photoshop_filter(name)

        start = time.perf_counter()
        legacy_photoshop_filter(name, planes, PARAMS)
        legacy_ms = (time.perf_counter() - start) * 1000

        start = time.perf_counter()
        produced = apply_lifted_photoshop(lifted, name, planes, PARAMS)
        lifted_ms = (time.perf_counter() - start) * 1000

        expected = photoshop_reference(name, planes, PARAMS)
        correct = all(np.array_equal(produced[c], expected[c]) for c in ("r", "g", "b"))
        all_correct = all_correct and correct
        print(f"{name:14s} {legacy_ms:10.1f} {lifted_ms:10.1f} "
              f"{legacy_ms / lifted_ms:7.2f}x  {correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
