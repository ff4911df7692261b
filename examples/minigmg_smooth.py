"""Lift the miniGMG smooth stencil and use it for a multigrid-style relaxation.

The miniGMG benchmark generates its data at runtime, so Helium falls back to
generic dimensionality inference (no known input/output data to search the
memory dump for).  The lifted 7-point weighted-Jacobi stencil is then run for
several iterations on a larger grid and compared against the legacy smoother.
Exits non-zero when the max |difference| exceeds 1e-12.

Run with:  python examples/minigmg_smooth.py
"""

import sys
import time

import numpy as np

from repro.apps.minigmg import SMOOTH_SPEC
from repro.rejuvenation import (
    apply_lifted_minigmg,
    legacy_minigmg_smooth,
    lift_minigmg_smooth,
)


def main() -> int:
    print("Lifting the smooth stencil from the miniGMG binary ...")
    result = lift_minigmg_smooth()
    kernel = result.kernels[0]
    print("lifted kernel:", result.funcs[kernel.output])
    print()

    rng = np.random.default_rng(1)
    grid = rng.uniform(-1.0, 1.0, size=(34, 34, 34))
    a, b = SMOOTH_SPEC.center_weight, SMOOTH_SPEC.neighbor_weight

    start = time.perf_counter()
    legacy = legacy_minigmg_smooth(grid, a, b, iterations=4)
    legacy_s = time.perf_counter() - start

    start = time.perf_counter()
    lifted = apply_lifted_minigmg(result, grid, iterations=4)
    lifted_s = time.perf_counter() - start

    print(f"legacy smoother: {legacy_s * 1000:8.1f} ms")
    print(f"lifted smoother: {lifted_s * 1000:8.1f} ms   ({legacy_s / lifted_s:.2f}x)")
    difference = float(np.abs(legacy - lifted).max())
    print("max |difference|:", difference)
    return 0 if difference <= 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
