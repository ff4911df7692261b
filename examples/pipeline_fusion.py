"""Fuse lifted kernels into a pipeline (the Figure 8 experiment).

Power users chain filters for batch processing; once the kernels are lifted to
the algorithm level they can be fused, keeping intermediates in cache.  This
example builds the paper's IrfanView pipeline (sharpen -> solarize -> blur)
out of lifted kernels and compares the unfused and fused execution.  Each
row is timed on a warm call; what the two calls before it cost beyond two
warm calls is printed separately as build time (on the default native engine
a loop nest's first call runs the compiled NumPy kernels and its second
builds the C program: C generation and compilation, or a load from the
artifact store).

Run with:  python examples/pipeline_fusion.py
"""

import time

import numpy as np

from repro.apps.images import make_test_planes
from repro.halide import FusedPipeline
from repro.rejuvenation import (
    apply_lifted_irfanview,
    legacy_irfanview_filter,
    lift_irfanview_filter,
)

PIPELINE = ("sharpen", "solarize", "blur")


def main() -> None:
    planes = make_test_planes(320, 240, seed=13)
    image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)

    def legacy_sequence():
        current = image
        for name in PIPELINE:
            current = legacy_irfanview_filter(name, current)
        return current

    pipeline = FusedPipeline()
    for name in PIPELINE:
        lifted = lift_irfanview_filter(name)
        pipeline.add(name, lambda img, lifted=lifted, name=name:
                     apply_lifted_irfanview(lifted, name, img))

    timings = {}
    for label, runner in [("IrfanView sequence", legacy_sequence),
                          ("lifted, unfused", lambda: pipeline.run_unfused(image)),
                          ("lifted, fused", lambda: pipeline.run_fused(image, tile_rows=64))]:
        start = time.perf_counter()
        runner()
        runner()
        cold = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        runner()
        warm = (time.perf_counter() - start) * 1000
        timings[label] = (warm, cold - 2 * warm)

    baseline = timings["IrfanView sequence"][0]
    for label, (ms, build_ms) in timings.items():
        # The legacy sequence builds nothing: its cold calls are noise.
        build = "" if label == "IrfanView sequence" \
            else f"   (build +{build_ms:.1f} ms)"
        print(f"{label:22s} {ms:8.1f} ms   {baseline / ms:5.2f}x vs original"
              f"{build}")


if __name__ == "__main__":
    main()
