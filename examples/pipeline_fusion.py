"""Fuse lifted kernels into a pipeline (the Figure 8 experiment).

Power users chain filters for batch processing; once the kernels are lifted to
the algorithm level they can be fused, keeping intermediates in cache.  This
example builds the paper's IrfanView pipeline (sharpen -> solarize -> blur)
out of lifted kernels with ``lifted_pipeline`` and compares the original
sequence, the lifted filters run one at a time, the chain as one
``FuncPipeline`` loop nest, and ``FuncPipeline.fused()``, which inlines the
pointwise solarize into sharpen.  Each row is timed on a warm call; what the
two calls before it cost beyond two warm calls is printed separately as
build time (on the default native engine a loop nest's first call runs the
compiled NumPy kernels and its second builds the C program: C generation and
compilation, or a load from the artifact store).  Exits non-zero when a
pipeline's output differs from the filters run one at a time.

Run with:  python examples/pipeline_fusion.py
"""

import sys
import time

import numpy as np

from repro.apps.images import make_test_planes
from repro.rejuvenation import (
    apply_lifted_irfanview,
    legacy_irfanview_filter,
    lift_irfanview_filter,
    lifted_pipeline,
)

PIPELINE = ("sharpen", "solarize", "blur")


def main() -> int:
    planes = make_test_planes(320, 240, seed=13)
    image = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)

    def legacy_sequence():
        current = image
        for name in PIPELINE:
            current = legacy_irfanview_filter(name, current)
        return current

    def lifted_separate():
        current = image
        for name in PIPELINE:
            current = apply_lifted_irfanview(lift_irfanview_filter(name), name,
                                             current)
        return current

    pipeline = lifted_pipeline("irfanview", PIPELINE)
    fused = pipeline.fused()

    timings, outputs = {}, {}
    for label, runner in [("IrfanView sequence", legacy_sequence),
                          ("lifted, separate", lifted_separate),
                          ("FuncPipeline", lambda: pipeline.realize(image)),
                          ("FuncPipeline.fused()", lambda: fused.realize(image))]:
        start = time.perf_counter()
        runner()
        runner()
        cold = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        outputs[label] = runner()
        warm = (time.perf_counter() - start) * 1000
        timings[label] = (warm, cold - 2 * warm)

    baseline = timings["IrfanView sequence"][0]
    for label, (ms, build_ms) in timings.items():
        # The legacy sequence builds nothing: its cold calls are noise.
        build = "" if label == "IrfanView sequence" \
            else f"   (build +{build_ms:.1f} ms)"
        print(f"{label:22s} {ms:8.2f} ms   {baseline / ms:6.2f}x vs original"
              f"{build}")

    separate = outputs["lifted, separate"]
    identical = all(np.array_equal(outputs[label], separate)
                    for label in ("FuncPipeline", "FuncPipeline.fused()"))
    print(f"pipelines bit-identical to separate: {identical}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
