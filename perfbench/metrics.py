"""Metric names, units and the summary statistics behind them.

``BENCHMARK.json`` lists the same names and units; ``selftest.py`` checks
that the two agree and that every run prints each of them.
"""

from __future__ import annotations

import math

#: End-to-end metrics (untraced runs).  Every workload prints all of them;
#: what an "operation" is differs per workload (see README.md):
#: lift = one cold lift, apply-large = one frame, serve-small = one request.
END_TO_END = {
    "setup_s": "s",          # imports + median of repeated warm set-ups
    "peak_rss_mb": "MB",     # peak resident set size of the run process
    "op_ms": "ms",           # geo-mean over operation kinds of each median
    "ops_per_s": "1/s",      # closed-loop operations per second of work
}

LIFT_STAGES = ("coverage", "screen", "localize", "trace", "forward",
               "buffers", "trees", "codegen")
LIFT_FAMILIES = ("planar_stencil", "pointwise", "reduction", "float_stencil",
                 "stencil3d")
APPLY_ROWS = ("photoshop.blur", "photoshop.invert", "photoshop.equalize",
              "photoshop.column_sum", "irfanview.blur", "minigmg.smooth",
              "chain")

#: Per-layer metrics (traced runs).  Every workload prints all of them; a
#: layer its load never reaches reads 0.
PER_LAYER = {
    "warm_load_s": "s",      # load the workload's lifted set from a warm store
    **{f"core.{stage}_s": "s" for stage in LIFT_STAGES},
    "core.validate_s": "s",
    **{f"lift.{family}_s": "s" for family in LIFT_FAMILIES},
    "x86.instrumented_runs": "count",
    "dynamo.trace_records": "count",
    "store.put_s": "s",
    "store.bytes_written": "B",
    "store.get_s": "s",
    "store.bytes_read": "B",
    "halide.compile_s": "s",
    "halide.lower_s": "s",
    "native.compiles": "count",
    "native.store_hits": "count",
    **{f"apply.{row}_ms": "ms" for row in APPLY_ROWS},
    "rejuvenation.request_ms": "ms",
    "halide.realize_ms": "ms",
    "halide.kernel_lookup_ms": "ms",
    "halide.kernel_cache.misses": "count",
    "native.frames": "count",
    "native.degraded": "count",
    "runtime.minflt_per_frame": "count",
    "halide.parallel.tiles_parallel": "count",
    "halide.parallel.tiles_serial": "count",
    "serve.submit_us_p50": "us",
    "serve.busy_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.wait_ms_p99": "ms",
    "serve.latency_ms_p99": "ms",
    "runtime.gc_gen2": "count",
    "runtime.gc_pause_ms": "ms",
    "runtime.gc_pause_ms_max": "ms",
    "serve.deadline_exceeded": "count",
    "serve.retries": "count",
    "serve.degraded": "count",
    "serve.generator_late_ms_p99": "ms",
    "host.calib_ms": "ms",
    "host.speed_factor": "1",
    "host.steal_pct": "%",
    "trace.overhead_pct": "%",
    "failed_frac": "1",
}

#: Stand-in for an infinite latency (a failed request) in printed JSON.
INFINITE = 1e12


def median(values) -> float:
    return quantile(values, 0.5)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lo = int(math.floor(position))
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return ordered[hi] if position > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    if any(math.isinf(v) for v in values):
        return math.inf
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def finite(value: float) -> float:
    return INFINITE if math.isinf(value) or math.isnan(value) else float(value)
