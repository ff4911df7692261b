#!/usr/bin/env python3
"""Benchmark regression gate: fresh BENCH_results.json vs a baseline.

Compares the tracked benchmark families (``fig8_*``, ``fig10_*``,
``fig11_*`` and ``lift_cache/*`` by default) between a baseline results file
(the committed ``BENCH_results.json``) and the one the benchmark run just
wrote (``.benchmarks/BENCH_results.json``), and fails when any benchmark
regressed by more than the threshold (30%).

Because CI runners differ in absolute speed from the machine that produced
the committed baseline, ratios are **calibrated**: the median fresh/baseline
ratio across all compared keys is treated as the machine-speed factor, and a
benchmark only fails when it is more than ``threshold`` slower than that
median predicts.  A uniformly slower runner therefore passes, while a single
benchmark that regressed relative to its peers fails.  Calibration needs at
least ``MIN_CALIBRATION_KEYS`` compared keys — with two, the median of two
ratios splits the difference and a real regression calibrates itself away —
below that the gate warns and compares raw (uncalibrated) ratios.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/... -q
    python scripts/check_bench_regression.py --baseline BENCH_results.json \
        --fresh .benchmarks/BENCH_results.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_PREFIXES = ("fig8_", "fig10_", "fig11_", "lift_cache/")
DEFAULT_THRESHOLD = 0.30
#: Median calibration needs at least this many compared keys: with two, the
#: median of two ratios splits the difference and a genuine regression in
#: one benchmark inflates the "machine factor" enough to absorb itself.
MIN_CALIBRATION_KEYS = 3


def load_payload(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"cannot read benchmark results {path}: {error}")


def compare(baseline: dict[str, dict], fresh: dict[str, dict],
            prefixes: tuple[str, ...], threshold: float,
            measured: list[str] | None = None) -> tuple[list, list]:
    """Returns (rows, failures); rows are [name, base, fresh, ratio, verdict].

    ``measured`` (the fresh file's ``last_run_keys``) restricts the gate to
    benchmarks this run actually executed — the results file merges partial
    runs, so entries carried over from an older session must neither fail
    the gate nor skew the machine-factor calibration.
    """
    keys = sorted(name for name in baseline
                  if name in fresh and name.startswith(tuple(prefixes))
                  and (measured is None or name in measured))
    ratios = {}
    for name in keys:
        base_seconds = float(baseline[name].get("best_seconds", 0.0))
        fresh_seconds = float(fresh[name].get("best_seconds", 0.0))
        if base_seconds <= 0.0 or fresh_seconds <= 0.0:
            continue
        ratios[name] = fresh_seconds / base_seconds
    if not ratios:
        return [], []
    if len(ratios) >= MIN_CALIBRATION_KEYS:
        machine_factor = statistics.median(ratios.values())
    else:
        # Too few keys to estimate machine speed: the median would absorb a
        # genuine regression (median of two ratios splits the difference).
        # Gate on raw ratios instead, and say so.
        machine_factor = 1.0
        print(f"warning: only {len(ratios)} comparable key(s) — skipping "
              f"machine-factor calibration (needs >= {MIN_CALIBRATION_KEYS}); "
              "comparing uncalibrated ratios")
    limit = machine_factor * (1.0 + threshold)
    rows, failures = [], []
    for name in keys:
        if name not in ratios:
            continue
        ratio = ratios[name]
        verdict = "ok" if ratio <= limit else "REGRESSED"
        rows.append([name,
                     f"{baseline[name]['best_seconds'] * 1000:.2f}ms",
                     f"{fresh[name]['best_seconds'] * 1000:.2f}ms",
                     f"{ratio:.2f}x", verdict])
        if verdict != "ok":
            failures.append(name)
    label = "(median machine factor)" if len(ratios) >= MIN_CALIBRATION_KEYS \
        else "(uncalibrated: too few keys)"
    rows.append([label, "-", "-",
                 f"{machine_factor:.2f}x", f"limit {limit:.2f}x"])
    return rows, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="baseline results file (committed numbers)")
    parser.add_argument("--fresh", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / ".benchmarks" / "BENCH_results.json",
                        help="freshly measured results (default: "
                             ".benchmarks/BENCH_results.json)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed slowdown beyond the machine factor "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--prefix", action="append", default=None,
                        help="benchmark-name prefix to gate on (repeatable; "
                             f"default: {', '.join(DEFAULT_PREFIXES)})")
    args = parser.parse_args(argv)

    prefixes = tuple(args.prefix) if args.prefix else DEFAULT_PREFIXES
    baseline = load_payload(args.baseline).get("results", {})
    fresh_payload = load_payload(args.fresh)
    fresh = fresh_payload.get("results", {})
    measured = fresh_payload.get("last_run_keys")
    rows, failures = compare(baseline, fresh, prefixes, args.threshold,
                             measured)
    if not rows:
        print(f"benchmark gate: no comparable keys under {prefixes}; skipping")
        return 0

    widths = [max(len(str(row[i])) for row in rows) for i in range(5)]
    header = ["benchmark", "baseline", "fresh", "ratio", "verdict"]
    widths = [max(w, len(h)) for w, h in zip(widths, header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))

    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} beyond the machine factor: "
              + ", ".join(failures))
        return 1
    print(f"\nOK: {len(rows) - 1} benchmark(s) within {args.threshold:.0%} "
          "of the calibrated baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
