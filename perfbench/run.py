"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lift --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Earlier stdout lines are a human-readable report; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
of ``BENCHMARK.json``, each as ``{"value", "unit"}``.

Nothing outside the checkout is read or written.  ``perfbench/.work/``
holds the warm store snapshot (built once per version of ``src/`` by an
untimed ``--prepare`` subprocess), one scratch directory per run (a fresh
copy of the snapshot, exposed through ``REPRO_STORE_DIR``, plus ``TMPDIR``),
and the span file of the latest traced run of each workload.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="lift",
                        choices=("lift", "apply-large", "serve-small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass (self-test only)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="deliberately break one reference (self-test)")
    parser.add_argument("--prepare", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Identity of the program source plus what the snapshot is built from."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_snapshot() -> Path:
    """The warm store snapshot for this source, built on first use."""
    final = WORK / f"store-{source_digest()}"
    if final.is_dir():
        return final
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "snapshot.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if final.is_dir():
            return final
        for stale in WORK.glob("store-*"):
            shutil.rmtree(stale, ignore_errors=True)
        building = WORK / f"building-{os.getpid()}"
        shutil.rmtree(building, ignore_errors=True)
        (building / "tmp").mkdir(parents=True)
        env = dict(os.environ, REPRO_STORE_DIR=str(building / "store"),
                   TMPDIR=str(building / "tmp"))
        try:
            subprocess.run([sys.executable, str(HERE / "run.py"), "--prepare"],
                           cwd=ROOT, env=env, check=True, timeout=600,
                           stdout=subprocess.DEVNULL)
            os.replace(building / "store", final)
        finally:
            shutil.rmtree(building, ignore_errors=True)
    return final


def prepare_snapshot() -> int:
    """``--prepare``: fill ``$REPRO_STORE_DIR`` by running each set-up once."""
    sys.path.insert(0, str(SRC))
    from workloads import ApplyLargeWorkload, ServeSmallWorkload

    for cls in (ApplyLargeWorkload, ServeSmallWorkload):
        workload = cls(seed=0, seconds=1.0)
        workload.prepare()
        workload.setup()
        workload.close()
    return 0


def import_program() -> float:
    """Import what every workload uses; returns the seconds it took."""
    began = time.perf_counter()
    import numpy  # noqa: F401
    import repro.core.session  # noqa: F401
    import repro.halide  # noqa: F401
    import repro.rejuvenation  # noqa: F401
    import repro.store  # noqa: F401
    return time.perf_counter() - began


def measure(args, run_dir: Path, snapshot: Path) -> dict:
    import metrics
    import probes
    import tracing

    store_dir = run_dir / "store"
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None
    os.environ["REPRO_STORE_DIR"] = str(store_dir)
    sys.path.insert(0, str(SRC))
    imports_s = import_program()

    from repro.store import default_store
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if cls.SCENARIOS:
        shutil.copytree(snapshot, store_dir)
    else:
        store_dir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    gc_probe = probes.GcProbe()
    calibration = [probes.calibration_ms()]
    workload = cls(args.seed, args.seconds, tracer, smoke=args.smoke,
                   corrupt=args.corrupt_reference)
    workload.gc_probe = gc_probe
    try:
        workload.prepare()
        setup_times, bytes_read = [], []
        setup_speed = probes.HostSpeed("python")
        before_setup = probes.counters()
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            gc.collect()
            setup_speed.sample(3)
            read = default_store().stats()["bytes_read"]
            began = time.perf_counter()
            workload.traced_setup()
            setup_times.append(time.perf_counter() - began)
            bytes_read.append(default_store().stats()["bytes_read"] - read)
        setup_counts = probes.delta(before_setup, probes.counters())
        gc.collect()
        ticks = probes.cpu_ticks()
        before = probes.counters()
        gc_probe.active = True
        workload.measure()
        gc_probe.active = False
        counts = probes.delta(before, probes.counters())
        steal = probes.steal_pct(ticks, probes.cpu_ticks())
    finally:
        workload.close()
        gc_probe.close()
        if tracer is not None:
            tracer.uninstall()
    calibration.append(probes.calibration_ms())

    values = dict(workload.end_to_end())
    setup_s = imports_s + metrics.median(setup_times)
    values["setup_s"] = setup_s * setup_speed.factor()
    values["peak_rss_mb"] = probes.peak_rss_mb()
    failed_frac = workload.failed / max(workload.attempted, 1)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} attempted={workload.attempted} "
          f"failed={workload.failed} failed_frac={failed_frac:.6f}")
    print(f"#   host-normalised: factor={workload.speed.factor():.4f} "
          f"({workload.speed.kind}, {len(workload.speed.samples)} samples) "
          f"setup_factor={setup_speed.factor():.4f} raw setup_s={setup_s:.4f}")
    print(f"#   imports_s={imports_s:.4f} warm_load_s={workload.warm_load():.4f} "
          f"setup_reps_s="
          f"{[round(t, 4) for t in setup_times]} host_calib_ms="
          f"{[round(c, 3) for c in calibration]} steal_pct={steal:.3f} "
          f"gc_gen2={gc_probe.gen2} gc_pause_ms_max="
          f"{max(gc_probe.pauses, default=0) * 1e3:.3f}")
    for line in workload.report():
        print(f"#   {line}")
    for error in workload.errors:
        print(f"#   failure: {error}")
    if args.trace:
        frames = workload.frame_count()
        layers = {name: 0.0 for name in metrics.PER_LAYER}
        setup_ops = workload.setup_ops
        layers["halide.compile_s"] = workload.layer_median(
            "halide.compile", setup_ops)
        layers["halide.lower_s"] = workload.layer_median(
            "halide.lower", setup_ops)
        layers["store.get_s"] = workload.layer_median("store.get", setup_ops)
        layers["store.bytes_read"] = float(metrics.median(bytes_read))
        repeats = len(setup_times)
        for key in ("native.compiles", "native.store_hits"):
            layers[key] = setup_counts[key] / repeats
        layers["x86.instrumented_runs"] = float(
            setup_counts["x86.instrumented_runs"]
            + counts["x86.instrumented_runs"])
        for key in ("halide.kernel_cache.misses", "native.frames",
                    "native.degraded", "halide.parallel.tiles_parallel",
                    "halide.parallel.tiles_serial"):
            layers[key] = float(counts[key])
        layers["runtime.minflt_per_frame"] = counts["minflt"] / frames \
            if frames else 0.0
        layers["runtime.gc_gen2"] = float(gc_probe.gen2)
        layers["runtime.gc_pause_ms"] = sum(gc_probe.pauses) * 1e3
        layers["runtime.gc_pause_ms_max"] = max(gc_probe.pauses,
                                                default=0.0) * 1e3
        layers["warm_load_s"] = workload.warm_load()
        layers["host.calib_ms"] = metrics.median(calibration)
        layers["host.speed_factor"] = workload.speed.factor()
        layers["host.steal_pct"] = steal
        layers["failed_frac"] = failed_frac
        layers.update(workload.per_layer())
        units = metrics.PER_LAYER
        tracer.write(WORK / f"trace-{args.workload}.json")
    else:
        layers = values
        units = metrics.END_TO_END
    return {"correct": workload.wrong == 0 and workload.attempted > 0,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": {name: {"value": metrics.finite(layers[name]),
                               "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    if args.prepare:
        return prepare_snapshot()
    snapshot = ensure_snapshot()
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = measure(args, run_dir, snapshot)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
