"""The three workloads: lift, apply-large and serve-small.

Each drives the program only through its public API, with the default
engine and default schedules.  A workload has four phases:

* ``prepare()`` — harness work kept out of ``setup_s``: inputs drawn from the
  seed and every reference output, computed independently of the engine
  under test;
* ``setup()`` — the program's own set-up, timed and repeated (the run reports
  the median): warm lift from the store, server build, kernel compile and
  warm-up frames;
* ``measure()`` — the timed operations, each checked against its reference,
  with samples of the workload's ``HostSpeed`` loop in between;
* ``end_to_end()`` / ``per_layer()`` — the metrics (see ``metrics.py``);
  end-to-end times are host-normalised by that loop's samples.

In a traced run operations alternate between traced and untraced where the
comparison gives ``trace.overhead_pct``; per-layer numbers come from the
traced ones only.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import shutil
import tempfile
import time
from collections import deque

import numpy as np

from metrics import APPLY_ROWS, LIFT_STAGES, geomean, median, quantile
from probes import HostSpeed

#: Per-request budget in serve-small; a miss counts as a failed request.
DEADLINE_S = 1.0


class Workload:
    name = ""
    #: Scenarios the warm store snapshot must hold for this workload.
    SCENARIOS: tuple = ()
    #: The ``HostSpeed`` loop timed between operations, and its clock.
    CALIBRATION = "python"
    CLOCK = staticmethod(time.perf_counter)

    def __init__(self, seed: int, seconds: float, tracer=None,
                 smoke: bool = False, corrupt: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.smoke = smoke
        self.corrupt = corrupt
        self.rng = np.random.default_rng(seed)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # exceptions and outputs unequal to reference
        self.errors: list[str] = []
        self.setup_ops: list[int] = []
        self.warm_loads: list[float] = []
        self.speed = HostSpeed(self.CALIBRATION, self.CLOCK)
        #: Set by the runner; harness collections bypass its counts.
        self.gc_probe = None

    def collect_garbage(self) -> None:
        if self.gc_probe is None:
            gc.collect()
        else:
            self.gc_probe.collect()

    # -- bookkeeping ---------------------------------------------------------

    def outcome(self, ok: bool, what: str = "", wrong: bool = True) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if len(self.errors) < 5:
                self.errors.append(what)

    @contextlib.contextmanager
    def op(self, label: str, traced: bool):
        if traced and self.tracer is not None:
            with self.tracer.op(label) as op_id:
                yield op_id
        else:
            yield None

    def traced_setup(self):
        """Run one set-up repetition, traced in a traced run."""
        with self.op("setup", True) as op_id:
            self.setup()
        if op_id is not None:
            self.setup_ops.append(op_id)

    def layer_median(self, label: str, op_ids, scale: float = 1.0) -> float:
        """Median over ops that reached ``label`` of its summed self time."""
        if self.tracer is None:
            return 0.0
        by_op = self.tracer.by_op()
        values = [by_op[op_id][label] for op_id in op_ids
                  if op_id in by_op and label in by_op[op_id]]
        return median(values) * scale if values else 0.0

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def frame_count(self) -> int:
        """Frames realized in ``measure()`` (for per-frame counters)."""
        return 0

    def warm_load(self) -> float:
        """Seconds to load the workload's lifted set from a warm store."""
        return median(self.warm_loads)


def warm_lift(keys) -> dict:
    """Load lift results from the default (warm) store, memo-free."""
    from repro.core.session import lift_scenario
    from repro.ir import clear_canonicalize_cache

    clear_canonicalize_cache()
    return {key: lift_scenario(*key) for key in keys}


def reset_compile_caches() -> None:
    from repro.halide import clear_kernel_cache
    from repro.halide.backends.native import reset_native_caches

    clear_kernel_cache()
    reset_native_caches()


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


class LiftWorkload(Workload):
    """Cold-lift one scenario per family, validate it, reload it warm.

    The seed draws each family's member among scenarios whose traces have
    the same size (so a draw changes the kernel, not the amount of work),
    the lift order, and the ``LiftSession`` seed (0-2, all of which lift and
    validate every scenario below).  Each cold lift starts from an empty
    store and an empty expression memo, with garbage collected beforehand.

    A cold lift is timed in CPU seconds of the process (``process_time``):
    lifting runs on the calling thread alone, so this is its wall time less
    hypervisor steal and preemption.  Contention for the host's shared
    caches and clock still reaches it, so ``op_ms`` and ``ops_per_s`` scale
    each lift by the ``HostSpeed`` samples taken right before and after it.
    The report keeps the raw CPU and wall times.  An
    untraced run reloads each lift once (enough to check it); a traced run
    reloads it ``RELOADS`` times, alternating traced and untraced, for
    ``trace.overhead_pct``.
    """

    name = "lift"
    FAMILIES = {
        "planar_stencil": (("photoshop", "blur"), ("photoshop", "sharpen"),
                           ("photoshop", "sharpen_edges")),
        "pointwise": (("photoshop", "invert"),),
        "reduction": (("photoshop", "equalize"),),
        "float_stencil": (("irfanview", "blur"), ("irfanview", "sharpen")),
        "stencil3d": (("minigmg", "smooth"),),
    }
    #: The smallest scenario: its cold lift warms the interpreter in set-up.
    WARMUP = ("photoshop", "column_sum")
    RELOADS = 4
    CLOCK = staticmethod(time.process_time)

    def prepare(self) -> None:
        draw = [(family, members[self.rng.integers(len(members))])
                for family, members in self.FAMILIES.items()]
        self.drawn = draw[:1] if self.smoke else draw
        self.lift_seed = self.seed % 3
        self.cold: dict = {key: [] for _, key in self.drawn}
        self.cold_scaled: dict = {key: [] for _, key in self.drawn}
        self.cold_wall: dict = {key: [] for _, key in self.drawn}
        self.reload: dict = {key: [] for _, key in self.drawn}
        self.cold_ops: dict = {key: [] for _, key in self.drawn}
        self.reload_ops: dict = {key: [] for _, key in self.drawn}
        self.reload_ab: dict = {key: ([], []) for _, key in self.drawn}
        self.validate_ops: dict = {key: [] for _, key in self.drawn}
        self.runs_per_lift: list[int] = []
        self.records: dict = {}
        self.bytes_written: dict = {}
        self.bytes_read: dict = {}

    def _empty_store(self):
        from repro.store import ArtifactStore

        return ArtifactStore(tempfile.mkdtemp(prefix="lift-store-"))

    def setup(self) -> None:
        from repro.core.session import lift_scenario
        from repro.ir import clear_canonicalize_cache

        clear_canonicalize_cache()
        store = self._empty_store()
        try:
            lift_scenario(*self.WARMUP, store=store)
        finally:
            shutil.rmtree(store.root, ignore_errors=True)

    def measure(self) -> None:
        from repro.apps.base import app_run_count
        from repro.core.session import lift_scenario
        from repro.ir import clear_canonicalize_cache

        start = time.perf_counter()
        rounds = 0
        while True:
            for index in self.rng.permutation(len(self.drawn)):
                _, key = self.drawn[index]
                clear_canonicalize_cache()
                self.collect_garbage()
                before = self.speed.sample(2)
                store = self._empty_store()
                try:
                    runs = app_run_count()
                    try:
                        with self.op("lift", True) as op_id:
                            began = time.perf_counter()
                            cpu = time.process_time()
                            result = lift_scenario(*key, seed=self.lift_seed,
                                                   store=store)
                            cpu = time.process_time() - cpu
                            self.cold_wall[key].append(
                                time.perf_counter() - began)
                        self.cold[key].append(cpu)
                        self.cold_scaled[key].append(cpu * self.speed.scale(
                            before, self.speed.sample(2)))
                        with self.op("validate", True) as validate_op:
                            verdict = result.validate()
                    except Exception as exc:       # a failed op, not a crash
                        self.outcome(False, f"lift {key}: {exc!r}")
                        continue
                    self.cold_ops[key].append(op_id)
                    self.validate_ops[key].append(validate_op)
                    self.runs_per_lift.append(app_run_count() - runs)
                    self.records[key] = len(result.trace.records)
                    self.bytes_written[key] = store.stats()["bytes_written"]
                    self.outcome(all(verdict.values()),
                                 f"validate {key}: {verdict}")
                    expected = dict(result.halide_sources)
                    if self.corrupt and rounds == 0 and index == 0:
                        expected = {name: source + "/* wrong */"
                                    for name, source in expected.items()}
                    del result
                    self._reload(key, store.root, expected)
                finally:
                    shutil.rmtree(store.root, ignore_errors=True)
            rounds += 1
            if self.smoke or time.perf_counter() - start >= self.seconds:
                break
        self.rounds = rounds

    def _reload(self, key, root, expected: dict) -> None:
        from repro.core.session import lift_scenario
        from repro.ir import clear_canonicalize_cache
        from repro.store import ArtifactStore

        reloads = 1 if self.smoke or self.tracer is None else self.RELOADS
        for attempt in range(reloads):
            # Same start state for every attempt: otherwise full collections
            # fall on the same attempts each time and bias the A/B pairs.
            clear_canonicalize_cache()
            self.collect_garbage()
            store = ArtifactStore(root)
            traced = attempt % 2 == 1
            try:
                with self.op("reload", traced) as op_id:
                    began = time.perf_counter()
                    again = lift_scenario(*key, seed=self.lift_seed,
                                          store=store)
                    seconds = time.perf_counter() - began
            except Exception as exc:
                self.outcome(False, f"reload {key}: {exc!r}")
                continue
            self.reload[key].append(seconds)
            self.reload_ab[key][int(traced)].append(seconds)
            if traced:
                self.reload_ops[key].append(op_id)
            self.bytes_read[key] = store.stats()["bytes_read"]
            self.outcome(dict(again.halide_sources) == expected,
                         f"reload {key} differs from its cold lift")
            del again

    # -- metrics -------------------------------------------------------------

    def lift_s(self, times=None) -> float:
        """The drawn set's median cold lifts, summed (CPU seconds by default)."""
        times = self.cold if times is None else times
        return sum(median(values) for values in times.values() if values)

    def warm_load(self) -> float:
        """The drawn set reloaded from the store its cold lifts wrote."""
        return sum(median(times) for times in self.reload.values() if times)

    def end_to_end(self) -> dict:
        times = [t for values in self.cold_scaled.values() for t in values]
        return {
            "op_ms": geomean(median(v) * 1e3
                             for v in self.cold_scaled.values() if v),
            "ops_per_s": len(times) / sum(times) if times else 0.0,
        }

    def report(self) -> list[str]:
        rows = [f"lift_s={self.lift_s():.4f} (CPU) host-normalised="
                f"{self.lift_s(self.cold_scaled):.4f} lift_wall_s="
                f"{self.lift_s(self.cold_wall):.4f} rounds={self.rounds} "
                f"lift_seed={self.lift_seed}"]
        for family, key in self.drawn:
            rows.append(f"  {family:15s} {key[0]}/{key[1]:14s} cold_cpu_s="
                        f"{[round(t, 3) for t in self.cold[key]]} cold_wall_s="
                        f"{[round(t, 3) for t in self.cold_wall[key]]} reload_s="
                        f"{round(median(self.reload[key]), 4) if self.reload[key] else '-'}")
        return rows

    def per_layer(self) -> dict:
        layers = {}
        for stage in LIFT_STAGES:
            layers[f"core.{stage}_s"] = sum(
                self.layer_median(f"core.{stage}", ops)
                for ops in self.cold_ops.values())
        layers["core.validate_s"] = sum(
            self.layer_median("core.validate", ops)
            for ops in self.validate_ops.values())
        for family, key in self.drawn:
            layers[f"lift.{family}_s"] = median(self.cold[key]) \
                if self.cold[key] else 0.0
        layers["x86.instrumented_runs"] = float(np.mean(self.runs_per_lift)) \
            if self.runs_per_lift else 0.0
        layers["dynamo.trace_records"] = float(sum(self.records.values()))
        layers["store.put_s"] = sum(self.layer_median("store.put", ops)
                                    for ops in self.cold_ops.values())
        layers["store.bytes_written"] = float(sum(self.bytes_written.values()))
        layers["store.get_s"] = sum(self.layer_median("store.get", ops)
                                    for ops in self.reload_ops.values())
        layers["store.bytes_read"] = float(sum(self.bytes_read.values()))
        # Overhead from the A/B reloads: every layer a warm lift touches is
        # wrapped, so it is the densest-traced operation of this workload.
        ratios = [median(on) / median(off)
                  for off, on in self.reload_ab.values() if on and off]
        layers["trace.overhead_pct"] = (geomean(ratios) - 1) * 100 \
            if ratios else 0.0
        return layers


# ---------------------------------------------------------------------------
# apply-large
# ---------------------------------------------------------------------------


class ApplyLargeWorkload(Workload):
    """Full-size frames through every lifted-kernel family, plus the fig 8 chain.

    Rounds repeat the rows in a seeded order, each row running a block of
    consecutive frames (interleaving single frames distorts the cheap rows),
    until ``--seconds`` have passed at the end of a round, so each row's
    median samples the whole run.  Every row gets the same
    number of frames: ``ops_per_s`` weighs rows by their cost while
    ``op_ms`` weighs them equally.  Both scale each block's frames by the
    ``HostSpeed`` samples taken right before and after the block.
    """

    name = "apply-large"
    WIDTH, HEIGHT = 1920, 1280
    #: miniGMG's natural unit of work: one 64^3 box (plus ghost zones).
    BOX = 64
    MG_ITERATIONS = 4
    CHAIN = ("blur", "invert", "sharpen_more")
    POOL = 3
    CALIBRATION = "numpy"
    #: Consecutive frames per row before the next row runs.
    BLOCK = 4
    ROWS = APPLY_ROWS
    SCENARIOS = (("photoshop", "blur"), ("photoshop", "invert"),
                 ("photoshop", "equalize"), ("photoshop", "column_sum"),
                 ("photoshop", "sharpen_more"), ("irfanview", "blur"),
                 ("minigmg", "smooth"))

    def prepare(self) -> None:
        from repro.apps.irfanview import FILTER_SPECS as IV_SPECS
        from repro.apps.minigmg import SMOOTH_SPEC
        from repro.kgen import reference_float_conv
        from repro.rejuvenation import legacy_minigmg_smooth, photoshop_reference

        width, height, box = (self.WIDTH, self.HEIGHT, self.BOX)
        if self.smoke:
            width, height, box = 64, 48, 8
        rng = self.rng
        self.planes = [{c: rng.integers(0, 256, (height, width), dtype=np.uint8)
                        for c in "rgb"} for _ in range(self.POOL)]
        self.images = [rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
                       for _ in range(self.POOL)]
        self.grids = [rng.uniform(-1.0, 1.0, (box + 2,) * 3)
                      for _ in range(self.POOL)]
        refs = {row: [] for row in self.ROWS}
        for planes in self.planes:
            for name in ("blur", "invert"):
                refs[f"photoshop.{name}"].append(
                    photoshop_reference(name, planes))
            refs["photoshop.equalize"].append({"r": np.bincount(
                planes["r"].ravel(), minlength=256).astype(np.uint32)})
            refs["photoshop.column_sum"].append({"r": planes["r"].sum(
                axis=0, dtype=np.uint64).astype(np.uint32)})
            chained = {"r": planes["r"]}
            for name in self.CHAIN:
                chained = photoshop_reference(name, chained)
            refs["chain"].append(chained["r"])
        for image in self.images:
            padded = np.pad(image, ((1, 1), (1, 1), (0, 0)), mode="edge")
            flat = padded.reshape(padded.shape[0], -1)
            refs["irfanview.blur"].append(
                reference_float_conv(IV_SPECS["blur"], flat).reshape(image.shape))
        for grid in self.grids:
            refs["minigmg.smooth"].append(legacy_minigmg_smooth(
                grid, SMOOTH_SPEC.center_weight, SMOOTH_SPEC.neighbor_weight,
                self.MG_ITERATIONS))
        if self.corrupt:
            for expected in refs["photoshop.invert"]:
                expected["r"][0, 0] ^= 0xFF
        self.refs = refs
        self.times = {row: [] for row in self.ROWS}
        self.scaled = {row: [] for row in self.ROWS}
        self.frame_ops = {row: [] for row in self.ROWS}
        self.traced_times = {row: ([], []) for row in self.ROWS}

    def setup(self) -> None:
        from repro.halide import FuncPipeline

        reset_compile_caches()
        self.results = None                    # drop the previous repetition
        began = time.perf_counter()
        self.results = warm_lift(self.SCENARIOS)
        self.warm_loads.append(time.perf_counter() - began)
        # The fig 8 chain, default-scheduled, on the red plane.
        self.chain = FuncPipeline()
        for name in self.CHAIN:
            result = self.results[("photoshop", name)]
            kernel = sorted(result.kernels, key=lambda k: k.output)[0]
            self.chain.add(result.funcs[kernel.output],
                           input_name=sorted(kernel.input_names)[0],
                           pad=1 if name in ("blur", "sharpen_more") else 0,
                           name=name)
        for row in self.ROWS:
            self.apply(row, 0)

    def apply(self, row: str, index: int):
        from repro.rejuvenation import (
            apply_lifted_irfanview, apply_lifted_minigmg, apply_lifted_photoshop)

        if row == "chain":
            return self.chain.realize(self.planes[index]["r"])
        app, name = row.split(".")
        result = self.results[(app, name)]
        if app == "photoshop":
            return apply_lifted_photoshop(result, name, self.planes[index])
        if app == "irfanview":
            return apply_lifted_irfanview(result, name, self.images[index])
        return apply_lifted_minigmg(result, self.grids[index],
                                    self.MG_ITERATIONS)

    def check(self, row: str, index: int, output) -> bool:
        expected = self.refs[row][index]
        if row == "minigmg.smooth":
            return bool(np.allclose(output, expected, rtol=1e-12, atol=1e-12))
        if isinstance(expected, dict):
            return all(np.array_equal(output[c], expected[c]) for c in expected)
        return bool(np.array_equal(output, expected))

    def measure(self) -> None:
        start = time.perf_counter()
        rounds = 0
        while True:
            for position in self.rng.permutation(len(self.ROWS)):
                self._block(self.ROWS[position], rounds)
            rounds += 1
            if self.smoke or time.perf_counter() - start >= self.seconds:
                break
        self.frames_per_row = rounds * (1 if self.smoke else self.BLOCK)

    def _block(self, row: str, block: int) -> None:
        before = self.speed.sample()
        done = len(self.times[row])
        for frame in range(1 if self.smoke else self.BLOCK):
            index = int(self.rng.integers(self.POOL))
            # Alternate which frames of a block are traced, so the first
            # (coldest) frame of a block falls on both sides equally.
            traced = self.tracer is not None and (block + frame) % 2 == 1
            try:
                with self.op("frame", traced) as op_id:
                    began = time.perf_counter()
                    output = self.apply(row, index)
                    seconds = time.perf_counter() - began
            except Exception as exc:
                self.outcome(False, f"{row}: {exc!r}")
                continue
            self.times[row].append(seconds)
            if self.tracer is not None:
                self.traced_times[row][int(traced)].append(seconds)
            if traced:
                self.frame_ops[row].append(op_id)
            self.outcome(self.check(row, index, output),
                         f"{row} frame differs from reference")
        scale = self.speed.scale(before, self.speed.sample())
        self.scaled[row].extend(t * scale for t in self.times[row][done:])

    def end_to_end(self, times=None) -> dict:
        """Host-normalised by default; ``times=self.times`` gives raw ones."""
        times = self.scaled if times is None else times
        flat = [t for values in times.values() for t in values]
        return {
            "op_ms": geomean(median(v) * 1e3 for v in times.values() if v),
            "ops_per_s": len(flat) / sum(flat) if flat else 0.0,
        }

    def report(self) -> list[str]:
        pixels = {"minigmg.smooth": self.grids[0][1:-1, 1:-1, 1:-1].size}
        total_mpix = sum(len(self.times[row]) * pixels.get(
            row, self.planes[0]["r"].size) for row in self.ROWS) / 1e6
        seconds = sum(sum(v) for v in self.times.values())
        rows = [f"frames_per_row={self.frames_per_row} "
                f"frame_ms={self.end_to_end(self.times)['op_ms']:.4f} "
                f"mpix_per_s={total_mpix / seconds if seconds else 0:.4f}"]
        for row in self.ROWS:
            if self.times[row]:
                rows.append(f"  {row:22s} median_ms="
                            f"{median(self.times[row]) * 1e3:.3f}")
        return rows

    def per_layer(self) -> dict:
        layers = {}
        traced_frames = [op for ops in self.frame_ops.values() for op in ops]
        for row in self.ROWS:
            on = self.traced_times[row][1]
            layers[f"apply.{row}_ms"] = median(on) * 1e3 if on else 0.0
        layers["rejuvenation.request_ms"] = self.layer_median(
            "rejuvenation.request", traced_frames, 1e3)
        layers["halide.realize_ms"] = self.layer_median(
            "halide.realize", traced_frames, 1e3)
        layers["halide.kernel_lookup_ms"] = self.layer_median(
            "halide.compile", traced_frames, 1e3)
        ratios = [median(on) / median(off)
                  for off, on in self.traced_times.values() if on and off]
        layers["trace.overhead_pct"] = (geomean(ratios) - 1) * 100 \
            if ratios else 0.0
        return layers

    def frame_count(self) -> int:
        return sum(len(v) for v in self.times.values())


# ---------------------------------------------------------------------------
# serve-small
# ---------------------------------------------------------------------------


class ServeSmallWorkload(Workload):
    """Small frames through ``PipelineServer``s built as ``serve_lifted`` does.

    An open-loop phase sends seeded requests at a fixed rate (about a tenth
    of capacity on a 2-vCPU host) from one generator thread, each request
    built through the rejuvenation layer and submitted with a deadline;
    latency runs from each request's due time to its completion.  A
    closed-loop ``realize_batch`` phase on the same servers then measures
    throughput.  At this size per-request overhead, not kernel work,
    dominates.  Closed-loop batches are scaled by the ``HostSpeed`` samples
    that bracket them, taken every ``SAMPLE_EVERY_S``; open-loop latency,
    mostly thread wake-up, by the ``wakeup`` samples that bracket each of
    its ``OPEN_SEGMENTS`` parts.

    The run is pinned to one CPU.  With both vCPUs of a 2-vCPU VM busy,
    hypervisor steal rose to 5-15% and explained most of the run-to-run
    spread (median latency 1.6 ms at under 1% steal, 2.5-3.8 ms at 8-15%).
    Pinned, the ten-seed spread of throughput fell from 0.20 to 0.08 and
    throughput rose from about 2100 to 2800 frames/s: on one CPU the pool
    workers stop handing the interpreter lock across CPUs.  So its latency
    and throughput are one-CPU figures: the pool is still sized from
    ``os.cpu_count()``, and a change to pool sizing or thread affinity will
    not show here as it would on an unpinned server.
    """

    name = "serve-small"
    WIDTH, HEIGHT = 320, 240
    KERNELS = (("photoshop", "invert"), ("photoshop", "blur"),
               ("photoshop", "brightness"))
    SCENARIOS = KERNELS
    RATE = 200.0                  # requests per second, open loop
    OPEN_SHARE = 0.4              # of --seconds; the rest is closed loop
    OPEN_SEGMENTS = 4             # wakeup samples between open-loop parts
    #: Closed-loop batches per second of its share of --seconds: this mix
    #: runs 40-60 a second, checks included, on one 2 GHz Xeon vCPU.  A fixed
    #: count, not a deadline, because peak RSS grows with the batches run
    #: (garbage waits for full collections) and the rate moves with the host.
    BATCHES_PER_S = 48
    SAMPLE_EVERY_S = 0.5          # HostSpeed samples in the closed loop
    BATCH = 32
    POOL = 16

    def prepare(self) -> None:
        from repro.rejuvenation import photoshop_reference

        # Before any server thread starts: threads inherit the mask.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
        width, height = (64, 48) if self.smoke else (self.WIDTH, self.HEIGHT)
        self.frames = [self.rng.integers(0, 256, (height, width),
                                         dtype=np.uint8)
                       for _ in range(self.POOL)]
        self.refs = {key: [photoshop_reference(key[1], {"r": f})["r"]
                           for f in self.frames] for key in self.KERNELS}
        if self.corrupt:
            for expected in self.refs[self.KERNELS[0]]:
                expected[0, 0] ^= 0xFF
        self.servers = {}
        self.latency: dict = {key: [] for key in self.KERNELS}
        self.busy: list[float] = []
        self.wait: list[float] = []
        self.late: list[float] = []
        self.request_ops: list[int] = []
        self.traced_latency: tuple = ([], [])
        self.batch_fps: dict = {key: [] for key in self.KERNELS}
        self.batch_fps_raw: dict = {key: [] for key in self.KERNELS}
        self.batch_frames = 0
        self.latency_scaled: dict = {key: [] for key in self.KERNELS}
        # Created after the pinning above, so its thread shares the CPU.
        self.wakeup = HostSpeed("wakeup")

    def setup(self) -> None:
        from repro.halide import PipelineServer
        from repro.rejuvenation import make_serve_requests

        reset_compile_caches()
        self._close_servers()
        self.results = None
        began = time.perf_counter()
        self.results = warm_lift(self.KERNELS)
        self.warm_loads.append(time.perf_counter() - began)
        for key in self.KERNELS:
            func, requests = make_serve_requests(self.results[key],
                                                 self.frames[:1])
            frame_shape = tuple(reversed(requests[0]["shape"]))
            self.servers[key] = PipelineServer(func, frame_shape=frame_shape,
                                               warm_start=True)
        for key, server in self.servers.items():
            _, requests = make_serve_requests(self.results[key],
                                              self.frames[:4])
            for future in [server.submit(**r) for r in requests]:
                future.result()

    def _close_servers(self) -> None:
        for server in self.servers.values():
            server.close(wait=True)
        self.servers = {}

    def close(self) -> None:
        self._close_servers()
        self.wakeup.close()

    def _server_stats(self) -> dict:
        keys = ("deadline_exceeded", "retries", "degraded")
        return {k: sum(s.stats()[k] for s in self.servers.values())
                for k in keys}

    def measure(self) -> None:
        self.stats_before = self._server_stats()
        self._open_loop()
        self._closed_loop()
        self.stats_after = self._server_stats()

    def _open_loop(self) -> None:
        from repro.rejuvenation import make_serve_requests
        from repro.reliability.policy import DeadlineExceeded

        seconds = 0.5 if self.smoke else self.seconds * self.OPEN_SHARE
        count = max(20, int(self.RATE * seconds))
        plan = list(zip(self.rng.integers(len(self.KERNELS), size=count),
                        self.rng.integers(self.POOL, size=count)))
        done_at = [math.inf] * count
        pending: deque = deque()

        def completion(index):
            def record(_future):
                done_at[index] = time.perf_counter()
            return record

        def verify(block: bool, until: float = math.inf) -> None:
            while pending and (block or pending[0][3].done()) \
                    and time.perf_counter() < until:
                index, key, frame, future, due, traced = pending.popleft()
                try:
                    output, busy = future.result(timeout=DEADLINE_S * 5)
                except Exception as exc:
                    self.latency[key].append(math.inf)
                    self.outcome(False, f"request {index}: {exc!r}",
                                 wrong=not isinstance(exc, DeadlineExceeded))
                    continue
                # result() can return just before the done-callback that
                # stamps the completion time has run.
                while math.isinf(done_at[index]):
                    time.sleep(0)
                latency = done_at[index] - due
                self.latency[key].append(latency)
                self.busy.append(busy)
                self.wait.append(latency - busy)
                if self.tracer is not None:
                    self.traced_latency[int(traced)].append(latency)
                self.outcome(bool(np.array_equal(output,
                                                 self.refs[key][frame])),
                             f"request {index} differs from reference")

        segments = 1 if self.smoke else self.OPEN_SEGMENTS
        bounds = [count * part // segments for part in range(segments + 1)]
        before = self.wakeup.sample()
        for part in range(segments):
            done = {key: len(values) for key, values in self.latency.items()}
            start = time.perf_counter() + 0.05
            for index in range(bounds[part], bounds[part + 1]):
                kernel, frame = plan[index]
                due = start + (index - bounds[part]) / self.RATE
                verify(False, until=due - 0.002)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.late.append(time.perf_counter() - due)
                key = self.KERNELS[kernel]
                traced = self.tracer is not None and index % 2 == 1
                try:
                    with self.op("request", traced) as op_id:
                        _, (request,) = make_serve_requests(
                            self.results[key], [self.frames[frame]])
                        future = self.servers[key].submit(
                            **request, deadline=DEADLINE_S)
                except Exception as exc:
                    self.latency[key].append(math.inf)
                    self.outcome(False, f"submit {index}: {exc!r}")
                    continue
                future.add_done_callback(completion(index))
                if traced:
                    self.request_ops.append(op_id)
                pending.append((index, key, frame, future, due, traced))
            verify(True)
            # The next part's schedule starts after this sample, so no
            # request waits for it.
            after = self.wakeup.sample()
            scale = self.wakeup.scale(before, after)
            for key, values in self.latency.items():
                self.latency_scaled[key].extend(t * scale
                                                for t in values[done[key]:])
            before = after

    def _closed_loop(self) -> None:
        from repro.reliability.policy import BatchError
        from repro.rejuvenation import make_serve_requests

        batches = len(self.KERNELS) if self.smoke else round(
            self.seconds * (1 - self.OPEN_SHARE) * self.BATCHES_PER_S)
        last, sampled = self.speed.sample(), time.perf_counter()
        window: dict = {key: [] for key in self.KERNELS}
        for batch in range(batches):
            if time.perf_counter() - sampled >= self.SAMPLE_EVERY_S:
                last = self._scale_window(window, last)
                sampled = time.perf_counter()
            key = self.KERNELS[batch % len(self.KERNELS)]
            picks = self.rng.integers(self.POOL, size=self.BATCH)
            _, requests = make_serve_requests(self.results[key],
                                              [self.frames[i] for i in picks])
            traced = self.tracer is not None and batch % 2 == 1
            try:
                with self.op("batch", traced):
                    result = self.servers[key].realize_batch(
                        requests, deadline=DEADLINE_S)
            except BatchError as exc:
                result = exc.result
            self.batch_frames += len(requests)
            window[key].append(result.frames_per_second)
            for pick, output, error in zip(picks, result.outputs,
                                           result.errors):
                if error is not None:
                    self.outcome(False, f"batch request: {error!r}")
                    continue
                self.outcome(bool(np.array_equal(output, self.refs[key][pick])),
                             "batch output differs from reference")
        self._scale_window(window, last)

    def _scale_window(self, window: dict, before: float) -> float:
        """Scale the batches since the sample ``before`` by it and a new one."""
        after = self.speed.sample()
        scale = self.speed.scale(before, after)
        for key, values in window.items():
            self.batch_fps_raw[key].extend(values)
            self.batch_fps[key].extend(fps / scale for fps in values)
            values.clear()
        return after

    def end_to_end(self) -> dict:
        return {
            "op_ms": geomean(median(v) * 1e3
                             for v in self.latency_scaled.values() if v),
            "ops_per_s": geomean(median(v) for v in self.batch_fps.values()
                                 if v),
        }

    def report(self) -> list[str]:
        latencies = [t for values in self.latency.values() for t in values]
        beyond = sum(1 for t in latencies if t > quantile(latencies, 0.99))
        return [f"requests={len(latencies)} rate={self.RATE}/s "
                f"latency_ms_p50={quantile(latencies, 0.5) * 1e3:.4f} "
                f"latency_ms_p99={quantile(latencies, 0.99) * 1e3:.4f} "
                f"beyond_p99={beyond} "
                f"serve_fps={geomean(median(v) for v in self.batch_fps_raw.values() if v):.2f} "
                f"open_loop_ms_raw={geomean(median(v) * 1e3 for v in self.latency.values() if v):.4f} "
                f"batches={sum(len(v) for v in self.batch_fps.values())}"]

    def per_layer(self) -> dict:
        layers = {}
        submits = self.tracer.durations("serve.submit") if self.tracer else []
        layers["serve.submit_us_p50"] = median(submits) * 1e6
        layers["serve.busy_ms_p50"] = median(self.busy) * 1e3
        layers["serve.wait_ms_p50"] = median(self.wait) * 1e3
        layers["serve.wait_ms_p99"] = quantile(self.wait, 0.99) * 1e3
        layers["serve.latency_ms_p99"] = quantile(
            [t for values in self.latency.values() for t in values], 0.99) * 1e3
        layers["rejuvenation.request_ms"] = self.layer_median(
            "rejuvenation.request", self.request_ops, 1e3)
        for key in ("deadline_exceeded", "retries", "degraded"):
            layers[f"serve.{key}"] = float(self.stats_after[key]
                                           - self.stats_before[key])
        layers["serve.generator_late_ms_p99"] = quantile(self.late, 0.99) * 1e3
        off, on = self.traced_latency
        layers["trace.overhead_pct"] = (median(on) / median(off) - 1) * 100 \
            if on and off else 0.0
        return layers

    def frame_count(self) -> int:
        return len(self.busy) + self.batch_frames


WORKLOADS = {cls.name: cls for cls in
             (LiftWorkload, ApplyLargeWorkload, ServeSmallWorkload)}
