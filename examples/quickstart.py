"""Quickstart: lift Photoshop's blur filter from its "stripped binary".

This walks the complete Helium workflow on the simulated Photoshop
application: five instrumented runs (two for coverage differencing, one for
profiling + memory tracing, one detailed instruction trace), expression
extraction, symbolic lifting and Halide code generation — then validates the
lifted kernel bit-for-bit against the original program's output, realizes it
at scale with a parallel tiled schedule, and serves a batch of frames through
the batched realization service.  Exits non-zero when a printed verdict
fails (a ``MISMATCH`` or ``bit-identical: False``).

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

import sys
import time

import numpy as np

from repro.apps import PhotoshopApp
from repro.core import lift_filter
from repro.halide import FuncPipeline, pool_size


def main() -> int:
    app = PhotoshopApp(width=16, height=12, seed=3)
    print("Lifting Photoshop 'blur' from the simulated stripped binary ...")
    result = lift_filter(app, "blur")

    stats = result.statistics()
    print("\n-- code localization --")
    print(f"basic blocks executed:        {stats['total_blocks']}")
    print(f"blocks after coverage diff:   {stats['diff_blocks']}")
    print(f"blocks in filter function:    {stats['filter_function_blocks']}")
    print(f"static instructions:          {stats['static_instructions']}")

    print("\n-- expression extraction --")
    print(f"dynamic instructions traced:  {stats['dynamic_instructions']}")
    print(f"memory dump:                  {stats['memory_dump_bytes']} bytes")
    print(f"concrete trees:               {len(result.concrete_trees)}")
    print(f"output buffers lifted:        {stats['outputs']}")

    kernel = result.kernels[0]
    print("\n-- lifted symbolic kernel (one colour plane) --")
    print(result.funcs[kernel.output])

    print("\n-- generated Halide C++ --")
    print(result.halide_sources[kernel.output])

    verdict = result.validate()
    print("-- validation against the original binary --")
    for buffer_name, ok in verdict.items():
        print(f"{buffer_name}: {'bit-identical' if ok else 'MISMATCH'}")

    # -- parallel scheduling: realize the lifted kernel at scale ------------
    func = result.funcs[kernel.output]
    pipeline = FuncPipeline().add(func, input_name=sorted(kernel.input_names)[0],
                                  pad=1)
    frame = np.random.default_rng(0).integers(0, 256, size=(640, 960),
                                              dtype=np.uint8)

    serial_out = pipeline.realize(frame)            # warm the kernel cache
    start = time.perf_counter()
    serial_out = pipeline.realize(frame)
    serial_ms = (time.perf_counter() - start) * 1000

    func.tile(128, 64).parallel()
    parallel_out = pipeline.realize(frame)          # pay codegen once
    start = time.perf_counter()
    parallel_out = pipeline.realize(frame)
    parallel_ms = (time.perf_counter() - start) * 1000

    print(f"\n-- parallel tiled realization (960x640, {pool_size()} workers) --")
    print(f"schedule:                     {func.schedule.describe()}")
    print(f"execution mode:               {func.execution_mode()}")
    print(f"serial realization:           {serial_ms:.1f} ms")
    print(f"parallel realization:         {parallel_ms:.1f} ms")
    identical = bool((serial_out == parallel_out).all())
    print(f"bit-identical:                {identical}")

    # -- batched serving: many frames through one compiled pipeline --------
    frames = [np.roll(frame, shift, axis=0) for shift in range(8)]
    batch = pipeline.realize_batch(frames)
    print(f"\n-- batched realization ({len(frames)} frames) --")
    print(f"wall time:                    {batch.wall_seconds * 1000:.1f} ms")
    print(f"throughput:                   {batch.frames_per_second:.1f} frames/sec")
    return 0 if all(verdict.values()) and identical else 1


if __name__ == "__main__":
    sys.exit(main())
