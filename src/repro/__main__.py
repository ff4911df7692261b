"""``python -m repro`` — lift, run, serve and inspect from the command line.

Subcommands::

    python -m repro apps                      # list registered scenarios
    python -m repro lift photoshop blur       # staged lift (store-backed)
    python -m repro run photoshop blur        # lift + apply to a big image
    python -m repro serve photoshop blur      # lift + serve a frame batch
    python -m repro tune photoshop blur       # autotune + persist the winner
    python -m repro cache stats|list|clear    # inspect the artifact store
    python -m repro cache tuning --show       # list persisted tuning records

``lift`` prints the per-stage provenance (store hit, computed, or pending
because nothing read it; seconds; instrumented runs) so the effect of the
artifact store is visible: the second invocation of the same scenario loads
the ``codegen`` and ``buffers`` artifacts alone and makes zero runs.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np


def _store_from_args(args) -> "ArtifactStore | None":
    from .store import ArtifactStore

    if getattr(args, "no_store", False):
        return None
    if getattr(args, "store", None):
        return ArtifactStore(args.store)
    return ArtifactStore()


def _session_from_args(args) -> "LiftSession":
    from .apps.registry import get_scenario
    from .core.session import LiftSession

    scenario = get_scenario(args.app, args.filter)
    store = _store_from_args(args)
    seed = scenario.seed if args.seed is None else args.seed
    return LiftSession(scenario.make_app(), args.filter, seed=seed,
                       store=store, use_store=store is not None)


def _print_table(headers: list[str], rows: list[tuple]) -> None:
    widths = [max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
              if rows else len(str(headers[i])) for i in range(len(headers))]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _frames_for(app_name: str, width: int, height: int, count: int,
                seed: int = 42) -> list[np.ndarray]:
    """Synthetic full-size frames in the app's native layout.

    For miniGMG, ``--width``/``--height`` become the grid's nx/ny (with a
    fixed nz of 16 and one ghost cell per face); the image apps get
    ``height x width`` frames.
    """
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(count):
        if app_name == "minigmg":
            frames.append(rng.uniform(-1.0, 1.0,
                                      size=(18, height + 2, width + 2)))
        elif app_name == "irfanview":
            frames.append(rng.integers(0, 256, size=(height, width, 3),
                                       dtype=np.uint8))
        else:
            frames.append(rng.integers(0, 256, size=(height, width),
                                       dtype=np.uint8))
    return frames


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_apps(args) -> int:
    from .apps.registry import scenarios

    rows = [(s.app_name, s.filter_name, ",".join(s.tags), s.description)
            for s in scenarios(tag=args.tag)]
    _print_table(["app", "filter", "tags", "description"], rows)
    return 0


def cmd_lift(args) -> int:
    session = _session_from_args(args)
    start = time.perf_counter()
    result = session.run()
    seconds = time.perf_counter() - start
    print(f"lifted {args.app}/{args.filter} in {seconds:.3f}s "
          f"({len(result.kernels)} kernel(s))")
    _print_table(["stage", "source", "seconds", "runs", "key"],
                 [report.as_row() for report in session.explain()])
    stats = session.stats()
    bytes_read = session.store.stats()["bytes_read"] if session.store else 0
    print(f"stages: {stats['hits']} loaded, {stats['computed']} computed, "
          f"{stats['pending']} not read ({bytes_read} bytes read); "
          f"instrumented runs: {stats['instrumented_runs']}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    if args.validate:
        verdict = result.validate()
        print("validation:", ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                       for k, v in sorted(verdict.items())))
        if not all(verdict.values()):
            return 1
    if args.cpp:
        for name, source in sorted(result.halide_sources.items()):
            print(f"\n// ---- {name} ----")
            print(source, end="")
    return 0


def cmd_run(args) -> int:
    from .rejuvenation import (
        apply_lifted_irfanview,
        apply_lifted_minigmg,
        apply_lifted_photoshop,
    )

    session = _session_from_args(args)
    result = session.run()
    tile = _parse_tile(args.tile)
    if tile is not None:
        for func in result.funcs.values():
            func.tile(*tile)
    frame = _frames_for(args.app, args.width, args.height, 1)[0]
    start = time.perf_counter()
    if args.app == "photoshop":
        planes = {channel: frame for channel in ("r", "g", "b")}
        output = apply_lifted_photoshop(result, args.filter, planes,
                                        engine=args.engine)["r"]
    elif args.app == "irfanview":
        output = apply_lifted_irfanview(result, args.filter, frame,
                                        engine=args.engine)
    else:
        output = apply_lifted_minigmg(result, frame, iterations=1,
                                      engine=args.engine)
    seconds = time.perf_counter() - start
    print(f"ran lifted {args.app}/{args.filter} on "
          f"{'x'.join(str(s) for s in frame.shape)} in {seconds:.4f}s; "
          f"output shape {'x'.join(str(s) for s in np.asarray(output).shape)}, "
          f"checksum {int(np.asarray(output, dtype=np.float64).sum()) & 0xFFFFFFFF:#010x}")
    print(f"instrumented runs this invocation: "
          f"{session.stats()['instrumented_runs']}")
    if args.explain:
        _explain_kernels(result)
    return 0


def _parse_tile(tile: str | None) -> tuple[int, int] | None:
    if not tile:
        return None
    parts = tile.lower().split("x")
    if len(parts) != 2 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise SystemExit(f"--tile expects WxH (e.g. 128x64), got {tile!r}")
    return (int(parts[0]), int(parts[1]))


def _explain_kernels(result) -> None:
    """Print each lifted kernel's schedule and the loop nest the run executed.

    The nests are the ones :func:`repro.halide.realize.realize` lowered for
    the run above (``lower_func``, at the run's real output and source
    shapes) — the plan that actually ran, pure and reduction Funcs alike.
    """
    from .halide.realize import executed_nests

    print("\nexecution plan:")
    for name in sorted(result.funcs):
        func = result.funcs[name]
        print(f"  {name}: schedule [{func.schedule.describe()}], "
              f"mode {func.execution_mode()}")
        nests = executed_nests(func)
        if not nests:
            print("    (not realized by this run)")
        for out_shape, source_shape, nest in nests:
            source = "" if source_shape is None \
                else f", source {list(source_shape)}"
            print(f"    loop nest over output {list(out_shape)}{source}:")
            for line in nest.pretty().splitlines():
                print(f"      {line}")


def cmd_serve(args) -> int:
    from .rejuvenation.serving import serve_lifted

    from .reliability import BatchError

    session = _session_from_args(args)
    result = session.run()
    frames = _frames_for(args.app, args.width, args.height, args.frames)
    try:
        batch = serve_lifted(result, frames, engine=args.engine,
                             deadline=args.timeout, retries=args.retries)
    except BatchError as error:
        batch = error.result
        if batch is None:
            raise
        for index, request_error in enumerate(batch.errors):
            if request_error is not None:
                print(f"frame {index} failed: "
                      f"{type(request_error).__name__}: {request_error}")
    served = (f"{len(batch.outputs) - batch.failed}/{len(batch.outputs)}"
              if batch.failed else f"{len(batch.outputs)}")
    print(f"served {served} frame(s) of {args.app}/{args.filter} "
          f"in {batch.wall_seconds:.4f}s "
          f"({batch.frames_per_second:.1f} frames/s)")
    busy = sum(batch.request_seconds)
    print(f"busy {busy:.4f}s across workers, "
          f"mean {busy / max(len(batch.outputs), 1):.4f}s/frame, "
          f"instrumented runs: {session.stats()['instrumented_runs']}")
    return 1 if batch.failed else 0


def cmd_tune(args) -> int:
    """Autotune one lifted kernel and persist the winner in the store.

    Lifts (or loads) the scenario, builds the same realization request
    ``serve`` would issue for one synthetic frame, and runs the cost-model
    autotuner on it.  With a store (the default), the result lands in the
    ``tuning/`` stage so later ``serve`` invocations — and any
    ``PipelineServer(frame_shape=...)`` — warm-start with the measured best
    schedule at zero timing cost.
    """
    from .halide.autotune import autotune
    from .rejuvenation.serving import make_serve_requests

    session = _session_from_args(args)
    result = session.run()
    frame = _frames_for(args.app, args.width, args.height, 1)[0]
    func, requests = make_serve_requests(result, [frame])
    request = requests[0]
    store = _store_from_args(args)
    start = time.perf_counter()
    tuned = autotune(func, request["shape"], request["buffers"],
                     params=request.get("params"),
                     iterations=args.iterations, seed=args.rng_seed,
                     engine=args.engine, top_k=args.top_k, store=store,
                     reuse=not args.force)
    seconds = time.perf_counter() - start
    print(f"tuned {args.app}/{args.filter} at {args.width}x{args.height} "
          f"in {seconds:.3f}s (source: {tuned.source}): "
          f"best [{tuned.best_schedule.describe()}] "
          f"{tuned.best_time * 1e3:.3f}ms, "
          f"{tuned.evaluations} timed evaluation(s)")
    if tuned.ranked:
        rows = [(rank + 1, f"{score.cost:.0f}", score.demotions,
                 "; ".join(score.describe))
                for rank, score in enumerate(tuned.ranked[:10])]
        _print_table(["rank", "model cost", "demotions", "schedule"], rows)
    if store is not None:
        from .halide.tuningdb import (func_workload, machine_fingerprint,
                                      tuning_key)

        # The key autotune stored the record under: its machine fingerprint
        # names the engine it tuned for.
        np_shape = tuple(reversed(request["shape"]))
        key = tuning_key(func_workload(func, np_shape),
                         machine_fingerprint(args.engine))
        print(f"record: tuning/{key.digest[:12]} in {store.root}")
    return 0


def cmd_cache(args) -> int:
    from .store import ArtifactStore, manifest_is_current

    store = ArtifactStore(args.store) if args.store else ArtifactStore()
    if args.action == "tuning":
        from .halide.tuningdb import TuningDatabase

        db = TuningDatabase(store)
        if args.evict:
            removed = db.evict()
            print(f"evicted {removed} tuning record(s) from {store.root}")
            return 0
        entries = db.entries()
        rows = []
        for manifest in entries:
            key = manifest.get("key", {})
            machine = key.get("machine", {})
            workload = key.get("workload", ["?"])
            kind = workload[0] if workload else "?"
            label = workload[1] if len(workload) > 1 else "?"
            if isinstance(label, list):
                label = "x".join(str(d) for d in label)
            rows.append((kind, label, manifest["digest"][:12],
                         f"{machine.get('machine', '?')}/"
                         f"{machine.get('cpus', '?')}cpu",
                         manifest["size_bytes"]))
        print(f"tuning records: {len(rows)} in {store.root}")
        _print_table(["kind", "workload", "key", "machine", "bytes"], rows)
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    if args.action == "quarantine":
        if args.clear:
            removed = store.clear_quarantine()
            print(f"removed {removed} quarantined file(s) from "
                  f"{store.quarantine_root}")
            return 0
        records = store.quarantine_entries()
        print(f"quarantine: {store.quarantine_root} "
              f"({len(records)} file(s), "
              f"{store.stats()['quarantined']} quarantined this session)")
        _print_table(["name", "bytes"],
                     [(r["name"], r["size_bytes"]) for r in records])
        return 0
    if args.action == "prune":
        from .core.stages import STAGE_VERSIONS, STAGES
        from .halide.tuningdb import tuning_manifest_is_current

        # Tuning records live outside the lift-stage version chain; they are
        # current under their own version test, not stale interlopers.
        removed = store.prune(
            lambda manifest: manifest_is_current(manifest, STAGE_VERSIONS,
                                                 STAGES)
            or tuning_manifest_is_current(manifest))
        kept = len(store.entries())
        print(f"pruned {removed} stale artifact(s) from {store.root} "
              f"({kept} current kept)")
        return 0
    entries = store.entries()
    if args.action == "list":
        rows = [(m["stage"], m["digest"][:12],
                 m["key"].get("app", {}).get("app", "?"),
                 m["key"].get("filter", "?"), m["key"].get("seed", "?"),
                 m["size_bytes"]) for m in entries]
        _print_table(["stage", "key", "app", "filter", "seed", "bytes"], rows)
        return 0
    by_stage: dict[str, int] = {}
    for manifest in entries:
        by_stage[manifest["stage"]] = by_stage.get(manifest["stage"], 0) + 1
    print(f"store: {store.root}")
    print(f"artifacts: {len(entries)} ({store.size_bytes()} bytes)")
    for stage, count in sorted(by_stage.items()):
        print(f"  {stage}: {count}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("app", help="application name (see `repro apps`)")
    parser.add_argument("filter", help="filter name (see `repro apps`)")
    parser.add_argument("--seed", type=int, default=None,
                        help="lift seed (default: the scenario's)")
    parser.add_argument("--store", default=None,
                        help="artifact store directory (default: "
                             "$REPRO_STORE_DIR or ./.repro_store)")
    parser.add_argument("--no-store", action="store_true",
                        help="force a cold lift, bypassing the store")


def build_parser() -> argparse.ArgumentParser:
    from .halide.realize import ENGINES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Lift, run and serve kernels from the simulated legacy apps.")
    commands = parser.add_subparsers(dest="command", required=True)

    apps = commands.add_parser("apps", help="list registered (app, filter) scenarios")
    apps.add_argument("--tag", default=None, help="only scenarios with this tag")
    apps.set_defaults(fn=cmd_apps)

    lift = commands.add_parser("lift", help="staged lift with per-stage provenance")
    _add_scenario_args(lift)
    lift.add_argument("--validate", action="store_true",
                      help="replay the lifted kernels against the traced run")
    lift.add_argument("--cpp", action="store_true",
                      help="print the generated Halide C++ sources")
    lift.set_defaults(fn=cmd_lift)

    run = commands.add_parser("run", help="lift (or load) and apply to one frame")
    _add_scenario_args(run)
    run.add_argument("--width", type=int, default=640)
    run.add_argument("--height", type=int, default=480)
    run.add_argument("--engine", default=None, choices=ENGINES)
    run.add_argument("--explain", action="store_true",
                     help="print each kernel's schedule and lowered loop nest")
    run.add_argument("--tile", default=None, metavar="WxH",
                     help="tile every lifted kernel for this run (e.g. "
                          "128x64; a reduction's RDom strip height is H)")
    run.set_defaults(fn=cmd_run)

    serve = commands.add_parser(
        "serve", help="lift (or load) and serve a batch through PipelineServer")
    _add_scenario_args(serve)
    serve.add_argument("--frames", type=int, default=8)
    serve.add_argument("--width", type=int, default=640)
    serve.add_argument("--height", type=int, default=480)
    serve.add_argument("--engine", default=None, choices=ENGINES)
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-frame deadline; late frames resolve with "
                            "DeadlineExceeded instead of blocking the batch")
    serve.add_argument("--retries", type=int, default=None,
                       help="retry budget for transient per-frame failures "
                            "(default: no retries)")
    serve.set_defaults(fn=cmd_serve)

    tune = commands.add_parser(
        "tune", help="autotune a lifted kernel; persist the winner for "
                     "warm-started serving")
    _add_scenario_args(tune)
    tune.add_argument("--width", type=int, default=640)
    tune.add_argument("--height", type=int, default=480)
    tune.add_argument("--iterations", type=int, default=12,
                      help="candidate schedules to sample (default: 12)")
    tune.add_argument("--top-k", type=int, default=5,
                      help="sampled candidates to wall-clock-time after "
                           "cost-model ranking (default: 5)")
    tune.add_argument("--rng-seed", type=int, default=0,
                      help="candidate sampling seed (default: 0)")
    tune.add_argument("--engine", default=None, choices=ENGINES)
    tune.add_argument("--force", action="store_true",
                      help="retune even when a stored record matches")
    tune.set_defaults(fn=cmd_tune)

    cache = commands.add_parser(
        "cache", help="inspect, prune or clear the artifact store")
    cache.add_argument("action", nargs="?", default="stats",
                       choices=("stats", "list", "clear", "prune",
                                "quarantine", "tuning"))
    cache.add_argument("--store", default=None)
    cache.add_argument("--clear", action="store_true",
                       help="with `quarantine`: delete the quarantined blobs")
    cache.add_argument("--show", action="store_true",
                       help="with `tuning`: list records (the default)")
    cache.add_argument("--evict", action="store_true",
                       help="with `tuning`: delete every tuning record")
    cache.set_defaults(fn=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
