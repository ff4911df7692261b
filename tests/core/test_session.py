"""LiftSession behaviour: warm lifts, resume, provenance and determinism."""

import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest

from repro.apps.base import app_run_count
from repro.apps.registry import get_scenario
from repro.core import lift_filter
from repro.core.session import LiftSession
from repro.core.stages import STAGES
from repro.store import ArtifactStore, dumps_artifact, loads_artifact


def make_session(store, filter_name="invert", seed=0):
    scenario = get_scenario("photoshop", filter_name)
    return LiftSession(scenario.make_app(), filter_name, seed=seed, store=store)


def blob_sizes(store, session, stages):
    return sum(store.blob_path(session.key_for(stage)).stat().st_size
               for stage in stages)


class TestWarmPath:
    def test_warm_lift_performs_zero_instrumented_runs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = make_session(store)
        runs_before = app_run_count()
        cold_result = cold.run()
        assert app_run_count() - runs_before == 4  # the instrumented workflow

        warm_store = ArtifactStore(tmp_path)
        warm = make_session(warm_store)
        runs_before = app_run_count()
        warm_result = warm.run()
        assert app_run_count() - runs_before == 0
        stats = warm.stats()
        assert stats["computed"] == 0 and stats["instrumented_runs"] == 0
        loaded = {r.stage for r in warm.explain() if r.source == "hit"}
        assert loaded == {"buffers", "codegen"}
        assert {r.source for r in warm.explain()
                if r.stage not in loaded} == {"pending"}
        assert warm_store.stats()["bytes_read"] == \
            blob_sizes(store, warm, loaded)

        assert warm_result.halide_sources == cold_result.halide_sources
        for name, produced in warm_result.realize_outputs().items():
            np.testing.assert_array_equal(produced,
                                          cold_result.realize_outputs()[name])

    def test_store_differentiates_seeds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        make_session(store, seed=0).run()
        runs_before = app_run_count()
        make_session(store, seed=1).run()
        assert app_run_count() - runs_before == 4, \
            "a different seed must never hit the other seed's artifacts"

    def test_lift_filter_accepts_a_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = get_scenario("photoshop", "invert")
        lift_filter(scenario.make_app(), "invert", store=store)
        runs_before = app_run_count()
        result = lift_filter(scenario.make_app(), "invert", store=store)
        assert app_run_count() - runs_before == 0
        assert all(result.validate().values())


def assert_same(a, b, path="result"):
    """Structural equality: dataclass fields, containers and arrays, and the
    attributes of plain objects (a ``DynamicCFG`` compares by identity)."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name),
                        f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_same(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{index}]")
    elif type(a).__eq__ is object.__eq__ and hasattr(a, "__dict__"):
        assert_same(vars(a), vars(b), path)
    else:
        assert a == b, path


DEFERRED = ("localization", "trace", "trace_run", "forward",
            "concrete_trees", "warnings")


@pytest.fixture(scope="module")
def brightness_store(tmp_path_factory):
    """A store holding one cold photoshop/brightness lift, and that lift."""
    store = ArtifactStore(tmp_path_factory.mktemp("store"))
    return store, make_session(store, "brightness").run()


class TestDeferredFields:
    """A warm result reads its traces and trees from the store on first use
    and then equals the cold result."""

    def test_fields_equal_the_cold_lift(self, brightness_store):
        store, cold = brightness_store
        session = make_session(ArtifactStore(store.root), "brightness")
        runs_before = app_run_count()
        warm = session.run()
        assert not any(name in vars(warm) for name in DEFERRED)
        for name in DEFERRED:
            assert_same(getattr(warm, name), getattr(cold, name), name)
        assert warm.statistics() == cold.statistics()
        assert warm.validate() == cold.validate()
        assert all(warm.validate().values())
        assert app_run_count() - runs_before == 0
        sources = {r.stage: r.source for r in session.explain()}
        assert sources == {"coverage": "pending", "screen": "pending",
                           "localize": "hit", "trace": "hit",
                           "forward": "hit", "buffers": "hit",
                           "trees": "hit", "codegen": "hit"}
        assert "_session" not in vars(warm)   # every field read

    def test_concurrent_first_reads_load_the_trace_once(self,
                                                        brightness_store):
        from repro.rejuvenation.lifted import (kernel_inputs,
                                               photoshop_kernel_request)

        store, _ = brightness_store
        stages_read = []

        class CountingStore(ArtifactStore):
            def get(self, key):
                stages_read.append(key.stage)
                return super().get(key)

        warm = make_session(CountingStore(store.root), "brightness").run()
        assert sorted(stages_read) == ["buffers", "codegen"]
        planes = {c: np.full((48, 64), 7, dtype=np.uint8) for c in "rgb"}
        kernel = sorted(warm.kernels, key=lambda k: k.output)[0]
        barrier = threading.Barrier(8)
        requests = []

        def request():
            barrier.wait()
            requests.append(photoshop_kernel_request(
                warm, "brightness", kernel, "r", planes))

        threads = [threading.Thread(target=request) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(requests) == 8
        assert stages_read.count("trace") == 1
        names, images = kernel_inputs(warm, kernel)
        tables = [name for name in names if name not in images]
        assert tables
        for name in tables:
            assert all(r["buffers"][name] is requests[0]["buffers"][name]
                       for r in requests)

    @pytest.mark.parametrize("damage", ["deleted", "corrupted"])
    def test_lost_trace_blob_is_recomputed_on_first_read(self, tmp_path,
                                                         damage):
        store = ArtifactStore(tmp_path)
        make_session(store, "brightness").run()
        session = make_session(ArtifactStore(tmp_path), "brightness")
        warm = session.run()
        blob = store.blob_path(session.key_for("trace"))
        if damage == "deleted":
            blob.unlink()
        else:
            blob.write_bytes(b"not an artifact")
        runs_before = app_run_count()
        assert warm.trace_run.memory is not None
        assert app_run_count() - runs_before == 1     # the trace run alone
        sources = {r.stage: r.source for r in session.explain()}
        assert sources["trace"] == "computed"
        assert sources["localize"] == "hit"
        assert session.store.stats()["quarantined"] == \
            (1 if damage == "corrupted" else 0)
        assert all(warm.validate().values())
        assert blob.exists()                          # the store is repaired

    def test_pickles_every_field_and_no_session(self, brightness_store):
        store, cold = brightness_store
        warm = make_session(ArtifactStore(store.root), "brightness").run()
        assert not any(name in vars(warm) for name in DEFERRED)
        blob = dumps_artifact(warm)
        for name in (b"LiftSession", b"ArtifactStore", b"_session"):
            assert name not in blob
        loaded = loads_artifact(blob)
        assert "_session" not in vars(loaded)
        for f in dataclasses.fields(loaded):
            assert f.name in vars(loaded), f.name
        for name in DEFERRED + ("buffer_specs", "kernels", "halide_sources",
                                "app_params"):
            assert_same(getattr(loaded, name), getattr(cold, name), name)
        assert all(loaded.validate().values())

    def test_dropping_a_warm_result_needs_no_collection(self,
                                                        brightness_store):
        from repro.rejuvenation import lifted

        store, _ = brightness_store
        gc.collect()
        gc.disable()
        try:
            warm = make_session(ArtifactStore(store.root), "brightness").run()
            lifted.kernel_inputs(warm, warm.kernels[0])
            warm.trace_run                  # the session stays: trees unread
            assert "_session" in vars(warm)
            facts_key = id(warm)
            assert facts_key in lifted._FACTS
            del warm
            assert facts_key not in lifted._FACTS
        finally:
            gc.enable()

    def test_store_without_codegen_computes_it_from_trees(self, tmp_path):
        # A store written before codegen v2 holds no codegen entry under
        # today's keys: the lift rebuilds it from the stored trees.
        store = ArtifactStore(tmp_path)
        cold_session = make_session(store, "brightness")
        cold = cold_session.run()
        for path in (tmp_path / "codegen").iterdir():
            path.unlink()
        session = make_session(ArtifactStore(tmp_path), "brightness")
        runs_before = app_run_count()
        warm = session.run()
        assert app_run_count() - runs_before == 0
        sources = {r.stage: r.source for r in session.explain()}
        assert sources["codegen"] == "computed"
        assert sources["trees"] == "hit" and sources["buffers"] == "hit"
        assert sources["trace"] == "pending"
        assert "concrete_trees" in vars(warm)   # set from the held trees
        assert warm.halide_sources == cold.halide_sources
        assert store.contains(cold_session.key_for("codegen"))


class TestResume:
    def test_resumes_from_deepest_cached_prefix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = make_session(store)
        cold.run()
        # Wipe the two last stages; the next session must resume there
        # without re-running any instrumented stage.
        for stage in ("trees", "codegen"):
            store.blob_path(cold.key_for(stage)).unlink()
        resumed = make_session(store)
        runs_before = app_run_count()
        result = resumed.run()
        assert app_run_count() - runs_before == 0
        sources = {r.stage: r.source for r in resumed.explain()}
        assert sources["trace"] == "hit"
        assert sources["trees"] == "computed"
        assert sources["codegen"] == "computed"
        assert all(result.validate().values())

    def test_resume_from_recomputes_suffix(self, tmp_path):
        store = ArtifactStore(tmp_path)
        make_session(store).run()
        session = make_session(store)   # warm: every stage is a store hit
        session.run()
        session.resume_from("forward")
        sources = {r.stage: r.source for r in session.explain()}
        # forward reads the stored trace; nothing reads what the trace
        # was computed from.
        assert sources["trace"] == "hit"
        assert sources["coverage"] == "pending"
        for stage in STAGES[STAGES.index("forward"):]:
            assert sources[stage] == "computed"

    def test_unknown_stage_rejected(self, tmp_path):
        session = make_session(ArtifactStore(tmp_path))
        with pytest.raises(KeyError):
            session.artifact("nope")
        with pytest.raises(KeyError):
            session.resume_from("nope")


class TestProvenance:
    def test_explain_reports_every_stage_in_order(self, tmp_path):
        session = make_session(ArtifactStore(tmp_path))
        assert [r.stage for r in session.explain()] == list(STAGES)
        assert all(r.source == "pending" for r in session.explain())
        session.run()
        reports = session.explain()
        assert [r.stage for r in reports] == list(STAGES)
        assert all(r.source == "computed" for r in reports)
        assert all(r.key is not None and r.path for r in reports)
        runs = {r.stage: r.instrumented_runs for r in reports}
        assert runs["coverage"] == 2 and runs["screen"] == 1 \
            and runs["trace"] == 1
        assert sum(runs.values()) == 4

    def test_stats_aggregate(self, tmp_path):
        session = make_session(ArtifactStore(tmp_path))
        session.run()
        stats = session.stats()
        assert stats["stages_run"] == len(STAGES)
        assert stats["computed"] == len(STAGES) and stats["hits"] == 0
        assert stats["instrumented_runs"] == 4
        assert set(stats["stage_seconds"]) == set(STAGES)

    def test_out_of_order_access_does_not_double_count(self, tmp_path):
        # Asking for the last stage first must not charge the whole pipeline
        # to it: dependencies resolve under their own reports.
        session = make_session(ArtifactStore(tmp_path))
        session.artifact("codegen")
        stats = session.stats()
        assert stats["stages_run"] == len(STAGES)
        assert stats["instrumented_runs"] == 4
        runs = {r.stage: r.instrumented_runs for r in session.explain()}
        assert runs["codegen"] == 0 and runs["trees"] == 0
        assert runs["coverage"] == 2


class TestDeterminism:
    """Satellite: repeated lifts of one (app, filter, seed) are bit-identical."""

    def test_same_seed_serializes_bit_identically(self):
        # Pickle bytes encode object-sharing patterns, and the process-global
        # canonicalization memo hands the second lift Expr objects the first
        # lift created; clearing it gives each lift the identity landscape of
        # a fresh process (the cross-process case is covered below).
        from repro.ir.simplify import clear_canonicalize_cache

        scenario = get_scenario("photoshop", "blur")
        clear_canonicalize_cache()
        first = LiftSession(scenario.make_app(), "blur", seed=0,
                            use_store=False).run()
        clear_canonicalize_cache()
        second = LiftSession(scenario.make_app(), "blur", seed=0,
                             use_store=False).run()
        assert dumps_artifact(first) == dumps_artifact(second)

    def test_bit_identical_across_fresh_processes(self, tmp_path):
        # The property the artifact-store keys actually rely on: two cold
        # lifts of the same (app, filter, seed) in *separate interpreters*
        # (fresh caches, fresh string hashing) serialize identically.
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from repro.apps.registry import get_scenario\n"
            "from repro.core.session import LiftSession\n"
            "from repro.store import dumps_artifact\n"
            "sc = get_scenario('photoshop', 'invert')\n"
            "res = LiftSession(sc.make_app(), 'invert', seed=0,"
            " use_store=False).run()\n"
            "open(sys.argv[1], 'wb').write(dumps_artifact(res))\n")
        src = Path(__file__).resolve().parents[2] / "src"
        blobs = []
        for index in range(2):
            out = tmp_path / f"lift-{index}.bin"
            subprocess.run([sys.executable, "-c", script, str(out)],
                           check=True, env={"PYTHONPATH": str(src),
                                            "PATH": "/usr/bin:/bin"})
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seed_changes_the_observed_trace(self):
        scenario = get_scenario("photoshop", "invert")
        base = LiftSession(scenario.make_app(), "invert", seed=0,
                           use_store=False).run()
        other = LiftSession(scenario.make_app(), "invert", seed=5,
                            use_store=False).run()
        # The run environment (background scratch) differs, so the captured
        # memory images differ...
        assert dumps_artifact(base) != dumps_artifact(other)
        # ...but the lifted kernels are the same filter, and both validate.
        assert base.halide_sources == other.halide_sources
        assert all(other.validate().values())
