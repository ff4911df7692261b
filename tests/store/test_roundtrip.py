"""Artifact round-tripping: serialize -> deserialize -> re-realize, bit-identically.

The artifact store is only sound if what comes back out of it behaves exactly
like what went in.  These tests cover the three artifact types the issue
calls out — ``InstructionTrace``, ``BufferSpec`` and the whole
``LiftResult`` — plus the expression-IR memo-slot handling the store's
determinism depends on.
"""

import numpy as np
import pytest

from repro.apps.registry import get_scenario
from repro.core.session import LiftSession
from repro.ir import Expr
from repro.store import ArtifactStore, dumps_artifact, loads_artifact


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    scenario = get_scenario("photoshop", "blur")
    session = LiftSession(scenario.make_app(), "blur", seed=scenario.seed,
                          store=ArtifactStore(tmp_path_factory.mktemp("store")))
    session.run()
    return session


@pytest.fixture(scope="module")
def result(session):
    return session.run()


class TestInstructionTraceRoundtrip:
    def test_records_and_dump_survive(self, session):
        trace = session.artifact("trace").trace
        loaded = loads_artifact(dumps_artifact(trace))
        assert len(loaded) == len(trace)
        assert loaded.entry_address == trace.entry_address
        assert loaded.entry_registers == trace.entry_registers
        assert loaded.invocation_bounds == trace.invocation_bounds
        assert loaded.memory_dump == trace.memory_dump
        for original, copied in zip(trace.records, loaded.records):
            assert copied.index == original.index
            assert copied.address == original.address
            assert copied.mnemonic == original.mnemonic
            assert copied.accesses == original.accesses

    def test_dump_reads_identically(self, session):
        trace = session.artifact("trace").trace
        loaded = loads_artifact(dumps_artifact(trace))
        page = min(trace.memory_dump)
        for offset in (0, 1, 17, 4095 - 4):
            assert loaded.dump_read(page + offset, 4) == \
                trace.dump_read(page + offset, 4)


class TestBufferSpecRoundtrip:
    def test_specs_equal_and_re_read_identically(self, session, result):
        reader = result.trace_run.memory.read_uint
        for name, spec in session.artifact("buffers").specs.items():
            loaded = loads_artifact(dumps_artifact(spec))
            assert loaded == spec, name
            np.testing.assert_array_equal(loaded.read_array(reader),
                                          spec.read_array(reader))

    def test_index_math_survives(self, session):
        spec = next(iter(session.artifact("buffers").specs.values()))
        loaded = loads_artifact(dumps_artifact(spec))
        address = spec.address_of((1,) * spec.dimensionality)
        assert loaded.indices_of(address) == spec.indices_of(address)


class TestLiftResultRoundtrip:
    def test_realizes_bit_identically(self, result):
        loaded = loads_artifact(dumps_artifact(result))
        original_outputs = result.realize_outputs()
        for name, produced in loaded.realize_outputs().items():
            np.testing.assert_array_equal(produced, original_outputs[name])
        assert all(loaded.validate().values())

    def test_sources_and_statistics_survive(self, result):
        loaded = loads_artifact(dumps_artifact(result))
        assert loaded.halide_sources == result.halide_sources
        assert loaded.statistics() == result.statistics()
        assert loaded.warnings == result.warnings

    def test_funcs_are_rebuilt_pristine(self, result):
        # Mutate a schedule on the live result, round-trip it, and check the
        # loaded result's Funcs carry fresh (default) schedules: executable
        # Funcs are rebuilt from the kernels, never persisted.
        name = next(iter(result.funcs))
        result.funcs[name].tile(8, 8)
        try:
            loaded = loads_artifact(dumps_artifact(result))
            assert loaded.funcs[name].schedule.tile_x == 0
            assert loaded.funcs[name].value is not None
        finally:
            result.funcs[name].schedule.tile_x = 0
            result.funcs[name].schedule.tile_y = 0


class TestExprMemoSlots:
    def test_memo_slots_are_not_pickled(self, result):
        expr = result.kernels[0].clusters[0].expr
        hash(expr)  # populate the memo slots
        expr.node_count()
        expr.param_values()
        loaded = loads_artifact(dumps_artifact(expr))
        for slot in Expr.__slots__:
            assert not hasattr(loaded, slot), slot
        assert loaded == expr
        assert hash(loaded) == hash(expr)

    def test_memo_population_does_not_change_bytes(self, result):
        expr = result.kernels[0].clusters[0].expr
        fresh = loads_artifact(dumps_artifact(expr))
        before = dumps_artifact(fresh)
        hash(fresh)
        fresh.cached_key()
        assert dumps_artifact(fresh) == before
