"""The ``python -m repro`` command-line interface, end to end."""

import pytest

from repro.__main__ import main


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    return tmp_path / "store"


class TestAppsCommand:
    def test_lists_scenarios(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "photoshop" in out and "irfanview" in out and "minigmg" in out

    def test_tag_filter(self, capsys):
        assert main(["apps", "--tag", "stencil3d"]) == 0
        out = capsys.readouterr().out
        assert "smooth" in out and "photoshop" not in out


class TestLiftCommand:
    def test_cold_then_warm(self, store_env, capsys):
        assert main(["lift", "photoshop", "invert", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "store hits: 0/8, instrumented runs: 4" in out
        assert "output_1=ok" in out

        assert main(["lift", "photoshop", "invert", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "store hits: 8/8, instrumented runs: 0" in out

    def test_no_store_stays_cold(self, store_env, capsys):
        assert main(["lift", "photoshop", "invert", "--no-store"]) == 0
        assert main(["lift", "photoshop", "invert", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "store hits: 0/8, instrumented runs: 4" in out

    def test_cpp_prints_halide_source(self, store_env, capsys):
        assert main(["lift", "photoshop", "invert", "--cpp"]) == 0
        out = capsys.readouterr().out
        assert "#include <Halide.h>" in out


class TestServeAndRunCommands:
    def test_serve_reports_throughput(self, store_env, capsys):
        assert main(["serve", "photoshop", "invert", "--frames", "3",
                     "--width", "64", "--height", "48"]) == 0
        out = capsys.readouterr().out
        assert "served 3 frame(s)" in out and "frames/s" in out

    def test_run_applies_to_one_frame(self, store_env, capsys):
        assert main(["run", "photoshop", "invert",
                     "--width", "64", "--height", "48"]) == 0
        out = capsys.readouterr().out
        assert "ran lifted photoshop/invert" in out and "checksum" in out


class TestCacheCommand:
    def test_stats_list_clear(self, store_env, capsys):
        main(["lift", "photoshop", "invert"])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "artifacts: 8" in out
        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "codegen" in out and "invert" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 8 artifact(s)" in out

    def test_prune_keeps_current_removes_stale(self, store_env, capsys):
        main(["lift", "photoshop", "invert"])
        capsys.readouterr()
        # Current artifacts survive a prune untouched.
        assert main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 stale artifact(s)" in out and "8 current kept" in out
        # An artifact whose stage-version chain no longer matches is garbage.
        import json
        from repro.core.stages import STAGE_VERSIONS
        manifests = sorted(store_env.glob("*/*.json"))
        stale = json.loads(manifests[0].read_text())
        stale["key"]["versions"][0][1] = STAGE_VERSIONS["coverage"] + 40
        manifests[0].write_text(json.dumps(stale))
        assert main(["cache", "prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale artifact(s)" in out and "7 current kept" in out


class TestRunExplain:
    def test_explain_prints_loop_nest(self, store_env, capsys):
        assert main(["run", "photoshop", "blur", "--width", "64",
                     "--height", "48", "--explain", "--tile", "32x16"]) == 0
        out = capsys.readouterr().out
        assert "execution plan:" in out
        assert "schedule [tile(32,16)" in out and "mode serial" in out
        # --tile tiles the run itself: the executed nest carries the tile
        # loops at the run's real output shape.
        assert "loop nest over output [48, 64]:" in out
        assert "for output_1.tile_y in [0, 0 + 3)" in out
        assert "for output_1.tile_x in [0, 0 + 2)" in out
        assert "output_1.out[(output_1.oy, output_1.ox)" in out


class TestEngineOption:
    def test_run_accepts_every_engine(self, store_env, capsys):
        from repro.halide.realize import ENGINES

        for engine in ENGINES:
            assert main(["run", "photoshop", "blur", "--engine", engine,
                         "--width", "64", "--height", "48"]) == 0
            out = capsys.readouterr().out
            assert "ran lifted photoshop/blur" in out

    def test_tune_prints_the_key_its_record_is_stored_under(self, store_env,
                                                           capsys):
        # A record is keyed by the engine it was tuned for, which need not
        # be the process default.
        from repro.halide.realize import get_default_engine

        engine = "interp" if get_default_engine() != "interp" else "compiled"
        assert main(["tune", "photoshop", "invert", "--engine", engine,
                     "--width", "32", "--height", "24", "--iterations", "2",
                     "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        printed = out.split("record: tuning/")[1].split()[0]
        stored = [path.stem for path in (store_env / "tuning").glob("*.pkl")]
        assert len(stored) == 1
        assert stored[0].startswith(printed)
