"""Smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py          # or: python -m pytest perfbench/selftest.py

Runs every workload in smoke mode (tiny inputs, one pass) and checks that
``BENCHMARK.json`` and ``metrics.py`` agree, that each run prints every
metric with its unit, that a deliberately wrong reference shows up as a
failed operation rather than a crash, and that a directory holding only the
benchmark (no program source) exits non-zero without printing a result.
The file name keeps it out of the repository's default pytest collection.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace),
               "--smoke", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def expected_units(trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in SPEC[key]}


def test_spec_matches_metric_tables():
    from workloads import ApplyLargeWorkload, LiftWorkload

    assert expected_units(0) == metrics.END_TO_END
    assert expected_units(1) == metrics.PER_LAYER
    assert SPEC["paths"] == ["perfbench"]
    assert tuple(LiftWorkload.FAMILIES) == metrics.LIFT_FAMILIES
    assert ApplyLargeWorkload.ROWS == metrics.APPLY_ROWS


def test_every_metric_prints_with_its_unit():
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = result_of(run(workload, trace))
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True, (workload, trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1
            units = expected_units(trace)
            assert set(result["metrics"]) == set(units), (workload, trace)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name], (workload, name)
                assert isinstance(metric["value"], (int, float))
                assert math.isfinite(metric["value"]), (workload, name)
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), \
                    (workload, result["metrics"])


def test_wrong_reference_is_a_failed_operation():
    for workload in WORKLOADS:
        result = result_of(run(workload, 0, "--corrupt-reference"))
        assert result["failed"] >= 1, (workload, result)
        assert result["correct"] is False, (workload, result)
        assert set(result["metrics"]) == set(expected_units(0))


def test_bare_benchmark_directory_fails_without_a_result():
    bare = HERE / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        completed = run(WORKLOADS[0], 0, cwd=bare)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
    print("selftest: all checks passed")
