"""Smoke test of the benchmark at a tiny size of each workload.

    python3 -m pytest perfbench/test_smoke.py -q

Checks the output contract (every metric by name and unit), the
determinism of the request stream, that a corrupted oracle entry counts
as a failed operation, that an unsound answer aborts the run, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from metrics import Unsound  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_print_by_name_and_unit(workload):
    metrics = _result(_cli(workload, 0))["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_per_layer_metrics_print_by_name_and_unit():
    proc = _cli("omq-cold", 1)
    metrics = _result(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert "traced-counts: same" in proc.stdout


@pytest.mark.parametrize("name", workloads.NAMES)
def test_stream_is_a_function_of_the_seed(name):
    first, again = workloads.build(name, 7, "tiny"), workloads.build(name, 7, "tiny")
    other = workloads.build(name, 8, "tiny")
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)
    assert len(first.requests) == len(other.requests)
    assert len(first.stream) == len(other.stream)


def _measured_key(wl, expected, *, nonempty: bool) -> int:
    """A key sent in the first window and not before."""
    stream = wl.stream
    before = set(wl.warmup) | {stream[i % len(stream)] for i in range(wl.settle)}
    for i in range(wl.window):
        key = stream[(wl.settle + i) % len(stream)]
        if key not in before and (expected[key] or not nonempty):
            return key
    raise AssertionError("no suitable request in the window")


def test_corrupted_oracle_entry_counts_as_failed():
    def corrupt(wl, expected):
        key = _measured_key(wl, expected, nonempty=False)
        expected[key] = expected[key] | {("not-an-answer",)}

    result = bench.run("cq-joins", SEED, 0.5, False, size="tiny", corrupt=corrupt)
    assert result["failed"] >= 1 and result["correct"] is False


def test_unsound_answer_aborts_the_run():
    def corrupt(wl, expected):
        key = _measured_key(wl, expected, nonempty=True)
        expected[key] = frozenset(sorted(expected[key])[1:])

    with pytest.raises(Unsound):
        bench.run("cq-joins", SEED, 0.5, False, size="tiny", corrupt=corrupt)


def test_refuses_to_run_without_the_sources():
    bare = HERE / ".work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = _cli("omq-hot", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
