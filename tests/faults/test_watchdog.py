"""The benchmark harness watchdog: hung experiments become TIMEOUT rows.

Exercises ``benchmarks/run_all.py`` against a temp directory of synthetic
bench modules — one that hangs forever, one that crashes, one that
returns — and asserts the harness prints a row for each and keeps going.
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "benchmarks"))

import run_all  # noqa: E402

HANGING = '''\
"""E97: hangs forever (watchdog must kill it)."""
import time


def run():
    while True:
        time.sleep(0.05)
'''

CRASHING = '''\
"""E98: crashes immediately."""


def run():
    raise RuntimeError("synthetic crash")
'''

QUICK = '''\
"""E99: returns a row promptly."""


def run():
    return [{"n": 1, "ok": True}]
'''


@pytest.fixture()
def bench_dir(tmp_path):
    (tmp_path / "bench_e97_hang.py").write_text(HANGING)
    (tmp_path / "bench_e98_crash.py").write_text(CRASHING)
    (tmp_path / "bench_e99_quick.py").write_text(QUICK)
    return tmp_path


def test_timeout_row_for_hanging_experiment(bench_dir, capsys):
    status = run_all.main(["--timeout", "2"], bench_dir=bench_dir)
    out = capsys.readouterr().out
    assert status == 0
    assert "TIMEOUT" in out
    assert "killed after 2s" in out
    # The harness recovered: the later experiments still ran.
    assert "CRASH" in out and "synthetic crash" in out
    assert "E99: returns a row promptly." in out and "True" in out


def test_selection_still_works_under_watchdog(bench_dir, capsys):
    run_all.main(["e99", "--timeout", "5"], bench_dir=bench_dir)
    out = capsys.readouterr().out
    assert "E99" in out and "E97" not in out


def test_json_dump_records_statuses(bench_dir, tmp_path, capsys):
    import json

    dump_path = tmp_path / "results.json"
    run_all.main(
        ["--timeout", "2", "--json", str(dump_path)], bench_dir=bench_dir
    )
    capsys.readouterr()
    dump = json.loads(dump_path.read_text())
    assert dump["e97"]["status"] == "timeout"
    assert dump["e98"]["status"] == "crash"
    assert dump["e99"]["status"] == "ok"
    assert dump["e99"]["rows"] == [{"n": 1, "ok": True}]


def test_without_timeout_runs_in_process(bench_dir, capsys):
    run_all.main(["e99"], bench_dir=bench_dir)
    out = capsys.readouterr().out
    assert "E99: returns a row promptly." in out


def test_crash_without_timeout_becomes_a_row(bench_dir, capsys):
    status = run_all.main(["e98", "e99"], bench_dir=bench_dir)
    out = capsys.readouterr().out
    assert status == 0
    assert "CRASH" in out and "RuntimeError: synthetic crash" in out
    # The in-process run kept going past the crash.
    assert "E99: returns a row promptly." in out and "True" in out


def test_module_title_does_not_execute_the_module(bench_dir):
    # ast-based title extraction must not run the hanging module's body.
    title = run_all.module_title(bench_dir / "bench_e97_hang.py")
    assert title == "E97: hangs forever (watchdog must kill it)."
