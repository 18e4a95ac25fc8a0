#!/usr/bin/env python
"""Run every experiment's ``run()`` harness and print all tables.

Usage::

    python benchmarks/run_all.py                     # all experiments
    python benchmarks/run_all.py e03 e12             # a selection
    python benchmarks/run_all.py --json results.json # machine-readable dump
    python benchmarks/run_all.py --timeout 120       # per-experiment watchdog

With ``--timeout`` each experiment runs in a forked child process under a
watchdog; an experiment that exceeds the wall-clock limit is killed and
reported as a ``TIMEOUT`` row, and the harness moves on to the next
experiment instead of hanging the whole run.  With or without the
watchdog, an experiment that raises (a failed gate, a crash) becomes a
``CRASH`` row and the run continues.
"""

import ast
import importlib.util
import json
import multiprocessing
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE))

from harness import print_table  # noqa: E402


def load(module_path: Path):
    spec = importlib.util.spec_from_file_location(module_path.stem, module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def module_title(path: Path) -> str:
    """First docstring line, read via ast — no import, so a hanging or
    crashing module cannot take the parent process down with it."""
    try:
        doc = ast.get_docstring(ast.parse(path.read_text()))
    except SyntaxError:
        doc = None
    return (doc or path.stem).strip().splitlines()[0] if doc else path.stem


def _child(path_str: str, conn) -> None:
    """Watchdog child: run one experiment, ship the rows over the pipe."""
    try:
        rows = load(Path(path_str)).run()
        conn.send(("ok", rows))
    except BaseException as exc:  # noqa: BLE001 - report, don't swallow
        try:
            conn.send(("crash", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def run_experiment(path: Path, timeout: float | None):
    """Run one bench module; returns ``(status, payload)``.

    ``status`` is "ok" (payload = rows), "timeout" (payload = the limit), or
    "crash" (payload = an error string).  Without a timeout the module runs
    in-process.
    """
    if timeout is None:
        try:
            return "ok", load(path).run()
        except Exception as exc:  # noqa: BLE001 - report, don't swallow
            traceback.print_exc()
            return "crash", f"{type(exc).__name__}: {exc}"
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(str(path), child_conn), daemon=True)
    proc.start()
    child_conn.close()
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join(5)
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored
            proc.kill()
            proc.join()
        return "timeout", timeout
    if parent_conn.poll():
        return parent_conn.recv()
    return "crash", f"no result (exit code {proc.exitcode})"


def main(argv: list[str] | None = None, bench_dir: Path | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    bench_dir = HERE if bench_dir is None else Path(bench_dir)
    json_path = None
    if "--json" in args:
        index = args.index("--json")
        json_path = args[index + 1]
        args = args[:index] + args[index + 2:]
    timeout = None
    if "--timeout" in args:
        index = args.index("--timeout")
        timeout = float(args[index + 1])
        args = args[:index] + args[index + 2:]
    wanted = [w.lower() for w in args]
    bench_files = sorted(bench_dir.glob("bench_e*.py"))
    total_start = time.perf_counter()
    dump: dict = {}
    for path in bench_files:
        tag = path.stem.split("_")[1]  # e01, e02, ...
        if wanted and tag not in wanted:
            continue
        title = module_title(path)
        start = time.perf_counter()
        status, payload = run_experiment(path, timeout)
        elapsed = time.perf_counter() - start
        if status == "ok":
            rows = payload
        elif status == "timeout":
            rows = [{"status": "TIMEOUT", "detail": f"killed after {payload:g}s"}]
        else:
            rows = [{"status": "CRASH", "detail": payload}]
        print_table(f"{title}   [{elapsed:.1f}s]", rows)
        dump[tag] = {
            "title": title,
            "status": status,
            "seconds": elapsed,
            "rows": rows,
        }
    print(f"\ntotal: {time.perf_counter() - total_start:.1f}s")
    if json_path is not None:
        Path(json_path).write_text(json.dumps(dump, indent=2, default=str))
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
