"""The repository benchmark: closed-loop ``repro serve`` workloads.

    python3 perfbench/run.py --workload omq-hot --seed 1 --seconds 10 --trace 0

Builds the workload's request stream from ``--seed``, computes every
distinct request's answers in this process by a different route (the
oracle), then launches ``repro serve`` with three tenants as its own
process and drives it over TCP from one closed-loop connection.  Every
reply is checked against the oracle.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from an untraced run (wire counts) and a
second, traced run (layer self times).  Lines before it report the stream
digest, host and client diagnostics and the layer-profile check.

Workloads, their reasons and predictions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import time
from pathlib import Path

import workloads
from client import Server, encode_bodies, measure, warmup
from metrics import (
    Unsound,
    check,
    decode,
    diagnostics,
    end_to_end,
    layer_profile,
    per_layer,
    traced,
    window_counts,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Server launches per ``--trace 0`` run; ``setup_s`` is their median.
LAUNCHES = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _check_untimed(replies, expected) -> None:
    """Warm-up and settle replies must all pass: a run that starts from a
    wrong state measures nothing."""
    if check(replies, decode(replies), expected):
        raise RuntimeError("a warm-up or settle reply failed its oracle check")


def _start(work: Path, tenant_files: dict, wl, bodies: list[bytes], expected: dict, *, spans=None):
    """Launch, wait for the listening line, run the warm-up, check it.

    Returns the server and its set-up time: launch to last warm-up reply."""
    server = Server(ROOT, work, tenant_files, spans=spans)
    try:
        server.wait_ready()
        replies = asyncio.run(warmup(server.port, bodies, wl.warmup))
        setup = max(r.received for r in replies) - server.started
        _check_untimed(replies, expected)
    except BaseException:
        server.stop()
        raise
    return server, setup


def _measure(server, bodies, wl, seconds, expected):
    try:
        phase = asyncio.run(measure(server, bodies, wl.stream, wl.settle, wl.window, seconds))
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    _check_untimed(phase.settled, expected)
    return phase, rss


def run(workload: str, seed: int, seconds: float, trace: bool, *, size: str = "full", corrupt=None) -> dict:
    """One benchmark run; returns the result object printed last.

    *corrupt*, if given, edits the oracle's expected answers before any
    reply is checked (the smoke test's fault injection)."""
    from oracle import Oracle  # imports repro, so only once src/ is on the path

    wl = workloads.build(workload, seed, size)
    print(f"stream: workload={workload} seed={seed} size={size} "
          f"distinct={len(wl.requests)} sha256={workloads.digest(wl)}", flush=True)
    started = time.perf_counter()
    oracle = Oracle(workloads.TENANTS)
    keys = set(wl.warmup) | set(wl.stream)
    expected = {k: oracle.answers(wl.requests[k]) for k in sorted(keys)}
    _log(f"oracle: {len(expected)} distinct requests in {time.perf_counter() - started:.1f}s")
    if corrupt is not None:
        corrupt(wl, expected)
    bodies = encode_bodies(wl.requests)

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        tenant_files = {}
        for name, rules in workloads.TENANTS.items():
            path = work / f"{name}.tgds"
            path.write_text("\n".join(rules) + "\n")
            tenant_files[name] = path

        if not trace:
            setups = []
            for launch in range(LAUNCHES):
                server, setup = _start(work, tenant_files, wl, bodies, expected)
                setups.append(setup)
                if launch < LAUNCHES - 1:
                    server.stop()
            _log("setup: " + ", ".join(f"{s:.3f}s" for s in setups))
            phase, rss = _measure(server, bodies, wl, seconds, expected)
            metrics = end_to_end(phase, setups, rss)
            attempted, failed = len(phase.replies), 0
        else:
            server, _ = _start(work, tenant_files, wl, bodies, expected)
            phase, _ = _measure(server, bodies, wl, seconds, expected)
            spans_path = work / "spans.jsonl"
            server, _ = _start(work, tenant_files, wl, bodies, expected, spans=spans_path)
            traced_phase, _ = _measure(server, bodies, wl, seconds, expected)
            spans = [json.loads(x) for x in spans_path.read_text().splitlines()]
            traced_replies = decode(traced_phase.replies)
            metrics = per_layer(phase, decode(phase.replies), wl.window)
            metrics.update(traced(spans, traced_phase, phase, wl.window))
            counts_traced = window_counts(traced_phase, traced_replies, wl.window)
            attempted = len(phase.replies) + len(traced_phase.replies)
            failed = check(traced_phase.replies, traced_replies, expected)

        replies = decode(phase.replies)
        failed += check(phase.replies, replies, expected)
        counts = window_counts(phase, replies, wl.window)
        ok, detail = layer_profile(workload, counts)
        print("diagnostics: " + json.dumps(diagnostics(phase)), flush=True)
        print(f"layer-profile: {'PASS' if ok else 'FAIL'} ({workload}: {detail})", flush=True)
        if trace:
            same = counts_traced == counts
            print(f"traced-counts: {'same' if same else 'DIFFER'} as the untraced run", flush=True)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes (tiny: the smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"error: no repro package under {ROOT / 'src'}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), size=args.size)
    except Unsound as exc:
        _log(f"error: unsound answer, run aborted: {exc}")
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
