"""Launch ``repro serve`` as its own process and drive it in a closed loop.

The client holds one connection and sends its next request line as soon
as the previous reply line arrives; the latency of a request is the time
from writing its line to reading its reply line.  With one request in
flight, one thread of the benchmark is busy at a time (a server worker,
then the client), below the two cores of the machine it was tuned on, so
one more runnable process there does not slow the server down, and the
server's threads never contend for the GIL.  Replies are kept as raw
bytes and decoded only after the measured phase, so the client's own work
stays small and off the timed path.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Per-request deadline given to the server: far above any request's
#: cost, so no outcome depends on the clock.
DEADLINE_S = 600
READY_TIMEOUT_S = 60
#: No single reply may take longer; a hung server fails the run instead
#: of outliving the benchmark's time limit.
REPLY_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30
_TICK = os.sysconf("SC_CLK_TCK")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``repro serve`` process, untraced or through the span launcher."""

    def __init__(self, root: Path, work: Path, tenant_files: dict[str, Path], *, spans: Path | None = None):
        self.port = _free_port()
        args = ["serve", "--port", str(self.port), "--deadline", str(DEADLINE_S)]
        for name, path in tenant_files.items():
            args += ["--tenant", f"{name}={path}"]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("tracing.py")), str(spans), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.log = open(work / f"server-{self.port}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log
        )

    def wait_ready(self) -> None:
        """Block until the server prints its listening line."""
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"repro serve:"):
            self.stop()
            log = Path(self.log.name).read_text(errors="replace")
            raise RuntimeError(f"server did not start; its stderr ends:\n{log[-2000:]}")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt (the server drains and, if traced, writes its spans)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def host_steal_seconds() -> float:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


@dataclass
class Reply:
    seq: int  # position in the measured phase (-1: warm-up or settle)
    key: int  # index into Workload.requests
    sent: float
    received: float
    request_bytes: int
    raw: bytes


@dataclass
class Phase:
    replies: list[Reply] = field(default_factory=list)
    wall_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    steal_s: float = 0.0
    healthz: dict = field(default_factory=dict)  # "before" / "window" / "after"
    settled: list[Reply] = field(default_factory=list)


def encode_bodies(requests: list[dict]) -> list[bytes]:
    """Each distinct request as JSON once; :func:`line` adds the id."""
    return [json.dumps(r).encode() for r in requests]


def line(body: bytes, rid: str) -> bytes:
    return b'{"id": "%s", ' % rid.encode() + body[1:] + b"\n"


async def _roundtrip(reader, writer, data: bytes) -> tuple[float, float, bytes]:
    sent = time.perf_counter()
    writer.write(data)
    await writer.drain()
    raw = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
    received = time.perf_counter()
    if not raw:
        raise ConnectionError("server closed the connection")
    return sent, received, raw


async def _healthz(conn) -> dict:
    _, _, raw = await _roundtrip(*conn, b'{"op": "healthz"}\n')
    return json.loads(raw)


async def _open(port: int):
    return await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)


async def _close(conn) -> None:
    conn[1].close()
    await conn[1].wait_closed()


async def _untimed(conn, bodies: list[bytes], keys: list[int], prefix: str) -> list[Reply]:
    """Send *keys* in order, outside the measured phase."""
    replies: list[Reply] = []
    for i, key in enumerate(keys):
        data = line(bodies[key], f"{prefix}{i}")
        sent, received, raw = await _roundtrip(*conn, data)
        replies.append(Reply(-1, key, sent, received, len(data), raw))
    return replies


async def warmup(port: int, bodies: list[bytes], keys: list[int]) -> list[Reply]:
    conn = await _open(port)
    replies = await _untimed(conn, bodies, keys, "w")
    await _close(conn)
    return replies


async def measure(server: Server, bodies: list[bytes], stream: list[int], settle: int, window: int, seconds: float) -> Phase:
    """Settle, then the measured phase: a closed loop for *seconds*.

    The first *settle* requests of *stream* go untimed; the measured phase
    goes on from there, cycling the stream, and completes at least
    *window* requests.  A healthz scrape after the first *window* gives the
    cache counters over the same requests on every run of a seed.
    """
    conn = await _open(server.port)
    phase = Phase()
    settle_keys = [stream[i % len(stream)] for i in range(settle)]
    phase.settled = await _untimed(conn, bodies, settle_keys, "s")
    phase.healthz["before"] = await _healthz(conn)
    cpu0, steal0, client0 = server.cpu_seconds(), host_steal_seconds(), time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < window or time.perf_counter() < deadline:
        if i == window:
            phase.healthz["window"] = await _healthz(conn)
        key = stream[(settle + i) % len(stream)]
        data = line(bodies[key], f"m{i}")
        sent, received, raw = await _roundtrip(*conn, data)
        phase.replies.append(Reply(i, key, sent, received, len(data), raw))
        i += 1
    phase.wall_s = time.perf_counter() - start
    phase.server_cpu_s = server.cpu_seconds() - cpu0
    phase.client_cpu_s = time.process_time() - client0
    phase.steal_s = host_steal_seconds() - steal0
    if i == window:
        phase.healthz["window"] = await _healthz(conn)
    phase.healthz["after"] = await _healthz(conn)
    await _close(conn)
    return phase
