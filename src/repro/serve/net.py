"""JSON-lines TCP transport for the query service (stdlib only), hardened.

One connection, many requests: each line is a JSON object, each response
a JSON line back — the simplest wire format that still exercises every
service path from a real client.  Request fields::

    {"tenant": "acme",                  # required (except op=healthz)
     "query": "q(x) :- Person(x)",      # UCQ text (required for op=query)
     "kind": "ucq",                     # "cq" | "ucq" | "omq" | "cqs"
     "database": ["Emp(ada)"],          # atom list (op=query)
     "backend": "auto",                 # optional
     "deadline": 1.5,                   # optional per-request override
     "op": "query"}                     # "query" (default) | "healthz"

``kind`` picks the semantics: ``omq`` pairs the query with the tenant's
ontology (open-world certain answers), ``cqs`` evaluates closed-world
under the tenant Σ as integrity constraints, ``cq``/``ucq`` evaluate
closed-world.  The response is ``QueryResponse.as_dict()`` plus the
request's ``id`` echoed back; every malformed frame comes back as
``{"status": "error", "error": <class>, "detail": ...}`` — the
connection never dies from a bad request.

``database`` is absent (the empty database) or a JSON list of strings,
each holding fact text; anything else is a ``ValueError``.  The list is
parsed through the service's database memo, a bounded LRU (bound
``ServiceConfig.cache_entries``) keyed by the exact list: a request that
repeats a recent list gets the very :class:`~repro.Instance` parsed for
it before, shared read-only across requests, and skips the parse, the
interning and the planner's statistics build.  A list that fails to
parse is not stored; its error stays with its request.

Hostile-client hardening (the service behind this socket is the same one
the E23 load gate certifies — one slowloris must not degrade it):

* **frame-size cap** (``max_frame``): an over-long line is discarded —
  the read loop drains it without buffering it — answered with a
  structured error, and the connection keeps serving;
* **idle timeout** (``idle_timeout``): a connection that sends nothing
  for that long is closed, so abandoned sockets cannot pin handler tasks
  forever;
* **connection cap** (``max_connections``): past it, new connections get
  one ``{"status": "error", "error": "overloaded"}`` line and a clean
  close — refusal, not an unbounded task pile;
* **sanitized errors**: clients see the exception class plus, only for
  request-shaped problems (parse errors, unknown tenant/kind), a bounded
  message about *their* input — internal failures are reported as
  ``"internal error"`` with no detail, and nothing of the server's
  internals is ever echoed;
* **graceful drain**: :meth:`TcpTransport.close` stops accepting, lets
  in-flight requests finish their (already deadline-bounded) responses,
  then cancels idle handlers.

The fuzz suite (``tests/serve/test_net_fuzz.py``) holds the transport
invariant: the server task never crashes, and every complete request line
gets exactly one response line.
"""

from __future__ import annotations

import asyncio
import json

from ..omq import OMQ
from ..cqs import CQS
from ..queries import parse_cq, parse_ucq
from .service import QueryService

__all__ = ["TcpTransport", "serve_tcp", "request_tcp"]

#: Largest accepted request line (bytes), newline included.
DEFAULT_MAX_FRAME = 1 << 20
#: Close a connection that sends nothing for this long (seconds).
DEFAULT_IDLE_TIMEOUT = 300.0
#: Concurrent-connection cap; beyond it new connections are refused.
DEFAULT_MAX_CONNECTIONS = 256
#: How long :meth:`TcpTransport.close` waits for in-flight handlers.
DEFAULT_DRAIN_TIMEOUT = 5.0

#: Longest error message echoed back to a client.
_MAX_DETAIL = 300

#: Exception classes whose message describes the *client's* input and is
#: safe to echo (bounded).  Everything else is an internal failure and
#: reports no detail.
_CLIENT_ERRORS = (KeyError, ValueError, TypeError)

#: Sentinel frames from :func:`_read_frame`.
_EOF = object()
_OVERSIZE = object()
_IDLE = object()


def _parse_request(service: QueryService, payload: dict):
    """(tenant, query, database, backend, deadline) from one wire object."""
    tenant = payload["tenant"]
    kind = payload.get("kind", "ucq")
    entry = service._tenants.get(tenant)
    if entry is None:
        raise KeyError(f"unknown tenant {tenant!r}")
    text = payload["query"]
    if kind == "cq":
        query = parse_cq(text)
    elif kind == "ucq":
        query = parse_ucq(text)
    elif kind == "omq":
        query = OMQ.with_full_data_schema(list(entry.tgds), parse_ucq(text))
    elif kind == "cqs":
        query = CQS(list(entry.tgds), parse_ucq(text))
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    facts = payload.get("database", [])
    if not isinstance(facts, list) or not all(isinstance(f, str) for f in facts):
        raise ValueError("database must be a list of fact strings")
    database = service._databases(tuple(facts))
    return (
        tenant,
        query,
        database,
        payload.get("backend"),
        payload.get("deadline"),
    )


def _error_body(exc: Exception) -> dict:
    """A client-safe error frame: class name, bounded message, no internals."""
    if isinstance(exc, _CLIENT_ERRORS):
        detail = str(exc)
        if len(detail) > _MAX_DETAIL:
            detail = detail[:_MAX_DETAIL] + "…"
        return {"status": "error", "error": type(exc).__name__, "detail": detail}
    return {
        "status": "error",
        "error": type(exc).__name__,
        "detail": "internal error",
    }


async def _read_frame(reader, max_frame: int, idle_timeout: float | None):
    """One newline-terminated frame, or a sentinel.

    Returns the line bytes, or ``_EOF`` (peer gone / mid-frame
    disconnect — an incomplete request earns no response), ``_IDLE``
    (nothing arrived within *idle_timeout*), or ``_OVERSIZE`` (a complete
    line longer than *max_frame* was found and fully discarded — the
    caller owes it exactly one structured error response).  The oversized
    branch consumes only up to and including the line's newline, so the
    next frame on the connection is preserved intact.
    """
    try:
        return await asyncio.wait_for(
            reader.readuntil(b"\n"), timeout=idle_timeout
        )
    except asyncio.TimeoutError:
        return _IDLE
    except asyncio.IncompleteReadError:
        return _EOF
    except asyncio.LimitOverrunError:
        pass
    # Over the limit: discard the rest of this line, byte-exactly.
    while True:
        try:
            await asyncio.wait_for(
                reader.readuntil(b"\n"), timeout=idle_timeout
            )
            return _OVERSIZE
        except asyncio.LimitOverrunError as exc:
            # `consumed` bytes contain no separator (or end exactly at
            # it): dropping exactly that many never eats the next frame.
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return _EOF
        except asyncio.TimeoutError:
            return _IDLE


class _ConnectionState:
    """Shared handler bookkeeping: the live-connection count and tasks."""

    def __init__(self, max_connections: int) -> None:
        self.max_connections = max_connections
        self.count = 0
        self.tasks: set[asyncio.Task] = set()

    def try_acquire(self) -> bool:
        if self.count >= self.max_connections:
            return False
        self.count += 1
        return True

    def release(self) -> None:
        self.count -= 1


async def _write_line(writer, body: dict) -> None:
    writer.write(json.dumps(body).encode() + b"\n")
    await writer.drain()


async def _handle(
    service: QueryService,
    reader,
    writer,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
    state: _ConnectionState | None = None,
) -> None:
    task = asyncio.current_task()
    if state is not None and task is not None:
        state.tasks.add(task)
    acquired = state is None or state.try_acquire()
    try:
        if not acquired:
            await _write_line(
                writer,
                {
                    "status": "error",
                    "error": "overloaded",
                    "detail": "connection limit reached, retry later",
                },
            )
            return
        while True:
            frame = await _read_frame(reader, max_frame, idle_timeout)
            if frame is _EOF or frame is _IDLE:
                break
            if frame is _OVERSIZE:
                await _write_line(
                    writer,
                    {
                        "status": "error",
                        "error": "frame too large",
                        "detail": f"request lines are capped at {max_frame} bytes",
                    },
                )
                continue
            line = frame.strip()
            if not line:
                continue
            payload = None
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    payload = None
                    raise ValueError("request frame must be a JSON object")
                if payload.get("op") == "healthz":
                    body = await service.healthz()
                else:
                    tenant, query, db, backend, deadline = _parse_request(
                        service, payload
                    )
                    resp = await service.submit(
                        tenant,
                        query,
                        db,
                        backend=backend,
                        deadline=deadline,
                    )
                    body = resp.as_dict()
            except Exception as exc:
                body = _error_body(exc)
            if isinstance(payload, dict) and "id" in payload:
                body["id"] = payload["id"]
            await _write_line(writer, body)
    except asyncio.CancelledError:
        raise
    except (ConnectionResetError, BrokenPipeError):
        pass  # peer vanished mid-write: nothing left to tell it
    finally:
        if state is not None:
            if acquired:
                state.release()
            if task is not None:
                state.tasks.discard(task)
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


class TcpTransport:
    """The running listener plus graceful-drain lifecycle.

    Wraps the underlying :class:`asyncio.Server` with the same usage
    shape (``async with``, :meth:`serve_forever`) the CLI had before,
    plus :meth:`close`: stop accepting, give in-flight handlers
    *drain_timeout* seconds to finish writing their (deadline-bounded)
    responses, then cancel whatever is left idling in a read.
    """

    def __init__(
        self,
        server: asyncio.Server,
        state: _ConnectionState,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        self.server = server
        self._state = state
        self.drain_timeout = drain_timeout

    @property
    def sockets(self):
        return self.server.sockets

    def is_serving(self) -> bool:
        return self.server.is_serving()

    @property
    def connections(self) -> int:
        """Live connection count (refused connections never count)."""
        return self._state.count

    async def serve_forever(self) -> None:
        await self.server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain in-flight handlers, cancel stragglers."""
        self.server.close()
        await self.server.wait_closed()
        tasks = [t for t in self._state.tasks if not t.done()]
        if tasks:
            _done, pending = await asyncio.wait(
                tasks, timeout=self.drain_timeout
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    async def __aenter__(self) -> "TcpTransport":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


async def serve_tcp(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
) -> TcpTransport:
    """Expose *service* (already started) on a TCP socket.

    Returns a :class:`TcpTransport`; ``await transport.close()`` (or
    leaving its ``async with`` block) stops accepting and drains
    gracefully.  The hardening knobs all have service-shaped defaults —
    see the module docstring for what each defends against.
    """
    state = _ConnectionState(max_connections)

    def handler(reader, writer):
        return _handle(
            service,
            reader,
            writer,
            max_frame=max_frame,
            idle_timeout=idle_timeout,
            state=state,
        )

    server = await asyncio.start_server(handler, host, port, limit=max_frame)
    return TcpTransport(server, state, drain_timeout)


async def request_tcp(
    payload: dict, host: str = "127.0.0.1", port: int = 8765, timeout: float = 30.0
) -> dict:
    """One request/response round-trip — the client half, for the CLI."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
