"""Transport fuzz: the JSON-lines server against hostile byte streams.

The hypothesis half drives :func:`repro.serve.net._handle` directly over a
fed ``StreamReader`` (no sockets — thousands of examples stay cheap) and
holds the transport invariant from the module docstring of ``net.py``:

* the handler task **never** raises, whatever bytes arrive;
* every complete request line gets **exactly one** response line —
  oversized lines included, blank lines excluded, an unterminated tail
  excluded (an incomplete request earns no response);
* every response line is a JSON object, and internal failures echo no
  internal detail (the sentinel leak test plants a marker in an exception
  message and asserts it never reaches the wire).

Example count: ``NET_FUZZ_EXAMPLES`` (default 150 locally; CI runs 1000+).
Runs are derandomized unless ``NET_FUZZ_SEED`` is set — CI's randomized
step sets it and echoes it, the ``CHAOS_SEED`` pattern.

The deterministic half uses real sockets and a real
:class:`~repro.serve.QueryService` for the behaviours fed readers cannot
exercise: idle timeout, the connection cap, graceful drain, and surviving
an oversized frame mid-connection.
"""

import asyncio
import functools
import json
import os

import hypothesis
import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_database, parse_tgds
from repro.serve import QueryService, ServiceConfig, serve_tcp
from repro.serve.net import _ConnectionState, _handle
from repro.serve.service import _parse_wire_database

#: Small frame cap so the fuzzer actually crosses it.
MAX_FRAME = 256

FUZZ_EXAMPLES = int(os.environ.get("NET_FUZZ_EXAMPLES", "150"))
_SEED = os.environ.get("NET_FUZZ_SEED")

_fuzz_settings = settings(
    max_examples=FUZZ_EXAMPLES,
    derandomize=_SEED is None,
    deadline=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)


def _maybe_seed(func):
    return hypothesis.seed(int(_SEED))(func) if _SEED else func


# ----------------------------------------------------------------------
# A stub service: real request parsing, canned evaluation
# ----------------------------------------------------------------------
class _Entry:
    def __init__(self, tgds):
        self.tgds = tgds


class _StubService:
    """Quacks enough like QueryService for ``_handle``.

    ``_parse_request`` (the error-prone surface: JSON shape, query
    parsing, tenant/kind dispatch, the database memo) runs for real;
    evaluation is canned so each example costs microseconds.  *boom*
    plants an internal failure whose message must never reach the wire.
    ``databases`` keeps every database handed to :meth:`submit`.
    """

    def __init__(self, boom: Exception | None = None):
        self._tenants = {"acme": _Entry(tuple(parse_tgds(["R(x, y) -> P(x)"])))}
        self._databases = functools.lru_cache(8)(_parse_wire_database)
        self.boom = boom
        self.submits = 0
        self.databases = []

    async def healthz(self):
        return {"status": "ok", "stub": True}

    async def submit(self, tenant, query, database, backend=None, deadline=None):
        self.submits += 1
        self.databases.append(database)
        if self.boom is not None:
            raise self.boom

        class _Resp:
            @staticmethod
            def as_dict():
                return {"status": "ok", "answers": []}

        return _Resp()


class _CollectingWriter:
    def __init__(self):
        self.buffer = bytearray()
        self.closed = False

    def write(self, data):
        self.buffer += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


def _drive(service, blob: bytes):
    """Feed *blob* through ``_handle``; return the response lines."""

    async def go():
        reader = asyncio.StreamReader(limit=MAX_FRAME)
        reader.feed_data(blob)
        reader.feed_eof()
        writer = _CollectingWriter()
        await _handle(
            service, reader, writer, max_frame=MAX_FRAME, idle_timeout=None
        )
        assert writer.closed
        return bytes(writer.buffer).splitlines()

    return asyncio.run(go())


def _expected_responses(lines: list[bytes]) -> int:
    """The invariant's count: one per complete non-blank/oversized line."""
    count = 0
    for line in lines:
        if len(line) > MAX_FRAME:
            count += 1  # discarded as oversized, answered with one error
        elif line.strip():
            count += 1
    return count


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_json_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)

#: Fact lists, well-formed and not.
_fact_list = st.lists(st.sampled_from(["R(a, b)", "P(a)", "R(a", ""]), max_size=3)

#: Request-shaped objects: known keys, adversarial values.
_request_obj = st.dictionaries(
    st.sampled_from(
        ["tenant", "query", "kind", "database", "op", "id", "backend", "deadline"]
    ),
    st.one_of(
        st.sampled_from(
            ["acme", "ghost", "ucq", "cq", "omq", "cqs", "healthz", "query",
             "q(x) :- P(x)", "q(x) :- ", "R(a, b)", ""]
        ),
        _fact_list,
        _json_value,
    ),
    max_size=6,
)

#: Requests that get past the tenant and query checks, so the database
#: field reaches the memo: a known tenant and kind, a query that parses.
_parseable_request = st.fixed_dictionaries(
    {
        "tenant": st.just("acme"),
        "query": st.sampled_from(["q(x) :- P(x)", "q(x) :- R(x, y)"]),
    },
    optional={
        "kind": st.sampled_from(["ucq", "cq", "omq", "cqs"]),
        "database": st.one_of(_fact_list, _json_value),
        "id": st.integers(),
    },
)

_line = st.one_of(
    # Raw bytes (newlines stripped so each strategy value is one line).
    st.binary(max_size=2 * MAX_FRAME).map(lambda b: b.replace(b"\n", b" ")),
    # Malformed-to-wellformed JSON spectrum.
    _request_obj.map(lambda d: json.dumps(d).encode()),
    _request_obj.map(lambda d: json.dumps(d).encode()[:-2]),  # truncated
    _json_value.map(lambda v: json.dumps(v).encode()),  # non-object JSON
    st.just(b""),
    st.just(b"   "),
    st.just(b'{"op": "healthz"}'),
    # Oversized but valid JSON: must still be discarded + answered.
    st.just(json.dumps({"pad": "x" * (2 * MAX_FRAME)}).encode()),
)

_stream = st.tuples(
    st.lists(_line, max_size=8),
    # Unterminated tail: a mid-frame disconnect.
    st.binary(max_size=2 * MAX_FRAME).map(lambda b: b.replace(b"\n", b"")),
)


# ----------------------------------------------------------------------
# The fuzz properties
# ----------------------------------------------------------------------
@_maybe_seed
@_fuzz_settings
@given(_stream)
def test_fuzz_one_response_per_complete_line(stream):
    lines, tail = stream
    blob = b"".join(line + b"\n" for line in lines) + tail
    responses = _drive(_StubService(), blob)
    assert len(responses) == _expected_responses(lines), (
        f"fed {len(lines)} lines + {len(tail)}B tail, "
        f"got {len(responses)} responses"
    )
    for response in responses:
        body = json.loads(response)  # every response is valid JSON...
        assert isinstance(body, dict)  # ...and an object
        assert "status" in body


@_maybe_seed
@_fuzz_settings
@given(_stream)
def test_fuzz_internal_errors_carry_no_detail(stream):
    lines, tail = stream
    blob = b"".join(line + b"\n" for line in lines) + tail
    service = _StubService(boom=RuntimeError("MARKER-9f2c secret internals"))
    responses = _drive(service, blob)
    wire = b"\n".join(responses)
    assert b"MARKER-9f2c" not in wire, "internal exception detail leaked"
    for response in responses:
        body = json.loads(response)
        if body.get("error") == "RuntimeError":
            assert body["detail"] == "internal error"


@_maybe_seed
@_fuzz_settings
@given(_request_obj)
def test_fuzz_id_echoed_even_on_error(payload):
    blob = json.dumps(payload).encode()
    if len(blob) > MAX_FRAME:
        return  # oversized frames are discarded unparsed: no id echo
    responses = _drive(_StubService(), blob + b"\n")
    assert len(responses) == 1
    body = json.loads(responses[0])
    if "id" in payload:
        assert body.get("id") == payload["id"]


@_maybe_seed
@_fuzz_settings
@given(st.one_of(_request_obj, _parseable_request))
def test_fuzz_request_parsing_fails_only_on_client_input(payload):
    """Without a planted failure, a request-shaped object is either
    answered or refused as a client error: the parser itself never
    reaches ``internal error``."""
    blob = json.dumps(payload).encode()
    if len(blob) > MAX_FRAME:
        return
    body = json.loads(_drive(_StubService(), blob + b"\n")[0])
    assert body.get("detail") != "internal error", body


# ----------------------------------------------------------------------
# Deterministic request parsing through the stub
# ----------------------------------------------------------------------
_WELL_FORMED = {
    "tenant": "acme",
    "query": "q(x) :- P(x)",
    "database": ["R(a, b)", "P(c)"],
}


def _one(service, payload: dict) -> dict:
    return json.loads(_drive(service, json.dumps(payload).encode() + b"\n")[0])


class TestDatabaseField:
    def test_well_formed_request_is_answered(self):
        stub = _StubService()
        assert _one(stub, _WELL_FORMED)["status"] == "ok"
        assert stub.submits == 1
        assert stub.databases[0] == parse_database("R(a, b), P(c)")

    def test_same_list_twice_is_parsed_once(self):
        stub = _StubService()
        blob = json.dumps(_WELL_FORMED).encode() + b"\n"
        responses = _drive(stub, blob + blob)
        assert [json.loads(r)["status"] for r in responses] == ["ok", "ok"]
        first, second = stub.databases
        assert first is second
        info = stub._databases.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_absent_database_is_empty(self):
        stub = _StubService()
        payload = {"tenant": "acme", "query": "q(x) :- P(x)"}
        assert _one(stub, payload)["status"] == "ok"
        assert len(stub.databases[0]) == 0

    @pytest.mark.parametrize(
        "database",
        [{"R(a)": 1}, "Emp(ada)", ["R(a)", 3], [["R(a)"]], None, 7],
        ids=["dict", "string", "non-string-fact", "nested-list", "null", "int"],
    )
    def test_malformed_database_is_a_client_error(self, database):
        stub = _StubService()
        body = _one(stub, dict(_WELL_FORMED, database=database, id=5))
        assert body["status"] == "error"
        assert body["error"] == "ValueError"
        assert body["detail"] == "database must be a list of fact strings"
        assert body["id"] == 5
        assert stub.submits == 0

    def test_failed_parse_is_not_stored(self):
        stub = _StubService()
        bad = dict(_WELL_FORMED, database=["R(a, b)", "P(c"])
        first, second = _one(stub, bad), _one(stub, bad)
        assert first == second
        assert first["error"] == "ParseError" and "P(c" in first["detail"]
        info = stub._databases.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_memo_is_bounded(self):
        stub = _StubService()
        bound = stub._databases.cache_info().maxsize
        for i in range(bound + 3):
            payload = dict(_WELL_FORMED, database=[f"P(c{i})"])
            assert _one(stub, payload)["status"] == "ok"
        assert stub._databases.cache_info().currsize == bound
        # The oldest lists were evicted, so the first one parses afresh.
        assert _one(stub, dict(_WELL_FORMED, database=["P(c0)"]))["status"] == "ok"
        assert stub.databases[0] is not stub.databases[-1]
        assert stub.databases[0] == stub.databases[-1]


# ----------------------------------------------------------------------
# Deterministic socket-level hardening tests
# ----------------------------------------------------------------------
async def _start(**net_kwargs):
    svc = QueryService(ServiceConfig(deadline=5.0))
    await svc.start()
    svc.register("acme", parse_tgds(["R(x, y) -> P(x)"]))
    transport = await serve_tcp(svc, "127.0.0.1", 0, **net_kwargs)
    port = transport.sockets[0].getsockname()[1]
    return svc, transport, port


async def _roundtrip(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await asyncio.wait_for(reader.readline(), timeout=10))


class TestSocketHardening:
    def test_oversized_frame_then_connection_survives(self):
        async def go():
            svc, transport, port = await _start(max_frame=1024)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"x" * 5000 + b"\n")
                await writer.drain()
                body = json.loads(await reader.readline())
                assert body["error"] == "frame too large"
                # Same connection still serves.
                body = await _roundtrip(reader, writer, {"op": "healthz"})
                assert body["status"] == "ok"
                writer.close()
            finally:
                await transport.close()
                await svc.stop()

        asyncio.run(go())

    def test_idle_connection_reaped(self):
        async def go():
            svc, transport, port = await _start(idle_timeout=0.2)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                assert line == b"", "idle connection should be closed, got data"
                writer.close()
            finally:
                await transport.close()
                await svc.stop()

        asyncio.run(go())

    def test_connection_cap_refuses_cleanly(self):
        async def go():
            svc, transport, port = await _start(max_connections=1)
            try:
                r1, w1 = await asyncio.open_connection("127.0.0.1", port)
                body = await _roundtrip(r1, w1, {"op": "healthz"})
                assert body["status"] == "ok"
                # Second connection: one structured refusal, then close.
                r2, w2 = await asyncio.open_connection("127.0.0.1", port)
                refusal = json.loads(await asyncio.wait_for(r2.readline(), 5))
                assert refusal["error"] == "overloaded"
                assert await r2.read() == b""
                w2.close()
                # The first connection was never disturbed.
                body = await _roundtrip(r1, w1, {"op": "healthz"})
                assert body["status"] == "ok"
                w1.close()
                await w1.wait_closed()
                # Capacity is released for newcomers.
                await asyncio.sleep(0.05)
                r3, w3 = await asyncio.open_connection("127.0.0.1", port)
                body = await _roundtrip(r3, w3, {"op": "healthz"})
                assert body["status"] == "ok"
                w3.close()
            finally:
                await transport.close()
                await svc.stop()

        asyncio.run(go())

    def test_graceful_drain_on_close(self):
        async def go():
            svc, transport, port = await _start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = await _roundtrip(reader, writer, {"op": "healthz"})
            assert body["status"] == "ok"
            assert transport.connections == 1
            await transport.close()  # cancels the idle handler after drain
            assert not transport.is_serving()
            assert transport.connections == 0
            writer.close()
            await svc.stop()

        asyncio.run(go())

    def test_mid_frame_disconnect_is_silent(self):
        async def go():
            svc, transport, port = await _start()
            try:
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"op": "healthz"')  # no newline, then vanish
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                # The server is unharmed and still answering.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                body = await _roundtrip(reader, writer, {"op": "healthz"})
                assert body["status"] == "ok"
                writer.close()
            finally:
                await transport.close()
                await svc.stop()

        asyncio.run(go())

    def test_parse_error_detail_is_bounded(self):
        async def go():
            svc, transport, port = await _start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                body = await _roundtrip(
                    reader,
                    writer,
                    {"tenant": "acme", "query": "q(x) :- " + "Z" * 5000},
                )
                assert body["status"] == "error"
                assert len(body["detail"]) <= 301  # _MAX_DETAIL + ellipsis
                writer.close()
            finally:
                await transport.close()
                await svc.stop()

        asyncio.run(go())
