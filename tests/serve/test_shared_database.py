"""One parsed wire database, shared read-only by many requests.

The transport parses each distinct fact list once, through the service's
database memo, so every request that repeats the list gets the very same
:class:`~repro.Instance` — on every route, and on several worker threads
at once.  These tests hold that contract:

* no route changes the shared instance (its ``atoms()`` and ``version``
  are the same before and after);
* a memo hit answers exactly as a fresh ``parse_database`` does;
* threads evaluating different queries over one fresh memo instance (the
  planner's first statistics build and its plan dict included) each get
  the answers of a serial run.

The threaded tests run three times in CI's ``parallel-suite`` job.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro import Engine, evaluate, parse_database, parse_tgds, parse_ucq
from repro.benchgen import random_binary_database
from repro.datamodel import EvalStats
from repro.datamodel.planner import InstanceStats
from repro.governance import Budget
from repro.serve import QueryService, ServiceConfig
from repro.serve.net import _parse_request
from repro.serve.service import _parse_wire_database

#: Linear and guarded, so the chase, datalog and sql routes all accept it.
ACME = parse_tgds(
    [
        "Mgr(x) -> Emp(x)",
        "Emp(x) -> Person(x)",
        "Emp(x) -> WorksFor(x, y)",
        "E(x, y) -> Node(x)",
    ]
)
#: The CQS tenant: FACTS satisfy it, so the promise check passes.
GRAPH = parse_tgds(["WorksFor(x, y) -> Emp(x)"])
FACTS = [
    "Mgr(grace)",
    "Emp(ada)",
    "WorksFor(ada, acme)",
    "E(a, b)",
    "E(b, c)",
    "E(c, a)",
    "E(c, d)",
]
OMQ_TEXT = "q(x) :- WorksFor(x, y), Person(x)"

#: (tenant, kind, query, backend): every route a wire request can take.
ROUTES = [
    ("acme", "omq", OMQ_TEXT, "chase"),
    ("acme", "omq", OMQ_TEXT, "datalog"),
    ("acme", "omq", OMQ_TEXT, "sql"),
    ("acme", "cq", "q(x, z) :- E(x, y), E(y, z)", None),
    ("acme", "ucq", "q(x) :- E(x, y), E(y, z), E(z, x) | q(x) :- Mgr(x)", None),
    ("graph", "cqs", "q(x) :- Emp(x), WorksFor(x, y)", None),
]


def _service(**config) -> QueryService:
    config.setdefault("deadline", 5.0)
    return QueryService(ServiceConfig(**config))


def _register(svc: QueryService) -> None:
    svc.register("acme", ACME)
    svc.register("graph", GRAPH)


def _payload(tenant, kind, query, backend=None) -> dict:
    payload = {"tenant": tenant, "kind": kind, "query": query, "database": FACTS}
    if backend is not None:
        payload["backend"] = backend
    return payload


def _state(database):
    return database.atoms(), database.version


def _fresh_answers(query, backend) -> frozenset:
    fresh = parse_database(", ".join(FACTS))
    return frozenset(evaluate(query, fresh, backend=backend or "auto").answers)


@pytest.mark.parametrize(
    "tenant, kind, text, backend",
    ROUTES,
    ids=[f"{kind}-{backend or 'auto'}" for _, kind, _, backend in ROUTES],
)
def test_route_leaves_the_shared_instance_unchanged(tenant, kind, text, backend):
    payload = _payload(tenant, kind, text, backend)

    async def go():
        async with _service() as svc:
            _register(svc)
            _, query, database, _, _ = _parse_request(svc, payload)
            before = _state(database)
            first = await svc.submit(tenant, query, database, backend=backend)
            assert first.status == "ok", first.detail
            assert _state(database) == before
            # The same list again is a memo hit: the same instance, and
            # the answers of a fresh parse.
            _, query, again, _, _ = _parse_request(svc, payload)
            assert again is database
            second = await svc.submit(tenant, query, again, backend=backend)
            assert second.status == "ok", second.detail
            assert _state(database) == before
            expected = _fresh_answers(query, backend)
            assert first.answers == second.answers == expected
            memo = (await svc.healthz())["database_memo"]
            assert (memo["hits"], memo["misses"], memo["entries"]) == (1, 1, 1)

    asyncio.run(go())


def test_tripped_request_parks_its_checkpoint_and_leaves_the_instance():
    """A budget trip mid-chase parks the checkpoint in the chase cache; the
    retry over the same memo instance resumes it to the full answers."""
    payload = _payload("acme", "omq", OMQ_TEXT, "chase")

    async def go():
        async with _service() as svc:
            _register(svc)
            _, query, database, _, _ = _parse_request(svc, payload)
            before = _state(database)
            svc.budget_factory = lambda deadline: Budget(
                deadline=deadline, hard=True, max_atoms=len(FACTS) + 2
            )
            tripped = await svc.submit("acme", query, database, backend="chase")
            assert tripped.status == "degraded" and tripped.trip is not None
            assert tripped.resumable
            assert svc.cache.info()["checkpoints"] == 1
            assert _state(database) == before

            svc.budget_factory = None
            _, query, again, _, _ = _parse_request(svc, payload)
            assert again is database
            retry = await svc.submit("acme", query, again, backend="chase")
            assert retry.status == "ok" and retry.complete
            assert svc.cache.info()["resumes"] == 1
            assert _state(database) == before
            assert retry.answers == _fresh_answers(query, "chase")
            assert tripped.answers <= retry.answers

    asyncio.run(go())


def test_shed_request_leaves_the_instance():
    """The degraded tier's tiny-budget chase runs over the shared instance
    too; a later full request over it gets the fresh-parse answers."""
    payload = _payload("acme", "omq", OMQ_TEXT)

    async def go():
        async with _service(soft_queue=0, degraded_max_steps=3) as svc:
            _register(svc)
            _, query, database, _, _ = _parse_request(svc, payload)
            before = _state(database)
            shed = await svc.submit("acme", query, database)
            assert shed.status == "degraded" and shed.detail.startswith("shed")
            assert _state(database) == before
            expected = _fresh_answers(query, None)
            assert shed.answers <= expected
        async with _service() as svc:
            _register(svc)
            full = await svc.submit("acme", query, database)
            assert full.status == "ok" and full.answers == expected
            assert _state(database) == before

    asyncio.run(go())


# ----------------------------------------------------------------------
# Threads over one instance
# ----------------------------------------------------------------------
_GRAPH_FACTS = tuple(map(str, random_binary_database(24, 80, seed=5)))
_CLOSED_TEXTS = [
    "q(x, z) :- E(x, y), E(y, z)",
    "q(x) :- E(x, y), E(y, z), E(z, x)",
    "q(x, w) :- E(x, y), E(y, z), E(z, w)",
    "q(y) :- E(x, y), E(z, y), E(y, w)",
    "q(x) :- E(x, x) | q(x) :- E(x, y), E(y, x)",
    "q() :- E(x, y), E(y, z), E(z, w), E(w, x)",
]
_CLOSED_QUERIES = [parse_ucq(text) for text in _CLOSED_TEXTS]


def _serial_answers() -> list[frozenset]:
    engine = Engine(())
    fresh = parse_database(", ".join(_GRAPH_FACTS))
    return [frozenset(engine.evaluate(q, fresh).answers) for q in _CLOSED_QUERIES]


def _run_threads(work, workers: int) -> None:
    errors: list[BaseException] = []

    def guarded(w: int) -> None:
        try:
            work(w)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


@pytest.fixture()
def short_switch_interval():
    """Switch threads every few microseconds, so races get a chance."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def test_threads_share_one_fresh_memo_instance(short_switch_interval):
    """Threads released together over a fresh memo instance, each cycling
    through the queries from its own offset, get the serial answers."""
    expected = _serial_answers()
    database = _parse_wire_database(_GRAPH_FACTS)  # as the memo parses it
    before = _state(database)
    engine = Engine(())
    workers, rounds = 6, 3
    start = threading.Barrier(workers)
    results: list[list[tuple[int, frozenset]]] = [[] for _ in range(workers)]

    def work(w: int) -> None:
        start.wait()
        for r in range(rounds):
            for k in range(len(_CLOSED_QUERIES)):
                i = (w + r + k) % len(_CLOSED_QUERIES)
                answer = engine.evaluate(_CLOSED_QUERIES[i], database)
                results[w].append((i, frozenset(answer.answers)))

    _run_threads(work, workers)
    for got in results:
        assert len(got) == rounds * len(_CLOSED_QUERIES)
        for i, answers in got:
            assert answers == expected[i], _CLOSED_TEXTS[i]
    assert _state(database) == before


def test_first_statistics_build_race_keeps_every_plan(monkeypatch):
    """Every thread is inside the planner's first statistics build at once;
    one build is published, each thread compiles its own query's plan into
    it, and so a serial pass afterwards compiles nothing."""
    serial = _serial_answers()
    singles = [i for i, q in enumerate(_CLOSED_QUERIES) if len(q.disjuncts) == 1]
    queries = [_CLOSED_QUERIES[i] for i in singles]
    expected = [serial[i] for i in singles]
    database = _parse_wire_database(_GRAPH_FACTS)  # as the memo parses it
    engine = Engine(())
    workers = len(queries)
    inside = threading.Barrier(workers)
    build = InstanceStats.build.__func__

    def rendezvous_build(cls, instance):
        inside.wait(timeout=30)
        return build(cls, instance)

    monkeypatch.setattr(InstanceStats, "build", classmethod(rendezvous_build))
    results: list[frozenset] = [frozenset()] * workers

    def work(w: int) -> None:
        results[w] = frozenset(engine.evaluate(queries[w], database).answers)

    _run_threads(work, workers)
    assert results == expected
    stats = EvalStats()
    for query in queries:
        engine.evaluate(query, database, stats=stats)
    assert stats.plans_compiled == 0 and stats.plan_cache_hits == len(queries)


def test_concurrent_requests_share_one_memo_instance():
    """Through the service: concurrent requests that repeat one fact list
    run on several worker threads over one instance, each answered as a
    serial run answers it."""
    expected = _serial_answers()
    payloads = [
        {"tenant": "acme", "kind": "ucq", "query": text, "database": list(_GRAPH_FACTS)}
        for text in _CLOSED_TEXTS
    ]

    async def go():
        # Nothing sheds: every request takes the normal worker path.
        config = dict(expensive_width=99, expensive_size=99)
        async with _service(max_workers=4, tenant_inflight=4, **config) as svc:
            _register(svc)
            parsed = [_parse_request(svc, p) for p in payloads * 3]
            databases = {id(database) for _, _, database, _, _ in parsed}
            assert len(databases) == 1
            database = parsed[0][2]
            before = _state(database)
            responses = await asyncio.gather(
                *(svc.submit(t, q, d, backend=b) for t, q, d, b, _ in parsed)
            )
            for n, resp in enumerate(responses):
                i = n % len(_CLOSED_TEXTS)
                assert resp.status == "ok", resp.detail
                assert resp.answers == expected[i], _CLOSED_TEXTS[i]
            assert _state(database) == before
            memo = (await svc.healthz())["database_memo"]
            assert (memo["hits"], memo["misses"]) == (len(parsed) - 1, 1)

    asyncio.run(go())
