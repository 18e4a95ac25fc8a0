"""The multi-tenant async query service: admission, fairness, degradation.

:class:`QueryService` is the front door the ROADMAP's production story
needs over :class:`~repro.Engine`: many tenants, each with their own
ontology Σ, submitting CQ/UCQ/OMQ/CQS requests concurrently, against a
service that *never* hangs and *never* returns an unsound answer — the
two invariants every overload response below preserves.

Request lifecycle
-----------------

1. **Admission** (``serve-admission`` check site).  The request gets a
   *hard* :class:`~repro.governance.Budget` — its deadline caps every
   derived budget, grace included — and the admission controller picks a
   tier by queue depth and a treewidth-flavoured cost estimate
   (:func:`estimate_cost`; the unbounded-arity dichotomy motivates
   shedding predicted-intractable requests early, not timing them out
   late):

   * depth < soft cap → **queue** (normal path);
   * depth ≥ soft cap, or the request looks expensive while the queue is
     half full → **shed with a degraded answer**: evaluate immediately
     under a tiny budget; the sound partial comes back ``degraded``, its
     trip checkpoint parks in the shared chase cache, and a retry picks
     up where it left off (exit-3 semantics, service edition);
   * depth ≥ hard cap → **reject** with a ``Retry-After`` backoff hint.

2. **Fair dispatch** (``serve-dispatch`` check site).  Queued requests
   are dequeued by smooth weighted round-robin over tenants, subject to
   per-tenant in-flight caps — one tenant's burst cannot starve the rest.

3. **Evaluation.**  The worker resolves ``backend="auto"`` through
   :func:`repro.datalog.backend.choose_backend`, consults the per-
   (tenant, backend) :class:`~repro.serve.breaker.BreakerBoard` (an open
   breaker reroutes auto to the chase — the always-sound fallback — and
   fail-fasts an explicitly requested backend), then runs under a child
   budget clamped to the request's remaining allowance.  A budget trip
   degrades: sound partial answers, ``complete=False``, resumable when a
   checkpoint survived.

4. **Watchdog.**  A request past its deadline is cancelled cooperatively
   via :meth:`Budget.cancel`; one that still does not come back (a
   runaway evaluator stuck between check sites) is *abandoned*: the
   client gets a prompt ``killed`` response, and the zombie's eventual
   trip checkpoint lands in the cache, recoverable on retry.  Every
   client await is additionally bounded by ``asyncio.wait_for`` — the
   no-hang invariant does not depend on any component behaving.

Tenant isolation: budgets, queues, concurrency caps, breakers, and
telemetry are per-tenant; the chase cache is deliberately shared (two
tenants with one ontology share materialisations) with per-tenant
accounting via :meth:`~repro.chase.ChaseCache.scoped`.

Shared databases: the wire transport parses each distinct fact list once
through the service's database memo (a bounded LRU), so concurrent
requests may hold the very same :class:`~repro.Instance`.
Every route treats a request's database as read-only — the chase copies
it, SQL loads it into sqlite, the answer steps only read it — and no
route may change it.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..chase import ChaseCache
from ..datamodel import Instance
from ..engine import Engine
from ..evaluation import evaluate as _evaluate, query_kind
from ..governance import Budget, BudgetExceeded
from ..options import EvalOptions, Parallelism, check_backend, check_parallelism
from ..queries import parse_database
from ..tgds import TGD
from ..treewidth.heuristics import treewidth_upper_bound
from .breaker import BreakerBoard
from .telemetry import RequestRecord, Telemetry

__all__ = [
    "ServiceConfig",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "estimate_cost",
]


def estimate_cost(query) -> dict:
    """A cheap pre-admission cost estimate for *query*.

    Treewidth upper bound (min-fill/min-degree, per disjunct) plus body
    size — the fragments the paper proves tractable are exactly the
    bounded-width ones, so a high bound predicts an expensive
    homomorphism search.  Returns ``{"width", "size"}``; the caller
    applies its own threshold.
    """
    inner = getattr(query, "query", query)  # OMQ/CQS carry .query
    cqs = getattr(inner, "disjuncts", None)
    if cqs is None:
        cqs = (inner,)
    width = 0
    size = 0
    for cq in cqs:
        width = max(width, treewidth_upper_bound(cq.gaifman_adjacency()))
        size = max(size, cq.size())
    return {"width": width, "size": size}


@dataclass
class ServiceConfig:
    """Knobs of one :class:`QueryService`.

    ``deadline`` is the whole-request wall clock; the evaluation leg gets
    ``eval_fraction`` of what remains at dispatch and the rest is grace
    headroom for answer extraction after a trip — the request's *hard*
    budget clamps both, so end-to-end time never exceeds the deadline
    (plus watchdog slack).

    ``parallelism`` is deprecated: every tenant chase runs serially.  It
    is validated here, so a malformed value fails at construction and a
    marker or an int > 1 warns once, at start-up.
    """

    deadline: float = 2.0
    eval_fraction: float = 0.7
    max_workers: int = 8
    soft_queue: int = 32  # at/above: shed with degraded answers
    hard_queue: int = 64  # at/above: reject with Retry-After
    tenant_inflight: int = 4
    degraded_deadline: float = 0.05  # budget of a shed request's eval
    degraded_max_steps: int = 500
    expensive_width: int = 3  # treewidth ub >= this => "expensive"
    # A disjunct's ‖q‖ = Σ(arity + 1) over its atoms, not its atom count:
    # three binary atoms (‖q‖ = 9) already count as expensive.
    expensive_size: int = 8  # largest disjunct's ‖q‖ >= this => "expensive"
    breaker_threshold: int = 3
    breaker_cooldown: float = 2.0
    watchdog_interval: float = 0.05
    watchdog_grace: float = 0.5  # past-deadline slack before cancel/kill
    retry_after: float = 0.25  # base backoff hint for rejections
    cache_entries: int = 128  # bounds each cache tier and the database memo
    cache_spill_dir: str | None = None
    parallelism: "Parallelism" = None

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if not 0.0 < self.eval_fraction <= 1.0:
            raise ValueError("eval_fraction must be in (0, 1]")
        if self.soft_queue > self.hard_queue:
            raise ValueError("soft_queue must be <= hard_queue")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        check_parallelism(self.parallelism)


@dataclass
class QueryRequest:
    """One submitted request, as the service tracks it internally."""

    request_id: str
    tenant: str
    query: object
    database: object
    kind: str
    backend: str
    budget: Budget
    submitted: float
    options: EvalOptions | None = None
    dispatched: float | None = None
    future: "asyncio.Future | None" = None
    #: Test hook in the spirit of ``Budget.inject``: replaces the worker's
    #: evaluator (``fn(request, engine, budget) -> OMQAnswer``) so the
    #: chaos suite can simulate worker death and runaways deterministically.
    _evaluator: Callable | None = None


@dataclass
class QueryResponse:
    """What the client gets back.  ``answers`` is always sound."""

    request_id: str
    tenant: str
    status: str  # "ok" | "degraded" | "rejected" | "error" | "killed"
    answers: frozenset = frozenset()
    complete: bool = False
    trip: str | None = None
    backend: str = ""
    detail: str = ""
    retry_after: float | None = None
    resumable: bool = False
    latency: float = 0.0
    queue_wait: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def answered(self) -> bool:
        """Did the client get (possibly partial) answers it may act on?"""
        return self.status in ("ok", "degraded")

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "answers": sorted([str(t) for t in a] for a in self.answers),
            "complete": self.complete,
            "trip": self.trip,
            "backend": self.backend,
            "detail": self.detail,
            "retry_after": self.retry_after,
            "resumable": self.resumable,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "stats": self.stats,
        }


class _Tenant:
    """Registry entry: ontology session + fairness state."""

    __slots__ = (
        "name",
        "engine",
        "tgds",
        "weight",
        "max_inflight",
        "inflight",
        "credit",
        "queue",
    )

    def __init__(self, name, engine, tgds, weight, max_inflight):
        self.name = name
        self.engine = engine
        self.tgds = tgds
        self.weight = weight
        self.max_inflight = max_inflight
        self.inflight = 0
        self.credit = 0.0
        self.queue: deque[QueryRequest] = deque()


def _parse_wire_database(facts: tuple[str, ...]) -> Instance:
    """Parse one wire fact list; the service memoises this per list."""
    return parse_database(", ".join(facts))


class QueryService:
    """The asyncio front door.  See the module docstring for the design.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`
    explicitly.  :meth:`submit` is safe to call from many tasks at once;
    the evaluation itself runs on a thread pool (the chase is CPU-bound
    Python — the asyncio layer multiplexes waiting, not computing).
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock
        self.cache = ChaseCache(
            max_entries=self.config.cache_entries,
            spill_dir=self.config.cache_spill_dir,
        )
        self.breakers = BreakerBoard(
            self.config.breaker_threshold,
            self.config.breaker_cooldown,
            clock=clock,
        )
        self.telemetry = Telemetry(clock=clock)
        self._tenants: dict[str, _Tenant] = {}
        #: The database memo the transport's request parser reads through:
        #: wire fact list -> parsed Instance, shared read-only (see the
        #: module docstring).  A parse that raises stores nothing, so
        #: errors stay per request.
        self._databases = functools.lru_cache(self.config.cache_entries)(
            _parse_wire_database
        )
        self._ids = itertools.count(1)
        self._queued = 0
        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._watchdog: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._inflight: dict[str, QueryRequest] = {}
        self._running = False
        #: Test seam (chaos harness): replaces request-budget minting.
        #: ``fn(deadline) -> Budget`` — must return a *hard* budget for the
        #: deadline-inheritance guarantees to hold.
        self.budget_factory: Callable[[float], Budget] | None = None

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        tgds: Sequence[TGD] = (),
        *,
        weight: int = 1,
        max_inflight: int | None = None,
    ) -> None:
        """Register tenant *name* with ontology *tgds*.

        Each tenant gets an :class:`Engine` session over a tenant-scoped
        view of the shared chase cache; *weight* biases the fair
        dispatcher (2 = twice the dequeue share), *max_inflight*
        overrides the per-tenant concurrency cap.
        """
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        if weight < 1:
            raise ValueError("weight must be >= 1")
        engine = Engine(tgds, cache=self.cache.scoped(name))
        self._tenants[name] = _Tenant(
            name,
            engine,
            tuple(tgds),
            weight,
            max_inflight or self.config.tenant_inflight,
        )

    def tenants(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        # Spill-tier recovery already ran when the cache was constructed
        # (scan, checksum-verify, quarantine the broken, rebuild the
        # manifest); surface its outcome where operators look.  A dirty
        # recovery is a served-through incident, not a startup failure:
        # quarantined spills only cost cache misses.
        report = self.cache.recovery
        if report is not None:
            self.telemetry.gauge("spills_recovered", len(report.artifacts))
            self.telemetry.gauge("spills_quarantined", len(report.quarantined))
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-serve",
        )
        self._running = True
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._watchdog = asyncio.ensure_future(self._watchdog_loop())
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for task in (self._dispatcher, self._watchdog):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        # Cooperatively cancel anything still on a worker thread, then
        # let the pool drain in the background (zombies checkpoint and
        # exit at their next budget check; we do not block on them).
        with self._lock:
            leftovers = list(self._inflight.values())
        for req in leftovers:
            req.budget.cancel("service stopping")
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------
    async def submit(
        self,
        tenant: str,
        query,
        database,
        *,
        backend: str | None = None,
        options: EvalOptions | None = None,
        deadline: float | None = None,
        _evaluator: Callable | None = None,
    ) -> QueryResponse:
        """Submit one request and await its (bounded) response.

        Never raises for evaluation-side problems and never blocks past
        the deadline + watchdog slack: every failure mode maps to a
        :class:`QueryResponse` status.  *options* is the same
        :class:`~repro.options.EvalOptions` bundle :func:`repro.evaluate`
        takes — it supplies the backend default and, for chase-backed
        evaluation, the strategy/trigger-strategy/level-bound knobs; an
        explicit ``backend=`` at the call site wins.
        """
        if not self._running:
            raise RuntimeError("service is not running (use `async with`)")
        entry = self._tenants.get(tenant)
        if entry is None:
            raise KeyError(f"unknown tenant {tenant!r}")
        if backend is None and options is not None:
            backend = options.backend
        backend = check_backend(backend or "auto")
        kind = query_kind(query)  # raises TypeError for junk — caller bug
        deadline = deadline if deadline is not None else self.config.deadline
        now = self._clock()
        req = QueryRequest(
            request_id=f"r{next(self._ids)}",
            tenant=tenant,
            query=query,
            database=database,
            kind=kind,
            backend=backend,
            budget=(
                self.budget_factory(deadline)
                if self.budget_factory is not None
                else Budget(deadline=deadline, hard=True, clock=self._clock)
            ),
            submitted=now,
            options=options,
            future=self._loop.create_future(),
            _evaluator=_evaluator,
        )

        # -- Tier selection ------------------------------------------------
        try:
            req.budget.check("serve-admission")
        except BudgetExceeded as exc:
            return self._finish_rejected(
                req, f"admission: {exc}", self.config.retry_after
            )
        with self._lock:
            depth = self._queued
        cost = estimate_cost(query)
        expensive = (
            cost["width"] >= self.config.expensive_width
            or cost["size"] >= self.config.expensive_size
        )
        if depth >= self.config.hard_queue:
            backoff = self.config.retry_after * (
                1.0 + depth / max(1, self.config.hard_queue)
            )
            return self._finish_rejected(
                req, f"queue full ({depth} waiting)", backoff
            )
        if depth >= self.config.soft_queue or (
            expensive and depth >= self.config.soft_queue // 2
        ):
            return await self._shed(req, entry, expensive)

        # -- Normal path: enqueue, fair dispatch, await ---------------------
        with self._lock:
            entry.queue.append(req)
            self._queued += 1
        self.telemetry.gauge("queue_depth", self._queued)
        self._work.set()
        return await self._await_response(req)

    async def healthz(self) -> dict:
        """The ``/healthz`` snapshot: telemetry + queues + breakers + caches."""
        snapshot = self.telemetry.healthz()
        with self._lock:
            snapshot["queue_depth"] = self._queued
            snapshot["inflight"] = len(self._inflight)
        snapshot["tenant_queues"] = {
            t.name: {"queued": len(t.queue), "inflight": t.inflight}
            for t in self._tenants.values()
        }
        snapshot["breakers"] = self.breakers.snapshot()
        snapshot["cache"] = self.cache.info()
        memo = self._databases.cache_info()
        snapshot["database_memo"] = {
            "hits": memo.hits,
            "misses": memo.misses,
            "entries": memo.currsize,
            "max_entries": memo.maxsize,
        }
        return snapshot

    # ------------------------------------------------------------------
    # Overload tiers
    # ------------------------------------------------------------------
    def _finish_rejected(
        self, req: QueryRequest, detail: str, retry_after: float
    ) -> QueryResponse:
        resp = QueryResponse(
            request_id=req.request_id,
            tenant=req.tenant,
            status="rejected",
            detail=detail,
            retry_after=retry_after,
            latency=self._clock() - req.submitted,
        )
        self._record(req, resp)
        return resp

    async def _shed(
        self, req: QueryRequest, entry: _Tenant, expensive: bool
    ) -> QueryResponse:
        """Tier two: answer *now*, degraded — a tiny-budget evaluation.

        The sound partial ships immediately; its trip checkpoint parks in
        the shared cache (keyed on the database and Σ), so a retry after
        the queue drains resumes the materialisation instead of starting
        over.  The degraded budget is still a child of the request's hard
        budget — shedding cannot blow the deadline either.
        """
        try:
            req.budget.check("serve-dispatch")  # sheds still hit the site
        except BudgetExceeded as exc:
            return self._finish_rejected(
                req, f"dispatch: {exc}", self.config.retry_after
            )
        req.dispatched = self._clock()
        budget = req.budget.child(
            deadline=self.config.degraded_deadline,
            max_steps=self.config.degraded_max_steps,
        )
        why = "expensive query" if expensive else "queue pressure"
        try:
            answer = await asyncio.wait_for(
                self._loop.run_in_executor(
                    self._executor, self._evaluate, req, entry, "chase", budget
                ),
                timeout=self.config.deadline + self.config.watchdog_grace,
            )
        except (Exception, asyncio.TimeoutError) as exc:
            resp = QueryResponse(
                request_id=req.request_id,
                tenant=req.tenant,
                status="error",
                detail=f"shed evaluation failed: {exc}",
                retry_after=self.config.retry_after,
                latency=self._clock() - req.submitted,
            )
            self._record(req, resp)
            return resp
        resp = self._response_from_answer(
            req, answer, "chase", degraded=True, detail=f"shed: {why}"
        )
        self._record(req, resp)
        return resp

    # ------------------------------------------------------------------
    # Dispatch: smooth weighted round-robin over tenants
    # ------------------------------------------------------------------
    def _pick(self) -> tuple[_Tenant, QueryRequest] | None:
        """One smooth-WRR step (caller holds the lock): the eligible
        tenant with the highest accumulated credit wins the dequeue."""
        eligible = [
            t
            for t in self._tenants.values()
            if t.queue and t.inflight < t.max_inflight
        ]
        if not eligible:
            return None
        total = sum(t.weight for t in eligible)
        best = None
        for t in eligible:
            t.credit += t.weight
            if best is None or t.credit > best.credit:
                best = t
        best.credit -= total
        req = best.queue.popleft()
        self._queued -= 1
        best.inflight += 1
        return best, req

    async def _dispatch_loop(self) -> None:
        while self._running:
            with self._lock:
                picked = self._pick()
            if picked is None:
                self._work.clear()
                try:
                    await asyncio.wait_for(self._work.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    pass
                continue
            entry, req = picked
            self.telemetry.gauge("queue_depth", self._queued)
            asyncio.ensure_future(self._run_request(entry, req))

    async def _run_request(self, entry: _Tenant, req: QueryRequest) -> None:
        req.dispatched = self._clock()
        with self._lock:
            self._inflight[req.request_id] = req
        try:
            try:
                req.budget.check("serve-dispatch")
            except BudgetExceeded as exc:
                self._resolve(
                    req,
                    self._finish_rejected(
                        req, f"dispatch: {exc}", self.config.retry_after
                    ),
                    record=False,
                )
                return
            backend, resp = self._resolve_backend(entry, req)
            if resp is not None:  # fail-fast: explicit backend, open breaker
                self._record(req, resp)
                self._resolve(req, resp, record=False)
                return
            remaining = max(0.0, req.budget.remaining() or 0.0)
            budget = req.budget.child(
                deadline=remaining * self.config.eval_fraction
            )
            try:
                answer = await self._loop.run_in_executor(
                    self._executor, self._evaluate, req, entry, backend, budget
                )
            except Exception as exc:
                self.breakers.record(req.tenant, backend, ok=False)
                resp = QueryResponse(
                    request_id=req.request_id,
                    tenant=req.tenant,
                    status="error",
                    backend=backend,
                    detail=f"{type(exc).__name__}: {exc}",
                    retry_after=self.config.retry_after,
                    latency=self._clock() - req.submitted,
                    queue_wait=req.dispatched - req.submitted,
                )
                self._record(req, resp)
                self._resolve(req, resp, record=False)
                return
            self.breakers.record(
                req.tenant, backend, ok=answer.trip is None
            )
            resp = self._response_from_answer(req, answer, backend)
            self._record(req, resp)
            self._resolve(req, resp, record=False)
        finally:
            with self._lock:
                self._inflight.pop(req.request_id, None)
                entry.inflight -= 1
            self._work.set()

    def _resolve_backend(
        self, entry: _Tenant, req: QueryRequest
    ) -> tuple[str, QueryResponse | None]:
        """Map the requested backend through the circuit breakers.

        ``auto`` resolves fragment-aware (open-world) or to the in-memory
        join engine (closed-world); an open breaker reroutes auto to the
        chase — never unsound, merely slower — and fail-fasts an
        explicitly requested broken backend with a Retry-After.
        """
        requested = req.backend
        if requested == "auto":
            if req.kind == "omq":
                from ..datalog.backend import choose_backend

                resolved = choose_backend(entry.tgds)
            else:
                resolved = "chase"
            if not self.breakers.allow(req.tenant, resolved):
                return "chase", None  # reroute to the sound fallback
            return resolved, None
        if not self.breakers.allow(req.tenant, requested):
            backoff = max(
                self.breakers.retry_after(req.tenant, requested),
                self.config.retry_after,
            )
            return requested, QueryResponse(
                request_id=req.request_id,
                tenant=req.tenant,
                status="rejected",
                backend=requested,
                detail=f"circuit open for backend {requested!r}",
                retry_after=backoff,
                latency=self._clock() - req.submitted,
                queue_wait=(req.dispatched or req.submitted) - req.submitted,
            )
        return requested, None

    # ------------------------------------------------------------------
    # Evaluation (worker thread)
    # ------------------------------------------------------------------
    def _evaluate(self, req: QueryRequest, entry: _Tenant, backend, budget):
        """Runs on the thread pool.  Returns an OMQAnswer; exceptions
        propagate to the dispatcher, which maps them to ``error``."""
        if req._evaluator is not None:
            return req._evaluator(req, entry.engine, budget)
        if req.options is not None:
            # An options bundle routes through the unified front door so
            # its chase knobs (strategy/trigger/level bound) apply; OMQs
            # still share the tenant's scoped chase cache.
            return _evaluate(
                req.query,
                req.database,
                options=req.options,
                backend=backend,
                budget=budget,
                cache=entry.engine.cache if req.kind == "omq" else None,
            )
        if req.kind == "omq":
            return entry.engine.certain_answers(
                req.query, req.database, budget=budget, backend=backend
            )
        if req.kind == "cqs":
            return _evaluate(req.query, req.database, backend=backend, budget=budget)
        return entry.engine.evaluate(
            req.query, req.database, budget=budget, backend=backend
        )

    def _response_from_answer(
        self, req, answer, backend, *, degraded=False, detail=""
    ) -> QueryResponse:
        now = self._clock()
        complete = bool(answer.complete)
        status = "ok" if complete and not degraded else "degraded"
        return QueryResponse(
            request_id=req.request_id,
            tenant=req.tenant,
            status=status,
            answers=frozenset(answer.answers),
            complete=complete,
            trip=answer.trip,
            backend=backend,
            detail=detail or getattr(answer, "detail", ""),
            retry_after=self.config.retry_after if status == "degraded" else None,
            resumable=getattr(answer, "checkpoint", None) is not None,
            latency=now - req.submitted,
            queue_wait=(req.dispatched or now) - req.submitted,
            stats=answer.stats.as_dict() if answer.stats is not None else {},
        )

    # ------------------------------------------------------------------
    # Watchdog + response plumbing
    # ------------------------------------------------------------------
    async def _watchdog_loop(self) -> None:
        """Cancel cooperatively at deadline; abandon runaways shortly after.

        Abandoning resolves the client future with ``killed`` — the
        worker thread may run on (Python threads cannot be killed), but
        its budget is cancelled, so its next check raises, and the trip
        checkpoint lands in the cache for a later resume.  The client
        never waits on a zombie.
        """
        grace = self.config.watchdog_grace
        while self._running:
            await asyncio.sleep(self.config.watchdog_interval)
            now = self._clock()
            with self._lock:
                inflight = list(self._inflight.values())
            for req in inflight:
                remaining = req.budget.remaining()
                if remaining is None or remaining > 0:
                    continue
                past = -remaining
                if not req.budget.cancelled:
                    req.budget.cancel(
                        "watchdog: request exceeded its deadline"
                    )
                if past >= grace and req.future and not req.future.done():
                    resp = QueryResponse(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        status="killed",
                        detail=(
                            "watchdog: evaluator unresponsive past "
                            "deadline + grace; abandoned (checkpoint, if "
                            "any, parked in cache)"
                        ),
                        retry_after=self.config.retry_after,
                        latency=now - req.submitted,
                        queue_wait=(req.dispatched or now) - req.submitted,
                    )
                    self._record(req, resp)
                    req.future.set_result(resp)

    async def _await_response(self, req: QueryRequest) -> QueryResponse:
        """The client-side wait, bounded no matter what anything else does."""
        limit = (
            max(0.0, req.budget.remaining() or self.config.deadline)
            + 2 * self.config.watchdog_grace
            + 1.0
        )
        try:
            return await asyncio.wait_for(
                asyncio.shield(req.future), timeout=limit
            )
        except asyncio.TimeoutError:
            req.budget.cancel("client wait limit reached")
            resp = QueryResponse(
                request_id=req.request_id,
                tenant=req.tenant,
                status="killed",
                detail="response missed the hard client wait limit",
                retry_after=self.config.retry_after,
                latency=self._clock() - req.submitted,
            )
            self._record(req, resp)
            return resp

    def _resolve(
        self, req: QueryRequest, resp: QueryResponse, *, record=True
    ) -> None:
        if record:
            self._record(req, resp)
        if req.future is not None and not req.future.done():
            req.future.set_result(resp)

    def _record(self, req: QueryRequest, resp: QueryResponse) -> None:
        self.telemetry.record(
            RequestRecord(
                request_id=req.request_id,
                tenant=req.tenant,
                kind=req.kind,
                backend=resp.backend,
                outcome=resp.status,
                complete=resp.complete,
                trip=resp.trip,
                answers=len(resp.answers),
                latency=resp.latency,
                queue_wait=resp.queue_wait,
                retry_after=resp.retry_after,
                resumable=resp.resumable,
                detail=resp.detail,
                stats=resp.stats,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryService<{len(self._tenants)} tenants, "
            f"{self._queued} queued, running={self._running}>"
        )
