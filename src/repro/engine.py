"""The unified entry point: one :class:`Engine` session per ontology Σ.

The module-level functions (:func:`repro.chase`, :func:`repro.certain_answers`,
:func:`repro.evaluate`) each take the ontology, the governance knobs, and the
performance knobs as per-call kwargs — correct, but repetitive, and they
cannot share work across calls.  An :class:`Engine` fixes Σ and the knobs
once and exposes the paper's three evaluation problems as methods:

* :meth:`Engine.chase` — materialise ``chase(D, Σ)`` (Section 2);
* :meth:`Engine.certain_answers` — open-world OMQ evaluation,
  ``Q(D) = q(chase(D, Σ))`` (Prop 3.1);
* :meth:`Engine.evaluate` — closed-world (plain) UCQ evaluation ``q(D)``,
  the CQS side of the paper's comparison.

What the session buys over the free functions:

* a **shared** :class:`~repro.chase.ChaseCache` — repeated calls over the
  same (or a grown) database reuse the chase instead of re-materialising
  it (on by default; pass ``cache=False`` to opt out);
* one **parallelism** setting applied to every chase's per-level trigger
  search;
* one **budget policy**: pass a dict (e.g. ``{"deadline": 5.0}``) to mint
  a *fresh* :class:`~repro.governance.Budget` per call — the usual intent —
  or a :class:`Budget` instance to share one allowance across all calls.

Results are the same objects the free functions return
(:class:`~repro.chase.ChaseResult`, :class:`~repro.omq.OMQAnswer`), carrying
the uniform ``.complete`` / ``.trip`` / ``.stats`` protocol.  Every call
runs on its **own** :class:`~repro.datamodel.EvalStats` — never on a shared
one — so concurrent ``evaluate()`` calls from multiple threads or asyncio
tasks cannot race on counter increments.  At call end the private object is
merged, under a lock, into the session aggregate (:meth:`Engine.session_stats`)
and into any caller-provided ``stats=`` object; the returned result's
``.stats`` is the private per-call object and describes *that call's* work
(a cache hit reports zero chase work).

Example::

    from repro import Engine, ProcessPool, parse_database, parse_tgds, parse_ucq

    engine = Engine(parse_tgds(["Emp(x) -> Person(x)"]), parallelism=ProcessPool(4))
    db = parse_database("Emp(ada)")
    engine.certain_answers(parse_ucq("q(x) :- Person(x)"), db).answers
    # {('ada',)} — and the chase is now cached for the next query
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

from .chase import ChaseCache, ChaseResult, chase as _chase
from .datamodel import EvalStats, Instance, JoinPlan, plan_for
from .governance import Budget
from .governance.checkpoint import ChaseCheckpoint, validate_tgds
from .omq import OMQ, OMQAnswer, certain_answers as _certain_answers
from .options import EvalOptions, Parallelism
from .queries import CQ, UCQ
from .tgds import TGD

__all__ = ["Engine"]

#: Sentinel distinguishing "use the session's plan policy" from an explicit
#: ``plan=None`` (which forces dynamic per-node ordering).
_SESSION_DEFAULT = object()


class Engine:
    """An evaluation session over a fixed TGD set Σ.

    Parameters
    ----------
    tgds:
        The ontology Σ, fixed for the session (the chase-cache key space).
    budget:
        ``None`` (ungoverned), a :class:`Budget` instance (shared — all
        calls draw on one allowance), or a mapping of :class:`Budget`
        constructor kwargs (per-call — each method call mints a fresh
        budget, so every call gets the full deadline).
    cache:
        ``True`` (default) for a private :class:`ChaseCache`, ``False``
        for none, or an existing cache instance to share across engines.
    parallelism:
        How each chase's per-level trigger search is sharded:
        ``ProcessPool(n)`` or ``None`` (serial); see
        :func:`repro.chase.chase` and :mod:`repro.options`.
    trigger_strategy:
        ``"delta"`` (semi-naive, default) or ``"naive"`` — forwarded to
        every chase the session runs.
    plan:
        The session's join-ordering policy: ``"auto"`` (default) compiles
        and caches a :class:`~repro.datamodel.JoinPlan` per (query body,
        instance-stats epoch) — the cache rides on each instance's
        statistics (see :mod:`repro.datamodel.planner`), so repeated
        evaluations against an unchanged database skip planning entirely;
        ``None`` keeps the legacy per-node dynamic ordering.  Either way
        the answer sets are identical.
    backend:
        The session's evaluation backend for :meth:`certain_answers`:
        ``"chase"`` (default), ``"datalog"``, ``"sql"``, or ``"auto"``
        (fragment-aware) — see :func:`repro.evaluate`.  Overridable per
        call via ``certain_answers(..., backend=)``.
    options:
        An :class:`~repro.options.EvalOptions` bundle supplying session
        defaults for ``parallelism``/``trigger_strategy``/``plan``/
        ``backend`` in one object (the same bundle :func:`repro.evaluate`
        takes).  Explicit keyword arguments win over the bundle.
    """

    def __init__(
        self,
        tgds: Sequence[TGD],
        *,
        budget: Budget | Mapping | None = None,
        cache: ChaseCache | bool = True,
        parallelism: "Parallelism | object" = _SESSION_DEFAULT,
        trigger_strategy: str | None = None,
        plan: "str | None | object" = _SESSION_DEFAULT,
        backend: str | None = None,
        options: EvalOptions | None = None,
    ) -> None:
        self.tgds: tuple[TGD, ...] = tuple(tgds)
        self._budget_spec = budget
        if cache is True:
            self.cache: ChaseCache | None = ChaseCache()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        # Explicit kwargs win; an options bundle fills the gaps; otherwise
        # the historical defaults (serial, delta, "auto" plan, chase).
        if parallelism is _SESSION_DEFAULT:
            parallelism = options.parallelism if options is not None else None
        if trigger_strategy is None:
            trigger_strategy = (
                options.trigger_strategy if options is not None else "delta"
            )
        if plan is _SESSION_DEFAULT:
            plan = options.plan if options is not None else "auto"
        if backend is None:
            backend = options.backend if options is not None else "chase"
        self.parallelism = parallelism
        self.trigger_strategy = trigger_strategy
        self.plan = plan
        if backend not in ("chase", "datalog", "sql", "auto"):
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                "'chase', 'datalog', 'sql', 'auto'"
            )
        self.backend = backend
        self._stats_lock = threading.Lock()
        self._session_stats = EvalStats()

    # ------------------------------------------------------------------
    # Knob plumbing
    # ------------------------------------------------------------------
    def _budget(self, override: Budget | None) -> Budget | None:
        """Per-call budget: explicit override > session policy > None."""
        if override is not None:
            return override
        spec = self._budget_spec
        if spec is None or isinstance(spec, Budget):
            return spec
        return Budget(**spec)

    def _record(self, local: EvalStats, caller: EvalStats | None) -> None:
        """Fold one call's private stats into the shared accumulators.

        The workers only ever mutate *local* (theirs alone), so the lock
        here is the sole synchronisation concurrent calls need: session
        aggregate and any caller-supplied object are merged atomically.
        """
        with self._stats_lock:
            self._session_stats.merge(local)
            if caller is not None and caller is not local:
                caller.merge(local)

    def session_stats(self) -> EvalStats:
        """A snapshot of the work done by every call on this session.

        Accumulated under a lock as calls finish, so it is safe to read
        while other threads are mid-evaluation (in-flight calls are not
        yet included — a call contributes when it returns).
        """
        with self._stats_lock:
            return self._session_stats.copy()

    # ------------------------------------------------------------------
    # The three evaluation problems
    # ------------------------------------------------------------------
    def chase(
        self,
        database: Instance,
        *,
        stats: EvalStats | None = None,
        budget: Budget | None = None,
    ) -> ChaseResult:
        """Materialise ``chase(D, Σ)`` through the session cache.

        Identical semantics to :func:`repro.chase.chase` with the session's
        strategy/parallelism; a cache hit returns the memoised result and a
        grown database extends the cached chase incrementally.
        """
        local = EvalStats()
        budget = self._budget(budget)
        try:
            if self.cache is not None:
                return self.cache.chase(
                    database,
                    self.tgds,
                    strategy=self.trigger_strategy,
                    stats=local,
                    budget=budget,
                    parallelism=self.parallelism,
                )
            return _chase(
                database,
                self.tgds,
                strategy=self.trigger_strategy,
                stats=local,
                budget=budget,
                parallelism=self.parallelism,
            )
        finally:
            self._record(local, stats)

    def certain_answers(
        self,
        query: OMQ | UCQ | CQ,
        database: Instance,
        *,
        strategy: str = "auto",
        stats: EvalStats | None = None,
        budget: Budget | None = None,
        backend: str | None = None,
        **kwargs,
    ) -> OMQAnswer:
        """Open-world evaluation ``Q(D)`` (Prop 3.1) under the session's Σ.

        *query* may be a full :class:`OMQ` (its TGDs must equal the
        session's) or a bare (U)CQ, which is paired with the session Σ over
        the full data schema.  *backend* overrides the session's backend
        for this call (``"chase"``/``"datalog"``/``"sql"``/``"auto"``);
        *strategy* only applies to the chase backend.  Remaining kwargs
        (``level_bound=``, ``unfold=``, ...) are forwarded to
        :func:`repro.omq.certain_answers`.
        """
        omq = self._as_omq(query)
        local = EvalStats()
        backend = backend if backend is not None else self.backend
        try:
            if backend != "chase":
                from .evaluation import _backend_certain_answers

                return _backend_certain_answers(
                    omq,
                    database,
                    backend,
                    plan=self.plan,
                    stats=local,
                    budget=self._budget(budget),
                    cache=self.cache,
                    **kwargs,
                )
            kwargs.setdefault("plan", self.plan)
            return _certain_answers(
                omq,
                database,
                strategy=strategy,
                trigger_strategy=self.trigger_strategy,
                stats=local,
                budget=self._budget(budget),
                cache=self.cache,
                parallelism=self.parallelism,
                **kwargs,
            )
        finally:
            self._record(local, stats)

    def evaluate(
        self,
        query: UCQ | CQ,
        database: Instance,
        *,
        plan: "JoinPlan | str | None | object" = _SESSION_DEFAULT,
        stats: EvalStats | None = None,
        budget: Budget | None = None,
        backend: str | None = None,
    ) -> OMQAnswer:
        """Closed-world evaluation ``q(D)`` — the CQS side of the paper.

        Ignores Σ (closed-world: the database is all there is) but keeps
        the governed-result protocol: a budget trip yields the answers
        found so far with ``complete=False`` and the trip code set, like
        :meth:`certain_answers` does.  Delegates to the unified
        :func:`repro.evaluate` machinery; *plan* defaults to the session
        policy.  *backend* defaults to the session backend; ``"sql"``
        runs the joins in sqlite3 (same answers, different engine), every
        other backend uses the in-memory homomorphism search.
        """
        from .evaluation import _closed_world_sql, closed_world_answer

        if plan is _SESSION_DEFAULT:
            plan = self.plan
        backend = backend if backend is not None else self.backend
        local = EvalStats()
        try:
            if backend == "sql":
                return _closed_world_sql(
                    query, database, stats=local, budget=self._budget(budget)
                )
            return closed_world_answer(
                query,
                database,
                plan=plan,
                stats=local,
                budget=self._budget(budget),
            )
        finally:
            self._record(local, stats)

    def resume(
        self,
        source,
        *,
        query: OMQ | UCQ | CQ | None = None,
        database: Instance | None = None,
        stats: EvalStats | None = None,
        budget: Budget | None = None,
        **kwargs,
    ):
        """Continue a tripped computation from its checkpoint.

        *source* is anything carrying a
        :class:`~repro.governance.ChaseCheckpoint` — an
        :class:`~repro.omq.OMQAnswer`, a :class:`~repro.chase.ChaseResult`,
        or the checkpoint itself (e.g. loaded from the CLI's
        ``--checkpoint-dir``).  The checkpoint must belong to this
        session's ontology (same TGDs, same order).

        Without *query*, the underlying chase is resumed and the
        (restricted-)chase result returned.  With *query* (and optionally
        *database* — defaults to the checkpoint's recorded database
        atoms), the full open-world evaluation re-runs from the checkpoint:
        the materialisation picks up at the recorded level, then the UCQ is
        evaluated, returning a fresh :class:`~repro.omq.OMQAnswer` (which
        again carries a checkpoint if the new budget also trips).

        The per-call *budget* defaults to the session policy — a session
        built with a budget dict mints a fresh allowance for the resumed
        leg, the natural "try again with another five seconds" loop::

            answer = engine.certain_answers(q, db)
            while not answer.complete and answer.checkpoint is not None:
                answer = engine.resume(answer, query=q, database=db)
        """
        checkpoint = (
            source
            if isinstance(source, ChaseCheckpoint)
            else getattr(source, "checkpoint", None)
        )
        if checkpoint is None:
            raise ValueError(
                "nothing to resume: the result carries no checkpoint "
                "(complete results have checkpoint=None)"
            )
        validate_tgds(checkpoint, self.tgds)
        budget = self._budget(budget)
        local = EvalStats()
        try:
            if query is None:
                return checkpoint.resume(
                    budget=budget, stats=local, null_policy="fresh", **kwargs
                )
            omq = self._as_omq(query)
            if database is None:
                database = Instance(checkpoint.database_atoms())
            kwargs.setdefault("plan", self.plan)
            return _certain_answers(
                omq,
                database,
                stats=local,
                budget=budget,
                cache=self.cache,
                parallelism=self.parallelism,
                resume_from=checkpoint,
                **kwargs,
            )
        finally:
            self._record(local, stats)

    def plan_for(
        self, query: CQ, database: Instance
    ) -> JoinPlan:
        """The session's compiled join plan for one CQ body over *database*.

        Compiled at most once per (query body, instance-stats epoch): the
        cache lives on the database's statistics object and is dropped
        when the database mutates.  Handy for inspecting what order
        :meth:`evaluate` will use, or for pre-compiling before a timed
        run; pass the result back via ``evaluate(..., plan=plan)``.
        """
        return plan_for(query.atoms, database)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _as_omq(self, query: OMQ | UCQ | CQ) -> OMQ:
        """Pair a bare (U)CQ with the session Σ; validate a full OMQ."""
        if isinstance(query, OMQ):
            if tuple(query.tgds) != self.tgds:
                raise ValueError(
                    "OMQ carries a different TGD set than this Engine "
                    "session; build the Engine with the OMQ's TGDs or pass "
                    "the bare query"
                )
            return query
        ucq = query if isinstance(query, UCQ) else UCQ.of(query)
        return OMQ.with_full_data_schema(list(self.tgds), ucq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = "off" if self.cache is None else f"{len(self.cache)} entries"
        return (
            f"Engine<{len(self.tgds)} TGDs, parallelism={self.parallelism}, "
            f"cache {cache}>"
        )
