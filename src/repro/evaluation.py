"""One front door for every evaluation problem in the paper.

The library grew four evaluation entry points, one per query formalism:
:func:`repro.queries.evaluate` (closed-world (U)CQs, returns a plain set),
:func:`repro.omq.certain_answers` (open-world OMQs, returns an
:class:`~repro.omq.OMQAnswer`), :meth:`repro.cqs.CQS.evaluate`
(closed-world under an integrity-constraint promise), and the
:class:`~repro.engine.Engine` methods.  They take the same knobs under the
same names, but a caller had to know which function to reach for.

:func:`evaluate` is the unified surface: it dispatches on the query's type
and always returns an :class:`~repro.omq.OMQAnswer` — the uniform
``.answers`` / ``.complete`` / ``.trip`` / ``.stats`` protocol, which also
behaves as the answer set (iteration, ``len``, ``in``, ``==`` against
plain sets), so existing call sites that treated the result as a set keep
working.

========  =====================================  =====================
query     semantics                              strategy tag
========  =====================================  =====================
CQ/UCQ    closed-world ``q(D)`` (Section 2)      ``"closed-world"``
CQS       closed-world under ``D |= Σ``          ``"cqs"``
OMQ       open-world certain answers (Prop 3.1)  the chosen strategy
========  =====================================  =====================

The old entry points remain as thin wrappers over the same machinery; no
behaviour changed underneath them.

Backends
--------

``evaluate(..., backend=)`` selects the evaluation engine:

=============  ========================================================
``"chase"``    (default) the in-memory chase strategies of
               :func:`repro.omq.certain_answers` — every fragment
``"datalog"``  Datalog saturation on the delta chase (full Σ exact;
               guarded Σ via the blocked-chase hybrid) —
               :mod:`repro.datalog`
``"sql"``      SQLite pushdown (linear single-head Σ via the perfect
               rewriting; full Σ via in-database saturation)
``"auto"``     fragment-aware choice, never unsound: full → datalog
               (on par with the chase on E22's full-tc rows), linear
               single-head → sql (9.6–16× faster than the chase on E22's
               linear rows), everything else → chase — see
               :func:`repro.datalog.choose_backend`
=============  ========================================================

An explicit backend outside its sound fragment raises
:class:`repro.datalog.BackendUnsupported`.  For closed-world (U)CQ/CQS
queries the backend picks the *join engine* (``"sql"`` runs sqlite3;
the others run the in-memory homomorphism search) — the answer sets are
identical, which ``tests/oracle/test_backend_differential.py`` sweeps.
"""

from __future__ import annotations

from typing import Iterable

from .cqs import CQS, PromiseViolation
from .datamodel import EvalStats, Instance, JoinPlan, Term
from .governance import Budget, BudgetExceeded
from .omq import OMQ, OMQAnswer, certain_answers
from .options import EvalOptions
from .queries import CQ, UCQ, iter_answers
from .queries.sql import evaluate_via_sqlite

if False:  # pragma: no cover - import cycle guard, typing only
    from .chase import ChaseCache

__all__ = ["evaluate", "closed_world_answer", "query_kind"]


def query_kind(query) -> str:
    """The formalism tag :func:`evaluate` would dispatch *query* under.

    One of ``"cq"``, ``"ucq"``, ``"omq"``, ``"cqs"`` — the service layer
    and telemetry use this to label requests without replicating the
    ``isinstance`` ladder.  Raises :class:`TypeError` for anything
    :func:`evaluate` would reject.
    """
    if isinstance(query, OMQ):
        return "omq"
    if isinstance(query, CQS):
        return "cqs"
    if isinstance(query, UCQ):
        return "ucq"
    if isinstance(query, CQ):
        return "cq"
    raise TypeError(
        f"not an evaluable query: {type(query).__name__} "
        "(expected CQ, UCQ, OMQ, or CQS)"
    )


def closed_world_answer(
    query: CQ | UCQ,
    database: Instance,
    *,
    plan: "JoinPlan | str | None" = None,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    strategy: str = "closed-world",
) -> OMQAnswer:
    """Closed-world ``q(D)`` wrapped in the governed-result protocol.

    The workhorse behind :func:`evaluate`'s CQ/UCQ/CQS arms and
    :meth:`repro.Engine.evaluate`: a budget trip yields the answers found
    so far with ``complete=False`` and the trip code set, instead of
    raising.  *plan* follows :func:`~repro.datamodel.find_homomorphisms`
    (a pre-compiled :class:`~repro.datamodel.JoinPlan` only fits a
    single-CQ query).
    """
    if stats is None:
        stats = EvalStats()
    disjuncts: Iterable[CQ]
    disjuncts = query.disjuncts if isinstance(query, UCQ) else (query,)
    answers: set[tuple[Term, ...]] = set()
    trip: str | None = None
    try:
        for cq in disjuncts:
            for row in iter_answers(
                cq, database, stats=stats, budget=budget, plan=plan
            ):
                answers.add(row)
    except BudgetExceeded as exc:
        trip = exc.code
        exc.attach(stats=stats)
    return OMQAnswer(
        answers,
        trip is None,
        strategy,
        f"{len(database)} atoms",
        stats=stats,
        trip=trip,
    )


def _closed_world_sql(
    query: CQ | UCQ,
    database: Instance,
    *,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    strategy: str = "closed-world",
) -> OMQAnswer:
    """Closed-world ``q(D)`` through sqlite3, governed like the rest."""
    if stats is None:
        stats = EvalStats()
    trip: str | None = None
    try:
        answers = evaluate_via_sqlite(query, database, stats=stats, budget=budget)
    except BudgetExceeded as exc:
        answers = exc.partial if exc.partial is not None else set()
        trip = exc.code
        exc.attach(stats=stats)
    return OMQAnswer(
        answers,
        trip is None,
        strategy,
        f"sqlite3, {len(database)} atoms",
        stats=stats,
        trip=trip,
    )


def _backend_certain_answers(
    query: OMQ,
    data: Instance,
    backend: str,
    *,
    plan,
    stats,
    budget,
    cache,
    **kwargs,
) -> OMQAnswer:
    """Route an OMQ to the datalog / SQL backend (or auto-pick one)."""
    from .datalog.backend import (
        choose_backend,
        datalog_certain_answers,
        sql_certain_answers,
    )

    if backend == "auto":
        backend = choose_backend(query.tgds)
        if backend == "chase":
            if plan is not None:
                kwargs["plan"] = plan
            return certain_answers(
                query, data, stats=stats, budget=budget, cache=cache, **kwargs
            )
    if backend == "datalog":
        allowed = {"unfold", "max_nodes"}
        extra = set(kwargs) - allowed
        if extra:
            raise TypeError(
                f"unexpected keyword arguments for the datalog backend: "
                f"{sorted(extra)}"
            )
        if plan is not None:
            kwargs["plan"] = plan
        return datalog_certain_answers(
            query, data, stats=stats, budget=budget, cache=cache, **kwargs
        )
    if backend == "sql":
        if kwargs:
            raise TypeError(
                f"unexpected keyword arguments for the sql backend: "
                f"{sorted(kwargs)}"
            )
        return sql_certain_answers(
            query, data, stats=stats, budget=budget, cache=cache
        )
    raise ValueError(f"unknown backend {backend!r}")  # pragma: no cover


def evaluate(
    query: CQ | UCQ | OMQ | CQS,
    data: Instance,
    *,
    options: EvalOptions | None = None,
    backend: str | None = None,
    plan: "JoinPlan | str | None" = None,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    cache: "ChaseCache | None" = None,
    **kwargs,
) -> OMQAnswer:
    """Evaluate *query* over *data*, whatever the query formalism.

    Parameters
    ----------
    options:
        An :class:`~repro.options.EvalOptions` bundle supplying session
        defaults (backend, plan, and — for chase-backed OMQ evaluation —
        strategy, trigger strategy, parallelism, level bound).  Explicit
        keyword arguments at the call site always win over the bundle.
    backend:
        ``"chase"`` (default — the strategies of
        :func:`repro.omq.certain_answers`), ``"datalog"``, ``"sql"``, or
        ``"auto"`` (fragment-aware, never unsound).  See the module
        docstring's table; an explicit backend outside its sound fragment
        raises :class:`repro.datalog.BackendUnsupported`.
    plan:
        Join-ordering policy for the homomorphism searches: ``None``
        defers to each engine's default (dynamic per-node ordering for
        closed-world queries, ``"auto"`` for OMQ certain answers, whose
        final UCQ evaluation runs over a frozen chase instance),
        ``"auto"`` forces plan compilation, and a pre-compiled
        :class:`~repro.datamodel.JoinPlan` is accepted for single-CQ
        queries.  Planning never changes the answer set.
    stats:
        Optional shared :class:`~repro.datamodel.EvalStats`; the result
        carries it (or a fresh one) with the counters accumulated.
    budget:
        Optional :class:`~repro.governance.Budget`.  A trip degrades
        gracefully: sound answers found so far, ``complete=False``, and
        the trip code in ``result.trip``.
    cache:
        Optional :class:`~repro.chase.ChaseCache`, meaningful only for
        OMQs (the chase is looked up/stored there).  Passing one with a
        closed-world query raises — nothing would be cached.
    kwargs:
        Remaining OMQ knobs (``strategy=``, ``trigger_strategy=``,
        ``level_bound=``, ``unfold=``, ``parallelism=``, ...) forwarded
        to :func:`repro.omq.certain_answers`; CQS accepts
        ``check_promise=``.

    Returns an :class:`~repro.omq.OMQAnswer` in every case.
    """
    if backend is None:
        backend = options.backend if options is not None else "chase"
    if backend not in ("chase", "datalog", "sql", "auto"):
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            "'chase', 'datalog', 'sql', 'auto'"
        )
    if options is not None and plan is None:
        plan = options.plan
    if isinstance(query, OMQ):
        if options is not None and backend == "chase":
            # Session defaults for the chase-backed OMQ knobs; the other
            # backends take a different (narrower) kwarg set and use only
            # the backend/plan fields of the bundle.
            kwargs.setdefault("strategy", options.strategy)
            kwargs.setdefault("trigger_strategy", options.trigger_strategy)
            kwargs.setdefault("parallelism", options.parallelism)
            if options.level_bound is not None:
                kwargs.setdefault("level_bound", options.level_bound)
        if backend != "chase":
            return _backend_certain_answers(
                query,
                data,
                backend,
                plan=plan,
                stats=stats,
                budget=budget,
                cache=cache,
                **kwargs,
            )
        if plan is not None:
            kwargs["plan"] = plan
        return certain_answers(
            query, data, stats=stats, budget=budget, cache=cache, **kwargs
        )
    if cache is not None:
        raise ValueError(
            "cache= only applies to OMQ evaluation (there is no chase to "
            "cache for a closed-world query)"
        )
    if isinstance(query, CQS):
        check_promise = kwargs.pop("check_promise", True)
        if kwargs:
            raise TypeError(
                f"unexpected keyword arguments for CQS evaluation: "
                f"{sorted(kwargs)}"
            )
        if check_promise and not query.promise_holds(data):
            raise PromiseViolation(
                "database violates the integrity constraints; "
                "CQS evaluation is only defined on Σ-satisfying databases"
            )
        if backend == "sql":
            return _closed_world_sql(
                query.query, data, stats=stats, budget=budget, strategy="cqs"
            )
        return closed_world_answer(
            query.query, data, plan=plan, stats=stats, budget=budget,
            strategy="cqs",
        )
    if isinstance(query, (CQ, UCQ)):
        if kwargs:
            raise TypeError(
                f"unexpected keyword arguments for closed-world evaluation: "
                f"{sorted(kwargs)}"
            )
        if backend == "sql":
            # Closed-world: Σ plays no role, so "sql" means "run the joins
            # in sqlite3" — same answers, different engine (the
            # differential suite's oracle pairing).
            return _closed_world_sql(query, data, stats=stats, budget=budget)
        return closed_world_answer(
            query, data, plan=plan, stats=stats, budget=budget
        )
    raise TypeError(
        f"evaluate() takes a CQ, UCQ, OMQ, or CQS; got {type(query).__name__}"
    )
