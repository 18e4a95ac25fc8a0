"""OMQ evaluation through the Datalog and SQL-pushdown backends.

Both backends compute the same object as the chase route — the certain
answers ``Q(D) = q(chase(D, Σ))`` restricted to ``dom(D)`` — but move the
fixpoint work elsewhere:

* **datalog** — full Σ saturates in-memory through :func:`saturate`,
  which runs the semi-naive delta chase over the compiled rules (the
  semi-oblivious chase of a full TGD set invents no nulls, so the least
  model *is* the chase instance); guarded Σ with existential heads runs
  a hybrid: the blocked-chase type machinery
  (:func:`~repro.chase.saturated_expansion`) supplies the sound chase
  portion with its witnesses, and the compiled full-rule subset is then
  saturated over it.  Exactness follows ``provably_exact`` of the
  expansion, exactly as the ``"guarded"`` chase strategy reports it.
* **sql** — linear single-head Σ evaluates its perfect rewriting
  (Prop D.2) inside SQLite, so *no* materialisation happens at all; full
  Σ pushes the whole saturation into SQLite
  (:func:`~repro.queries.sql.saturate_in_sqlite` — ``WITH RECURSIVE``
  for linear recursion, a governed round loop otherwise).  Answers come
  back stringified (that is how SQLite stores the constants).

Fragments outside a backend's sound range raise
:class:`BackendUnsupported`; :func:`choose_backend` (the ``"auto"``
policy) never picks an unsound backend — the property suite asserts it.

Governance and telemetry mirror the chase route: the same
:class:`~repro.governance.Budget` object governs materialisation and
answer extraction (grace budget after a trip), counters land in the same
:class:`~repro.datamodel.EvalStats`, and completed materialisations are
memoised in the shared :class:`~repro.chase.ChaseCache` under a
backend-tagged key.
"""

from __future__ import annotations

from ..chase import ChaseCache, rewrite_ucq, saturated_expansion
from ..datamodel import Atom, EvalStats, Instance
from ..governance import Budget, BudgetExceeded
from ..omq import OMQ, OMQAnswer
from ..omq.evaluation import _evaluate_partial, _restrict_to_database
from ..queries import UCQ
from ..queries.sql import (
    _ident as _sql_ident,
    evaluate_via_sqlite,
    execute_ucq,
    load_into_sqlite,
    saturate_in_sqlite,
)
from ..tgds import TGD, all_full, all_guarded, all_linear
from .program import DatalogProgram, compile_program
from .saturation import saturate

__all__ = [
    "BACKENDS",
    "BackendUnsupported",
    "choose_backend",
    "datalog_certain_answers",
    "sql_certain_answers",
]

#: The backend names ``evaluate(..., backend=)`` accepts.
BACKENDS = ("auto", "chase", "datalog", "sql")


class BackendUnsupported(ValueError):
    """The requested backend is not sound/complete for this Σ fragment.

    Raised instead of silently degrading: an explicit ``backend=`` choice
    outside its range is a caller error, while ``backend="auto"`` never
    lands here (it only picks a backend that supports the fragment).
    """


def _supports(backend: str, tgds: list[TGD]) -> bool:
    """Does *backend* soundly cover a Σ of this fragment?"""
    if backend == "chase":
        return True
    if backend == "datalog":
        return not tgds or all_full(tgds) or all_guarded(tgds)
    if backend == "sql":
        return (
            not tgds
            or all_full(tgds)
            or (all_linear(tgds) and all(len(t.head) == 1 for t in tgds))
        )
    return False


def choose_backend(tgds) -> str:
    """The ``backend="auto"`` policy — always a sound choice.

    Measured on E22 (``BENCH_backends.json``):

    * linear single-head Σ goes to SQL — the perfect rewriting runs over
      ``D`` with nothing materialised, 9.6–16× faster than the chase on
      the linear rows;
    * full Σ goes to ``datalog``, whose saturation *is* the delta chase
      over the compiled rules, so it costs what the chase route costs
      (full-tc, n=100: 0.81 s vs 0.78 s).  In-database saturation is
      faster on that row (0.17 s); moving full Σ to SQL is an open
      decision that needs a service-level measurement first;
    * everything else, an empty Σ included, stays on the chase, which
      covers every fragment — the ``datalog`` hybrid for guarded Σ is
      13–25× slower than the chase on the linear rows.
    """
    tgds = list(tgds)
    if tgds and all_full(tgds):
        return "datalog"
    if tgds and all_linear(tgds) and all(len(t.head) == 1 for t in tgds):
        return "sql"
    return "chase"


# ----------------------------------------------------------------------
# Datalog backend
# ----------------------------------------------------------------------
def datalog_certain_answers(
    omq: OMQ,
    database: Instance,
    *,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    cache: ChaseCache | None = None,
    plan: str | None = "auto",
    unfold: int | None = None,
    max_nodes: int = 50_000,
) -> OMQAnswer:
    """Certain answers via Datalog saturation (:func:`saturate`).

    Full Σ: exact.  Guarded Σ with existentials: sound always, complete
    when the blocked expansion closed without blocking (the same
    calibration as the chase route's ``"guarded"`` strategy).  Other
    fragments raise :class:`BackendUnsupported`.
    """
    omq.validate_database(database)
    tgds = list(omq.tgds)
    if stats is None:
        stats = EvalStats()
    if not _supports("datalog", tgds):
        raise BackendUnsupported(
            "the datalog backend needs Σ full (exact saturation) or "
            "guarded (blocked-chase hybrid); use backend='chase' for "
            f"this fragment ({len(tgds)} TGDs)"
        )

    if not tgds or all_full(tgds):
        program = compile_program(tgds)
        trip: str | None = None
        try:
            if cache is not None:
                instance = cache.materialise(
                    database,
                    tgds,
                    backend="datalog",
                    compute=lambda: saturate(
                        database, program, stats=stats, budget=budget
                    ).instance,
                )
            else:
                instance = saturate(
                    database, program, stats=stats, budget=budget
                ).instance
        except BudgetExceeded as exc:
            if budget is None or exc.partial is None:
                raise
            instance = exc.partial
            trip = exc.code
        eval_budget = budget.grace() if trip and budget is not None else budget
        raw, eval_trip = _evaluate_partial(
            omq.query, instance, stats=stats, budget=eval_budget, plan=plan
        )
        trip = trip or eval_trip
        return OMQAnswer(
            # Full Σ invents no nulls: every value already lies in dom(D),
            # so no restriction is needed.
            raw,
            trip is None,
            "datalog",
            f"{len(program)} rules, {len(program.strata)} strata, "
            f"{len(instance)} atoms",
            stats=stats,
            trip=trip,
        )

    # Guarded hybrid: blocked-chase types supply the existential
    # witnesses; the full-rule subset then saturates over that portion.
    calibration = unfold if unfold is not None else max(
        2, omq.query.max_cq_variables()
    )
    expansion = saturated_expansion(
        database,
        tgds,
        unfold=calibration,
        max_nodes=max_nodes,
        stats=stats,
        budget=budget,
    )
    program = compile_program([t for t in tgds if t.is_full()])
    trip = expansion.trip_reason
    sat_budget = budget.grace() if trip and budget is not None else budget
    try:
        instance = saturate(
            expansion.instance, program, stats=stats, budget=sat_budget
        ).instance
    except BudgetExceeded as exc:
        if sat_budget is None or exc.partial is None:
            raise
        instance = exc.partial
        trip = trip or exc.code
    eval_budget = budget.grace() if trip and budget is not None else budget
    raw, eval_trip = _evaluate_partial(
        omq.query, instance, stats=stats, budget=eval_budget, plan=plan
    )
    trip = trip or eval_trip
    return OMQAnswer(
        _restrict_to_database(raw, database),
        expansion.provably_exact and trip is None,
        "datalog",
        f"hybrid: {expansion.nodes} nodes, unfold={calibration}, "
        f"blocked={expansion.blocked}, {len(program)} full rules",
        stats=stats,
        trip=trip,
    )


# ----------------------------------------------------------------------
# SQL pushdown backend
# ----------------------------------------------------------------------
def _execute_governed(
    query: UCQ,
    database: Instance,
    *,
    stats: EvalStats,
    budget: Budget | None,
) -> tuple[set, str | None]:
    """``evaluate_via_sqlite`` with the governed-degradation contract."""
    try:
        return (
            evaluate_via_sqlite(query, database, stats=stats, budget=budget),
            None,
        )
    except BudgetExceeded as exc:
        exc.attach(stats=stats)
        return (exc.partial if exc.partial is not None else set()), exc.code


def _read_back(connection, program: DatalogProgram, arities: dict) -> Instance:
    """The saturated table contents as an Instance (for cache storage)."""
    atoms = []
    for pred in sorted(program.predicates()):
        quoted = _sql_ident(pred)
        if arities[pred] == 0:
            if connection.execute(f"SELECT 1 FROM {quoted} LIMIT 1").fetchall():
                atoms.append(Atom(pred, ()))
            continue
        for row in connection.execute(f"SELECT * FROM {quoted}"):
            atoms.append(Atom(pred, tuple(row)))
    return Instance(atoms)


def _replay(connection, materialised: Instance, arities: dict) -> None:
    """Bulk-insert a cached saturation into an already-loaded connection.

    ``INSERT OR IGNORE`` — the connection already holds ``D`` and the
    tables carry UNIQUE constraints, so overlap is a no-op.
    """
    for pred in sorted(materialised.predicates()):
        quoted = _sql_ident(pred)
        arity = arities.get(pred, 0)
        rows = [
            tuple(str(t) for t in atom.args)
            for atom in materialised.atoms_with_pred(pred)
        ]
        if arity == 0:
            connection.execute(f"INSERT OR IGNORE INTO {quoted} VALUES (1)")
            continue
        placeholders = ", ".join("?" for _ in range(arity))
        connection.executemany(
            f"INSERT OR IGNORE INTO {quoted} VALUES ({placeholders})", rows
        )
    connection.commit()


def sql_certain_answers(
    omq: OMQ,
    database: Instance,
    *,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    cache: ChaseCache | None = None,
) -> OMQAnswer:
    """Certain answers pushed into SQLite.

    Linear single-head Σ: evaluate the perfect rewriting over ``D`` in
    SQLite — exact, with nothing materialised.  Full Σ: saturate inside
    SQLite, then run the UCQ over the saturated tables — exact.  Other
    fragments raise :class:`BackendUnsupported`.  Answer tuples contain
    the *stringified* constants (SQLite storage format).
    """
    omq.validate_database(database)
    tgds = list(omq.tgds)
    if stats is None:
        stats = EvalStats()
    if not _supports("sql", tgds):
        raise BackendUnsupported(
            "the sql backend needs Σ linear single-head (rewriting "
            "pushdown) or full (saturation pushdown); use backend='chase' "
            f"for this fragment ({len(tgds)} TGDs)"
        )

    if tgds and not all_full(tgds):
        # Linear single-head: perfect rewriting (Prop D.2), evaluated in
        # the database — the no-materialisation route E22 measures.
        trip: str | None = None
        try:
            rewriting = rewrite_ucq(omq.query, tgds, budget=budget)
        except BudgetExceeded as exc:
            if budget is None or exc.partial is None:
                raise
            rewriting = exc.partial
            trip = exc.code
            exc.attach(stats=stats)
        eval_budget = budget.grace() if trip and budget is not None else budget
        answers, eval_trip = _execute_governed(
            rewriting, database, stats=stats, budget=eval_budget
        )
        trip = trip or eval_trip
        return OMQAnswer(
            answers,
            trip is None,
            "sql",
            f"rewrite pushdown: {len(rewriting)} CQs",
            stats=stats,
            trip=trip,
        )

    # Full (or empty) Σ: saturation pushdown.
    program = compile_program(tgds)
    schema = omq.extended_schema().union(program.schema())
    arities = dict(schema.union(database.schema()).items())
    trip = None
    connection = None
    try:
        try:
            connection = load_into_sqlite(
                database, budget=budget, schema=schema, unique=True
            )
        except BudgetExceeded as exc:
            exc.attach(partial=set(), stats=stats)
            return OMQAnswer(
                set(), False, "sql", "load tripped", stats=stats, trip=exc.code
            )
        try:
            if cache is not None:
                # compute() runs the pushdown and reads the saturated
                # tables back for storage; a hit replays the stored
                # instance into the connection instead of re-saturating
                # (cheap bulk insert, no joins).
                stores_before = cache.materialisation_stores

                def _compute_saturation() -> Instance:
                    saturate_in_sqlite(
                        connection, program, stats=stats, budget=budget
                    )
                    return _read_back(connection, program, arities)

                materialised = cache.materialise(
                    database,
                    tgds,
                    backend="sql",
                    compute=_compute_saturation,
                )
                if cache.materialisation_stores == stores_before:
                    _replay(connection, materialised, arities)
            else:
                saturate_in_sqlite(
                    connection, program, stats=stats, budget=budget
                )
        except BudgetExceeded as exc:
            # The connection holds whatever complete statements derived —
            # sound facts; evaluate over them under grace.
            trip = exc.code
            exc.attach(stats=stats)
        eval_budget = budget.grace() if trip and budget is not None else budget
        answers: set = set()
        eval_trip: str | None = None
        try:
            answers = execute_ucq(
                connection,
                omq.query,
                present=set(schema.predicates()) | database.predicates(),
                stats=stats,
                budget=eval_budget,
            )
        except BudgetExceeded as exc:
            eval_trip = exc.code
            if exc.partial is not None:
                answers = exc.partial
        trip = trip or eval_trip
        return OMQAnswer(
            answers,
            trip is None,
            "sql",
            f"saturation pushdown: {len(program)} rules, "
            f"{stats.sql_statements} statements",
            stats=stats,
            trip=trip,
        )
    finally:
        if connection is not None:
            connection.close()
