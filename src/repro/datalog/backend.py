"""OMQ evaluation through the Datalog and SQL-pushdown backends.

Both backends compute the same object as the chase route — the certain
answers ``Q(D) = q(chase(D, Σ))`` restricted to ``dom(D)`` — but move the
fixpoint work elsewhere:

* **datalog** — full Σ saturates in-memory through :func:`saturate`,
  which runs the semi-naive delta chase over the compiled rules (the
  semi-oblivious chase of a full TGD set invents no nulls, so the least
  model *is* the chase instance).  Guarded Σ with existential heads is
  the chase route's ``"guarded"`` strategy: the blocked expansion
  (:func:`~repro.chase.saturated_expansion`) is built from Sec 6.2's type
  closures, which are already closed under Σ's full rules, so no
  saturation pass is left to run over it.  Exactness follows
  ``provably_exact`` of the expansion.
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
answer extraction (:func:`~repro.omq.evaluation.answer_step` and its
sqlite twin :func:`~repro.queries.sql.sqlite_answer_step` grant a grace
budget after a trip), counters land in the same
:class:`~repro.datamodel.EvalStats`, and completed materialisations are
memoised in the shared :class:`~repro.chase.ChaseCache` under a
backend-tagged key.
"""

from __future__ import annotations

from ..chase import ChaseCache, rewrite_ucq
from ..datamodel import Atom, EvalStats, Instance
from ..governance import Budget, BudgetExceeded
from ..omq import OMQ, OMQAnswer, certain_answers
from ..omq.evaluation import answer_step
from ..options import BACKENDS
from ..queries.sql import (
    _ident as _sql_ident,
    load_into_sqlite,
    saturate_in_sqlite,
    sqlite_answer_step,
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
      ``D`` with nothing materialised, 7–18× faster than the chase on
      the linear rows;
    * full Σ goes to ``datalog``, whose saturation *is* the delta chase
      over the compiled rules, so it costs what the chase route costs
      (full-tc, n=100: 0.75 s vs 0.86 s).  In-database saturation is
      faster on that row (0.15 s); moving full Σ to SQL is an open
      decision that needs a service-level measurement first;
    * everything else, an empty Σ included, stays on the chase, which
      covers every fragment — ``datalog`` on guarded Σ with existentials
      runs the blocked expansion of the ``"guarded"`` strategy, 15–27×
      slower than the chase on the linear rows.
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

    Full Σ: exact.  Guarded Σ with existentials: the chase route's
    ``"guarded"`` strategy (*unfold* and *max_nodes* are its knobs) —
    sound always, complete when the blocked expansion closed without
    blocking.  Other fragments raise :class:`BackendUnsupported`.
    """
    tgds = list(omq.tgds)
    if not _supports("datalog", tgds):
        raise BackendUnsupported(
            "the datalog backend needs Σ full (exact saturation) or "
            "guarded (the guarded strategy); use backend='chase' for "
            f"this fragment ({len(tgds)} TGDs)"
        )
    if tgds and not all_full(tgds):
        return certain_answers(
            omq,
            database,
            strategy="guarded",
            unfold=unfold,
            max_nodes=max_nodes,
            stats=stats,
            budget=budget,
            plan=plan,
        )
    omq.validate_database(database)
    if stats is None:
        stats = EvalStats()
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
            instance = saturate(database, program, stats=stats, budget=budget).instance
    except BudgetExceeded as exc:
        if budget is None or exc.partial is None:
            raise
        instance = exc.partial
        trip = exc.code
    # Full Σ invents no nulls: every value already lies in dom(D), so no
    # restriction is needed.
    return answer_step(
        omq.query,
        instance,
        "datalog",
        f"{len(program)} rules, {len(program.strata)} strata, "
        f"{len(instance)} atoms",
        stats=stats,
        budget=budget,
        trip=trip,
        plan=plan,
    )


# ----------------------------------------------------------------------
# SQL pushdown backend
# ----------------------------------------------------------------------
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
        answers, trip = sqlite_answer_step(
            rewriting, database, stats=stats, budget=budget, trip=trip
        )
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
        answers, trip = sqlite_answer_step(
            omq.query,
            connection,
            present=set(schema.predicates()) | database.predicates(),
            stats=stats,
            budget=budget,
            trip=trip,
        )
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
