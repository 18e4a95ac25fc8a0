"""Compiling CQs/UCQs to SQL, with a sqlite3 execution backend.

Three purposes:

* **adoption** — a downstream user can push the paper's queries (including
  the UCQ_k rewritings produced by the approximation machinery) into any
  relational engine;
* **validation** — sqlite3 (stdlib) acts as an independent oracle for the
  homomorphism-based evaluator: the differential tests check
  ``evaluate_cq(q, D) == evaluate_via_sqlite(q, D)`` on random inputs;
* **pushdown** — for the full fragment, the whole *saturation* runs inside
  SQLite too (:func:`saturate_in_sqlite`): linear-recursive Datalog
  programs compile to a single tagged ``WITH RECURSIVE`` statement, and
  programs with multi-IDB joins run a governed round loop of
  ``INSERT OR IGNORE ... SELECT`` statements — either way the joins never
  leave the database engine.

Translation is the textbook one: one table alias per atom, equality
predicates for repeated variables and constants, ``SELECT DISTINCT`` over
the answer variables, ``UNION`` across UCQ disjuncts.  Boolean queries
compile to an ``EXISTS``-style ``SELECT 1 ... LIMIT 1``.

Every identifier (table names, projection aliases) is quoted with
standard SQL double-quoting, so hostile predicate names — reserved words
like ``order``, punctuation like ``a-b`` — round-trip safely.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Sequence

from ..datamodel import EvalStats, Instance, Schema, Term, Variable, is_variable
from ..governance import Budget, BudgetExceeded
from .cq import CQ, UCQ

__all__ = [
    "cq_to_sql",
    "ucq_to_sql",
    "create_table_statements",
    "load_into_sqlite",
    "evaluate_via_sqlite",
    "execute_ucq",
    "sqlite_answer_step",
    "rule_to_insert_sql",
    "recursive_saturation_sql",
    "saturate_in_sqlite",
]


def _ident(name: str) -> str:
    """Quote an SQL identifier (doubling embedded double quotes)."""
    return '"' + str(name).replace('"', '""') + '"'


def _column(alias: str, position: int) -> str:
    return f"{alias}.c{position}"


def _literal(value: Term) -> str:
    text = str(value).replace("'", "''")
    return f"'{text}'"


def cq_to_sql(query: CQ) -> str:
    """Translate a CQ into a single SELECT statement.

    >>> from repro.queries import parse_cq
    >>> print(cq_to_sql(parse_cq("q(x) :- R(x, y), S(y)")))
    SELECT DISTINCT t0.c0 AS "x" FROM "R" AS t0, "S" AS t1 WHERE t0.c1 = t1.c0
    """
    aliases = [f"t{i}" for i in range(len(query.atoms))]
    from_clause = ", ".join(
        f"{_ident(atom.pred)} AS {alias}"
        for atom, alias in zip(query.atoms, aliases)
    )
    first_occurrence: dict[Term, str] = {}
    conditions: list[str] = []
    for atom, alias in zip(query.atoms, aliases):
        for position, term in enumerate(atom.args):
            column = _column(alias, position)
            if is_variable(term):
                seen = first_occurrence.get(term)
                if seen is None:
                    first_occurrence[term] = column
                else:
                    conditions.append(f"{seen} = {column}")
            else:
                conditions.append(f"{column} = {_literal(term)}")
    if query.is_boolean():
        select = "SELECT 1 AS hit"
    else:
        parts = [
            f"{first_occurrence[v]} AS {_ident(v.name)}" for v in query.head
        ]
        select = "SELECT DISTINCT " + ", ".join(parts)
    sql = f"{select} FROM {from_clause}"
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    if query.is_boolean():
        sql += " LIMIT 1"
    return sql


def ucq_to_sql(query: UCQ) -> str:
    """Translate a UCQ: the UNION of its disjuncts' SELECTs."""
    return "\nUNION\n".join(cq_to_sql(cq) for cq in query.disjuncts)


def create_table_statements(schema: Schema, *, unique: bool = False) -> list[str]:
    """CREATE TABLE statements: one table per predicate, columns c0..c{n-1}.

    With ``unique=True`` each table carries a UNIQUE constraint over all
    its columns, which is what makes ``INSERT OR IGNORE`` the idempotent
    fact-insertion the saturation round loop relies on.
    """
    statements = []
    for pred, arity in schema.items():
        if arity == 0:
            columns = "hit INTEGER"
            if unique:
                columns += ", UNIQUE (hit)"
        else:
            columns = ", ".join(f"c{i} TEXT" for i in range(arity))
            if unique:
                columns += ", UNIQUE ({})".format(
                    ", ".join(f"c{i}" for i in range(arity))
                )
        statements.append(f"CREATE TABLE {_ident(pred)} ({columns})")
    return statements


def load_into_sqlite(
    database: Instance,
    connection: sqlite3.Connection | None = None,
    *,
    budget: "Budget | None" = None,
    schema: Schema | None = None,
    unique: bool = False,
) -> sqlite3.Connection:
    """Materialise an instance into (a fresh in-memory) sqlite database.

    *schema* widens the table set beyond the instance's own predicates
    (the pushdown backend creates tables for IDB and query predicates the
    database does not mention yet); *unique* is forwarded to
    :func:`create_table_statements`.  A governed load checks *budget* once
    per predicate (the ``"sql-load"`` check site) — a partially loaded
    connection is never returned.
    """
    if connection is None:
        connection = sqlite3.connect(":memory:")
    if schema is None:
        schema = database.schema()
    else:
        schema = schema.union(database.schema())
    for statement in create_table_statements(schema, unique=unique):
        connection.execute(statement)
    for pred in sorted(schema.predicates()):
        if budget is not None:
            budget.check("sql-load")
        arity = schema.arity_of(pred)
        rows = [
            tuple(str(t) for t in atom.args)
            for atom in database.atoms_with_pred(pred)
        ]
        if arity == 0:
            connection.executemany(
                f"INSERT INTO {_ident(pred)} VALUES (1)", [()] * len(rows)
            )
            continue
        placeholders = ", ".join("?" for _ in range(arity))
        connection.executemany(
            f"INSERT INTO {_ident(pred)} VALUES ({placeholders})", rows
        )
    connection.commit()
    return connection


def execute_ucq(
    connection: sqlite3.Connection,
    query: CQ | UCQ,
    *,
    present: set[str] | None = None,
    stats: EvalStats | None = None,
    budget: "Budget | None" = None,
) -> set[tuple[str, ...]]:
    """Run a (U)CQ over an already-loaded connection, disjunct by disjunct.

    *present* is the set of predicates with backing tables; disjuncts
    mentioning absent predicates yield no rows (CQ semantics over a
    missing-and-therefore-empty relation).  A governed run checks
    *budget* once per disjunct (``"sql-disjunct"``); a trip raises with
    the union of the already-executed disjuncts attached as ``partial``
    (each disjunct's answers are sound on their own).
    """
    disjuncts: Sequence[CQ] = (
        query.disjuncts if isinstance(query, UCQ) else (query,)
    )
    answers: set[tuple[str, ...]] = set()
    for cq in disjuncts:
        if budget is not None:
            try:
                budget.check("sql-disjunct")
            except BudgetExceeded as exc:
                raise exc.attach(partial=set(answers), stats=stats)
        if present is not None and not cq.predicates() <= present:
            continue  # a table is empty-and-absent: no matches
        rows = connection.execute(cq_to_sql(cq)).fetchall()
        if cq.is_boolean():
            if rows:
                answers.add(())
        else:
            answers.update(tuple(row) for row in rows)
    return answers


def evaluate_via_sqlite(
    query: CQ | UCQ,
    database: Instance,
    *,
    stats: EvalStats | None = None,
    budget: "Budget | None" = None,
) -> set[tuple[str, ...]]:
    """Evaluate through sqlite3 — the independent oracle.

    Values come back as strings (that is how they are stored); compare
    against the homomorphism engine after the same stringification.
    Predicates of the query missing from the database yield no rows, as
    CQ semantics requires.

    A governed run checks *budget* once per loaded predicate
    (``"sql-load"``) and once per executed disjunct (``"sql-disjunct"``).
    A trip raises :class:`~repro.governance.BudgetExceeded` with the
    answers of the disjuncts already executed attached as ``partial``
    (each disjunct's answer set is sound on its own — UCQ semantics is a
    union).
    """
    present = database.predicates()
    connection = load_into_sqlite(database, budget=budget)
    try:
        return execute_ucq(
            connection, query, present=present, stats=stats, budget=budget
        )
    finally:
        connection.close()


def sqlite_answer_step(
    query: CQ | UCQ,
    source: "Instance | sqlite3.Connection",
    *,
    present: set[str] | None = None,
    stats: EvalStats | None = None,
    budget: "Budget | None" = None,
    trip: str | None = None,
) -> tuple[set[tuple[str, ...]], str | None]:
    """The governed answer step in sqlite3 — twin of
    :func:`repro.omq.evaluation.answer_step`.

    Runs :func:`evaluate_via_sqlite` over an instance, or
    :func:`execute_ucq` over an already-loaded connection (*present* as
    there).  *trip* is the upstream leg's trip code: when set, the query
    runs under :meth:`Budget.grace` instead of the spent budget.  A trip
    here keeps the sound answers of the executed disjuncts.  Returns
    ``(answers, trip)``, the upstream trip taking precedence.
    """
    if trip is not None and budget is not None:
        budget = budget.grace()
    try:
        if isinstance(source, sqlite3.Connection):
            answers = execute_ucq(
                source, query, present=present, stats=stats, budget=budget
            )
        else:
            answers = evaluate_via_sqlite(query, source, stats=stats, budget=budget)
    except BudgetExceeded as exc:
        exc.attach(stats=stats)
        return (exc.partial if exc.partial is not None else set()), trip or exc.code
    return answers, trip


# ----------------------------------------------------------------------
# Saturation pushdown — full-fragment Datalog inside SQLite
# ----------------------------------------------------------------------
def _body_to_from_where(
    body: Sequence, *, derived_alias_preds: dict[int, str] | None = None
) -> tuple[list[str], list[str], dict]:
    """Shared FROM/WHERE builder for rule bodies.

    *derived_alias_preds* maps body positions to a predicate tag: those
    atoms read from the recursive ``derived`` relation (``d.c0..``) with a
    tag condition instead of from their base table.  Returns
    ``(from_parts, conditions, first_occurrence)``.
    """
    derived_alias_preds = derived_alias_preds or {}
    from_parts: list[str] = []
    conditions: list[str] = []
    first_occurrence: dict = {}
    for index, atom in enumerate(body):
        alias = f"b{index}"
        if index in derived_alias_preds:
            from_parts.append(f"derived AS {alias}")
            conditions.append(
                f"{alias}.pred = {_literal(derived_alias_preds[index])}"
            )
        else:
            from_parts.append(f"{_ident(atom.pred)} AS {alias}")
        for position, term in enumerate(atom.args):
            column = _column(alias, position)
            seen = first_occurrence.get(term)
            if seen is None:
                first_occurrence[term] = column
            else:
                conditions.append(f"{seen} = {column}")
    return from_parts, conditions, first_occurrence


def rule_to_insert_sql(rule) -> str:
    """One Datalog rule as an idempotent ``INSERT OR IGNORE ... SELECT``.

    *rule* is duck-typed (``.body``: atoms, ``.head``: one atom) so this
    module needs no import from :mod:`repro.datalog`.  Requires the head
    table to carry a UNIQUE constraint (``create_table_statements(...,
    unique=True)``) — that is what makes re-execution a no-op and lets
    the round loop detect the fixpoint via ``total_changes``.
    """
    head = rule.head
    from_parts, conditions, first = _body_to_from_where(rule.body)
    if head.args:
        select_cols = ", ".join(str(first[term]) for term in head.args)
    else:
        select_cols = "1"
    sql = (
        f"INSERT OR IGNORE INTO {_ident(head.pred)} "
        f"SELECT DISTINCT {select_cols} FROM {', '.join(from_parts)}"
    )
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    return sql


def recursive_saturation_sql(program) -> list[str] | None:
    """The whole program as one tagged ``WITH RECURSIVE`` + insert-backs.

    Works exactly when the recursion is *linear*: every rule body contains
    at most one IDB atom (always true for programs compiled from linear
    TGDs; transitive closure, with two IDB body atoms, is routed to the
    round loop instead — SQLite allows only one reference to the
    recursive table per branch).  All IDB predicates share one recursive
    relation ``derived(pred, c0..c{r-1})`` tagged by predicate name; each
    rule becomes one UNION branch whose single IDB body atom reads
    ``derived`` and whose EDB atoms read their base tables.  Returns the
    statement list (the CTE-driven INSERT per IDB predicate), or ``None``
    when the program needs the round loop.
    """
    rules = list(program.rules)
    idb = program.idb
    if not rules:
        return []
    if program.max_idb_body_atoms() > 1:
        return None
    if "derived" in program.predicates():
        return None  # a user predicate would shadow the CTE name
    schema = program.schema()
    arities = dict(schema.items())
    if any(arities.get(p, 0) == 0 for p in program.predicates()):
        return None  # propositional predicates: keep the simple round loop
    width = max(arities.values())

    def pad(cols: list[str]) -> str:
        return ", ".join(cols + ["NULL"] * (width - len(cols)))

    initial: list[str] = []
    recursive_branches: list[str] = []
    # Base branches: the seeded contents of every predicate any rule reads
    # or derives (IDB tables hold the database's own facts for that
    # predicate; EDB facts never change).
    for pred in sorted(program.predicates()):
        cols = [f"c{i}" for i in range(arities[pred])]
        initial.append(
            f"SELECT {_literal(pred)}, {pad(cols)} FROM {_ident(pred)}"
        )
    # Rule branches: the one IDB body atom (if any) reads `derived`; a
    # branch with no recursive reference belongs to the initial compound
    # (SQLite wants recursive branches last).
    for rule in rules:
        derived_positions = {
            i: atom.pred
            for i, atom in enumerate(rule.body)
            if atom.pred in idb
        }
        from_parts, conditions, first = _body_to_from_where(
            rule.body, derived_alias_preds=derived_positions
        )
        head_cols = [str(first[term]) for term in rule.head.args]
        sql = (
            f"SELECT {_literal(rule.head.pred)}, {pad(head_cols)} "
            f"FROM {', '.join(from_parts)}"
        )
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        (recursive_branches if derived_positions else initial).append(sql)

    cols = ", ".join(f"c{i}" for i in range(width))
    cte = (
        f"WITH RECURSIVE derived(pred, {cols}) AS (\n  "
        + "\n  UNION\n  ".join(initial + recursive_branches)
        + "\n)"
    )
    statements = []
    for pred in sorted(idb):
        target_cols = ", ".join(f"c{i}" for i in range(arities[pred]))
        statements.append(
            f"{cte}\nINSERT OR IGNORE INTO {_ident(pred)} "
            f"SELECT DISTINCT {target_cols} FROM derived "
            f"WHERE pred = {_literal(pred)}"
        )
    return statements


def saturate_in_sqlite(
    connection: sqlite3.Connection,
    program,
    *,
    stats: EvalStats | None = None,
    budget: "Budget | None" = None,
) -> int:
    """Run a full-fragment Datalog *program* to fixpoint inside SQLite.

    Tables (with UNIQUE constraints — see :func:`load_into_sqlite` with
    ``unique=True``) must already exist for every predicate the program
    mentions.  Linear-recursive programs run as one ``WITH RECURSIVE``
    statement per IDB predicate; everything else runs a stratified round
    loop of ``INSERT OR IGNORE ... SELECT`` statements, stopping when a
    full pass inserts nothing.

    Governed at the ``"sql-pushdown"`` check site, once per statement
    (recursive CTE) or per round (round loop).  A trip raises with no
    partial attached — the *connection* itself holds the sound
    already-derived facts (statements are atomic), and the caller
    evaluates over it under a grace budget.  Returns the number of
    statements executed.
    """
    executed = 0

    def _run(sql: str) -> None:
        nonlocal executed
        connection.execute(sql)
        executed += 1
        if stats is not None:
            stats.sql_statements += 1

    recursive = recursive_saturation_sql(program)
    if recursive is not None:
        for statement in recursive:
            if budget is not None:
                budget.check("sql-pushdown")
            _run(statement)
        connection.commit()
        return executed

    for stratum in program.strata:
        rules = [program.rules[i] for i in stratum]
        inserts = [rule_to_insert_sql(rule) for rule in rules]
        while True:
            if budget is not None:
                budget.check("sql-pushdown")
            before = connection.total_changes
            for sql in inserts:
                _run(sql)
            if connection.total_changes == before:
                break
    connection.commit()
    return executed
