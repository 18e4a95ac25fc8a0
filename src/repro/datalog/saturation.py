"""Datalog saturation as a thin entry over the semi-naive chase.

For a full TGD set, the semi-oblivious chase adds no labelled nulls, so
``chase(D, Σ)`` *is* the least fixpoint of the compiled Datalog program
over ``D`` (Prop 3.1; DESIGN.md) — and the delta chase already is
semi-naive evaluation: at level ``i`` it only enumerates joins that touch
an atom derived at level ``i − 1``.  :func:`saturate` therefore runs one
:func:`~repro.chase.chase` over the program's rules instead of keeping a
second round loop:

* **seminaive** (default) — ``strategy="delta"``;
* **naive** — ``strategy="naive"``, each level re-joins every rule body
  against the whole instance; the oracle the property tests compare
  against.

The strata of a :class:`~repro.datalog.DatalogProgram` are not iterated
here: one level loop over all rules reaches the same least model.  They
remain the structure the SQL pushdown iterates.

Governance: the chase's ``"trigger-fire"`` and ``"hom-backtrack"`` check
sites govern saturation.  A trip raises the
:class:`~repro.governance.BudgetExceeded` matching the trip code with the
saturated-so-far instance attached as ``exc.partial`` — sound, because
the chase adds a rule head only after its body matched atoms already
proven to be consequences.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..chase.engine import chase
from ..datamodel import EvalStats, Instance
from ..governance import Budget, trip_exception
from ..tgds import TGD
from .program import DatalogProgram

__all__ = ["SaturationRun", "saturate"]

#: saturate() strategy → the chase trigger search that implements it.
_CHASE_STRATEGIES = {"seminaive": "delta", "naive": "naive"}


@dataclass
class SaturationRun:
    """The least model plus how much work reaching it took.

    ``instance`` contains the input facts and every derived fact;
    ``rounds``/``facts_derived`` mirror the ``datalog_rounds`` /
    ``datalog_facts`` counters of the run's :class:`EvalStats` (chase
    levels run, the final empty level included, and atoms added).
    ``strata_run`` is the number of strata the least model covers.
    """

    instance: Instance
    rounds: int
    facts_derived: int
    strata_run: int
    stats: EvalStats = field(default_factory=EvalStats)


def saturate(
    database: Instance,
    program: DatalogProgram,
    *,
    strategy: str = "seminaive",
    stats: EvalStats | None = None,
    budget: Budget | None = None,
) -> SaturationRun:
    """Compute the least model of *program* over *database*.

    The input instance is not mutated.  *strategy* is ``"seminaive"``
    (default) or ``"naive"`` — identical results, different work; the
    property suite asserts the equivalence.

    >>> from repro.queries import parse_database
    >>> from repro.tgds import parse_tgds
    >>> from repro.datalog import compile_program
    >>> program = compile_program(parse_tgds(
    ...     ["R(x, y), R(y, z) -> R(x, z)"]
    ... ))
    >>> db = parse_database("R(a, b), R(b, c), R(c, d)")
    >>> run = saturate(db, program)
    >>> len(run.instance), run.facts_derived
    (6, 3)
    """
    if strategy not in _CHASE_STRATEGIES:
        raise ValueError(f"unknown saturation strategy {strategy!r}")
    if stats is None:
        stats = EvalStats()
    rules = [TGD(rule.body, (rule.head,), rule.name) for rule in program.rules]
    # Full rules invent no nulls, so the chase always reaches its fixpoint:
    # the safety cap must never be the thing that stops it.
    result = chase(
        database,
        rules,
        strategy=_CHASE_STRATEGIES[strategy],
        stats=stats,
        budget=budget,
        safety_cap=sys.maxsize,
    )
    # Atom levels equal the level that derived them, so a fixpoint run
    # went max_level + 1 levels; a tripped run stopped inside next_level.
    rounds = (
        result.max_level + 1
        if result.terminated
        else result.checkpoint.next_level
    )
    derived = len(result.instance) - len(database)
    stats.datalog_rounds += rounds
    stats.datalog_facts += derived
    if not result.terminated:
        raise trip_exception(
            result.reason,
            f"saturation stopped by the budget ({result.reason})",
            partial=result.instance,
            stats=stats,
        )
    return SaturationRun(
        instance=result.instance,
        rounds=rounds,
        facts_derived=derived,
        strata_run=len(program.strata),
        stats=stats,
    )
