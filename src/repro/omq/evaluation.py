"""OMQ evaluation — certain answers (Section 3.1, Prop 3.1).

``Q(D) = q(chase(D, Σ))``, so evaluation reduces to materialising enough of
the chase.  Several strategies are available, picked automatically:

============  ==========================================  ===============
strategy      applicable when                             exactness
============  ==========================================  ===============
``chase``     Σ full or weakly acyclic                    exact
``rewrite``   Σ linear, single-head                       exact
``guarded``   Σ guarded                                   exact when the
                                                          expansion closed
                                                          without blocking;
                                                          otherwise sound,
                                                          calibrated to the
                                                          query's variable
                                                          count
``bounded``   anything (frontier-guarded, arbitrary)      sound up to the
                                                          level bound
============  ==========================================  ===============

Soundness is unconditional: every produced answer is a certain answer,
because every strategy evaluates the UCQ over a subset of the chase (UCQs
are monotone).  The ``complete`` flag on the result states whether the
answer set is *provably* all of ``Q(D)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..datamodel import EvalStats, Instance, Term
from ..options import Parallelism
from ..governance import TRIP_CODES as _TRIP_CODES
from ..governance import Budget, BudgetExceeded
from ..governance.checkpoint import ChaseCheckpoint, validate_tgds
from ..queries import UCQ, evaluate_ucq, iter_answers
from ..tgds import all_full, all_linear, is_weakly_acyclic
from ..chase import (
    ChaseCache,
    chase,
    ground_saturation,
    rewrite_ucq,
    saturated_expansion,
)
from .omq import OMQ

__all__ = ["OMQAnswer", "certain_answers", "is_certain_answer"]

#: Default level bound for the fallback bounded strategy.
DEFAULT_LEVEL_BOUND = 8


@dataclass
class OMQAnswer:
    """Certain answers plus provenance of how they were computed.

    ``answers`` is always sound (a subset of ``Q(D)``); ``complete`` is True
    when it provably equals ``Q(D)``.  ``stats`` accumulates the evaluation
    counters of the chase (when one ran) and the final UCQ evaluation.

    ``trip`` is the three-valued-answer marker of a governed run: None for
    an ungoverned or untripped evaluation, otherwise the machine-readable
    budget trip code ("deadline", "atom budget", "step budget",
    "cancelled").  A set ``trip`` implies ``complete=False`` — the answers
    are sound positives, the rest is *unknown*, not negative.

    ``checkpoint`` carries the tripped chase's resumable
    :class:`~repro.governance.ChaseCheckpoint` when the strategy that ran
    supports one (chase/bounded); ``Engine.resume(answer)`` or
    ``certain_answers(..., resume_from=answer.checkpoint)`` continues the
    materialisation instead of re-chasing from scratch.
    """

    answers: set[tuple[Term, ...]]
    complete: bool
    strategy: str
    detail: str = ""
    stats: EvalStats = field(default_factory=EvalStats)
    trip: str | None = None
    checkpoint: "ChaseCheckpoint | None" = None

    @property
    def trip_reason(self) -> str | None:
        """Alias of :attr:`trip` — the name :class:`ChaseResult` also uses."""
        return self.trip

    def __contains__(self, candidate: tuple) -> bool:
        return tuple(candidate) in self.answers

    def __iter__(self):
        """Iterate the answer tuples — lets callers treat the result as the
        answer set (``sorted(result)``, ``set(result)``, comprehension)."""
        return iter(self.answers)

    def __len__(self) -> int:
        return len(self.answers)

    def __eq__(self, other: object) -> bool:
        """Answers compare to plain sets (back-compat for old call sites
        that did ``evaluate(q, D) == {...}``); two OMQAnswers compare on
        all fields as dataclasses do."""
        if isinstance(other, (set, frozenset)):
            return self.answers == other
        if isinstance(other, OMQAnswer):
            return (
                self.answers == other.answers
                and self.complete == other.complete
                and self.strategy == other.strategy
                and self.detail == other.detail
                and self.trip == other.trip
            )
        return NotImplemented


def _evaluate_partial(
    query: UCQ,
    instance: Instance,
    *,
    stats: EvalStats,
    budget: Budget | None,
    plan: str | None = "auto",
) -> tuple[set[tuple[Term, ...]], str | None]:
    """Evaluate a UCQ, keeping the answers found if the budget trips.

    Returns ``(answers, trip_code_or_None)``.  Safe because every yielded
    answer of :func:`~repro.queries.iter_answers` is valid on its own.
    The instance is frozen here (the chase/expansion already ran), so
    ``plan="auto"`` is the default: each disjunct compiles once.
    """
    answers: set[tuple[Term, ...]] = set()
    trip: str | None = None
    try:
        for cq in query.disjuncts:
            for row in iter_answers(
                cq, instance, stats=stats, budget=budget, plan=plan
            ):
                answers.add(row)
    except BudgetExceeded as exc:
        trip = exc.code
        exc.attach(stats=stats)
    return answers, trip


def _restrict_to_database(
    answers: set[tuple[Term, ...]], database: Instance
) -> set[tuple[Term, ...]]:
    """Certain answers are tuples over dom(D); drop null-containing tuples."""
    dom = database.dom()
    return {t for t in answers if all(c in dom for c in t)}


def certain_answers(
    omq: OMQ,
    database: Instance,
    *,
    strategy: str = "auto",
    trigger_strategy: str | None = None,
    level_bound: int = DEFAULT_LEVEL_BOUND,
    unfold: int | None = None,
    max_nodes: int = 50_000,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    cache: ChaseCache | None = None,
    parallelism: "Parallelism" = None,
    plan: str | None = "auto",
    resume_from: ChaseCheckpoint | None = None,
) -> OMQAnswer:
    """Compute ``Q(D)`` (Prop 3.1) with the given or auto-picked strategy.

    *trigger_strategy* is forwarded to :func:`~repro.chase.chase` when a
    chase-based strategy runs ("delta" or "naive").  *stats* may be a
    shared :class:`EvalStats`; the returned answer carries it (or a fresh
    one) with the chase and UCQ-evaluation counters accumulated.

    *budget* makes the call **governed**: instead of raising on a deadline
    or cap, the function returns a *three-valued partial answer* — sound
    positives in ``answers``, ``complete=False``, and the trip code in
    ``trip``.  Post-trip answer extraction runs under a grace budget with
    the same deadline, so a governed call returns within roughly twice the
    configured deadline.

    *cache* is an optional :class:`~repro.chase.ChaseCache`: when the
    "chase" strategy runs, the (unbounded) chase is looked up/stored there,
    so repeated calls over the same ``(D, Σ)`` skip straight to UCQ
    evaluation.  The "bounded" strategy never touches the cache (a
    level-bounded prefix is not the chase).  *parallelism* shards the
    chase's per-level trigger search (a ``ProcessPool(n)`` marker, or
    ``None`` for serial — see :mod:`repro.options`).
    *resume_from* continues a previously tripped chase-based evaluation
    from its :class:`~repro.governance.ChaseCheckpoint`
    (``answer.checkpoint``) instead of re-chasing from scratch; the
    checkpoint must belong to the same ontology, and the checkpointed
    bounds (e.g. the bounded strategy's level bound) are honoured.
    *plan* selects the join-ordering policy of the final UCQ evaluation
    (``"auto"``, the default, compiles one
    :class:`~repro.datamodel.JoinPlan` per disjunct against the
    materialised instance; ``None`` keeps per-node dynamic ordering); it
    never changes the answer set.
    """
    if trigger_strategy is None:
        trigger_strategy = "delta"
    omq.validate_database(database)
    tgds = list(omq.tgds)
    if stats is None:
        stats = EvalStats()

    if resume_from is not None:
        # Continue a tripped chase-based materialisation exactly where it
        # stopped; the checkpoint carries the run's own bounds, so a
        # bounded-strategy checkpoint resumes as a bounded run.
        from ..chase import resume_chase

        validate_tgds(resume_from, tgds)
        result = resume_chase(
            resume_from, budget=budget, stats=stats, null_policy="fresh"
        )
        label = (
            "bounded"
            if resume_from.config.get("max_level") is not None
            else "chase"
        )
        tripped = result.trip_reason in _TRIP_CODES
        eval_budget = budget.grace() if tripped and budget is not None else budget
        raw, eval_trip = _evaluate_partial(
            omq.query, result.instance, stats=stats, budget=eval_budget, plan=plan
        )
        trip = (result.trip_reason if tripped else None) or eval_trip
        return OMQAnswer(
            _restrict_to_database(raw, database),
            result.terminated and trip is None,
            label,
            f"resumed at level {resume_from.next_level}, "
            f"{len(result.instance)} atoms",
            stats=stats,
            trip=trip,
            checkpoint=result.checkpoint,
        )

    if strategy == "auto":
        if not tgds or all_full(tgds) or is_weakly_acyclic(tgds):
            strategy = "chase"
        elif all_linear(tgds) and all(len(t.head) == 1 for t in tgds):
            strategy = "rewrite"
        elif omq.is_guarded():
            strategy = "guarded"
        else:
            strategy = "bounded"

    if strategy == "chase":
        if cache is not None:
            result = cache.chase(
                database,
                tgds,
                strategy=trigger_strategy,
                stats=stats,
                budget=budget,
                parallelism=parallelism,
            )
        else:
            result = chase(
                database,
                tgds,
                strategy=trigger_strategy,
                stats=stats,
                budget=budget,
                parallelism=parallelism,
            )
        if not result.terminated and budget is None:  # pragma: no cover
            raise RuntimeError("chase strategy selected but chase did not terminate")
        # Post-trip answer extraction runs under a *grace* budget — derived
        # via Budget.child, so it is clamped to any inherited hard deadline
        # (a service request's cap) and otherwise grants the same deadline
        # on a fresh clock, bounding the total wall time of a governed call
        # by twice the deadline.
        eval_budget = budget.grace() if result.trip_reason else budget
        raw, eval_trip = _evaluate_partial(
            omq.query, result.instance, stats=stats, budget=eval_budget, plan=plan
        )
        trip = result.trip_reason or eval_trip
        return OMQAnswer(
            _restrict_to_database(raw, database),
            trip is None,
            "chase",
            f"{len(result.instance)} atoms",
            stats=stats,
            trip=trip,
            checkpoint=result.checkpoint,
        )

    if strategy == "rewrite":
        trip = None
        try:
            rewriting = rewrite_ucq(omq.query, tgds, budget=budget)
        except BudgetExceeded as exc:
            # Partial rewritings are sound: each derived CQ's answers over D
            # are certain answers.  Evaluate what we have under grace.
            if budget is None or exc.partial is None:
                raise
            rewriting = exc.partial
            trip = exc.code
            exc.attach(stats=stats)
        eval_budget = budget.grace() if trip and budget is not None else budget
        answers, eval_trip = _evaluate_partial(
            rewriting, database, stats=stats, budget=eval_budget, plan=plan
        )
        trip = trip or eval_trip
        return OMQAnswer(
            answers,
            trip is None,
            "rewrite",
            f"{len(rewriting)} CQs",
            stats=stats,
            trip=trip,
        )

    if strategy == "guarded":
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
        eval_budget = (
            budget.grace() if expansion.trip_reason and budget is not None
            else budget
        )
        raw, eval_trip = _evaluate_partial(
            omq.query, expansion.instance, stats=stats, budget=eval_budget, plan=plan
        )
        trip = expansion.trip_reason or eval_trip
        return OMQAnswer(
            _restrict_to_database(raw, database),
            expansion.provably_exact and trip is None,
            "guarded",
            f"{expansion.nodes} nodes, unfold={calibration}, "
            f"blocked={expansion.blocked}",
            stats=stats,
            trip=trip,
        )

    if strategy == "bounded":
        # Never cached: a level-bounded prefix depends on the bound, not
        # just on (D, Σ).
        result = chase(
            database,
            tgds,
            max_level=level_bound,
            strategy=trigger_strategy,
            stats=stats,
            budget=budget,
            parallelism=parallelism,
        )
        tripped = result.trip_reason in _TRIP_CODES
        eval_budget = budget.grace() if tripped and budget is not None else budget
        raw, eval_trip = _evaluate_partial(
            omq.query, result.instance, stats=stats, budget=eval_budget, plan=plan
        )
        trip = result.trip_reason if tripped else None
        trip = trip or eval_trip
        return OMQAnswer(
            _restrict_to_database(raw, database),
            result.terminated and trip is None,
            "bounded",
            f"level ≤ {level_bound}, {len(result.instance)} atoms",
            stats=stats,
            trip=trip,
            checkpoint=result.checkpoint,
        )

    raise ValueError(f"unknown strategy {strategy!r}")


def is_certain_answer(
    omq: OMQ,
    database: Instance,
    candidate: Sequence[Term],
    **kwargs,
) -> bool:
    """Decide ``c̄ ∈ Q(D)`` — the paper's OMQ-Evaluation problem.

    Sound and, whenever the chosen strategy is complete, exact.
    """
    return tuple(candidate) in certain_answers(omq, database, **kwargs).answers
