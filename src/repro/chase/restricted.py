"""The restricted (standard) chase — the head-checking variant.

The paper works with the *oblivious* chase (Section 2), which fires a
trigger whether or not its head is already satisfied; that is what makes
``chase(D, Σ)`` unique and lets the proofs speak of "the" chase.  The
*restricted* chase instead skips triggers whose head already has a match —
it terminates strictly more often (e.g. on ``Emp(x) → ∃y ReportsTo(x, y)``
over a database that already records a manager) and is what practical
engines run.

The two chases are homomorphically equivalent whenever both exist, so UCQ
certain answers agree; the tests check this.  This module exists for two
reasons: (i) it documents the difference the paper's footnote glosses over,
and (ii) it gives the benchmark generators a termination tool on inputs
where the (semi-)oblivious chase diverges.

The trigger search is the same delta-driven (semi-naive) machinery as the
oblivious engine (:mod:`repro.chase.engine`): at round ``i`` only triggers
whose body image intersects the atoms produced at round ``i − 1`` are
considered, seeded from the delta instance's facts with the pivot
rule, and a processed-trigger cache guarantees each (TGD, frontier-image)
key is *examined* at most once — sound because head satisfaction is
monotone (once satisfied, always satisfied).  ``strategy="naive"`` keeps
the full re-scan per round as the differential oracle.  An
:class:`~repro.datamodel.EvalStats` counts triggers examined/fired/deduped
and head-satisfaction checks; a :class:`~repro.governance.Budget` governs
the run at ``"restricted-fire"`` and ``"hom-backtrack"`` granularity,
returning a consistent partial instance on a trip instead of raising.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..datamodel import (
    EvalStats,
    Instance,
    Term,
    find_homomorphism,
    fresh_null,
    null_counter_value,
    set_null_counter,
)
from ..governance import Budget, BudgetExceeded
from ..governance.checkpoint import ChaseCheckpoint, CheckpointError
from ..tgds import TGD
from .engine import (
    STRATEGIES,
    _UNSET,
    _atom_sort_key,
    _body_orders,
    _candidate_sort,
    _delta_triggers,
    _naive_triggers,
)

__all__ = [
    "restricted_chase",
    "resume_restricted_chase",
    "RestrictedChaseResult",
]


class RestrictedChaseResult:
    """Result of a restricted chase run.

    ``instance`` is the chased instance (a model of Σ and D iff
    ``terminated``); ``reason`` is "fixpoint", "round bound", "atom bound",
    or a budget trip code; ``stats`` carries the evaluation counters;
    ``checkpoint`` is a resumable :class:`~repro.governance.ChaseCheckpoint`
    for every incomplete run (``None`` on a fixpoint).
    """

    __slots__ = (
        "instance",
        "terminated",
        "fired",
        "reason",
        "rounds",
        "stats",
        "checkpoint",
    )

    def __init__(
        self,
        instance: Instance,
        terminated: bool,
        fired: int,
        reason: str,
        rounds: int = 0,
        stats: EvalStats | None = None,
        checkpoint: ChaseCheckpoint | None = None,
    ) -> None:
        self.instance = instance
        self.terminated = terminated
        self.fired = fired
        self.reason = reason
        self.rounds = rounds
        self.stats = stats if stats is not None else EvalStats()
        self.checkpoint = checkpoint

    @property
    def complete(self) -> bool:
        """Uniform alias for ``terminated`` (the governed-result protocol)."""
        return self.terminated

    @property
    def trip(self) -> str | None:
        """The machine-readable stop reason for a cut-short run, else None."""
        return None if self.terminated else self.reason

    @property
    def trip_reason(self) -> str | None:
        """Alias of :attr:`trip` (the historical spelling)."""
        return self.trip

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RestrictedChaseResult<{len(self.instance)} atoms, "
            f"terminated={self.terminated}, fired={self.fired}>"
        )


def restricted_chase(
    database: Instance,
    tgds: Sequence[TGD],
    *,
    max_rounds: int | None = None,
    max_atoms: int = 500_000,
    strategy: str = "delta",
    stats: EvalStats | None = None,
    budget: Budget | None = None,
) -> RestrictedChaseResult:
    """Run the restricted chase to a fixpoint (or a bound / budget trip).

    A trigger fires only if the head has no match extending the frontier
    image.  Nondeterministic in general; this implementation processes
    triggers in a deterministic order, so results are reproducible.

    *strategy* is ``"delta"`` (semi-naive trigger search, the default) or
    ``"naive"`` (full re-scan per round, the differential oracle); both
    compute a restricted chase, and their results are homomorphically
    equivalent.  *stats* accumulates counters; *budget* governs the run —
    on a trip the partial instance built so far is returned (every atom
    carries a valid trigger derivation) with ``reason`` set to the trip
    code instead of raising.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown chase strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    tgds = list(tgds)
    if stats is None:
        stats = EvalStats()
    # One ordered view feeds the instance, the insertion-order log, and the
    # round-0 delta — checkpoints record this order so a resume rebuilds
    # identical index iteration order (see repro.governance.checkpoint).
    # Canonical sorting makes the order content-determined, so fresh runs
    # agree across interpreters with different ``PYTHONHASHSEED`` values.
    ordered = sorted(database, key=_atom_sort_key)
    return _restricted_core(
        tgds=tgds,
        instance=Instance(ordered),
        insertion_order=list(ordered),
        delta=Instance(ordered),
        delta_order=list(ordered),
        handled=set(),
        pending_empty_body=[tgd for tgd in tgds if not tgd.body],
        db_size=len(ordered),
        original_dom=frozenset(database.dom()),
        max_rounds=max_rounds,
        max_atoms=max_atoms,
        strategy=strategy,
        stats=stats,
        budget=budget,
    )


def _restricted_core(
    *,
    tgds: list[TGD],
    instance: Instance,
    insertion_order: list,
    delta: Instance,
    delta_order: list,
    handled: set,
    pending_empty_body: list[TGD],
    db_size: int,
    original_dom: frozenset,
    max_rounds: int | None,
    max_atoms: int,
    strategy: str,
    stats: EvalStats,
    budget: Budget | None,
    start_round: int = 0,
    fired_start: int = 0,
) -> RestrictedChaseResult:
    """The shared round loop behind :func:`restricted_chase` and
    :func:`resume_restricted_chase`.

    *insertion_order* logs every atom in the order it entered *instance*
    (the restricted chase has no level map to recover order from);
    checkpoints serialize it so a resume rebuilds identical indexes.
    Checkpoints are taken at **round boundaries** — a mid-round trip rolls
    the round's partial work back (produced atoms are the tail of the
    insertion log; handled keys and the null counter from round-entry
    marks), mirroring the level-boundary semantics of the oblivious engine.
    """
    run_start = time.perf_counter()
    fired = fired_start
    rounds = start_round
    reason = "fixpoint"
    config = {"max_rounds": max_rounds, "max_atoms": max_atoms}
    frontiers = [
        tuple(sorted(tgd.frontier(), key=lambda v: v.name)) for tgd in tgds
    ]
    body_orders = _body_orders(tgds)
    pairs = [(index, tgd) for index, tgd in enumerate(tgds) if tgd.body]

    def snapshot(
        *,
        next_round: int,
        delta_atoms,
        empty_pending: bool,
        fired_at: int,
        nulls_at: int,
        stats_at: EvalStats,
        undo_produced=(),
        undo_keys=(),
        trip: str | None = None,
    ) -> ChaseCheckpoint:
        atoms = insertion_order
        if undo_produced:
            atoms = atoms[: len(atoms) - len(undo_produced)]
        return ChaseCheckpoint(
            kind="restricted",
            strategy=strategy,
            tgds=tuple(tgds),
            atoms=tuple(atoms),
            levels=None,
            delta_atoms=tuple(delta_atoms),
            fired_keys=frozenset(handled.difference(undo_keys)),
            empty_body_pending=empty_pending,
            original_dom=original_dom,
            next_level=next_round,
            fired=fired_at,
            null_counter=nulls_at,
            db_size=db_size,
            stats=stats_at,
            trip=trip,
            config=dict(config),
        )

    final_checkpoint: ChaseCheckpoint | None = None
    # Round-entry rollback marks (only consulted when a budget can trip).
    track_marks = budget is not None
    produced: list = []
    round_keys: list = []
    null_mark = null_counter_value()
    stats_mark: EvalStats | None = None
    fired_mark = fired
    empty_mark = bool(pending_empty_body)

    try:
        while True:
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                reason = "round bound"
                final_checkpoint = snapshot(
                    next_round=rounds,
                    delta_atoms=delta_order,
                    empty_pending=bool(pending_empty_body),
                    fired_at=fired,
                    nulls_at=null_counter_value(),
                    stats_at=stats.copy(),
                )
                break
            produced = []
            round_keys = []
            empty_mark = bool(pending_empty_body)
            if track_marks:
                null_mark = null_counter_value()
                stats_mark = stats.copy()
                fired_mark = fired

            if pending_empty_body:
                for tgd in pending_empty_body:
                    stats.head_checks += 1
                    if (
                        find_homomorphism(
                            tgd.head, instance, stats=stats, budget=budget
                        )
                        is None
                    ):
                        assignment = {
                            z: fresh_null(z.name)
                            for z in sorted(
                                tgd.existential_variables(), key=lambda v: v.name
                            )
                        }
                        for atom in tgd.head:
                            grounded = atom.apply(assignment)
                            if instance.add(grounded):
                                insertion_order.append(grounded)
                                produced.append(grounded)
                        fired += 1
                        stats.triggers_fired += 1
                pending_empty_body = []

            # Materialise before firing (firing mutates the live indexes the
            # lazy search walks); head satisfaction is then re-checked
            # against the *current* instance at fire time, which only makes
            # the chase skip more — never fire a satisfied trigger.
            if strategy == "delta":
                candidates = list(
                    _delta_triggers(pairs, instance, delta, stats, budget)
                )
            else:
                candidates = list(_naive_triggers(pairs, instance, stats, budget))
            # Canonical firing order (see engine._candidate_sort): the
            # restricted chase is order-sensitive — firing order decides
            # which triggers find their head satisfied — so a
            # content-determined order is what keeps results reproducible
            # across interpreters and checkpoint resumes.
            _candidate_sort(candidates, instance.pool)

            term_of = instance.pool.term_of
            for tgd_index, ids in candidates:
                # The trigger search yields interned body images (see
                # engine._delta_triggers); rebuild the Term-level hom — the
                # restricted chase's handled keys and head checks work over
                # Terms, and this path is not firing-rate critical.
                tgd = tgds[tgd_index]
                order = body_orders[tgd_index]
                hom = {order[k]: term_of(ids[k]) for k in range(len(ids))}
                key = (tgd_index, tuple(hom[v] for v in frontiers[tgd_index]))
                if key in handled:
                    stats.triggers_deduped += 1
                    continue
                if budget is not None:
                    budget.check("restricted-fire", atoms=len(instance))
                handled.add(key)
                round_keys.append(key)
                frontier_image = {v: hom[v] for v in tgd.frontier()}
                stats.head_checks += 1
                if (
                    find_homomorphism(
                        tgd.head,
                        instance,
                        fixed=dict(frontier_image),
                        stats=stats,
                        budget=budget,
                    )
                    is not None
                ):
                    continue
                assignment: dict[Term, Term] = dict(frontier_image)
                for z in sorted(tgd.existential_variables(), key=lambda v: v.name):
                    assignment[z] = fresh_null(z.name)
                for atom in tgd.head:
                    grounded = atom.apply(assignment)
                    if instance.add(grounded):
                        insertion_order.append(grounded)
                        produced.append(grounded)
                fired += 1
                stats.triggers_fired += 1

            if not produced:
                break
            delta = Instance(produced)
            delta_order = produced
            if len(instance) > max_atoms:
                reason = "atom bound"
                final_checkpoint = snapshot(
                    next_round=rounds + 1,
                    delta_atoms=delta_order,
                    empty_pending=False,
                    fired_at=fired,
                    nulls_at=null_counter_value(),
                    stats_at=stats.copy(),
                )
                break
    except BudgetExceeded as exc:
        # Graceful degradation, with a round-boundary checkpoint: the
        # tripped round's partial work is rolled back in the snapshot, so
        # resuming replays the round exactly as an uninterrupted run would.
        reason = exc.code
        final_checkpoint = snapshot(
            next_round=rounds,
            delta_atoms=delta_order,
            empty_pending=empty_mark,
            fired_at=fired_mark,
            nulls_at=null_mark,
            stats_at=stats_mark if stats_mark is not None else stats.copy(),
            undo_produced=produced,
            undo_keys=round_keys,
            trip=exc.code,
        )
        exc.attach(stats=stats)
        exc.checkpoint = final_checkpoint

    stats.wall_seconds += time.perf_counter() - run_start
    return RestrictedChaseResult(
        instance=instance,
        terminated=reason == "fixpoint",
        fired=fired,
        reason=reason,
        rounds=rounds,
        stats=stats,
        checkpoint=final_checkpoint,
    )


def resume_restricted_chase(
    checkpoint: ChaseCheckpoint,
    *,
    budget: Budget | None = None,
    stats: EvalStats | None = None,
    null_policy: str = "exact",
    max_rounds=_UNSET,
    max_atoms=_UNSET,
) -> RestrictedChaseResult:
    """Continue a restricted chase from a round-boundary checkpoint.

    The same contract as :func:`repro.chase.resume_chase`:
    ``null_policy="exact"`` pins the global null counter for bit-identical
    replay, ``"fresh"`` only advances it; bound knobs default to the
    checkpointed run's configuration; *budget* is not inherited.
    """
    if checkpoint.kind != "restricted":
        raise CheckpointError(
            f"resume_restricted_chase got a {checkpoint.kind!r} checkpoint; "
            "use checkpoint.resume() to dispatch on kind"
        )
    if null_policy not in ("exact", "fresh"):
        raise ValueError(
            f"null_policy must be 'exact' or 'fresh', got {null_policy!r}"
        )
    set_null_counter(
        checkpoint.null_counter, advance_only=(null_policy == "fresh")
    )
    config = checkpoint.config
    if max_rounds is _UNSET:
        max_rounds = config.get("max_rounds")
    if max_atoms is _UNSET:
        max_atoms = config.get("max_atoms", 500_000)
    tgds = list(checkpoint.tgds)
    if stats is None:
        stats = checkpoint.stats.copy()
    ordered = list(checkpoint.atoms)
    delta_order = list(checkpoint.delta_atoms)
    return _restricted_core(
        tgds=tgds,
        instance=Instance(ordered),
        insertion_order=list(ordered),
        delta=Instance(delta_order),
        delta_order=delta_order,
        handled=set(checkpoint.fired_keys),
        pending_empty_body=(
            [tgd for tgd in tgds if not tgd.body]
            if checkpoint.empty_body_pending
            else []
        ),
        db_size=checkpoint.db_size,
        original_dom=checkpoint.original_dom,
        max_rounds=max_rounds,
        max_atoms=max_atoms,
        strategy=checkpoint.strategy,
        stats=stats,
        budget=budget,
        start_round=checkpoint.next_level - 1,
        fired_start=checkpoint.fired,
    )
