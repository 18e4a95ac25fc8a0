"""The oblivious chase with s-level tracking (Section 2 and Appendix A).

A chase step applies a TGD ``σ: φ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄)`` to a trigger — a
homomorphism of the body into the current instance — introducing fresh
labelled nulls for ``z̄``.  The *oblivious* chase fires every trigger exactly
once, whether or not the head is already satisfied; consequently the result
is unique up to isomorphism and the paper can speak of "the" chase
``chase(D, Σ)`` (Section 2).

The engine is *level-wise* (Appendix A): the s-level of an atom is 0 for
database atoms and ``max level of its trigger's body atoms + 1`` otherwise,
and all atoms of level ``i`` are produced before any atom of level ``i+1``.
Level bounds implement ``chase^ℓ_s(D, Σ)`` of Lemma A.1.

One deliberate refinement (recorded in DESIGN.md): firing is
*semi-oblivious* — one firing per (TGD, frontier image) rather than per
body homomorphism.  The two disciplines yield homomorphically equivalent
results (they differ only in how many copies of fresh nulls witness the
same frontier image), hence identical UCQ certain answers, models, and
ground parts; and semi-oblivious firing is the one whose termination weak
acyclicity certifies.

Two trigger-search strategies compute the same level-wise sequence:

* ``strategy="delta"`` (the default) is *semi-naive*: at level ``i`` only
  triggers whose body image intersects the atoms produced at level
  ``i − 1`` are considered.  The previous level's atoms are kept in a
  per-level delta :class:`~repro.datamodel.Instance` whose facts seed
  the search per body atom, and a pivot rule (the pivot must be the
  *first* body atom landing in the delta) ensures no trigger is ever
  enumerated twice.
* ``strategy="naive"`` re-enumerates every body homomorphism into the whole
  instance at every level and discards already-fired keys.  It is the
  obviously-correct oracle that the differential suite (``tests/oracle/``)
  checks the delta engine against; both produce identical level maps and
  isomorphic instances.

Termination: guaranteed for full TGDs and weakly acyclic sets; otherwise the
caller must bound levels/atoms (the result records whether a fixpoint was
reached).  An *unbounded* run past the safety cap raises; a run bounded by
``max_level``/``max_atoms`` that trips the cap stops with
``reason="atom bound"`` instead.

Governance: a :class:`~repro.governance.Budget` adds wall-clock deadlines,
atom/step budgets, and cooperative cancellation, checked before every
trigger firing (``"trigger-fire"``) and per candidate fact of the trigger
search (``"hom-backtrack"``).  A governed run never raises on a trip — it
returns the level-wise prefix built so far with ``terminated=False`` and
``reason`` set to the machine-readable trip code (``result.trip``).
Head atoms of a trigger are added atomically between checks, so the prefix
is always a consistent chase prefix: every atom has a valid trigger
derivation from earlier atoms.

Incremental extension: :func:`extend_chase` resumes a *terminated* chase
after new database atoms arrive, feeding them as the delta frontier and
reusing the fired-key set recorded on the base result — the machinery the
cross-call :class:`~repro.chase.cache.ChaseCache` uses to avoid re-chasing
a grown database from scratch.

Checkpoint/resume
-----------------

Any *incomplete* run — budget trip, level/atom bound — now carries a
:class:`~repro.governance.ChaseCheckpoint` on ``result.checkpoint``; a
budget trip additionally snapshots on the exception's unwind path.
Checkpoints are taken at level boundaries: a mid-level trip rolls the
tripped level's partial work back (head atoms, fired keys, the null
counter), so the snapshot is exactly the state the run had entering the
level.  :func:`resume_chase` rebuilds the loop state from a checkpoint —
instance atoms re-inserted in checkpoint order so index iteration order is
reproduced — and re-enters :func:`_chase_core` at the recorded level.  With
``null_policy="exact"`` (the default) the global null counter is pinned to
the checkpoint's value, which makes ``resume(trip(run))`` bit-identical to
the uninterrupted run — at any trip point, and across process boundaries
via the JSON codec in :mod:`repro.datamodel.io`
(``tests/chaos/`` sweeps exactly this).  ``chase(...,
checkpoint_every=k)`` additionally snapshots every *k* completed levels
(``on_checkpoint=`` receives each one — the CLI's crash-survivable
``--checkpoint-dir``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..options import Parallelism, check_parallelism
from ..datamodel import (
    Atom,
    EvalStats,
    Instance,
    Term,
    Variable,
    find_homomorphisms,
    fresh_null,
    null_counter_value,
    set_null_counter,
    term_sort_key,
)
from ..datamodel.joins import (
    body_atoms,
    compile_bodies,
    delta_triggers_interned,
)
from ..governance import Budget, BudgetExceeded
from ..governance.checkpoint import ChaseCheckpoint, CheckpointError
from ..tgds import TGD, all_full, is_weakly_acyclic

__all__ = [
    "ChaseResult",
    "ChaseNonterminationError",
    "ChaseWorkerError",
    "EvalStats",
    "chase",
    "extend_chase",
    "resume_chase",
    "terminating_chase",
]

#: Global safety cap: an unbounded chase that exceeds this many atoms raises.
DEFAULT_SAFETY_CAP = 1_000_000

#: Trigger-search strategies accepted by :func:`chase`.
STRATEGIES = ("delta", "naive")


class ChaseNonterminationError(RuntimeError):
    """An unbounded chase exceeded its safety cap without reaching a fixpoint."""


class ChaseWorkerError(RuntimeError):
    """Deprecated: the chase has no worker shards, so this is never raised.

    Kept exported for one release so ``except ChaseWorkerError`` clauses
    still import.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.checkpoint: ChaseCheckpoint | None = None


@dataclass
class ChaseResult:
    """The outcome of a (possibly bounded) chase run.

    Attributes
    ----------
    instance:
        The chased instance (``chase(D, Σ)`` if ``terminated`` is True,
        otherwise a level-wise prefix ``chase^ℓ_s(D, Σ)``).
    levels:
        The s-level of every atom (database atoms have level 0).
    terminated:
        True iff a fixpoint was reached — the instance satisfies Σ and *is*
        the chase; False iff a level/atom bound cut the run short.
    max_level:
        The highest atom level present.
    fired:
        Number of triggers fired.
    reason:
        Why the run stopped ("fixpoint", "level bound", "atom bound", or a
        budget trip code: "deadline", "atom budget", "step budget",
        "cancelled").
    strategy:
        The trigger-search strategy that produced this result.
    stats:
        Evaluation counters for the run (:class:`EvalStats`).
    fired_keys:
        The semi-oblivious (TGD index, frontier image) keys fired so far —
        what :func:`extend_chase` needs to resume this run incrementally.
    parallelism:
        Deprecated: always 1 (the trigger search runs serially).
    parallelism_kind:
        Deprecated: always ``"serial"``.
    checkpoint:
        A :class:`~repro.governance.ChaseCheckpoint` for every incomplete
        run (budget trip or level/atom bound), ``None`` on a fixpoint —
        hand it to :func:`resume_chase` to continue with a fresh budget.
    """

    instance: Instance
    levels: dict[Atom, int]
    terminated: bool
    max_level: int
    fired: int
    reason: str
    original_dom: frozenset = field(default_factory=frozenset)
    strategy: str = "delta"
    stats: EvalStats = field(default_factory=EvalStats)
    fired_keys: frozenset = field(default_factory=frozenset)
    parallelism: int = 1
    parallelism_kind: str = "serial"
    checkpoint: ChaseCheckpoint | None = None

    @property
    def complete(self) -> bool:
        """Uniform alias for ``terminated`` (the governed-result protocol)."""
        return self.terminated

    @property
    def trip(self) -> str | None:
        """The machine-readable stop reason for a cut-short run, else None.

        The uniform name shared with :class:`~repro.omq.evaluation.OMQAnswer`;
        ``trip_reason`` remains as an alias.
        """
        return None if self.terminated else self.reason

    @property
    def trip_reason(self) -> str | None:
        """Alias of :attr:`trip` (the historical spelling)."""
        return self.trip

    def atoms_up_to_level(self, level: int) -> Instance:
        """``chase^ℓ_s(D, Σ)`` — the prefix of atoms with level ≤ *level*."""
        return Instance(a for a, l in self.levels.items() if l <= level)

    def ground_part(self) -> Instance:
        """``chase↓(D, Σ)`` — atoms mentioning only original constants."""
        dom = self.original_dom
        return Instance(
            a for a in self.instance if all(t in dom for t in a.args)
        )

    def null_count(self) -> int:
        """Number of labelled nulls invented."""
        return len(self.instance.dom() - self.original_dom)


def _fire(
    tgd: TGD, hom: Mapping[Term, Term]
) -> list[Atom]:
    """Instantiate the head: frontier from *hom*, fresh nulls for ``z̄``."""
    assignment: dict[Term, Term] = {v: hom[v] for v in tgd.frontier()}
    for z in sorted(tgd.existential_variables(), key=lambda v: v.name):
        assignment[z] = fresh_null(z.name)
    return [atom.apply(assignment) for atom in tgd.head]


def _atom_sort_key(atom: Atom) -> tuple:
    """Canonical (hash-independent) total order over atoms.

    Database atoms enter the level map in this order, so the order is a
    function of the database's *content* — not of the backing set's
    iteration order, which varies with ``PYTHONHASHSEED``.
    """
    return (atom.pred, tuple(term_sort_key(t) for t in atom.args))


def _body_orders(tgds: Sequence[TGD]) -> list[tuple[Variable, ...]]:
    """Per-TGD body-variable order (by name) for canonical candidate keys."""
    return [
        tuple(sorted(tgd.body_variables(), key=lambda v: v.name)) for tgd in tgds
    ]


def _candidate_sort(
    candidates: list[tuple[int, tuple[int, ...]]],
    pool,
) -> None:
    """Sort a level's trigger candidates into canonical firing order.

    The trigger search enumerates candidates by walking set-backed indexes,
    so its order is deterministic within a process but varies across
    interpreters (hash randomization).  Firing order decides which null
    ident each head atom receives and which body image assigns a trigger's
    level, so the engine sorts by the full body image under a
    content-based term order before firing.  This is what makes chase
    results — and checkpoint resume — bit-identical across process
    boundaries regardless of ``PYTHONHASHSEED``.

    Candidates are ``(tgd_index, ids)`` with the body image as term ids in
    canonical body-variable order (see :mod:`repro.datamodel.joins`), so
    the sort key is the image mapped through *pool* into the content-based
    term order.
    """
    # One key computation per distinct term, then integer ranks: the sort
    # compares small int tuples instead of nested term_sort_key tuples
    # (whose repr() building would be the sort's cost).  Ranks respect the
    # content-based order, so the result is the same sort.
    term_of = pool.term_of
    distinct = {tid for _, ids in candidates for tid in ids}
    ranked = sorted(distinct, key=lambda tid: term_sort_key(term_of(tid)))
    rank = {tid: r for r, tid in enumerate(ranked)}.__getitem__
    candidates.sort(
        key=lambda candidate: (
            candidate[0],
            tuple(map(rank, candidate[1])),
        )
    )


def _delta_triggers(
    pairs: Sequence[tuple[int, TGD]],
    instance: Instance,
    delta: Instance,
    stats: EvalStats,
    budget: Budget | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Semi-naive trigger search: candidates seeded by the previous delta.

    *pairs* carries each TGD together with its index in the full list,
    which keys the fired-key space.

    A trigger is new at this level iff its body image contains at least one
    delta atom.  For each TGD and each body position, every delta fact that
    unifies with that position seeds a homomorphism search for the rest of
    the body over the full instance.  The pivot rule — the pivot position
    must be the *first* body position whose image lies in the delta — makes
    each trigger come out of exactly one (position, fact) seed, so no
    trigger is enumerated twice within a level; and since a delta atom
    belongs to exactly one level, no trigger is enumerated twice across
    levels either.

    The search runs over the fact store's interned id tuples
    (:func:`repro.datamodel.joins.delta_triggers_interned`), so *delta*
    must share *instance*'s intern pool — every engine builds its delta
    that way.  Candidates are ``(tgd_index, ids)`` with the body image as
    term ids in canonical body-variable order; :func:`_naive_triggers` is
    the oracle the differential suite holds this search to.
    """
    return delta_triggers_interned(
        pairs, compile_bodies(pairs), instance, delta, stats, budget
    )


def _naive_triggers(
    pairs: Sequence[tuple[int, TGD]],
    instance: Instance,
    stats: EvalStats,
    budget: Budget | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Naive trigger search: all body homomorphisms into the full instance.

    Deliberately does no delta bookkeeping — this is the oracle the
    differential suite compares the delta engine against.  The fired-key
    cache downstream discards the (many) re-enumerated triggers.  Yields
    the same ``(tgd_index, ids)`` candidate shape as the delta search.
    """
    intern = instance.pool.intern
    for tgd_index, tgd in pairs:
        if not tgd.body:
            continue
        order = tuple(sorted(tgd.body_variables(), key=lambda v: v.name))
        for hom in find_homomorphisms(
            tgd.body, instance, stats=stats, budget=budget, plan="auto"
        ):
            stats.triggers_enumerated += 1
            yield tgd_index, tuple(intern(hom[v]) for v in order)


def _chase_core(
    *,
    tgds: list[TGD],
    instance: Instance,
    levels: dict[Atom, int],
    delta: Instance,
    delta_order: Sequence[Atom],
    fired_keys: set,
    pending_empty_body: list[TGD],
    original_dom: frozenset,
    max_level: int | None,
    max_atoms: int | None,
    safety_cap: int,
    strategy: str,
    stats: EvalStats,
    budget: Budget | None,
    start_level: int = 0,
    fired_start: int = 0,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[ChaseCheckpoint], None] | None = None,
) -> ChaseResult:
    """The shared level loop behind :func:`chase`, :func:`extend_chase`,
    and :func:`resume_chase`.

    The caller hands over the initial state (instance, level map, delta
    frontier, fired keys); the core runs levels to a fixpoint or bound.
    Invariants the checkpoint layer leans on:

    * ``levels`` and ``instance`` receive atoms in lockstep, so the atoms
      produced in the current level are exactly the *tail* of the level
      map's insertion order — a mid-level trip rolls them back by slicing;
    * *delta_order* records the production order of the current frontier
      (``delta`` is the same atoms as an indexed Instance); checkpoints
      store the order so a resume rebuilds identical index iteration
      order;
    * ``start_level``/``fired_start`` let a resumed run keep absolute level
      numbers and the cumulative fired count.
    """
    run_start = time.perf_counter()
    fired_count = fired_start
    reason = "fixpoint"
    level = start_level
    bounded = max_level is not None or max_atoms is not None or budget is not None

    # Frontier ordering per TGD, fixed once: the trigger key is the frontier
    # image under this ordering.  Two body homomorphisms with the same
    # frontier image would produce heads differing only in the names of
    # fresh nulls, so collapsing them preserves the chase up to homomorphic
    # equivalence — and it is the discipline under which weak acyclicity
    # guarantees termination.
    frontiers = [
        tuple(sorted(tgd.frontier(), key=lambda v: v.name)) for tgd in tgds
    ]
    body_orders = _body_orders(tgds)
    pairs = [(index, tgd) for index, tgd in enumerate(tgds) if tgd.body]

    # Candidates are (tgd_index, ids) with the body image as term ids in
    # canonical body order, and fired keys live as interned frontier images
    # while the loop runs — checkpoints and the final result convert back
    # to Terms, so the external fired-key format is unchanged.
    pool = instance.pool
    term_of = pool.term_of
    fired_keys = {
        (index, tuple(pool.intern(t) for t in image))
        for index, image in fired_keys
    }
    # The frontier image of a candidate is a gather over its id tuple.
    frontier_slots = [
        tuple(body_orders[i].index(v) for v in frontiers[i])
        for i in range(len(tgds))
    ]
    programs = compile_bodies(pairs)

    config = {
        "max_level": max_level,
        "max_atoms": max_atoms,
        "safety_cap": safety_cap,
    }

    def snapshot(
        *,
        next_level: int,
        delta_atoms: Sequence[Atom],
        empty_pending: bool,
        fired_at: int,
        nulls_at: int,
        stats_at: EvalStats,
        undo_produced: Sequence[Atom] = (),
        undo_keys: Sequence = (),
        trip: str | None = None,
    ) -> ChaseCheckpoint:
        """A level-boundary checkpoint from the live loop state.

        *undo_produced*/*undo_keys* roll back a partially executed level:
        its atoms are the tail of the level map's insertion order, so
        slicing them off reconstructs the state at the level's entry
        without mutating the live run.
        """
        items = list(levels.items())
        if undo_produced:
            items = items[: len(items) - len(undo_produced)]
        return ChaseCheckpoint(
            kind="chase",
            strategy=strategy,
            tgds=tuple(tgds),
            atoms=tuple(atom for atom, _ in items),
            levels=tuple(atom_level for _, atom_level in items),
            delta_atoms=tuple(delta_atoms),
            fired_keys=frozenset(
                (index, tuple(term_of(i) for i in image))
                for index, image in fired_keys.difference(undo_keys)
            ),
            empty_body_pending=empty_pending,
            original_dom=original_dom,
            next_level=next_level,
            fired=fired_at,
            null_counter=nulls_at,
            db_size=sum(1 for _, atom_level in items if atom_level == 0),
            stats=stats_at,
            trip=trip,
            config=dict(config),
        )

    def emit(head_atoms: list[Atom], atom_level: int, produced: list[Atom]) -> None:
        nonlocal fired_count
        fired_count += 1
        stats.triggers_fired += 1
        for atom in head_atoms:
            if instance.add(atom):
                levels[atom] = atom_level
                produced.append(atom)

    final_checkpoint: ChaseCheckpoint | None = None
    # Per-level rollback marks, maintained only when a mid-level abort is
    # possible (a budget trip); ungoverned runs pay nothing.
    track_marks = budget is not None
    produced: list[Atom] = []
    level_keys: list = []
    null_mark = null_counter_value()
    stats_mark: EvalStats | None = None
    fired_mark = fired_count
    empty_mark = bool(pending_empty_body)

    try:
        while True:
            level += 1
            if max_level is not None and level > max_level:
                reason = "level bound"
                final_checkpoint = snapshot(
                    next_level=level,
                    delta_atoms=delta_order,
                    empty_pending=bool(pending_empty_body),
                    fired_at=fired_count,
                    nulls_at=null_counter_value(),
                    stats_at=stats.copy(),
                )
                break
            level_start = time.perf_counter()
            produced = []
            level_keys = []
            empty_mark = bool(pending_empty_body)
            if track_marks:
                null_mark = null_counter_value()
                stats_mark = stats.copy()
                fired_mark = fired_count

            if pending_empty_body:
                # Empty-body TGDs fire exactly once, at level 1.
                for tgd in pending_empty_body:
                    emit(_fire(tgd, {}), 1, produced)
                pending_empty_body = []

            # Materialise this level's candidates before firing: emitting
            # while the homomorphism search lazily walks the instance's live
            # index sets would mutate them mid-iteration, and the level-wise
            # semantics wants triggers judged against the end-of-previous-
            # level instance anyway.
            if strategy == "delta":
                candidates = list(
                    _delta_triggers(pairs, instance, delta, stats, budget)
                )
            else:
                candidates = list(_naive_triggers(pairs, instance, stats, budget))
            _candidate_sort(candidates, pool)

            for tgd_index, ids in candidates:
                key = (
                    tgd_index,
                    tuple([ids[s] for s in frontier_slots[tgd_index]]),
                )
                if key in fired_keys:
                    stats.triggers_deduped += 1
                    continue
                if budget is not None:
                    # Checked before the firing mutates anything: a trip here
                    # leaves the instance a consistent prefix (all head atoms
                    # of every fired trigger are present).
                    budget.check("trigger-fire", atoms=len(instance))
                fired_keys.add(key)
                level_keys.append(key)
                tgd = tgds[tgd_index]
                body_level = max(
                    levels[atom]
                    for atom in body_atoms(instance, programs[tgd_index], ids)
                )
                hom = {
                    v: term_of(i)
                    for v, i in zip(frontiers[tgd_index], key[1])
                }
                emit(_fire(tgd, hom), body_level + 1, produced)

            stats.level_seconds[level] = time.perf_counter() - level_start
            if not produced:
                break
            delta = Instance(produced, pool=instance.pool)
            delta_order = produced
            if max_atoms is not None and len(instance) >= max_atoms:
                reason = "atom bound"
                final_checkpoint = snapshot(
                    next_level=level + 1,
                    delta_atoms=delta_order,
                    empty_pending=False,
                    fired_at=fired_count,
                    nulls_at=null_counter_value(),
                    stats_at=stats.copy(),
                )
                break
            if len(instance) > safety_cap:
                if bounded:
                    # The run is already bounded: report the cap as an atom
                    # bound instead of raising, so callers get a usable
                    # prefix.
                    reason = "atom bound"
                    final_checkpoint = snapshot(
                        next_level=level + 1,
                        delta_atoms=delta_order,
                        empty_pending=False,
                        fired_at=fired_count,
                        nulls_at=null_counter_value(),
                        stats_at=stats.copy(),
                    )
                    break
                raise ChaseNonterminationError(
                    f"chase exceeded {safety_cap} atoms without reaching a "
                    "fixpoint; bound it with max_level/max_atoms or check "
                    "termination with is_weakly_acyclic()"
                )
            if (
                checkpoint_every is not None
                and (level - start_level) % checkpoint_every == 0
            ):
                # Periodic snapshot of a *completed* level: delivered to the
                # callback (the CLI persists it); the final result carries a
                # checkpoint only when the run is cut short.
                periodic = snapshot(
                    next_level=level + 1,
                    delta_atoms=delta_order,
                    empty_pending=False,
                    fired_at=fired_count,
                    nulls_at=null_counter_value(),
                    stats_at=stats.copy(),
                )
                if on_checkpoint is not None:
                    on_checkpoint(periodic)
    except BudgetExceeded as exc:
        # Graceful degradation: report the trip instead of raising.  The
        # instance is consistent — head atoms are only ever added by a
        # complete emit() between budget checks — and the checkpoint rolls
        # the tripped level back to its entry state, so resuming replays
        # exactly what the uninterrupted run would have done.
        reason = exc.code
        final_checkpoint = snapshot(
            next_level=level,
            delta_atoms=delta_order,
            empty_pending=empty_mark,
            fired_at=fired_mark,
            nulls_at=null_mark,
            stats_at=stats_mark if stats_mark is not None else stats.copy(),
            undo_produced=produced,
            undo_keys=level_keys,
            trip=exc.code,
        )
        exc.attach(stats=stats)
        exc.checkpoint = final_checkpoint

    stats.wall_seconds += time.perf_counter() - run_start
    terminated = reason == "fixpoint"
    top = max(levels.values(), default=0)
    return ChaseResult(
        instance=instance,
        levels=levels,
        terminated=terminated,
        max_level=top,
        fired=fired_count,
        reason=reason,
        original_dom=original_dom,
        strategy=strategy,
        stats=stats,
        fired_keys=frozenset(
            (index, tuple(term_of(i) for i in image))
            for index, image in fired_keys
        ),
        checkpoint=final_checkpoint,
    )


def chase(
    database: Instance,
    tgds: Sequence[TGD],
    *,
    max_level: int | None = None,
    max_atoms: int | None = None,
    safety_cap: int = DEFAULT_SAFETY_CAP,
    strategy: str = "delta",
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    parallelism: Parallelism = None,
    parallel_threshold: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[ChaseCheckpoint], None] | None = None,
) -> ChaseResult:
    """Run the level-wise oblivious chase of *database* under *tgds*.

    With no bounds the run continues to a fixpoint (raising
    :class:`ChaseNonterminationError` past *safety_cap* atoms).  With
    ``max_level=ℓ`` the result is exactly ``chase^ℓ_s(D, Σ)`` for the
    level-wise sequence ``s`` (Lemma A.1); ``terminated`` then reports
    whether the fixpoint happened to be reached within the bound.  A
    *bounded* run (``max_level`` or ``max_atoms`` given) that trips the
    safety cap stops with ``reason="atom bound"`` rather than raising.

    *strategy* selects the trigger search: ``"delta"`` (semi-naive, the
    default) or ``"naive"`` (full re-scan per level, the differential
    oracle).  Both produce identical level maps and isomorphic instances.

    *parallelism* and *parallel_threshold* are deprecated and ignored:
    the trigger search runs serially.  A value asking for workers warns
    (see :func:`repro.options.check_parallelism`).

    *stats* may be a shared :class:`EvalStats` to accumulate counters
    across runs; a fresh one is created otherwise (see ``result.stats``).

    *budget* governs the run (see :mod:`repro.governance`): deadline, atom
    and step budgets, cancellation, checked at ``"trigger-fire"`` and
    ``"hom-backtrack"`` granularity.  A budget trip does **not** raise —
    the consistent level-wise prefix built so far is returned with
    ``terminated=False``, ``reason`` set to the trip code, and
    ``result.checkpoint`` holding a resumable
    :class:`~repro.governance.ChaseCheckpoint`.

    *checkpoint_every* additionally snapshots after every *k* completed
    levels; each snapshot is handed to *on_checkpoint* (e.g. to persist it
    so a crashed process can :func:`resume_chase` later).
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown chase strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    tgds = list(tgds)
    if stats is None:
        stats = EvalStats()
    # One ordered view feeds the instance, the level map, and the level-0
    # delta: checkpoints record this insertion order, and a resumed run
    # rebuilds from it — identical insertion history means identical index
    # iteration order, which bit-identical replay depends on.  Sorting
    # canonically (rather than taking the set's iteration order) makes the
    # order a function of the database's content, so fresh runs agree
    # across interpreters with different ``PYTHONHASHSEED`` values.
    ordered = sorted(database, key=_atom_sort_key)
    check_parallelism(parallelism)
    return _chase_core(
        tgds=tgds,
        instance=Instance(ordered),
        levels={atom: 0 for atom in ordered},
        delta=Instance(ordered),  # level-0 delta: the database atoms
        delta_order=ordered,
        fired_keys=set(),
        pending_empty_body=[tgd for tgd in tgds if not tgd.body],
        original_dom=frozenset(database.dom()),
        max_level=max_level,
        max_atoms=max_atoms,
        safety_cap=safety_cap,
        strategy=strategy,
        stats=stats,
        budget=budget,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )


def extend_chase(
    base: ChaseResult,
    new_atoms: Iterable[Atom],
    tgds: Sequence[TGD],
    *,
    max_level: int | None = None,
    max_atoms: int | None = None,
    safety_cap: int = DEFAULT_SAFETY_CAP,
    strategy: str | None = None,
    stats: EvalStats | None = None,
    budget: Budget | None = None,
    parallelism: Parallelism = None,
    parallel_threshold: int | None = None,
    on_incomplete: str = "raise",
) -> ChaseResult:
    """Resume a *terminated* chase after new database atoms arrive.

    ``chase(D ∪ ΔD, Σ)`` is homomorphically equivalent to feeding ``ΔD``
    as the delta frontier of the finished ``chase(D, Σ)``: the base
    instance is Σ-closed (every trigger over it is in ``base.fired_keys``),
    so every genuinely new trigger has a body atom in ``ΔD`` or in atoms
    derived from it — exactly what the semi-naive search enumerates.  The
    resulting instance has the same ground part and the same certain
    answers as the fresh chase, and is isomorphic to it.

    *tgds* must be the **same sequence** (same order) that produced *base*
    — the fired-key space is indexed by position.  *base* must have
    ``terminated=True``: extending a prefix with the delta machinery would
    silently miss triggers whose bodies lie wholly in the unexplored part.
    *on_incomplete* selects what to do with a non-fixpoint base:
    ``"raise"`` (the default) raises ``ValueError``; ``"restart"`` falls
    back to a sound fresh chase of the base's *database* atoms (level 0)
    plus *new_atoms* — correct, just not incremental.  Level numbers
    assigned to extension atoms continue from the base level map (new
    database atoms enter at level 0); *max_level* bounds the number of
    extension rounds rather than absolute s-levels.

    The base result is not mutated; with no genuinely new atoms it is
    returned unchanged (when the base terminated).  *parallelism* and
    *parallel_threshold* are deprecated and ignored, as in :func:`chase`.
    """
    if on_incomplete not in ("raise", "restart"):
        raise ValueError(
            f"on_incomplete must be 'raise' or 'restart', got {on_incomplete!r}"
        )
    effective = base.strategy if strategy is None else strategy
    if effective not in STRATEGIES:
        raise ValueError(
            f"unknown chase strategy {effective!r}; expected one of {STRATEGIES}"
        )
    check_parallelism(parallelism)
    tgds = list(tgds)
    if stats is None:
        stats = EvalStats()
    if not base.terminated:
        if on_incomplete == "raise":
            raise ValueError(
                "extend_chase requires a terminated base result; a prefix "
                f"cannot be extended soundly (base stopped on {base.reason!r}). "
                "Pass on_incomplete='restart' to re-chase the database plus "
                "the new atoms from scratch, or resume_chase(base.checkpoint) "
                "to finish the base first."
            )
        # Sound fallback: re-chase the original database (the level-0 atoms
        # of the base) together with the new atoms.  Derived atoms of the
        # prefix are NOT carried over — they are re-derived, so no trigger
        # over the unexplored part is missed.
        restart_db = Instance(
            atom for atom, atom_level in base.levels.items() if atom_level == 0
        )
        for atom in new_atoms:
            restart_db.add(atom)
        return chase(
            restart_db,
            tgds,
            max_level=max_level,
            max_atoms=max_atoms,
            safety_cap=safety_cap,
            strategy=effective,
            stats=stats,
            budget=budget,
        )
    # Rebuild from the level map's insertion order (instance and level map
    # share it), keeping checkpoint/replay order reproducible.
    ordered = list(base.levels)
    instance = Instance(ordered)
    levels = dict(base.levels)
    delta = Instance()
    delta_order: list[Atom] = []
    # Canonical order for the new atoms: the extension's firing order (and
    # hence its null idents) must not depend on the caller's iteration
    # order over a set-backed collection.
    for atom in sorted(new_atoms, key=_atom_sort_key):
        if instance.add(atom):
            levels[atom] = 0
            delta.add(atom)
            delta_order.append(atom)
    if not delta:
        return base
    return _chase_core(
        tgds=tgds,
        instance=instance,
        levels=levels,
        delta=delta,
        delta_order=delta_order,
        fired_keys=set(base.fired_keys),
        pending_empty_body=[],  # fired (and keyed) by the base run
        original_dom=frozenset(base.original_dom | delta.dom()),
        max_level=max_level,
        max_atoms=max_atoms,
        safety_cap=safety_cap,
        strategy=effective,
        stats=stats,
        budget=budget,
    )


#: Sentinel for resume_chase knobs: "keep the checkpointed value".
_UNSET = object()


def resume_chase(
    checkpoint: ChaseCheckpoint,
    *,
    budget: Budget | None = None,
    stats: EvalStats | None = None,
    null_policy: str = "exact",
    max_level: int | None = _UNSET,  # type: ignore[assignment]
    max_atoms: int | None = _UNSET,  # type: ignore[assignment]
    safety_cap: int = _UNSET,  # type: ignore[assignment]
    parallelism: Parallelism = None,
    parallel_threshold: int | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint: Callable[[ChaseCheckpoint], None] | None = None,
) -> ChaseResult:
    """Continue a chase from a :class:`~repro.governance.ChaseCheckpoint`.

    Rebuilds the level-loop state exactly as the checkpoint recorded it —
    instance atoms re-inserted in checkpoint order (reproducing index
    iteration order), the delta frontier in production order, the
    fired-key set, the cumulative fired count — and re-enters the level
    loop at ``checkpoint.next_level``.

    *null_policy* controls the global null counter:

    * ``"exact"`` (the default) pins the counter to the checkpoint's value,
      so replayed firings invent **identical** nulls and
      ``resume(trip(run))`` is bit-identical to the uninterrupted run.
      Use when the resumed result must match an oracle (tests, differential
      runs, cross-process handoff of a single logical computation).
    * ``"fresh"`` only *advances* the counter to at least the checkpoint's
      value, never backwards — safe when other computations have invented
      nulls in this process since the checkpoint was taken (the
      :class:`~repro.chase.ChaseCache` uses this).  The result is
      isomorphic rather than identical.

    Bound knobs (*max_level*, *max_atoms*, *safety_cap*) default to the
    values the checkpointed run was configured with (carried in
    ``checkpoint.config``); pass explicit values to override — e.g. a
    higher *max_level* to push past a level-bound stop.  *budget* is
    **not** inherited: a resumed run gets whatever fresh budget you pass
    (or none).  *parallelism* and *parallel_threshold* are deprecated and
    ignored, as in :func:`chase`; so is any parallelism a checkpoint
    written by an earlier release recorded — every resume runs serially.
    """
    if checkpoint.kind != "chase":
        raise CheckpointError(
            f"resume_chase got a {checkpoint.kind!r} checkpoint; "
            "use checkpoint.resume() to dispatch on kind"
        )
    if checkpoint.levels is None:
        raise CheckpointError(
            "chase checkpoint is missing its level map; it cannot be resumed"
        )
    if null_policy not in ("exact", "fresh"):
        raise ValueError(
            f"null_policy must be 'exact' or 'fresh', got {null_policy!r}"
        )
    set_null_counter(
        checkpoint.null_counter, advance_only=(null_policy == "fresh")
    )
    config = checkpoint.config
    if max_level is _UNSET:
        max_level = config.get("max_level")
    if max_atoms is _UNSET:
        max_atoms = config.get("max_atoms")
    if safety_cap is _UNSET:
        safety_cap = config.get("safety_cap", DEFAULT_SAFETY_CAP)
    check_parallelism(parallelism)
    tgds = list(checkpoint.tgds)
    if stats is None:
        stats = checkpoint.stats.copy()
    # Insertion order is the checkpoint's atom order — the same order the
    # original run built, so the rebuilt indexes iterate identically.
    ordered = list(checkpoint.atoms)
    instance = Instance(ordered)
    levels = dict(zip(ordered, checkpoint.levels))
    delta_order = list(checkpoint.delta_atoms)
    return _chase_core(
        tgds=tgds,
        instance=instance,
        levels=levels,
        delta=Instance(delta_order),
        delta_order=delta_order,
        fired_keys=set(checkpoint.fired_keys),
        pending_empty_body=(
            [tgd for tgd in tgds if not tgd.body]
            if checkpoint.empty_body_pending
            else []
        ),
        original_dom=checkpoint.original_dom,
        max_level=max_level,
        max_atoms=max_atoms,
        safety_cap=safety_cap,
        strategy=checkpoint.strategy,
        stats=stats,
        budget=budget,
        start_level=checkpoint.next_level - 1,
        fired_start=checkpoint.fired,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )


def terminating_chase(
    database: Instance,
    tgds: Sequence[TGD],
    *,
    strategy: str = "delta",
    stats: EvalStats | None = None,
    parallelism: Parallelism = None,
) -> ChaseResult:
    """Chase with a termination *proof* demanded up front.

    Accepts full or weakly acyclic sets (Appendix A uses both); raises
    ``ValueError`` otherwise, so callers cannot accidentally hand an
    infinite chase to an algorithm that needs ``chase(D, Σ)`` exactly.
    """
    tgds = list(tgds)
    if not (all_full(tgds) or is_weakly_acyclic(tgds)):
        raise ValueError(
            "terminating_chase requires a full or weakly acyclic TGD set; "
            "use chase(..., max_level=...) or the blocked guarded chase"
        )
    return chase(
        database, tgds, strategy=strategy, stats=stats, parallelism=parallelism
    )
