"""Join-plan compilation for the backtracking homomorphism search.

The search in :mod:`repro.datamodel.homomorphisms` is a backtracking join
with *dynamic* atom selection: at every search node it probes the target's
indexes once per pending atom to find the most constrained one.  That
policy adapts perfectly to the data but pays ``O(m)`` index probes per node
for an ``m``-atom body — and every result this library reproduces (Prop 3.1
certain answers, the Theorem 5.3/5.7 dichotomy benchmarks, CQS containment)
bottoms out in exactly that loop.  For long bodies — the k×K grid CQs of
the Theorem 4.1 clique reduction are the extreme case — ordering decisions
barely change between nodes, so most of those probes are wasted.

This module amortises them.  A :class:`JoinPlan` fixes the atom order
*once*, from per-:class:`~repro.datamodel.Instance` cardinality statistics
(:class:`InstanceStats`) and bound-variable propagation: starting from the
caller's pre-bound terms, the compiler greedily appends the atom with the
smallest *estimated* candidate count (predicate cardinality divided by the
best per-position distinct-value count over its bound positions), then
marks the atom's terms bound and repeats.  At search time the planned atom
costs **one** probe per node instead of ``m``; an *adaptive fallback*
re-probes dynamically only when the planned atom's actual candidate count
exceeds :data:`ADAPTIVE_THRESHOLD` — the signal that the estimate went
stale for this subtree.

Statistics and compiled plans are cached **on the instance** and
invalidated by its mutation counter (:attr:`Instance.version`), so a chase
level or a repeated OMQ evaluation compiles each (body, bound-set) pair at
most once per instance state; :func:`plan_for` is the cache-aware entry
point.  :class:`~repro.datamodel.EvalStats` counts ``plans_compiled``,
``plan_cache_hits``, ``plan_fallbacks``, and ``plan_probes_saved``.

Planning never changes *what* the search finds — only the order in which
atoms are joined; ``tests/oracle/test_planner_differential.py`` holds the
planned search to the unplanned one on random queries and instances.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .atoms import Atom
from .instances import Instance
from .stats import EvalStats
from .terms import Term

__all__ = [
    "ADAPTIVE_THRESHOLD",
    "InstanceStats",
    "JoinPlan",
    "compile_plan",
    "estimate_candidates",
    "instance_stats",
    "plan_for",
]

#: Candidate-count limit above which a planned search node falls back to
#: dynamic (re-probing) atom selection for that node.  None disables the
#: fallback entirely; the default is high enough that well-estimated plans
#: never trigger it on the benchmark workloads.
ADAPTIVE_THRESHOLD = 64


class InstanceStats:
    """Cardinality/selectivity statistics for one instance state.

    Read off the instance's indexes and cached on the instance itself
    (see :func:`instance_stats`); any mutation bumps
    :attr:`Instance.version` and lazily invalidates the cache.  Also owns
    the compiled-plan cache for this instance state: a plan's ordering
    decisions are only as good as the statistics they came from, so plans
    and statistics share a lifetime.

    Attributes
    ----------
    version:
        The :attr:`Instance.version` these statistics describe.
    pred_counts:
        ``{predicate: number of atoms}``.
    distinct:
        ``{(predicate, position): number of distinct values}`` — the
        denominator of the uniform-postings selectivity estimate.
    plans:
        ``{(atoms, bound, threshold): JoinPlan}`` — compiled plans, keyed
        by the exact body and pre-bound term set they were compiled for.
    """

    __slots__ = ("version", "pred_counts", "distinct", "plans")

    def __init__(
        self,
        version: int,
        pred_counts: dict[str, int],
        distinct: dict[tuple[str, int], int],
    ) -> None:
        self.version = version
        self.pred_counts = pred_counts
        self.distinct = distinct
        self.plans: dict[tuple, "JoinPlan"] = {}

    @classmethod
    def build(cls, instance: Instance) -> "InstanceStats":
        """Counts and distincts read off the store's indexes, not its atoms.

        A predicate's count is the size of its id-tuple map, and a
        position's distinct count the number of values in its postings; a
        position no live fact reaches has no entry.
        """
        pred_of = instance.pool.pred_of
        pred_counts: dict[str, int] = {}
        distinct: dict[tuple[str, int], int] = {}
        for pid, facts in instance._facts.items():
            if not facts:
                continue
            pred = pred_of(pid)
            pred_counts[pred] = len(facts)
            for pos, index in enumerate(instance._postings[pid]):
                if index:
                    distinct[(pred, pos)] = len(index)
        return cls(instance.version, pred_counts, distinct)


#: Serialises publishing a freshly built InstanceStats on an instance.
_publish_lock = threading.Lock()


def instance_stats(instance: Instance) -> InstanceStats:
    """The (cached) statistics for the instance's *current* state.

    Rebuilds on a version mismatch, so mutation invalidates lazily.  Two
    threads that first touch one instance (the service's workers sharing a
    cached instance) may both build; only the first build is published and
    both return it, so plans compiled into it by either thread survive.
    """
    cached = instance._stats_cache
    if cached is not None and cached.version == instance.version:
        return cached
    fresh = InstanceStats.build(instance)
    with _publish_lock:
        cached = instance._stats_cache
        if cached is not None and cached.version == fresh.version:
            return cached
        instance._stats_cache = fresh
    return fresh


def estimate_candidates(
    atom: Atom, bound: Iterable[Term], stats: InstanceStats
) -> float:
    """Estimated candidate count for *atom* given the *bound* terms.

    The estimate mirrors :meth:`Instance.candidates`: the most selective
    single-position index wins, and a posting list under uniform values has
    ``count / distinct`` entries.  With no bound position the whole
    predicate must be scanned.
    """
    count = stats.pred_counts.get(atom.pred, 0)
    if count == 0:
        return 0.0
    bound_set = set(bound)
    best = float(count)
    for pos, term in enumerate(atom.args):
        if term in bound_set:
            spread = stats.distinct.get((atom.pred, pos), 1) or 1
            best = min(best, count / spread)
    return best


@dataclass(frozen=True)
class JoinPlan:
    """A compiled atom order for one (body, pre-bound term set) pair.

    ``order`` is a permutation of ``range(len(atoms))``: position ``d`` of
    the search joins ``atoms[order[d]]``.  ``estimates`` records the
    per-step estimated candidate counts the compiler saw (diagnostics and
    test assertions).  ``threshold`` is the adaptive-fallback knob: a
    planned node whose actual candidate count exceeds it re-probes the
    remaining atoms dynamically (None disables).  ``version`` pins the
    instance state the statistics came from.
    """

    atoms: tuple[Atom, ...]
    order: tuple[int, ...]
    bound: frozenset
    estimates: tuple[float, ...]
    threshold: int | None = ADAPTIVE_THRESHOLD
    version: int = -1

    def rank(self) -> dict[int, int]:
        """``{atom index: position in the planned order}``."""
        return {atom_index: d for d, atom_index in enumerate(self.order)}

    def validate(self, atoms: Sequence[Atom]) -> None:
        """Raise ValueError unless this plan was compiled for *atoms*."""
        if tuple(atoms) != self.atoms:
            raise ValueError(
                f"join plan was compiled for {self.atoms}, "
                f"but the search received {tuple(atoms)}"
            )

    def estimated_cost(self) -> float:
        """The compiler's (crude) total cost estimate: sum of step estimates."""
        return sum(self.estimates)


def compile_plan(
    atoms: Sequence[Atom],
    instance: Instance,
    *,
    bound: Iterable[Term] = (),
    threshold: int | None = ADAPTIVE_THRESHOLD,
    stats: EvalStats | None = None,
) -> JoinPlan:
    """Compile a static atom order by greedy bound-variable propagation.

    Starting from *bound* (the terms the search pre-binds: fixed seeds,
    non-movable constants), repeatedly append the atom with the smallest
    estimated candidate count (ties: more bound positions first, then the
    caller's atom order), then mark its terms bound.  This is the classic
    greedy selectivity ordering; it front-loads selective atoms so that
    later atoms are reached with their variables already bound.
    """
    atoms = tuple(atoms)
    istats = instance_stats(instance)
    bound_terms = set(bound)
    remaining = list(range(len(atoms)))
    order: list[int] = []
    estimates: list[float] = []
    while remaining:
        best_pos = 0
        best_score: tuple | None = None
        for pos, atom_index in enumerate(remaining):
            atom = atoms[atom_index]
            estimate = estimate_candidates(atom, bound_terms, istats)
            bound_positions = sum(1 for t in atom.args if t in bound_terms)
            score = (estimate, -bound_positions, atom_index)
            if best_score is None or score < best_score:
                best_pos, best_score = pos, score
                if estimate == 0:
                    break
        chosen = remaining.pop(best_pos)
        order.append(chosen)
        estimates.append(best_score[0] if best_score is not None else 0.0)
        bound_terms.update(atoms[chosen].args)
    plan = JoinPlan(
        atoms=atoms,
        order=tuple(order),
        bound=frozenset(bound),
        estimates=tuple(estimates),
        threshold=threshold,
        version=istats.version,
    )
    if stats is not None:
        stats.plans_compiled += 1
    return plan


def plan_for(
    atoms: Sequence[Atom],
    instance: Instance,
    *,
    bound: Iterable[Term] = (),
    threshold: int | None = ADAPTIVE_THRESHOLD,
    stats: EvalStats | None = None,
) -> JoinPlan:
    """The cache-aware compiler: fetch or compile the plan for this state.

    The cache lives on the instance's :class:`InstanceStats`, so mutation
    (a new :attr:`Instance.version`) drops every cached plan along with the
    statistics that justified it.  Repeated evaluations of the same query
    against an unchanged instance — an Engine session's steady state, or
    the many seed facts of one chase level — compile once and hit ever
    after.
    """
    atoms = tuple(atoms)
    istats = instance_stats(instance)
    key = (atoms, frozenset(bound), threshold)
    plan = istats.plans.get(key)
    if plan is not None:
        if stats is not None:
            stats.plan_cache_hits += 1
        return plan
    plan = compile_plan(
        atoms, instance, bound=key[1], threshold=threshold, stats=stats
    )
    istats.plans[key] = plan
    return plan
