"""Interned trigger joins: the chase's hot loop over dense int ids.

The generic :func:`~repro.datamodel.find_homomorphisms` backtracking join
works over Term objects — per candidate fact it zips argument tuples,
hashes terms, and builds binding dicts.  For the chase trigger search this
is pure overhead: TGD bodies are constant-free, so a body atom is nothing
but a predicate plus a tuple of variable *slots*, and a fact is the tuple
of term ids that keys it in the instance's per-predicate fact map.  This
module compiles each TGD body once (:func:`compile_bodies`) and evaluates
the semi-naive trigger search directly over ``Instance``'s id tuples:
bindings are a flat ``list[int | None]`` indexed by slot, index probes
hit the int-keyed postings, which hold the id tuples themselves, and Term
objects are materialised only for the homomorphisms that survive pivot
dedupe.

Contract: :func:`delta_triggers_interned` is the chase's semi-naive
trigger search (:func:`repro.chase.engine._delta_triggers`).  It
enumerates every trigger whose body image touches the delta exactly once
(the pivot rule), counts ``triggers_enumerated``/``triggers_deduped``,
and checks the budget at ``"hom-backtrack"`` once per candidate fact.
Instance and delta must share one intern pool.  The naive strategy's
Term-level search (:func:`repro.chase.engine._naive_triggers`) is the
oracle the differential suite holds it to.

Candidates stay interned all the way to firing: each trigger is yielded as
``(tgd_index, ids)`` with *ids* the homomorphism's term ids in
``BodyProgram.variables`` order.  The engine dedupes fired keys, sorts the
level canonically, and assigns body levels over these int tuples,
materialising Terms only for the candidates that actually fire — and the
same ``(tgd_index, ids)`` tuples are the compact wire format the
process-parallel chase ships back from worker shards.
"""

from __future__ import annotations

from typing import Collection, Iterator, Mapping, Sequence

from .atoms import Atom
from .instances import Instance
from .stats import EvalStats
from .terms import Variable

if False:  # pragma: no cover - import cycle guard, typing only
    from ..governance import Budget
    from ..tgds import TGD

__all__ = [
    "BodyProgram",
    "body_atoms",
    "compile_bodies",
    "delta_triggers_interned",
]


class BodyProgram:
    """A TGD body compiled to slot form.

    ``variables`` is the body's variable tuple sorted by name (the same
    order the engine's canonical candidate sort uses); each body atom
    becomes ``(pred, slots)`` with ``slots[pos]`` the variable's index in
    ``variables``.  TGDs are constant-free, so slots cover every position.
    """

    __slots__ = ("variables", "specs")

    def __init__(self, tgd: "TGD") -> None:
        self.variables: tuple[Variable, ...] = tuple(
            sorted(tgd.body_variables(), key=lambda v: v.name)
        )
        slot = {v: i for i, v in enumerate(self.variables)}
        self.specs: tuple[tuple[str, tuple[int, ...]], ...] = tuple(
            (atom.pred, tuple(slot[t] for t in atom.args)) for atom in tgd.body
        )


def compile_bodies(
    pairs: Sequence[tuple[int, "TGD"]]
) -> dict[int, BodyProgram]:
    """Programs keyed by TGD index; empty bodies (which never search) skipped."""
    return {index: BodyProgram(tgd) for index, tgd in pairs if tgd.body}


def body_atoms(
    instance: Instance, program: BodyProgram, ids: Sequence[int]
) -> list[Atom]:
    """The stored atoms a trigger's body maps onto, in body order.

    *ids* is a candidate's binding in ``program.variables`` order, as the
    trigger search yields it; each body atom is one read of the
    per-predicate id-tuple map.
    """
    pred_id_of = instance.pool.pred_id_of
    facts = instance._facts
    return [
        facts[pred_id_of(pred)][tuple([ids[s] for s in slots])]
        for pred, slots in program.specs
    ]


def delta_triggers_interned(
    pairs: Sequence[tuple[int, "TGD"]],
    programs: Mapping[int, BodyProgram],
    instance: Instance,
    delta: Instance,
    stats: EvalStats,
    budget: "Budget | None" = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Semi-naive trigger search over interned facts (see module docstring).

    Yields ``(tgd_index, ids)`` with *ids* the homomorphism's term ids in
    ``BodyProgram.variables`` order (body variables sorted by name).  The
    pivot rule: a trigger is emitted from the seed whose pivot is the
    *first* body position whose image lies in the delta; later-pivot
    duplicates count as ``triggers_deduped``.
    """
    pool = instance.pool
    inst_facts = instance._facts
    inst_postings = instance._postings
    delta_facts = delta._facts
    check = budget.check if budget is not None else None

    for tgd_index, tgd in pairs:
        program = programs.get(tgd_index)
        if program is None:
            continue
        specs = program.specs
        natoms = len(specs)
        pids = []
        satisfiable = True
        for pred, _ in specs:
            pid = pool.pred_id_of(pred)
            if pid is None or not inst_facts.get(pid):
                satisfiable = False
                break
            pids.append(pid)
        if not satisfiable:
            continue
        nvars = len(program.variables)
        binding: list[int | None] = [None] * nvars

        def extend(
            pending: list[int], pivot: int, earlier: list[tuple[int, tuple[int, ...]]]
        ) -> Iterator[tuple[int, ...]]:
            if not pending:
                stats.triggers_enumerated += 1
                stats.homs_found += 1
                for pid_j, slots_j in earlier:
                    dmap = delta_facts.get(pid_j)
                    if dmap is not None and tuple(binding[s] for s in slots_j) in dmap:
                        # An earlier pivot position already produced (or
                        # will produce) this very trigger; count and skip.
                        stats.triggers_deduped += 1
                        return
                yield tuple(binding)
                return
            # Most constrained pending atom, one posting probe per atom —
            # the interned analogue of the generic pick_dynamic.  A posting
            # list holds id tuples; with no bound position the fact map's
            # keys are the candidates.
            best_ai = pending[0]
            best_keys: Collection[tuple[int, ...]] | None = None
            for ai in pending:
                pid = pids[ai]
                slots = specs[ai][1]
                postings = inst_postings[pid]
                keys: Collection[tuple[int, ...]] | None = None
                nposting = len(postings)
                for pos, slot in enumerate(slots):
                    value = binding[slot]
                    if value is None:
                        continue
                    plist = postings[pos].get(value) if pos < nposting else None
                    if plist is None:
                        keys = ()
                        break
                    if keys is None or len(plist) < len(keys):
                        keys = plist
                stats.index_probes += 1
                if keys is None:
                    keys = inst_facts[pid]
                if best_keys is None or len(keys) < len(best_keys):
                    best_ai, best_keys = ai, keys
                    if not keys:
                        break
            if not best_keys:
                return
            slots = specs[best_ai][1]
            nslots = len(slots)
            # The binding state is identical for every fact at this depth
            # (each fact's slots are unbound again before the next), so the
            # fact filter compiles once: positions that must equal an
            # already-bound value, first occurrences of unbound slots, and
            # repeated unbound slots that must agree within the fact.
            bound_checks = []
            free_pairs = []
            dup_checks = []
            first_pos: dict[int, int] = {}
            for pos in range(nslots):
                slot = slots[pos]
                value = binding[slot]
                if value is not None:
                    bound_checks.append((pos, value))
                elif slot in first_pos:
                    dup_checks.append((pos, first_pos[slot]))
                else:
                    first_pos[slot] = pos
                    free_pairs.append((pos, slot))
            # The last pending atom completes the hom inline — a recursive
            # generator per matched fact would dominate the join's cost.
            last = len(pending) == 1
            rest = None if last else [ai for ai in pending if ai != best_ai]
            for key in best_keys:
                if check is not None:
                    check("hom-backtrack")
                ok = len(key) == nslots
                if ok:
                    for pos, value in bound_checks:
                        if key[pos] != value:
                            ok = False
                            break
                if ok:
                    for pos, pos0 in dup_checks:
                        if key[pos] != key[pos0]:
                            ok = False
                            break
                if not ok:
                    stats.hom_backtracks += 1
                    continue
                for pos, slot in free_pairs:
                    binding[slot] = key[pos]
                if last:
                    stats.triggers_enumerated += 1
                    stats.homs_found += 1
                    duplicate = False
                    for pid_j, slots_j in earlier:
                        dmap = delta_facts.get(pid_j)
                        if (
                            dmap is not None
                            and tuple([binding[s] for s in slots_j]) in dmap
                        ):
                            # An earlier pivot position already produced
                            # this very trigger; count and skip.
                            stats.triggers_deduped += 1
                            duplicate = True
                            break
                    if not duplicate:
                        yield tuple(binding)
                else:
                    yield from extend(rest, pivot, earlier)
                for _, slot in free_pairs:
                    binding[slot] = None

        for pivot in range(natoms):
            dmap = delta_facts.get(pids[pivot])
            if not dmap:
                continue
            pivot_slots = specs[pivot][1]
            npivot = len(pivot_slots)
            earlier = [(pids[j], specs[j][1]) for j in range(pivot)]
            rest = [j for j in range(natoms) if j != pivot]
            for key in dmap:
                if len(key) != npivot:
                    continue
                new_slots = []
                ok = True
                for pos in range(npivot):
                    slot = pivot_slots[pos]
                    value = key[pos]
                    current = binding[slot]
                    if current is None:
                        binding[slot] = value
                        new_slots.append(slot)
                    elif current != value:
                        ok = False
                        break
                if ok:
                    for ids in extend(rest, pivot, earlier):
                        yield tgd_index, ids
                for slot in new_slots:
                    binding[slot] = None
