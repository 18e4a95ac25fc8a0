"""Instances and databases: interned, indexed sets of atoms.

An *instance* over a schema ``S`` is a set of atoms over ``S`` containing
only constants; a *database* is a finite instance (Section 2).  Everything in
this library is finite, so a single class serves both roles.

Storage layout (see DESIGN.md for the diagram)
----------------------------------------------

Terms and predicates are interned to dense ints through an
:class:`~repro.datamodel.interning.InternPool` (shared process-wide by
default).  Each fact lives in three containers, plus the ``_dom``
occurrence counts:

* ``_atoms`` — every atom, in insertion order (a dict used as an ordered
  set): membership, iteration and set algebra;
* ``_facts`` — per predicate id, the interned id tuple → :class:`Atom`
  map, insertion-ordered: the dedupe key, the live facts, and the
  candidates when no position is bound;
* ``_postings`` — per (predicate, position), value id → the id tuples
  holding that value: the selective index behind :meth:`candidates`.

The id tuple is shared by the fact map and every posting, so an index
entry costs a pointer.  :meth:`discard` removes the fact from all three;
there are no row numbers or tombstones.  The interned trigger join
(:mod:`repro.datamodel.joins`) reads ``_facts`` and ``_postings``
directly; code outside :mod:`repro.datamodel` goes through the methods.

``Atom`` and ``Term`` objects remain the API everywhere: the interned ids
are an index over them, not a parallel representation callers must
convert to.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .atoms import Atom
from .interning import InternPool, default_pool
from .schema import Schema
from .terms import Term

__all__ = ["Instance", "Database"]


class _Postings:
    """The atoms behind one posting list of id tuples (len/iter only)."""

    __slots__ = ("_facts", "_ids")

    def __init__(self, facts: dict, ids: list) -> None:
        self._facts = facts
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Atom]:
        return map(self._facts.__getitem__, self._ids)


class Instance:
    """A finite set of ground atoms over interned, indexed storage.

    >>> db = Instance([Atom("R", ("a", "b")), Atom("R", ("b", "c"))])
    >>> len(db)
    2
    >>> sorted(db.dom())
    ['a', 'b', 'c']
    """

    __slots__ = (
        "_pool",
        "_atoms",
        "_facts",
        "_postings",
        "_dom",
        "_version",
        "_stats_cache",
    )

    def __init__(
        self, atoms: Iterable[Atom] = (), *, pool: InternPool | None = None
    ) -> None:
        self._pool = pool if pool is not None else default_pool()
        self._atoms: dict[Atom, None] = {}
        self._facts: dict[int, dict[tuple[int, ...], Atom]] = {}
        self._postings: dict[int, list[dict[int, list[tuple[int, ...]]]]] = {}
        self._dom: dict[Term, int] = {}  # value -> occurrence count
        #: Mutation counter; bumped by add/discard.  The join planner keys
        #: its cached statistics and compiled plans on it (see
        #: :mod:`repro.datamodel.planner`), so stale plans die lazily.
        self._version = 0
        #: Planner-owned statistics cache (an InstanceStats or None);
        #: validated against ``_version`` on every access.
        self._stats_cache = None
        self.add_all(atoms)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, atom: Atom) -> bool:
        """Add an atom; returns True iff it was new.

        Note: variables *are* allowed as domain elements — a canonical
        database ``D[q]`` views the query's variables as constants
        (Section 2), and keeping the very same objects makes the
        correspondence between query and canonical database trivial.
        """
        return self.add_all((atom,)) == 1

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add many atoms; returns the number that were new.

        The one insertion loop: the constructor and :meth:`add` come here
        too, so checkpoint resume, which rebuilds instances tens of
        thousands of atoms at a time, pays the attribute lookups once.
        """
        pool = self._pool
        intern = pool.intern
        intern_pred = pool.intern_pred
        atoms_seen = self._atoms
        facts_by_pid = self._facts
        postings_by_pid = self._postings
        dom = self._dom
        added = 0
        for atom in atoms:
            if atom in atoms_seen:
                continue
            args = atom.args
            key = tuple([intern(t) for t in args])
            pid = intern_pred(atom.pred)
            facts = facts_by_pid.get(pid)
            if facts is None:
                facts = facts_by_pid[pid] = {}
                postings_by_pid[pid] = []
            postings = postings_by_pid[pid]
            if len(key) > len(postings):
                # Mixed-arity predicates are unusual but never rejected:
                # grow the per-position index to the widest fact.
                postings.extend({} for _ in range(len(key) - len(postings)))
            atoms_seen[atom] = None
            facts[key] = atom
            for pos, value_id in enumerate(key):
                keys = postings[pos].get(value_id)
                if keys is None:
                    postings[pos][value_id] = [key]
                else:
                    keys.append(key)
                value = args[pos]
                dom[value] = dom.get(value, 0) + 1
            added += 1
        self._version += added
        return added

    def discard(self, atom: Atom) -> bool:
        """Remove an atom if present; returns True iff it was present."""
        if atom not in self._atoms:
            return False
        pool = self._pool
        pid = pool.pred_id_of(atom.pred)
        key = tuple([pool.id_of(t) for t in atom.args])
        del self._atoms[atom]
        del self._facts[pid][key]
        postings = self._postings[pid]
        dom = self._dom
        for pos, value_id in enumerate(key):
            keys = postings[pos][value_id]
            keys.remove(key)
            if not keys:
                del postings[pos][value_id]
            value = atom.args[pos]
            count = dom[value] - 1
            if count:
                dom[value] = count
            else:
                del dom[value]
        self._version += 1
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter — changes whenever an atom is added or removed.

        Cheap cache-invalidation token: the join planner (and anything else
        caching derived per-instance state) compares versions instead of
        hashing the atom set.
        """
        return self._version

    @property
    def pool(self) -> InternPool:
        """The intern pool behind this instance's ids."""
        return self._pool

    def atoms(self) -> frozenset[Atom]:
        """All atoms as a frozen snapshot."""
        return frozenset(self._atoms)

    def atoms_with_pred(self, pred: str) -> set[Atom]:
        """All atoms over predicate *pred* (a fresh set — safe to mutate)."""
        facts = self._facts.get(self._pool.pred_id_of(pred))
        return set(facts.values()) if facts else set()

    def atoms_by_pred(self) -> dict[str, set[Atom]]:
        """All atoms grouped by predicate (fresh sets)."""
        pred_of = self._pool.pred_of
        return {
            pred_of(pid): set(facts.values())
            for pid, facts in self._facts.items()
            if facts
        }

    def atoms_matching(self, pred: str, pos: int, value: Term) -> set[Atom]:
        """All atoms R(..) with R = pred and *value* at position *pos*."""
        pool = self._pool
        pid = pool.pred_id_of(pred)
        postings = self._postings.get(pid)
        if postings is None or pos >= len(postings):
            return set()
        keys = postings[pos].get(pool.id_of(value))
        if not keys:
            return set()
        facts = self._facts[pid]
        return {facts[key] for key in keys}

    def candidates(self, atom: Atom, bound: dict[Term, Term]) -> Iterable[Atom]:
        """Facts that could match the (possibly non-ground) *atom*.

        *bound* maps already-assigned source terms to target values.  The
        most selective available posting is used; unbound positions are not
        filtered (the caller performs the final unification check).  The
        result is a live view with ``len``: do not change the instance
        while iterating it.
        """
        pool = self._pool
        pid = pool.pred_id_of(atom.pred)
        # The pool is shared across instances, so a pred id may exist there
        # without this instance holding any facts for it.
        postings = self._postings.get(pid)
        if postings is None:
            return ()
        best: list[tuple[int, ...]] | None = None
        for pos, term in enumerate(atom.args):
            # Only terms with a known image filter; the homomorphism search
            # seeds `bound` with the identity on all non-movable terms, so
            # plain constants are covered, while movable constants (e.g. in
            # instance-to-instance homomorphisms) stay unconstrained here.
            value = bound.get(term)
            if value is None:
                continue
            if pos >= len(postings):
                return ()
            keys = postings[pos].get(pool.id_of(value))
            if keys is None:
                return ()
            if best is None or len(keys) < len(best):
                best = keys
        facts = self._facts[pid]
        return facts.values() if best is None else _Postings(facts, best)

    def dom(self) -> set[Term]:
        """``dom(I)`` — the active domain (all constants occurring in atoms)."""
        return set(self._dom)

    def predicates(self) -> set[str]:
        """Predicates with at least one atom."""
        pred_of = self._pool.pred_of
        return {pred_of(pid) for pid, facts in self._facts.items() if facts}

    def schema(self) -> Schema:
        """The schema inferred from the atoms present."""
        return Schema.from_atoms(self._atoms)

    # ------------------------------------------------------------------
    # Derived instances (insertion order is kept)
    # ------------------------------------------------------------------
    def restrict(self, values: Iterable[Term]) -> "Instance":
        """``I|T`` — the restriction to atoms mentioning only *values*."""
        keep = set(values)
        return Instance(
            (a for a in self._atoms if keep.issuperset(a.args)), pool=self._pool
        )

    def restrict_preds(self, preds: Iterable[str]) -> "Instance":
        """The restriction to atoms over the given predicates."""
        keep = set(preds)
        return Instance(
            (a for a in self._atoms if a.pred in keep), pool=self._pool
        )

    def copy(self) -> "Instance":
        return Instance(self._atoms, pool=self._pool)

    def union(self, other: "Instance") -> "Instance":
        merged = self.copy()
        merged.add_all(other)
        return merged

    def gaifman_adjacency(self) -> dict[Term, set[Term]]:
        """The Gaifman graph ``G_I`` as an adjacency dict (no self loops).

        Vertices are the domain elements; an edge joins *a* and *b* iff some
        atom mentions both (Section 2).
        """
        adjacency: dict[Term, set[Term]] = {v: set() for v in self._dom}
        for atom in self._atoms:
            distinct = list(dict.fromkeys(atom.args))
            for i, a in enumerate(distinct):
                for b in distinct[i + 1:]:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        return adjacency

    def connected_components(self) -> list[set[Term]]:
        """Connected components of the Gaifman graph (list of vertex sets)."""
        adjacency = self.gaifman_adjacency()
        seen: set[Term] = set()
        components: list[set[Term]] = []
        for start in adjacency:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neigh in adjacency[node]:
                    if neigh not in component:
                        component.add(neigh)
                        stack.append(neigh)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True iff the Gaifman graph is connected (vacuously for ≤ 1 atom)."""
        return len(self.connected_components()) <= 1

    def isolated_constants(self) -> set[Term]:
        """Constants occurring in exactly one atom (Section 6 / Thm 6.1)."""
        return {value for value, count in self._dom.items() if count == 1}

    def guarded_sets(self) -> set[frozenset[Term]]:
        """All sets of constants guarded by a single atom."""
        return {frozenset(atom.args) for atom in self._atoms}

    def maximal_guarded_sets(self) -> list[frozenset[Term]]:
        """Guarded sets that are maximal under inclusion (Section 6.2)."""
        guarded = sorted(self.guarded_sets(), key=len, reverse=True)
        maximal: list[frozenset[Term]] = []
        for candidate in guarded:
            if not any(candidate < chosen for chosen in maximal):
                maximal.append(candidate)
        return maximal

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        """Iterate in insertion order (deterministic, unlike set order).

        As with a dict, adding or discarding atoms while iterating raises
        :class:`RuntimeError`; iterate over ``list(instance)`` to mutate.
        """
        return iter(self._atoms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self._atoms.keys() == other._atoms.keys()
        )

    def __le__(self, other: "Instance") -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._atoms.keys() <= other._atoms.keys()

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(frozenset(self._atoms))

    def __repr__(self) -> str:
        shown = ", ".join(map(str, sorted(map(str, self._atoms))[:6]))
        suffix = ", ..." if len(self._atoms) > 6 else ""
        return f"Instance<{len(self._atoms)} atoms: {shown}{suffix}>"


#: Databases are finite instances; the alias documents intent at call sites.
Database = Instance
