"""Dense-integer interning of terms and predicates.

The chase's hot loops — index probes, trigger dedupe, candidate merging —
were all keyed on Python term objects, paying an object hash and an
equality walk per probe.  An :class:`InternPool` maps every term (plain
constant, labelled null, variable) and every predicate name to a dense
``int`` exactly once; everything downstream — the
:class:`~repro.datamodel.Instance` fact maps keyed by id tuples, the
per-position postings, the chase's trigger candidates — works over
those ints.

Identity discipline
-------------------

Ids are assigned in first-intern order and never reused or reassigned, so
within one pool an id is a stable name for its term.  The pool is
append-only: there is no "unintern" (an :class:`~repro.datamodel.Instance`
that drops an atom keeps the table entries — they are a few bytes, and
stability is what every id-keyed structure needs).  Ids never leave the
process: checkpoints serialise terms, not ids.

A module-level :func:`default_pool` is shared by every Instance in the
process unless a private pool is passed; sharing keeps ids consistent
across the many derived instances one chase produces (deltas, restrictions,
copies) so no re-interning happens on those paths.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .terms import Term

__all__ = [
    "InternPool",
    "default_pool",
    "reset_default_pool",
]


class InternPool:
    """Bidirectional symbol tables: terms ↔ dense ints, predicates ↔ ints.

    >>> pool = InternPool()
    >>> a = pool.intern("a")
    >>> pool.intern("a") == a
    True
    >>> pool.term_of(a)
    'a'
    """

    __slots__ = ("_term_ids", "_terms", "_pred_ids", "_preds", "_lock")

    def __init__(self) -> None:
        self._term_ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._pred_ids: dict[str, int] = {}
        self._preds: list[str] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Terms
    # ------------------------------------------------------------------
    def intern(self, term: Term) -> int:
        """The id of *term*, assigning a fresh dense id on first sight."""
        ident = self._term_ids.get(term)
        if ident is not None:
            return ident
        with self._lock:
            ident = self._term_ids.get(term)
            if ident is None:
                ident = len(self._terms)
                self._terms.append(term)
                self._term_ids[term] = ident
        return ident

    def id_of(self, term: Term) -> int | None:
        """The id of *term* if already interned, else None (no assignment)."""
        return self._term_ids.get(term)

    def term_of(self, ident: int) -> Term:
        """The term behind *ident* (IndexError for unassigned ids)."""
        return self._terms[ident]

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def intern_pred(self, pred: str) -> int:
        """The id of predicate *pred*, assigning on first sight."""
        ident = self._pred_ids.get(pred)
        if ident is not None:
            return ident
        with self._lock:
            ident = self._pred_ids.get(pred)
            if ident is None:
                ident = len(self._preds)
                self._preds.append(pred)
                self._pred_ids[pred] = ident
        return ident

    def pred_id_of(self, pred: str) -> int | None:
        return self._pred_ids.get(pred)

    def pred_of(self, ident: int) -> str:
        return self._preds[ident]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of interned terms (predicates counted separately)."""
        return len(self._terms)

    def pred_count(self) -> int:
        return len(self._preds)

    def sizes(self) -> dict[str, int]:
        """Table sizes, the shape benchmarks record: terms and predicates."""
        return {"terms": len(self._terms), "predicates": len(self._preds)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InternPool<{len(self._terms)} terms, {len(self._preds)} preds>"

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def intern_all(self, terms: Iterable[Term]) -> tuple[int, ...]:
        return tuple(self.intern(t) for t in terms)

    def terms_of(self, idents: Iterable[int]) -> tuple[Term, ...]:
        table = self._terms
        return tuple(table[i] for i in idents)


#: Process-wide default pool (see module docstring).
_default_pool = InternPool()


def default_pool() -> InternPool:
    """The process-wide pool shared by instances built without their own."""
    return _default_pool


def reset_default_pool() -> InternPool:
    """Swap in a fresh default pool (tests; existing instances keep theirs)."""
    global _default_pool
    _default_pool = InternPool()
    return _default_pool
