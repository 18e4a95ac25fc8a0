"""Dense-integer interning of terms and predicates.

The chase's hot loops — index probes, trigger dedupe, candidate merging —
were all keyed on Python term objects, paying an object hash and an
equality walk per probe.  An :class:`InternPool` maps every term (plain
constant, labelled null, variable) and every predicate name to a dense
``int`` exactly once; everything downstream — the
:class:`~repro.datamodel.Instance` fact maps keyed by id tuples, the
per-position postings, the cross-process chase wire format — works over
those ints.

Identity discipline
-------------------

Ids are assigned in first-intern order and never reused or reassigned, so
within one pool an id is a stable name for its term.  The pool is
append-only: there is no "unintern" (an :class:`~repro.datamodel.Instance`
that drops an atom keeps the table entries — they are a few bytes, and
stability is what the wire format needs).

Serialisation
-------------

:meth:`InternPool.snapshot` emits the whole table through the
:mod:`repro.datamodel.io` term codec — a pure-JSON structure —
and :meth:`InternPool.restore` rebuilds a pool with identical id
assignment, which is what makes interned payloads meaningful across a
process boundary.  :meth:`InternPool.delta_since` emits only the entries
added after a given watermark, the incremental form the process-parallel
chase ships to its workers once per level (see
:mod:`repro.chase.procpool`).  Entries the term codec cannot serialise
(exotic domain objects interned into the shared default pool by
unrelated instances) travel as id-keyed
:class:`~repro.datamodel.io.OpaqueTerm` placeholders, keeping the
receiver's table aligned without constraining what callers may intern.

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
    # Serialisation (the io.py codec does the per-term work)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole table as a pure-JSON payload (see :meth:`restore`).

        Entry order *is* id order, so restoring reassigns identical ids.
        """
        return self.delta_since(0, 0)

    def delta_since(self, term_watermark: int, pred_watermark: int) -> dict:
        """Entries added after the given watermarks, as a JSON payload.

        The incremental sync the process-parallel chase ships per level:
        a worker holding the first *term_watermark* terms and
        *pred_watermark* predicates applies the delta and is current.
        """
        from .io import encode_term

        with self._lock:
            terms = self._terms[term_watermark:]
            preds = self._preds[pred_watermark:]
        encoded = []
        for offset, term in enumerate(terms):
            try:
                encoded.append(encode_term(term))
            except TypeError:
                # The shared default pool may hold domain objects the JSON
                # codec refuses (interned by unrelated instances).  Ship an
                # id-keyed placeholder instead of failing the whole sync:
                # the receiver's table stays aligned entry-for-entry, and
                # placeholder equality-by-id is all the trigger search
                # ever needs of a stored term.
                encoded.append(
                    {"__opaque__": term_watermark + offset, "label": repr(term)}
                )
        return {
            "term_base": term_watermark,
            "terms": encoded,
            "pred_base": pred_watermark,
            "preds": list(preds),
        }

    def apply_delta(self, payload: dict) -> None:
        """Apply a :meth:`delta_since` payload; id assignment must line up.

        Raises :class:`ValueError` on a watermark mismatch — applying a
        delta out of order would silently shear every id after the gap.
        """
        from .io import decode_term

        terms = [decode_term(t) for t in payload["terms"]]
        preds = payload["preds"]
        with self._lock:
            if payload["term_base"] != len(self._terms):
                raise ValueError(
                    f"intern delta expects {payload['term_base']} existing "
                    f"terms, pool has {len(self._terms)}"
                )
            if payload["pred_base"] != len(self._preds):
                raise ValueError(
                    f"intern delta expects {payload['pred_base']} existing "
                    f"predicates, pool has {len(self._preds)}"
                )
            for term in terms:
                self._term_ids[term] = len(self._terms)
                self._terms.append(term)
            for pred in preds:
                self._pred_ids[pred] = len(self._preds)
                self._preds.append(pred)

    @classmethod
    def restore(cls, payload: dict) -> "InternPool":
        """A fresh pool holding exactly the snapshot's tables."""
        pool = cls()
        pool.apply_delta(payload)
        return pool

    def watermarks(self) -> tuple[int, int]:
        """(term count, predicate count) — the :meth:`delta_since` cursor."""
        with self._lock:
            return len(self._terms), len(self._preds)

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
