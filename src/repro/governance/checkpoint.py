"""Checkpoints: serializable snapshots of governed chase computations.

A :class:`~repro.governance.Budget` trip used to discard all work past the
returned partial prefix — a re-run with a bigger budget started from zero.
A :class:`ChaseCheckpoint` instead captures everything the level loop needs
to *continue*: the instance atoms (with their s-levels, in insertion
order), the delta frontier, the fired-trigger key set, the evaluation
counters, and the global null counter.  ``resume_chase(ckpt, budget=...)``
then replays the run from the last completed level.

Consistency model
-----------------

Checkpoints are only ever taken at **level boundaries** (round boundaries
for the restricted chase).  A trip lands mid-level, but the engines undo
the tripped level's partial work when they snapshot — the head atoms fired
so far in that level are excluded, the level's fired keys are rolled back,
and the null counter is the one recorded at the level's start.  That makes
the checkpoint's state exactly the state the uninterrupted run had when it
entered the level, which is what buys the determinism guarantee::

    resume(trip(run)) ≡ uninterrupted run

at any trip point, any ``parallelism``, and across process boundaries
(asserted bit-for-bit by ``tests/chaos/``): the resumed run re-enters the
level with the same instance, the same frontier, the same fired keys, and
the same next null ident, so it enumerates, fires, and labels exactly what
the uninterrupted run would have.

Serialization lives in :mod:`repro.datamodel.io`
(:func:`~repro.datamodel.io.save_checkpoint` /
:func:`~repro.datamodel.io.load_checkpoint`); the convenience methods here
delegate.  Atom order is significant and preserved: the engines rebuild
their instances by inserting atoms in checkpoint order, which reproduces
the original instance's index iteration order — a prerequisite for
bit-identical replay within one interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from ..datamodel.atoms import Atom
    from ..datamodel.stats import EvalStats
    from ..tgds.tgd import TGD

__all__ = [
    "ChaseCheckpoint",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "validate_tgds",
]

#: Bumped whenever the serialized layout changes incompatibly;
#: :func:`~repro.datamodel.io.load_checkpoint` refuses newer versions.
#: History: 1 — original layout, ``config["parallelism"]`` a bare int
#: meaning worker *threads*; 2 — ``config["parallelism"]`` is
#: ``{"kind": "serial" | "thread" | "process", "workers": n}`` (the io
#: decoder shims format-1 ints into the same shape on load; ``"thread"``
#: entries resume serially).
CHECKPOINT_FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint could not be loaded, validated, or resumed."""


@dataclass
class ChaseCheckpoint:
    """A resumable snapshot of a chase run at a level/round boundary.

    Attributes
    ----------
    kind:
        ``"chase"`` (the level-wise oblivious engine) or ``"restricted"``
        (the head-checking round-based engine) — selects the resume
        function.
    strategy:
        The trigger-search strategy of the checkpointed run.
    tgds:
        The ontology Σ, in the run's order (the fired-key space is indexed
        by position, so order is part of the state).
    atoms:
        Every instance atom at the boundary, **in insertion order**.
    levels:
        The s-level of each atom, parallel to ``atoms`` (``None`` for the
        restricted chase, which tracks rounds, not per-atom levels).
    delta_atoms:
        The frontier the next level's trigger search seeds from, in
        production order.
    fired_keys:
        Semi-oblivious ``(TGD index, frontier image)`` keys fired
        (restricted: *examined*) before the boundary.
    empty_body_pending:
        True iff the level-1 empty-body firings have not happened yet
        (only for a checkpoint taken before level 1 ran).
    original_dom:
        ``dom(D)`` of the original database — what ``ground_part()`` and
        answer restriction need.
    next_level:
        The level (round) the resumed run executes first.
    fired:
        Triggers fired before the boundary.
    null_counter:
        The global null counter at the boundary — resuming pins
        :func:`repro.datamodel.fresh_null` here so replayed firings invent
        identical nulls.
    db_size:
        How many leading ``atoms`` entries are original database atoms
        (meaningful for ``kind="restricted"``, which has no level map).
    stats:
        :class:`EvalStats` snapshot at the boundary (an independent copy).
    trip:
        The budget trip code that forced this checkpoint, or ``None`` for a
        periodic (``checkpoint_every=``) or bound-stop snapshot.
    config:
        The run's bound knobs (``max_level``/``max_atoms``/``safety_cap``/
        ``parallel_threshold``/``max_rounds``), carried so a resume
        honours the same bounds by default.
    """

    kind: str
    strategy: str
    tgds: "tuple[TGD, ...]"
    atoms: "tuple[Atom, ...]"
    levels: tuple[int, ...] | None
    delta_atoms: "tuple[Atom, ...]"
    fired_keys: frozenset
    empty_body_pending: bool
    original_dom: frozenset
    next_level: int
    fired: int
    null_counter: int
    db_size: int
    stats: "EvalStats"
    trip: str | None = None
    config: dict = field(default_factory=dict)
    version: int = CHECKPOINT_FORMAT_VERSION

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def database_atoms(self) -> "tuple[Atom, ...]":
        """The original database atoms, in checkpoint order.

        For the level-wise chase these are the level-0 atoms (including any
        atoms added later by :func:`~repro.chase.extend_chase`, which enter
        at level 0); for the restricted chase, the recorded ``db_size``
        prefix.  This is what the :class:`~repro.chase.ChaseCache` keys a
        checkpoint on and what the CLI validates ``--resume`` against.
        """
        if self.levels is not None:
            return tuple(
                atom
                for atom, level in zip(self.atoms, self.levels)
                if level == 0
            )
        return self.atoms[: self.db_size]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaseCheckpoint<{self.kind}/{self.strategy}, "
            f"{len(self.atoms)} atoms, next level {self.next_level}, "
            f"trip={self.trip!r}>"
        )

    # ------------------------------------------------------------------
    # Serialization conveniences (the codecs live in datamodel.io)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """A pure-JSON representation (see :mod:`repro.datamodel.io`)."""
        from ..datamodel.io import checkpoint_to_json_dict

        return checkpoint_to_json_dict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ChaseCheckpoint":
        """Rebuild from :meth:`to_json_dict` output."""
        from ..datamodel.io import checkpoint_from_json_dict

        return checkpoint_from_json_dict(payload)

    def save(self, path) -> None:
        """Write the checkpoint as JSON (atomic replace)."""
        from ..datamodel.io import save_checkpoint

        save_checkpoint(self, path)

    @classmethod
    def load(cls, path) -> "ChaseCheckpoint":
        """Load a checkpoint written by :meth:`save`."""
        from ..datamodel.io import load_checkpoint

        return load_checkpoint(path)

    # ------------------------------------------------------------------
    # Resume dispatch
    # ------------------------------------------------------------------
    def resume(self, **kwargs):
        """Continue this computation — dispatches on :attr:`kind`.

        Forwards to :func:`repro.chase.resume_chase` or
        :func:`repro.chase.resume_restricted_chase`; see those for the
        ``budget=`` / ``null_policy=`` knobs.
        """
        if self.kind == "chase":
            from ..chase.engine import resume_chase

            return resume_chase(self, **kwargs)
        if self.kind == "restricted":
            from ..chase.restricted import resume_restricted_chase

            return resume_restricted_chase(self, **kwargs)
        raise CheckpointError(f"unknown checkpoint kind {self.kind!r}")


def validate_tgds(checkpoint: ChaseCheckpoint, tgds: Sequence) -> None:
    """Refuse to resume a checkpoint against a different ontology.

    The fired-key space is indexed by TGD position, so both the set *and*
    the order must match.
    """
    if tuple(tgds) != tuple(checkpoint.tgds):
        raise CheckpointError(
            "checkpoint was taken under a different TGD sequence; resume "
            "with the same ontology (same TGDs, same order)"
        )
