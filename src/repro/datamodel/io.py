"""Loading and saving databases — and chase checkpoints.

Two database interchange formats:

* the **facts format** (``.facts`` / ``.txt``): one ground atom per line in
  the parser syntax — ``R(a, b)`` — with ``#`` comments; round-trips
  through :func:`repro.queries.parse_database`;
* **CSV-per-predicate**: a directory with one headerless CSV file per
  predicate (``R.csv`` holding the tuples of ``R``), the layout used by
  most chase engines' benchmark suites (e.g. ChaseBench).

All values are read as strings (integers opt-in via ``coerce_ints``), which
keeps loading loss-free and deterministic.

Plus one **checkpoint format**: a
:class:`~repro.governance.ChaseCheckpoint` as a single JSON document
(:func:`save_checkpoint` / :func:`load_checkpoint`).  Terms are encoded as
tagged objects — ``{"__null__": 7, "hint": "z"}`` for labelled nulls,
``{"__var__": "x"}`` for variables, ``{"__tuple__": [...]}`` for tuple
constants, scalars as themselves — so null *identity* and level structure
survive the round trip exactly (``tests/oracle/test_checkpoint_roundtrip.py``
holds resumes from a round-tripped checkpoint to bit-identical results).
Atom order within the document is significant and preserved: the engines
rebuild instances in checkpoint order to reproduce index iteration order.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING

from ..storage import CorruptArtifactError, read_durable, write_durable
from .atoms import Atom
from .instances import Instance
from .stats import EvalStats
from .terms import Null, Term, Variable

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..governance.checkpoint import ChaseCheckpoint

__all__ = [
    "load_facts",
    "save_facts",
    "load_csv_directory",
    "save_csv_directory",
    "encode_term",
    "decode_term",
    "encode_atom",
    "decode_atom",
    "checkpoint_to_json_dict",
    "checkpoint_from_json_dict",
    "save_checkpoint",
    "load_checkpoint",
]

_INT = str.isdigit


def load_facts(path: str | Path, *, coerce_ints: bool = False) -> Instance:
    """Load a database from a facts file (one atom per line)."""
    from ..queries.parser import parse_database

    text = Path(path).read_text()
    instance = parse_database(text)
    if not coerce_ints:
        return instance
    return Instance(
        Atom(a.pred, tuple(int(t) if isinstance(t, str) and _INT(t) else t for t in a.args))
        for a in instance
    )


def save_facts(instance: Instance, path: str | Path) -> None:
    """Write a database in the facts format (sorted, reproducible)."""
    lines = sorted(str(atom) for atom in instance)
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv_directory(
    directory: str | Path, *, coerce_ints: bool = False
) -> Instance:
    """Load one CSV file per predicate from *directory*.

    ``R.csv`` with rows ``a,b`` becomes atoms ``R(a, b)``; empty files give
    an empty relation.  Raises on inconsistent row widths within a file.
    """
    directory = Path(directory)
    instance = Instance()
    for csv_path in sorted(directory.glob("*.csv")):
        pred = csv_path.stem
        width: int | None = None
        with csv_path.open(newline="") as handle:
            for row in csv.reader(handle):
                if not row:
                    continue
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ValueError(
                        f"{csv_path.name}: row width {len(row)} != {width}"
                    )
                values = tuple(
                    int(v) if coerce_ints and _INT(v) else v for v in row
                )
                instance.add(Atom(pred, values))
    return instance


def save_csv_directory(instance: Instance, directory: str | Path) -> None:
    """Write one CSV per predicate (sorted rows, reproducible)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for pred in sorted(instance.predicates()):
        rows = sorted(
            tuple(str(t) for t in atom.args)
            for atom in instance.atoms_with_pred(pred)
        )
        with (directory / f"{pred}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerows(rows)


# ----------------------------------------------------------------------
# Term / atom / TGD codecs (the checkpoint wire format)
# ----------------------------------------------------------------------
def encode_term(term: Term):
    """A term as a pure-JSON value; inverse of :func:`decode_term`.

    Nulls keep their integer identity (``{"__null__": ident, "hint": h}``)
    — a resumed chase must see the *same* nulls, not isomorphic copies.
    """
    if isinstance(term, Null):
        payload = {"__null__": term.ident}
        if term.hint:
            payload["hint"] = term.hint
        return payload
    if isinstance(term, Variable):
        return {"__var__": term.name}
    if isinstance(term, tuple):
        return {"__tuple__": [encode_term(t) for t in term]}
    if isinstance(term, bool) or term is None or isinstance(term, (str, int, float)):
        return term
    raise TypeError(
        f"cannot serialize term {term!r} of type {type(term).__name__}; "
        "checkpointable instances hold strings, numbers, tuples, "
        "variables, and nulls"
    )


def decode_term(payload) -> Term:
    """Inverse of :func:`encode_term`."""
    if isinstance(payload, dict):
        if "__null__" in payload:
            return Null(payload["__null__"], payload.get("hint", ""))
        if "__var__" in payload:
            return Variable(payload["__var__"])
        if "__tuple__" in payload:
            return tuple(decode_term(t) for t in payload["__tuple__"])
        raise ValueError(f"unknown term tag in {payload!r}")
    return payload


def encode_atom(atom: Atom) -> list:
    """``R(a, _:z7)`` → ``["R", [a, {"__null__": 7, ...}]]``."""
    return [atom.pred, [encode_term(t) for t in atom.args]]


def decode_atom(payload) -> Atom:
    """Inverse of :func:`encode_atom`.

    Only tagged terms (nulls, variables, tuples) encode as dicts
    — scalars pass through the codec unchanged, so the common case skips
    the :func:`decode_term` dispatch entirely.  Checkpoint rebuilds decode
    every stored atom through here; the branch is worth it.
    """
    pred, args = payload
    return Atom(
        pred,
        tuple(
            [decode_term(t) if type(t) is dict else t for t in args]
        ),
    )


def _encode_tgd(tgd) -> dict:
    payload = {
        "body": [encode_atom(a) for a in tgd.body],
        "head": [encode_atom(a) for a in tgd.head],
    }
    if tgd.name:
        payload["name"] = tgd.name
    return payload


def _decode_tgd(payload):
    from ..tgds.tgd import TGD

    return TGD(
        [decode_atom(a) for a in payload["body"]],
        [decode_atom(a) for a in payload["head"]],
        name=payload.get("name", ""),
    )


def _encode_fired_key(key) -> list:
    index, image = key
    return [index, [encode_term(t) for t in image]]


def _decode_fired_key(payload) -> tuple:
    index, image = payload
    return (
        index,
        tuple([decode_term(t) if type(t) is dict else t for t in image]),
    )


def _encode_stats(stats: EvalStats) -> dict:
    payload = {
        name: getattr(stats, name)
        for name in stats.__dataclass_fields__
        if name != "level_seconds"
    }
    payload["level_seconds"] = {
        str(level): seconds for level, seconds in stats.level_seconds.items()
    }
    return payload


def _decode_stats(payload: dict) -> EvalStats:
    stats = EvalStats()
    for name in stats.__dataclass_fields__:
        if name == "level_seconds":
            continue
        if name in payload:
            setattr(stats, name, payload[name])
    stats.level_seconds = {
        int(level): seconds
        for level, seconds in payload.get("level_seconds", {}).items()
    }
    return stats


# ----------------------------------------------------------------------
# Checkpoint documents
# ----------------------------------------------------------------------
#: Document marker; load refuses files without it.
_CHECKPOINT_FORMAT = "repro-chase-checkpoint"


def checkpoint_to_json_dict(checkpoint: "ChaseCheckpoint") -> dict:
    """A :class:`~repro.governance.ChaseCheckpoint` as a pure-JSON dict.

    Atom lists keep their (significant) order; set-valued fields
    (``fired_keys``, ``original_dom``) are emitted sorted by their string
    form so the document bytes are reproducible across hash seeds.
    """
    return {
        "format": _CHECKPOINT_FORMAT,
        "version": checkpoint.version,
        "kind": checkpoint.kind,
        "strategy": checkpoint.strategy,
        "tgds": [_encode_tgd(t) for t in checkpoint.tgds],
        "atoms": [encode_atom(a) for a in checkpoint.atoms],
        "levels": None
        if checkpoint.levels is None
        else list(checkpoint.levels),
        "delta_atoms": [encode_atom(a) for a in checkpoint.delta_atoms],
        "fired_keys": sorted(
            (_encode_fired_key(k) for k in checkpoint.fired_keys),
            key=lambda enc: (enc[0], str(enc[1])),
        ),
        "empty_body_pending": checkpoint.empty_body_pending,
        "original_dom": sorted(
            (encode_term(t) for t in checkpoint.original_dom),
            key=str,
        ),
        "next_level": checkpoint.next_level,
        "fired": checkpoint.fired,
        "null_counter": checkpoint.null_counter,
        "db_size": checkpoint.db_size,
        "stats": _encode_stats(checkpoint.stats),
        "trip": checkpoint.trip,
        "config": dict(checkpoint.config),
    }


def checkpoint_from_json_dict(payload: dict) -> "ChaseCheckpoint":
    """Inverse of :func:`checkpoint_to_json_dict` (with format validation)."""
    from ..governance.checkpoint import (
        CHECKPOINT_FORMAT_VERSION,
        ChaseCheckpoint,
        CheckpointError,
    )

    if payload.get("format") != _CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a chase checkpoint document (format={payload.get('format')!r})"
        )
    version = payload.get("version", 0)
    if version > CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is newer than this "
            f"library understands ({CHECKPOINT_FORMAT_VERSION})"
        )
    config = dict(payload.get("config", {}))
    if version < 2:
        # Format 1 stored ``config["parallelism"]`` as a bare int meaning
        # worker *threads*; format 2 spells kind and width out.  Shimming
        # here (the process boundary) keeps every in-memory consumer on
        # one shape.
        legacy = config.get("parallelism", 1)
        if not isinstance(legacy, dict):
            workers = 1 if legacy is None else int(legacy)
            config["parallelism"] = {
                "kind": "thread" if workers > 1 else "serial",
                "workers": workers,
            }
    levels = payload["levels"]
    return ChaseCheckpoint(
        kind=payload["kind"],
        strategy=payload["strategy"],
        tgds=tuple(_decode_tgd(t) for t in payload["tgds"]),
        atoms=tuple(decode_atom(a) for a in payload["atoms"]),
        levels=None if levels is None else tuple(levels),
        delta_atoms=tuple(decode_atom(a) for a in payload["delta_atoms"]),
        fired_keys=frozenset(
            _decode_fired_key(k) for k in payload["fired_keys"]
        ),
        empty_body_pending=payload["empty_body_pending"],
        original_dom=frozenset(
            decode_term(t) for t in payload["original_dom"]
        ),
        next_level=payload["next_level"],
        fired=payload["fired"],
        null_counter=payload["null_counter"],
        db_size=payload["db_size"],
        stats=_decode_stats(payload["stats"]),
        trip=payload["trip"],
        config=config,
        version=version,
    )


#: Envelope ``kind`` tag for checkpoint artifacts — the durable layer
#: refuses to serve some other artifact species where a checkpoint is
#: expected, before the checkpoint codec ever runs.
CHECKPOINT_ARTIFACT_KIND = "chase-checkpoint"


def save_checkpoint(checkpoint: "ChaseCheckpoint", path: str | Path) -> Path:
    """Write a checkpoint crash-safely; return the final path.

    Routes through :func:`repro.storage.write_durable`: checksummed
    envelope, write-temp → fsync → rename → directory fsync, retries for
    transient ``OSError``\\ s.  A crash at any point leaves either the
    previous checkpoint untouched or the new one complete and on stable
    storage — the property the CLI's ``--checkpoint-dir`` snapshots, the
    cache's spill tier, and the service's park-and-resume path rely on.
    """
    return write_durable(
        path, checkpoint_to_json_dict(checkpoint), kind=CHECKPOINT_ARTIFACT_KIND
    )


def load_checkpoint(path: str | Path) -> "ChaseCheckpoint":
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Every load re-verifies the envelope checksum; damage of any flavour —
    truncation, torn write, bit flip, a non-checkpoint artifact — raises
    :class:`~repro.storage.CorruptArtifactError` carrying the path and
    reason, never a raw ``json.JSONDecodeError``.  Pre-durability files
    (bare JSON) still load, unverified.  A structurally valid document
    that is not a checkpoint keeps raising
    :class:`~repro.governance.CheckpointError`, and a newer format
    version is refused as before — those are usage errors, not damage.
    """
    payload = read_durable(path, expected_kind=CHECKPOINT_ARTIFACT_KIND)
    from ..governance.checkpoint import CheckpointError

    try:
        return checkpoint_from_json_dict(payload)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifactError(
            path, f"invalid checkpoint structure: {type(exc).__name__}: {exc}"
        ) from exc
