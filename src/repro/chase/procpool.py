"""Process-parallel trigger search: persistent worker shards over pipes.

The chase's trigger search is CPU-bound pure Python, so threads sharing
the frozen instance would contend on the GIL.  This module shards the
search across **OS processes** instead: each worker holds a private
replica of the instance, rebuilt entirely from interned buffers — never
from pickled Term graphs — and synchronised once per level.

Wire format (all payloads built from :mod:`repro.datamodel.io` codecs and
plain int lists — spawn-safe, no reliance on fork-inherited memory):

``("init", {...})``
    Sent once per worker: the full TGD list (``io._encode_tgd``), this
    worker's shard as a list of global TGD indexes, the trigger strategy,
    an :meth:`~repro.datamodel.InternPool.snapshot` of the coordinator's
    intern pool, and every stored atom as ``[pred_id, [term_id, ...]]``.
    The worker rebuilds a local pool and
    :class:`~repro.datamodel.Instance`; because snapshot order is id
    order, every id on the wire means the same term on both sides.

``("level", {...})``
    Sent once per parallel level: the pool's
    :meth:`~repro.datamodel.InternPool.delta_since` payload (nulls and
    predicates invented since the last sync), atoms added since the last
    sync (``grow``), the level's delta frontier (``delta``), and the
    remaining wall-clock allowance (``deadline``).  The worker applies the
    deltas, enumerates its shard's triggers with a private
    :class:`~repro.datamodel.EvalStats` under a local *counting* budget,
    and replies:

    * ``("ok", {"candidates": [[tgd_index, [ids...]], ...], "stats": ...,
      "sites": {site: n}})`` — the same compact ``(tgd_index, ids)``
      candidates the interned search yields in-process, plus the number of
      budget checks the search performed per site.  The coordinator
      *replays* those counts into the real shared
      :class:`~repro.governance.Budget` (``check_batch``) in shard order —
      deterministic replay is how cross-process runs trip budgets and
      chaos injections on the same shard every time.
    * ``("trip", {"code": "deadline", "sites": ...})`` — the local
      allowance ran out; the coordinator replays the counts and raises.
    * ``("err", repr, traceback)`` — the search itself raised; the
      coordinator treats the shard as crashed (inline retry, then
      :class:`~repro.chase.ChaseWorkerError`).

``("stop",)`` / ``("crash",)``
    Graceful shutdown / hard ``os._exit`` — the latter is the chaos
    harness's real-worker-death hook.

A worker whose pipe breaks is reported as ``("died", exc)`` for the level
and transparently respawned with a fresh ``init`` carrying the state every
surviving worker holds, so a crash costs one inline retry, never the pool.

Workers never intern *new* terms during the search — TGD bodies are
constant-free, so every candidate id names a term already stored — which
is why worker-returned id tuples are directly meaningful in the
coordinator's pool.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import TYPE_CHECKING, Sequence

from ..datamodel import Atom, EvalStats, Instance
from ..datamodel.interning import InternPool
from ..datamodel.io import _decode_stats, _decode_tgd, _encode_stats, _encode_tgd

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..governance import Budget
    from ..tgds import TGD

__all__ = ["ProcessShardPool", "ShardOutcome"]

#: Per-shard outcome of one level: ("ok", payload) | ("trip", payload) |
#: ("died", exception).  ("err", ...) from the wire is folded into "died" —
#: both mean "this shard produced nothing usable; retry inline".
ShardOutcome = tuple


class _WorkerTrip(Exception):
    """Internal: the worker-local allowance ran out (carries the code)."""

    def __init__(self, code: str) -> None:
        super().__init__(code)
        self.code = code


class _CountingBudget:
    """The worker-side stand-in for the coordinator's shared Budget.

    Counts checks per site (for deterministic replay on the coordinator)
    and enforces only the wall-clock allowance locally — every other limit
    (steps, atoms, cancellation, injections) is enforced at replay, where
    the order is deterministic.  The deadline is checked every 1024 calls:
    a worker past its allowance stops within a bounded slice of work
    instead of running the level to completion.
    """

    __slots__ = ("site_counts", "_allowance", "_start", "_calls")

    def __init__(self, allowance: float | None) -> None:
        self.site_counts: dict[str, int] = {}
        self._allowance = allowance
        self._start = time.monotonic() if allowance is not None else 0.0
        self._calls = 0

    def check(self, site: str, *, atoms: int | None = None, step: bool = True) -> None:
        counts = self.site_counts
        counts[site] = counts.get(site, 0) + 1
        if self._allowance is not None:
            self._calls += 1
            if not self._calls & 1023 and (
                time.monotonic() - self._start > self._allowance
            ):
                raise _WorkerTrip("deadline")


def _decode_wire_atoms(entries, pool: InternPool) -> list[Atom]:
    """``[pred_id, [term_id, ...]]`` rows back into Atoms via the pool."""
    pred_of = pool.pred_of
    terms_of = pool.terms_of
    return [Atom(pred_of(pid), terms_of(ids)) for pid, ids in entries]


def _worker_main(conn) -> None:
    """The worker process loop: init once, then one reply per level."""
    # Imported here (not at module top) to keep the engine ↔ procpool
    # cycle one-directional for coordinator imports.
    from .engine import _delta_triggers, _naive_triggers

    pool: InternPool | None = None
    instance: Instance | None = None
    pairs: list = []
    strategy = "delta"
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - coordinator died
            break
        tag = message[0]
        if tag == "stop":
            break
        if tag == "crash":
            # Chaos hook: simulate a hard worker death (no cleanup, no
            # reply) so the coordinator's pipe-level recovery is exercised
            # by a *real* dead process, not an injected exception.
            os._exit(17)
        try:
            if tag == "init":
                payload = message[1]
                pool = InternPool.restore(payload["pool"])
                tgds = [_decode_tgd(t) for t in payload["tgds"]]
                pairs = [(index, tgds[index]) for index in payload["shard"]]
                strategy = payload["strategy"]
                instance = Instance(
                    _decode_wire_atoms(payload["atoms"], pool), pool=pool
                )
                conn.send(("ready",))
                continue
            if tag != "level":
                raise ValueError(f"unknown procpool message {tag!r}")
            payload = message[1]
            if payload["pool"] is not None:
                pool.apply_delta(payload["pool"])
            for atom in _decode_wire_atoms(payload["grow"], pool):
                instance.add(atom)
            delta = Instance(
                _decode_wire_atoms(payload["delta"], pool), pool=pool
            )
            budget = _CountingBudget(payload["deadline"])
            local = EvalStats()
            try:
                if strategy == "delta":
                    candidates = list(
                        _delta_triggers(pairs, instance, delta, local, budget)
                    )
                else:
                    candidates = list(
                        _naive_triggers(pairs, instance, local, budget)
                    )
            except _WorkerTrip as trip:
                conn.send(
                    ("trip", {"code": trip.code, "sites": budget.site_counts})
                )
                continue
            conn.send(
                (
                    "ok",
                    {
                        "candidates": [
                            (index, list(ids)) for index, ids in candidates
                        ],
                        "stats": _encode_stats(local),
                        "sites": budget.site_counts,
                    },
                )
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to coordinator
            try:
                conn.send(("err", repr(exc), traceback.format_exc()))
            except (BrokenPipeError, OSError):  # pragma: no cover
                break


def _start_method() -> str:
    """Prefer fork (no interpreter boot per worker); fall back to spawn.

    The wire protocol ships *all* state explicitly, so correctness never
    depends on fork-inherited memory — the preference is purely start-up
    cost.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class ProcessShardPool:
    """A persistent pool of process workers, one TGD shard each.

    Created by :func:`repro.chase.engine._chase_core` when
    ``parallelism=ProcessPool(n)``; processes spawn lazily at the first
    level whose work crosses the parallel threshold, receive ``init``
    once, then a ``level`` message per parallel level.  Serial levels
    below the threshold cost the pool nothing — the next ``level``
    message's ``grow`` buffer carries whatever those levels added.
    """

    def __init__(
        self,
        *,
        workers: int,
        tgds: Sequence["TGD"],
        pairs: Sequence[tuple[int, "TGD"]],
        strategy: str,
        pool: InternPool,
    ) -> None:
        shards = [
            [index for index, _ in pairs[w::workers]] for w in range(workers)
        ]
        self._shards: list[list[int]] = [s for s in shards if s]
        self._pairs = {index: tgd for index, tgd in pairs}
        self._tgds_payload = [_encode_tgd(t) for t in tgds]
        self._strategy = strategy
        self._pool = pool
        self._ctx = multiprocessing.get_context(_start_method())
        self._procs: list = [None] * len(self._shards)
        self._conns: list = [None] * len(self._shards)
        self._marks = (0, 0)
        self._shipped = 0
        self._started = False

    # ------------------------------------------------------------------
    # Introspection the engine's merge loop needs
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shards)

    def shard_pairs(self, shard: int) -> list[tuple[int, "TGD"]]:
        """The (index, TGD) pairs of one shard — the inline-retry unit."""
        return [(index, self._pairs[index]) for index in self._shards[shard]]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _atom_wire(self, atoms: Sequence[Atom]) -> list:
        pred_id_of = self._pool.pred_id_of
        id_of = self._pool.id_of
        return [
            [pred_id_of(atom.pred), [id_of(t) for t in atom.args]]
            for atom in atoms
        ]

    def _spawn(self, shard: int, atoms: Sequence[Atom]) -> None:
        """Start (or restart) one worker, shipping the full current state."""
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child,), daemon=True,
            name=f"chase-shard-{shard}",
        )
        proc.start()
        child.close()
        self._procs[shard] = proc
        self._conns[shard] = parent
        parent.send(
            (
                "init",
                {
                    "pool": self._pool.snapshot(),
                    "tgds": self._tgds_payload,
                    "shard": self._shards[shard],
                    "strategy": self._strategy,
                    "atoms": self._atom_wire(atoms),
                },
            )
        )
        reply = parent.recv()
        if reply != ("ready",):  # pragma: no cover - defensive
            raise RuntimeError(f"chase worker failed to initialise: {reply!r}")

    def _start(self, atoms: Sequence[Atom]) -> None:
        for shard in range(len(self._shards)):
            self._spawn(shard, atoms)
        self._marks = self._pool.watermarks()
        self._shipped = len(atoms)
        self._started = True

    def crash_worker(self, shard: int) -> None:
        """Chaos hook: make *shard*'s process die hard (``os._exit``)."""
        conn = self._conns[shard]
        if conn is not None:
            conn.send(("crash",))
            self._procs[shard].join(timeout=10)

    def stop(self) -> None:
        """Shut every worker down; joins briefly, then kills stragglers."""
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in zip(self._procs, self._conns):
            if conn is not None:
                conn.close()
            if proc is not None:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=5)
        self._procs = [None] * len(self._shards)
        self._conns = [None] * len(self._shards)
        self._started = False

    # ------------------------------------------------------------------
    # The per-level round trip
    # ------------------------------------------------------------------
    def run_level(
        self,
        atoms: Sequence[Atom],
        delta_atoms: Sequence[Atom],
        budget: "Budget | None",
    ) -> list[ShardOutcome]:
        """One level's search: sync state, collect one outcome per shard.

        *atoms* is the instance's full insertion-order atom list (the
        suffix past the last sync is shipped as ``grow``); *delta_atoms*
        is the level's frontier.  Outcomes come back in shard order —
        the order the engine replays budget counts in.
        """
        if not self._started:
            self._start(atoms)
            pool_delta = None
            grow: Sequence[Atom] = ()
        else:
            pool_delta = self._pool.delta_since(*self._marks)
            self._marks = (
                pool_delta["term_base"] + len(pool_delta["terms"]),
                pool_delta["pred_base"] + len(pool_delta["preds"]),
            )
            grow = atoms[self._shipped :]
            self._shipped = len(atoms)
        allowance = budget.remaining() if budget is not None else None
        payload = {
            "pool": pool_delta,
            "grow": self._atom_wire(grow),
            "delta": self._atom_wire(
                delta_atoms if self._strategy == "delta" else ()
            ),
            "deadline": allowance,
        }
        outcomes: list[ShardOutcome] = [None] * len(self._shards)
        for shard, conn in enumerate(self._conns):
            try:
                conn.send(("level", payload))
            except (BrokenPipeError, OSError) as exc:
                outcomes[shard] = ("died", exc)
        for shard, conn in enumerate(self._conns):
            if outcomes[shard] is not None:
                continue
            try:
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                outcomes[shard] = ("died", exc)
                continue
            if reply[0] == "err":
                outcomes[shard] = (
                    "died",
                    RuntimeError(f"{reply[1]}\n{reply[2]}"),
                )
            else:
                outcomes[shard] = reply
        # Respawn failed workers with the state every survivor holds after
        # this message (the level's own firings ship with the next grow).
        # An "err" shard's process is still alive but its replica may be
        # mid-update; stopping and respawning restores a known state.
        for shard, outcome in enumerate(outcomes):
            if outcome[0] != "died":
                continue
            conn = self._conns[shard]
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
            proc = self._procs[shard]
            if proc is not None:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=5)
            self._spawn(shard, atoms)
        return outcomes

    @staticmethod
    def decode_stats(payload: dict) -> EvalStats:
        """Expose the io codec to the engine without a second import."""
        return _decode_stats(payload)
