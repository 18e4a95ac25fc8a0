"""Cross-call chase memoisation: chase once, query many times.

Repeated ``certain_answers`` calls over the same ``(D, Σ)`` — the shape of
every CQS containment check, every minimization pass, and every benchmark
sweep — re-chase from scratch even though ``chase(D, Σ)`` is unique up to
isomorphism and the query layer only reads it.  A :class:`ChaseCache`
memoises *terminated* :class:`~repro.chase.engine.ChaseResult`s keyed on
the database's atom set, the TGD sequence, and the trigger strategy, with
two levels of reuse:

* **exact hit** — the same atom set again: return the cached result
  outright (the 10×-class win the E03/E18 benchmarks measure);
* **incremental extension** — the database *grew*: find the largest cached
  strict subset under the same Σ, feed only the new atoms through
  :func:`~repro.chase.engine.extend_chase` (sound because the cached
  instance is Σ-closed), and cache the extended result too.

Anything else is a miss and runs a fresh chase.  Only fixpoints are
cached: a result cut short by a level/atom bound or a budget trip depends
on *how* it was bounded, not just on ``(D, Σ)``, and must never be served
as the chase — likewise calls carrying explicit ``max_level``/``max_atoms``
bounds bypass the cache entirely.  Budgets are compatible with caching: a
governed call that finishes within budget yields the same fixpoint as an
ungoverned one, and a hit served to a governed call costs zero budget.

A third tier recovers work from *trips*: an incomplete result's
:class:`~repro.governance.ChaseCheckpoint` is kept in a side table keyed
like the entries, and the next call for the same ``(D, Σ, strategy)``
resumes it (``null_policy="fresh"`` — other computations may have invented
nulls in between, so the replay is isomorphic rather than bit-identical)
instead of starting over.  A resume that reaches the fixpoint promotes the
result into the main table and drops the checkpoint; one that trips again
replaces the checkpoint with the further-along one, so repeated governed
calls make monotone progress toward the fixpoint.

Eviction is LRU with a bounded entry count.  With a ``spill_dir``, an
evicted fixpoint is not discarded: it is demoted to a **spill checkpoint**
on disk (the same JSON wire format as trip checkpoints, with an empty
delta frontier), and the next request for that key resumes it — one empty
trigger-search pass over the rebuilt instance instead of a cold re-chase.
This is the multi-tenant service's eviction/spill layer: hot entries stay
in memory, cold ones cost a re-load, nothing costs a full recomputation.

The cache is lock-protected and may be shared across threads **and
tenants** (one :class:`~repro.serve.QueryService` serving many sessions);
the cache sits strictly above the engine.  Pass ``tenant=`` (or use
:meth:`ChaseCache.scoped`, which threads it for you) to attribute
hits/misses/extensions/resumes to a tenant in :meth:`info`; sharing is
deliberately cross-tenant — two tenants with the same ontology share one
materialisation — while the accounting stays per-tenant.

Correctness contract (asserted by ``tests/test_chase_cache.py``): a hit is
the *same object* previously computed; an extension has the same ground
part, the same certain answers, and an isomorphic instance as the fresh
chase of the grown database; a spill-resume is a terminated result with
the same ground part and certain answers as the evicted entry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter, OrderedDict
from pathlib import Path
from typing import Sequence

from ..datamodel import EvalStats, Instance
from ..datamodel.terms import null_counter_value
from ..options import Parallelism, check_parallelism
from ..governance import Budget
from ..governance.checkpoint import ChaseCheckpoint, CheckpointError
from ..storage import CorruptArtifactError, RecoveryManager, RecoveryReport, quarantine
from ..tgds import TGD
from .engine import ChaseResult, chase, extend_chase, resume_chase

__all__ = ["ChaseCache", "TenantCacheView"]

#: Default maximum number of cached chase results.
DEFAULT_MAX_ENTRIES = 128


class ChaseCache:
    """LRU cache of terminated chase results, with incremental extension.

    Parameters
    ----------
    max_entries:
        Bound on the number of cached results (LRU eviction beyond it).
    spill_dir:
        Optional directory for the evict-to-checkpoint spill tier: an
        evicted fixpoint is written there as a resumable checkpoint JSON
        and reloaded (one cheap fixpoint-verification pass) on the next
        request for its key, instead of re-chasing from scratch.

    Counters (``hits``, ``extensions``, ``misses``, ``stores``,
    ``evictions``, plus ``resumes``/``checkpoint_stores`` for the
    checkpoint tier and ``spills``/``spill_hits`` for the spill tier) are
    exposed for benchmarks and ``info()``; they count :meth:`chase`
    outcomes, so one grown-database call increments ``extensions`` and (on
    store) ``stores``.  With ``tenant=`` the same outcomes are *also*
    recorded per tenant (``info()["tenants"]``).
    """

    def __init__(
        self,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        spill_dir: "str | Path | None" = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.spill_dir = None if spill_dir is None else Path(spill_dir)
        #: Startup recovery scan of an existing spill directory (None
        #: without one): surviving spill files re-enter the manifest,
        #: damaged ones are quarantined — see :meth:`_recover_spills`.
        self.recovery: RecoveryReport | None = None
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, ChaseResult] = OrderedDict()
        #: Checkpoints of tripped runs, awaiting a resume (same key space).
        self._checkpoints: OrderedDict[tuple, ChaseCheckpoint] = OrderedDict()
        #: Backend materialisations: (Σ, backend tag, atoms) -> Instance.
        self._materialisations: OrderedDict[tuple, Instance] = OrderedDict()
        #: Spilled fixpoints: key -> checkpoint file under spill_dir.
        self._spilled: dict[tuple, Path] = {}
        #: Per-tenant outcome counters (only populated when tenant= given).
        self._tenants: dict[str, Counter] = {}
        self.hits = 0
        self.extensions = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.resumes = 0
        self.checkpoint_stores = 0
        self.materialisation_hits = 0
        self.materialisation_stores = 0
        self.spills = 0
        self.spill_hits = 0
        self.spill_failures = 0
        self.quarantined = 0
        if self.spill_dir is not None:
            self.recovery = self._recover_spills()

    # ------------------------------------------------------------------
    # Spill-tier recovery (construction time)
    # ------------------------------------------------------------------
    def _recover_spills(self) -> RecoveryReport:
        """Rebuild the spill manifest from whatever survived on disk.

        Every ``*.spill.json`` under ``spill_dir`` is checksum-verified
        and decoded; survivors re-enter ``_spilled`` keyed exactly as the
        live spill path keys them (Σ, strategy, database atoms), so a
        process restart — or a crash mid-spill — costs at most the
        artifacts that were mid-write, never the whole tier.  Damaged
        files are quarantined (moved under ``spill_dir/quarantine/``,
        kept as evidence, never re-read); orphaned temp files are
        removed.  Runs before the cache is shared, so no locking.
        """
        manager = RecoveryManager(
            self.spill_dir, pattern="*.spill.json", kind="chase-checkpoint"
        )

        def validate(path, payload):
            checkpoint = ChaseCheckpoint.from_json_dict(payload)
            if checkpoint.trip is not None or checkpoint.delta_atoms:
                raise CheckpointError(
                    "not a spill artifact: checkpoint has a live frontier"
                )
            return checkpoint

        report = manager.scan(validate=validate)
        for path, checkpoint in report.artifacts.items():
            key = (
                tuple(checkpoint.tgds),
                checkpoint.strategy,
                frozenset(checkpoint.database_atoms()),
            )
            self._spilled[key] = path
        self.quarantined += len(report.quarantined)
        return report

    # ------------------------------------------------------------------
    # The lookup-or-compute entry point
    # ------------------------------------------------------------------
    def chase(
        self,
        database: Instance,
        tgds: Sequence[TGD],
        *,
        strategy: str = "delta",
        stats: EvalStats | None = None,
        budget: Budget | None = None,
        parallelism: "Parallelism" = None,
        tenant: str | None = None,
    ) -> ChaseResult:
        """``chase(D, Σ)`` through the cache.

        Semantics are identical to :func:`~repro.chase.engine.chase` with
        no level/atom bounds: exact hits return the memoised result,
        spilled fixpoints are resumed from disk, grown databases extend
        the best cached subset, and everything else chases fresh.  Only
        terminated results enter the cache; a budget trip parks its
        checkpoint for the next call instead.

        *stats* accounts only the work this call actually performed — an
        exact hit contributes nothing to it.  *parallelism* is deprecated
        and ignored; it is checked on every call, hit or miss, as in
        :func:`~repro.chase.chase`.  *tenant* attributes the
        outcome to a tenant in :meth:`info` (the entries themselves are
        shared across tenants — same ontology, same materialisation).
        """
        check_parallelism(parallelism)
        sigma = tuple(tgds)
        atoms = database.atoms()
        key = (sigma, strategy, atoms)

        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                self._account(tenant, "hits")
                return cached
            pending = self._checkpoints.pop(key, None)
            spilled = None if pending is not None else self._spilled.pop(key, None)
            base_key, base = (
                (None, None)
                if pending is not None or spilled is not None
                else self._best_subset(sigma, strategy, atoms)
            )

        if pending is None and spilled is not None:
            # The fixpoint was evicted to disk: reload and resume.  The
            # resume re-enters the level loop with an empty delta frontier,
            # so it costs one empty trigger-search pass (plus the reload),
            # not a re-materialisation.  Every reload re-verifies the
            # envelope checksum: a damaged spill is *quarantined* (kept as
            # evidence under ``spill_dir/quarantine/``, never re-read) and
            # the request degrades to a clean miss — ``spill_hits`` counts
            # only successful reloads.
            try:
                pending = ChaseCheckpoint.load(spilled)
            except (CorruptArtifactError, CheckpointError) as exc:
                pending = None
                with self._lock:
                    self.quarantined += 1
                try:
                    quarantine(spilled, reason=str(exc))
                except OSError:
                    pass  # quarantine is best-effort; the miss still works
            except Exception:
                pending = None  # vanished/unreadable spill file: plain miss
                try:
                    spilled.unlink(missing_ok=True)
                except OSError:
                    pass
            else:
                try:
                    spilled.unlink(missing_ok=True)
                except OSError:
                    pass
            if pending is not None:
                with self._lock:
                    self.spill_hits += 1
                    self._account(tenant, "spill_hits")
                result = resume_chase(
                    pending, budget=budget, stats=stats, null_policy="fresh"
                )
                if result.terminated:
                    with self._lock:
                        self._store(key, result)
                return result

        if pending is not None:
            # A previous governed call tripped on this very (D, Σ, strategy):
            # pick up where it stopped.  "fresh" null policy — the global
            # counter may have moved on, so the continuation is isomorphic
            # to (not bit-identical with) an uninterrupted run, which is all
            # the cache contract promises.
            with self._lock:
                self.resumes += 1
                self._account(tenant, "resumes")
            result = resume_chase(
                pending,
                budget=budget,
                stats=stats,
                null_policy="fresh",
            )
        elif base is not None:
            with self._lock:
                self.extensions += 1
                self._account(tenant, "extensions")
            result = extend_chase(
                base,
                atoms - base_key[2],
                sigma,
                strategy=strategy,
                stats=stats,
                budget=budget,
            )
        else:
            with self._lock:
                self.misses += 1
                self._account(tenant, "misses")
            result = chase(
                database,
                sigma,
                strategy=strategy,
                stats=stats,
                budget=budget,
            )

        if result.terminated:
            with self._lock:
                self._store(key, result)
        elif result.checkpoint is not None:
            with self._lock:
                self._checkpoints[key] = result.checkpoint
                self._checkpoints.move_to_end(key)
                self.checkpoint_stores += 1
                self._account(tenant, "checkpoint_stores")
                while len(self._checkpoints) > self.max_entries:
                    self._checkpoints.popitem(last=False)
                    self.evictions += 1
        return result

    def scoped(self, tenant: str) -> "TenantCacheView":
        """A view of this cache that attributes every outcome to *tenant*.

        The view shares entries with (and is as thread-safe as) the
        underlying cache; it only threads ``tenant=`` so the service layer
        can hand one shared cache to per-tenant :class:`~repro.Engine`
        sessions without re-plumbing accounting through every call site.
        """
        return TenantCacheView(self, tenant)

    def _account(self, tenant: str | None, outcome: str) -> None:
        """Record *outcome* for *tenant* (caller holds the lock)."""
        if tenant is not None:
            self._tenants.setdefault(tenant, Counter())[outcome] += 1

    def _best_subset(
        self, sigma: tuple, strategy: str, atoms: frozenset
    ) -> tuple[tuple, ChaseResult | None]:
        """Largest cached strict subset of *atoms* under the same Σ/strategy.

        Caller holds the lock.  Linear in the entry count — fine at the
        default size; the win of extending from the largest base is that
        the fewest new triggers need enumerating.
        """
        best_key: tuple | None = None
        best: ChaseResult | None = None
        for key, result in self._entries.items():
            if key[0] != sigma or key[1] != strategy:
                continue
            cached_atoms = key[2]
            if cached_atoms < atoms and (
                best_key is None or len(cached_atoms) > len(best_key[2])
            ):
                best_key, best = key, result
        if best_key is not None:
            self._entries.move_to_end(best_key)
            return best_key, best
        return (sigma, strategy, frozenset()), None

    def _store(self, key: tuple, result: ChaseResult) -> None:
        """Insert under the lock, evicting the LRU entry past the bound.

        With a spill directory, evicted fixpoints are demoted to resumable
        checkpoints on disk instead of being discarded.
        """
        self._entries[key] = result
        self._entries.move_to_end(key)
        self.stores += 1
        while len(self._entries) > self.max_entries:
            old_key, old_result = self._entries.popitem(last=False)
            self.evictions += 1
            if self.spill_dir is not None:
                self._spill(old_key, old_result)

    def _spill(self, key: tuple, result: ChaseResult) -> None:
        """Demote an evicted fixpoint to a checkpoint file (lock held).

        The write itself is the durable protocol (checksummed envelope,
        fsync + atomic rename, capped-backoff retries for transient
        ``OSError``\\ s — see :func:`repro.storage.write_durable`).
        Persistent failures are swallowed but *counted*
        (``spill_failures``): the spill tier is an optimisation — losing
        it degrades the next request for this key to a plain miss, never
        to an error — but silent loss is how recovery gaps hide.
        """
        try:
            checkpoint = self._fixpoint_checkpoint(key, result)
            path = self.spill_dir / f"{self._digest(key)}.spill.json"
            checkpoint.save(path)
        except Exception:
            self.spill_failures += 1
            return
        self._spilled[key] = path
        self.spills += 1

    @staticmethod
    def _digest(key: tuple) -> str:
        """A stable filename for a cache key (Σ, strategy, atom set)."""
        sigma, strategy, atoms = key
        payload = "\n".join(
            [strategy]
            + [str(tgd) for tgd in sigma]
            + sorted(str(atom) for atom in atoms)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    @staticmethod
    def _fixpoint_checkpoint(key: tuple, result: ChaseResult) -> ChaseCheckpoint:
        """A resumable snapshot of a *terminated* chase result.

        The delta frontier is empty and ``next_level`` is past the last
        materialised level, so resuming re-enters the level loop, finds
        nothing to fire, and terminates — re-deriving the fixpoint for the
        cost of rebuilding the instance plus one empty search pass.
        """
        sigma, strategy, _ = key
        ordered = list(result.levels.items())
        return ChaseCheckpoint(
            kind="chase",
            strategy=strategy,
            tgds=sigma,
            atoms=tuple(atom for atom, _ in ordered),
            levels=tuple(level for _, level in ordered),
            delta_atoms=(),
            fired_keys=result.fired_keys,
            empty_body_pending=False,
            original_dom=result.original_dom,
            next_level=result.max_level + 1,
            fired=result.fired,
            null_counter=null_counter_value(),
            db_size=sum(1 for _, level in ordered if level == 0),
            stats=result.stats.copy(),
            trip=None,
        )

    # ------------------------------------------------------------------
    # Backend materialisations — the non-chase engines' side tier
    # ------------------------------------------------------------------
    def materialise(
        self,
        database: Instance,
        tgds: Sequence[TGD],
        *,
        backend: str,
        compute,
        tenant: str | None = None,
    ) -> Instance:
        """Lookup-or-compute a backend's materialised instance.

        The key space mirrors :meth:`chase` — ``(Σ, tag, atoms)`` — with
        the trigger strategy replaced by a ``backend:`` tag, so a datalog
        saturation and a SQL pushdown of the same ``(D, Σ)`` each get
        their own slot while sharing the cache's LRU budget.  *compute*
        is a zero-argument callable returning the completed
        :class:`~repro.datamodel.Instance`; if it raises (e.g. a budget
        trip), nothing is stored — only fixpoints are cacheable, exactly
        as for chase results.
        """
        key = (tuple(tgds), f"backend:{backend}", database.atoms())
        with self._lock:
            cached = self._materialisations.get(key)
            if cached is not None:
                self._materialisations.move_to_end(key)
                self.materialisation_hits += 1
                self._account(tenant, "materialisation_hits")
                return cached
        result = compute()
        with self._lock:
            self._materialisations[key] = result
            self._materialisations.move_to_end(key)
            self.materialisation_stores += 1
            self._account(tenant, "materialisation_stores")
            while len(self._materialisations) > self.max_entries:
                self._materialisations.popitem(last=False)
                self.evictions += 1
        return result

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe history)."""
        with self._lock:
            self._entries.clear()
            self._checkpoints.clear()
            self._materialisations.clear()
            spilled = list(self._spilled.values())
            self._spilled.clear()
        for path in spilled:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def info(self) -> dict:
        """Counters + size as a flat dict (for logs and benchmark JSON).

        ``tenants`` maps each tenant label seen via ``tenant=`` /
        :meth:`scoped` to its own outcome counts — the per-tenant
        accounting over the shared entry space.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "checkpoints": len(self._checkpoints),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "extensions": self.extensions,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "resumes": self.resumes,
                "checkpoint_stores": self.checkpoint_stores,
                "materialisations": len(self._materialisations),
                "materialisation_hits": self.materialisation_hits,
                "materialisation_stores": self.materialisation_stores,
                "spilled": len(self._spilled),
                "spills": self.spills,
                "spill_hits": self.spill_hits,
                "spill_failures": self.spill_failures,
                "quarantined": self.quarantined,
                "recovery": None if self.recovery is None else self.recovery.as_dict(),
                "tenants": {
                    tenant: dict(counts)
                    for tenant, counts in sorted(self._tenants.items())
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.info()
        return (
            f"ChaseCache<{info['entries']}/{info['max_entries']} entries, "
            f"{info['hits']} hits, {info['extensions']} extensions, "
            f"{info['misses']} misses>"
        )


class TenantCacheView:
    """A tenant-labelled facade over a shared :class:`ChaseCache`.

    Quacks like the cache everywhere the evaluation stack touches one
    (:meth:`chase`, :meth:`materialise`, ``len``, :meth:`info`), forwarding
    each call with ``tenant=`` set, so per-tenant accounting needs no
    plumbing through :class:`~repro.Engine` or ``certain_answers``.
    Entries are shared across all views of one cache — that is the point:
    cross-tenant reuse with per-tenant attribution.
    """

    __slots__ = ("base", "tenant")

    def __init__(self, base: ChaseCache, tenant: str) -> None:
        self.base = base
        self.tenant = tenant

    def chase(self, database, tgds, **kwargs) -> ChaseResult:
        kwargs.setdefault("tenant", self.tenant)
        return self.base.chase(database, tgds, **kwargs)

    def materialise(self, database, tgds, **kwargs) -> Instance:
        kwargs.setdefault("tenant", self.tenant)
        return self.base.materialise(database, tgds, **kwargs)

    def scoped(self, tenant: str) -> "TenantCacheView":
        return TenantCacheView(self.base, tenant)

    def clear(self) -> None:
        self.base.clear()

    def info(self) -> dict:
        return self.base.info()

    def __len__(self) -> int:
        return len(self.base)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantCacheView<{self.tenant!r} over {self.base!r}>"
