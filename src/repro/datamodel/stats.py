"""Evaluation counters — how much work the engines actually do.

Wall-clock seconds depend on the machine; the counters here do not.  An
:class:`EvalStats` object is threaded (optionally) through the homomorphism
search, the chase engine, and OMQ evaluation, so that a benchmark can report
*work done* — triggers enumerated, backtracks, index probes — next to the
seconds.  ROADMAP's "as fast as the hardware allows" is only checkable if
the work is measured.

A single object may be shared across several calls (e.g. one OMQ evaluation
= one chase + one UCQ evaluation); counters accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EvalStats"]


@dataclass
class EvalStats:
    """Counters for one (or several accumulated) evaluation runs.

    Attributes
    ----------
    triggers_enumerated:
        Candidate triggers (TGD + body homomorphism) materialised by the
        chase's trigger search, including ones later discarded.
    triggers_fired:
        Triggers actually fired (one per new (TGD, frontier-image) key).
    triggers_deduped:
        Enumerated triggers discarded without firing — fired-key cache hits
        plus same-level duplicate enumerations caught by the pivot rule.
    hom_backtracks:
        Candidate facts rejected during the backtracking join (a dead
        branch of the homomorphism search).
    index_probes:
        Lookups into an :class:`~repro.datamodel.Instance`'s secondary
        indexes (calls to ``Instance.candidates``).
    homs_found:
        Complete homomorphisms yielded by the search.
    plans_compiled:
        Join plans compiled by :mod:`repro.datamodel.planner`.
    plan_cache_hits:
        Plan-cache lookups answered without recompiling.
    plan_fallbacks:
        Planned search nodes that fell back to dynamic atom selection
        because the planned atom's candidate count exceeded the plan's
        adaptive threshold.
    plan_probes_saved:
        Index probes a planned search node avoided relative to dynamic
        per-node ordering (pending atoms minus the one planned probe).
    head_checks:
        Head-satisfaction checks performed by the restricted chase.
    nodes_expanded:
        Guarded-chase-forest nodes expanded (blocked chase / filtration).
    parallel_levels, shards_dispatched, worker_retries:
        Deprecated: always 0.  They counted the retired process-shard
        trigger search; the chase now runs serially.
    datalog_rounds:
        Chase levels run by Datalog saturation (the final empty level
        counts — it is the fixpoint proof).
    datalog_facts:
        Facts Datalog saturation derived (new atoms only).
    sql_statements:
        Saturation statements the SQLite pushdown backend executed
        (recursive CTE queries plus per-round ``INSERT ... SELECT``s).
    level_seconds:
        Chase wall time per level, ``{level: seconds}``.
    wall_seconds:
        Total chase wall time.
    """

    triggers_enumerated: int = 0
    triggers_fired: int = 0
    triggers_deduped: int = 0
    hom_backtracks: int = 0
    index_probes: int = 0
    homs_found: int = 0
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    plan_fallbacks: int = 0
    plan_probes_saved: int = 0
    head_checks: int = 0
    nodes_expanded: int = 0
    parallel_levels: int = 0
    shards_dispatched: int = 0
    worker_retries: int = 0
    datalog_rounds: int = 0
    datalog_facts: int = 0
    sql_statements: int = 0
    level_seconds: dict[int, float] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def copy(self) -> "EvalStats":
        """An independent snapshot (checkpoints record stats-at-level-start)."""
        snapshot = EvalStats(
            **{
                name: getattr(self, name)
                for name in self.__dataclass_fields__
                if name != "level_seconds"
            }
        )
        snapshot.level_seconds = dict(self.level_seconds)
        return snapshot

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Accumulate *other* into self (level times: sum per level)."""
        self.triggers_enumerated += other.triggers_enumerated
        self.triggers_fired += other.triggers_fired
        self.triggers_deduped += other.triggers_deduped
        self.hom_backtracks += other.hom_backtracks
        self.index_probes += other.index_probes
        self.homs_found += other.homs_found
        self.plans_compiled += other.plans_compiled
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_fallbacks += other.plan_fallbacks
        self.plan_probes_saved += other.plan_probes_saved
        self.head_checks += other.head_checks
        self.nodes_expanded += other.nodes_expanded
        self.parallel_levels += other.parallel_levels
        self.shards_dispatched += other.shards_dispatched
        self.worker_retries += other.worker_retries
        self.datalog_rounds += other.datalog_rounds
        self.datalog_facts += other.datalog_facts
        self.sql_statements += other.sql_statements
        for level, seconds in other.level_seconds.items():
            self.level_seconds[level] = self.level_seconds.get(level, 0.0) + seconds
        self.wall_seconds += other.wall_seconds
        return self

    def as_dict(self) -> dict:
        """Counters as a flat dict (for JSON dumps and table rows)."""
        return {
            "triggers_enumerated": self.triggers_enumerated,
            "triggers_fired": self.triggers_fired,
            "triggers_deduped": self.triggers_deduped,
            "hom_backtracks": self.hom_backtracks,
            "index_probes": self.index_probes,
            "homs_found": self.homs_found,
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_fallbacks": self.plan_fallbacks,
            "plan_probes_saved": self.plan_probes_saved,
            "head_checks": self.head_checks,
            "nodes_expanded": self.nodes_expanded,
            "parallel_levels": self.parallel_levels,
            "shards_dispatched": self.shards_dispatched,
            "worker_retries": self.worker_retries,
            "datalog_rounds": self.datalog_rounds,
            "datalog_facts": self.datalog_facts,
            "sql_statements": self.sql_statements,
            "wall_seconds": self.wall_seconds,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"triggers {self.triggers_enumerated} enumerated / "
            f"{self.triggers_fired} fired / {self.triggers_deduped} deduped; "
            f"homs {self.homs_found} found, {self.hom_backtracks} backtracks, "
            f"{self.index_probes} index probes; "
            f"plans {self.plans_compiled} compiled / "
            f"{self.plan_cache_hits} cache hits / "
            f"{self.plan_probes_saved} probes saved; "
            f"{self.wall_seconds:.3f}s"
        )
