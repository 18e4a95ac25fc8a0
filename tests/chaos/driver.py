"""Seeded chaos-injection driver.

The harness proves the tentpole determinism guarantee

    resume(trip(run)) ≡ uninterrupted run

by brute force: a *probe* run over each scenario counts how many times the
governor is consulted at each check site, a seeded RNG picks injection
ordinals from that range, and every tripped run is resumed — both directly
and after a JSON round-trip of its checkpoint — and compared bit-for-bit
against the uninterrupted oracle (atom strings include null identities, so
"bit-identical" really means identical null assignment, not just isomorphy).

Seeds come from :func:`seeds`: three fixed seeds always run; CI adds one
randomized seed via the ``CHAOS_SEED`` environment variable (echoed in the
job log so a red run is reproducible).

Everything here pins the global null counter (:func:`pin_nulls`) before
each fresh run so that oracle and chaos runs allocate the same null idents;
resumed runs restore the counter from the checkpoint (``null_policy=
"exact"``), which is exactly the property under test.
"""

from __future__ import annotations

import json
import os
import random

from repro import Budget, parse_database, parse_tgds
from repro.chase import (
    chase,
    restricted_chase,
    resume_chase,
    resume_restricted_chase,
)
from repro.datamodel import EvalStats, set_null_counter
from repro.datamodel.io import checkpoint_from_json_dict, checkpoint_to_json_dict
from repro.governance import TRIP_CODES
from repro.options import ProcessPool

#: Fixed seeds every run sweeps; CHAOS_SEED (CI's randomized seed) is added.
FIXED_SEEDS = (0, 1, 2)

#: Null-counter base pinned before every fresh (non-resumed) run.
NULL_BASE = 1_000

#: Parallelism flavours the chase sweep covers: serial, and process shards
#: at two widths (four workers give each scenario TGD its own shard).
PARALLELISMS = (None, ProcessPool(2), ProcessPool(4))

#: Check sites the chase sweep injects at (the two governed chase loops).
CHASE_SITES = ("trigger-fire", "hom-backtrack")


def seeds() -> list[int]:
    """The sweep's seed list: fixed seeds plus CI's randomized CHAOS_SEED."""
    result = list(FIXED_SEEDS)
    extra = os.environ.get("CHAOS_SEED")
    if extra:
        value = int(extra)
        if value not in result:
            result.append(value)
    return result


def pin_nulls() -> None:
    """Reset the global null counter so runs are comparable bit-for-bit."""
    set_null_counter(NULL_BASE)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def chase_scenario():
    """A terminating chase with several levels, nulls, and real join work.

    Transitive closure over a chain drives multi-level full-TGD firing
    (plenty of ``trigger-fire`` and ``hom-backtrack`` checks); the
    existential rules allocate nulls at distinct levels so resumed runs
    must reproduce the exact null assignment.
    """
    db = parse_database(
        "R(a1, a2), R(a2, a3), R(a3, a4), R(a4, a5), R(a5, a6)"
    )
    tgds = parse_tgds(
        [
            "R(x, y), R(y, z) -> R(x, z)",
            "R(x, y) -> P(x, w)",
            "P(x, w) -> Q(w, v)",
            "Q(w, v) -> S(v)",
        ]
    )
    return db, tgds


def restricted_scenario():
    """A restricted-chase workload where head-satisfaction checks matter."""
    db = parse_database("R(a, b), R(b, c), R(c, d), S(a, b)")
    tgds = parse_tgds(
        [
            "R(x, y) -> S(x, y)",
            "S(x, y) -> T(y, z)",
            "R(x, y), R(y, z) -> R(x, z)",
            "T(y, z) -> U(z)",
        ]
    )
    return db, tgds


# ----------------------------------------------------------------------
# Fingerprints — the "bit-identical" projection of a result
# ----------------------------------------------------------------------
def chase_fingerprint(result) -> dict:
    """Everything observable about a ChaseResult except wall-clock time.

    Atom strings embed null identities (``⊥7``), so equal fingerprints
    mean the runs produced literally the same labelled nulls at the same
    levels, not merely isomorphic instances.
    """
    return {
        "atoms": sorted(str(a) for a in result.instance),
        "levels": sorted((str(a), lvl) for a, lvl in result.levels.items()),
        "terminated": result.terminated,
        "reason": result.reason,
        "fired": result.fired,
        "max_level": result.max_level,
    }


def restricted_fingerprint(result) -> dict:
    """The restricted-chase analogue of :func:`chase_fingerprint`."""
    return {
        "atoms": sorted(str(a) for a in result.instance),
        "terminated": result.terminated,
        "reason": result.reason,
        "fired": result.fired,
        "rounds": result.rounds,
    }


def stats_fingerprint(stats: EvalStats) -> dict:
    """Deterministic counters only: drop wall-clock and timing buckets."""
    skip = {"wall_seconds", "level_seconds"}
    return {
        name: getattr(stats, name)
        for name in stats.__dataclass_fields__
        if name not in skip
    }


# ----------------------------------------------------------------------
# Probe + injection-point selection
# ----------------------------------------------------------------------
def probe_site_counts(run) -> dict[str, int]:
    """Run *run(budget)* with an unlimited budget; return per-site counts."""
    budget = Budget()
    run(budget)
    return dict(budget.site_counts)


def injection_ordinals(rng: random.Random, count: int, k: int = 2) -> list[int]:
    """*k* seeded ordinals in [1, count], always including the first check.

    Ordinal 1 is the adversarial extreme (trip before any work lands);
    the seeded picks explore the interior, and ``count`` itself is a valid
    pick (trip during the final level's processing).
    """
    if count < 1:
        raise AssertionError("probe saw no checks at this site — dead scenario")
    picks = {1}
    while len(picks) < min(k + 1, count):
        picks.add(rng.randint(1, count))
    return sorted(picks)


# ----------------------------------------------------------------------
# Trip → resume → compare, the core assertion
# ----------------------------------------------------------------------
def roundtrip(checkpoint):
    """Force the checkpoint through its JSON wire format (process boundary)."""
    wire = json.dumps(checkpoint_to_json_dict(checkpoint), sort_keys=True)
    return checkpoint_from_json_dict(json.loads(wire))


def run_tripped_chase(db, tgds, *, site, ordinal, exc_cls, parallelism):
    """One chaos-injected chase run; returns its tripped ChaseResult."""
    pin_nulls()
    budget = Budget()
    budget.inject(ordinal, site=site, exc=exc_cls)
    stats = EvalStats()
    result = chase(
        db,
        tgds,
        budget=budget,
        stats=stats,
        parallelism=parallelism,
        parallel_threshold=0,
    )
    return result, stats


def assert_chase_resume_matches(result, oracle_fp, oracle_stats_fp, *, context):
    """A tripped chase resumes — directly and via JSON — to the oracle."""
    assert result.checkpoint is not None, f"no checkpoint after trip ({context})"
    assert result.reason in TRIP_CODES, f"unexpected reason {result.reason!r}"

    for label, ckpt in (
        ("direct", result.checkpoint),
        ("json-roundtrip", roundtrip(result.checkpoint)),
    ):
        resumed = resume_chase(ckpt, budget=Budget())
        fp = chase_fingerprint(resumed)
        assert fp == oracle_fp, f"{context} [{label}]: resumed ≠ oracle"
        assert (
            stats_fingerprint(resumed.stats) == oracle_stats_fp
        ), f"{context} [{label}]: resumed stats ≠ oracle stats"


def assert_restricted_resume_matches(result, oracle_fp, *, context):
    """The restricted-chase analogue of :func:`assert_chase_resume_matches`."""
    assert result.checkpoint is not None, f"no checkpoint after trip ({context})"
    for label, ckpt in (
        ("direct", result.checkpoint),
        ("json-roundtrip", roundtrip(result.checkpoint)),
    ):
        resumed = resume_restricted_chase(ckpt, budget=Budget())
        fp = restricted_fingerprint(resumed)
        assert fp == oracle_fp, f"{context} [{label}]: resumed ≠ oracle"


# ----------------------------------------------------------------------
# Service-path chaos: faults injected through repro.serve
# ----------------------------------------------------------------------
#: Check sites the service hits per request (each exactly once on the
#: normal path, so the only valid injection ordinal is 1).
SERVE_SITES = ("serve-admission", "serve-dispatch")


def service_scenario():
    """The tenant ontology, query, database, and oracle the service sweeps.

    Open-world OMQ over the chase scenario's ontology — certain answers
    are the sound/complete reference every degraded response must be a
    subset of.
    """
    from repro.omq import OMQ, certain_answers
    from repro.queries import parse_ucq

    db, tgds = chase_scenario()
    omq = OMQ.with_full_data_schema(list(tgds), parse_ucq("q(x) :- S(x)"))
    pin_nulls()
    oracle = certain_answers(omq, db)
    assert oracle.complete
    return tgds, omq, db, frozenset(oracle.answers)


def run_service_request(
    *,
    inject_site=None,
    inject_exc=None,
    evaluator=None,
    deadline=5.0,
    config=None,
):
    """One request through a fresh :class:`~repro.serve.QueryService`.

    ``inject_site``/``inject_exc`` arm :meth:`Budget.inject` on the
    request budget (the service-layer sites fire once each, so the
    ordinal is always 1); *evaluator* replaces the worker's evaluation
    (worker-death / runaway simulation).  Returns ``(response, oracle)``.
    """
    import asyncio

    from repro.serve import QueryService, ServiceConfig

    tgds, omq, db, oracle = service_scenario()
    cfg = config or ServiceConfig(
        deadline=deadline, watchdog_interval=0.02, watchdog_grace=0.3
    )

    async def go():
        async with QueryService(cfg) as svc:
            svc.register("chaos", tgds)
            if inject_site is not None:

                def factory(request_deadline):
                    budget = Budget(deadline=request_deadline, hard=True)
                    budget.inject(1, site=inject_site, exc=inject_exc)
                    return budget

                svc.budget_factory = factory
            pin_nulls()
            return await svc.submit(
                "chaos", omq, db, _evaluator=evaluator
            )

    return asyncio.run(go()), oracle


def assert_clean_service_outcome(resp, oracle, *, context):
    """The service-path invariant: complete, sound-degraded, or clean
    rejection/kill — never a hang (the caller returned) and never an
    unsound answer."""
    assert resp.status in (
        "ok",
        "degraded",
        "rejected",
        "error",
        "killed",
    ), f"{context}: unknown status {resp.status!r}"
    if resp.status == "ok":
        assert resp.complete, f"{context}: ok response must be complete"
        assert frozenset(resp.answers) == oracle, f"{context}: ok ≠ oracle"
    elif resp.status == "degraded":
        assert frozenset(resp.answers) <= oracle, f"{context}: unsound partial"
    else:
        assert not resp.answers, f"{context}: {resp.status} carried answers"
        assert (
            resp.retry_after is not None or resp.status == "error"
        ), f"{context}: rejection without backoff hint"
