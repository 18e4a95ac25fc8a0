"""The chaos sweep: every registered check site × trip kind, resumed/re-run.

Chase sites get the full treatment (trip → checkpoint → resume, directly
and after a JSON round-trip, at every parallelism) because the chase is
what carries a :class:`ChaseCheckpoint`.  The remaining governed
procedures have procedure-specific recovery contracts — sound partials,
resumable type tables, graceful truncation — and each is swept below;
``test_site_registry`` asserts this file covers the whole registry.
"""

from __future__ import annotations

import random

import pytest

from repro import Budget, BudgetExceeded, parse_database, parse_tgds, parse_ucq
from repro.chase import (
    ChaseWorkerError,
    chase,
    ground_saturation,
    restricted_chase,
    resume_chase,
    rewrite_ucq,
    saturated_expansion,
)
from repro.datamodel import EvalStats
from repro.fc.witness import finite_witness
from repro.governance import TRIP_CODES
from repro.queries.sql import evaluate_via_sqlite
from repro.treewidth.exact import has_treewidth_at_most

from tests.chaos import driver

#: Sites this module injects at — test_site_registry asserts the union
#: equals the CHECK_SITES registry, so a new governed site cannot be
#: added without extending the sweep.
SWEPT_SITES = {
    "trigger-fire",
    "hom-backtrack",
    "restricted-fire",
    "rewrite-step",
    "treewidth-branch",
    "type-table",
    "expansion-node",
    "witness-attempt",
    "sql-load",
    "sql-disjunct",
    "sql-pushdown",
    "serve-admission",
    "serve-dispatch",
}

TRIP_KINDS = sorted(TRIP_CODES.items())  # [(code, exc_cls), ...]


# ======================================================================
# Chase sites: trip → checkpoint → resume ≡ oracle (the tentpole)
# ======================================================================
def _chase_oracle(parallelism):
    db, tgds = driver.chase_scenario()
    driver.pin_nulls()
    stats = EvalStats()
    result = chase(
        db,
        tgds,
        stats=stats,
        parallelism=parallelism,
        parallel_threshold=0,
    )
    assert result.terminated
    return (
        driver.chase_fingerprint(result),
        driver.stats_fingerprint(stats),
    )


def _chase_site_counts(parallelism):
    db, tgds = driver.chase_scenario()

    def run(budget):
        driver.pin_nulls()
        chase(
            db,
            tgds,
            budget=budget,
            parallelism=parallelism,
            parallel_threshold=0,
        )

    return driver.probe_site_counts(run)


@pytest.mark.parametrize("parallelism", driver.PARALLELISMS)
@pytest.mark.parametrize("seed", driver.seeds())
def test_chase_sweep(seed, parallelism):
    db, tgds = driver.chase_scenario()
    oracle_fp, oracle_stats_fp = _chase_oracle(parallelism)
    counts = _chase_site_counts(parallelism)
    rng = random.Random((seed, parallelism).__repr__())

    for site in driver.CHASE_SITES:
        for code, exc_cls in TRIP_KINDS:
            for ordinal in driver.injection_ordinals(rng, counts[site]):
                result, _ = driver.run_tripped_chase(
                    db,
                    tgds,
                    site=site,
                    ordinal=ordinal,
                    exc_cls=exc_cls,
                    parallelism=parallelism,
                )
                context = (
                    f"site={site} kind={code} ordinal={ordinal} "
                    f"parallelism={parallelism} seed={seed}"
                )
                assert result.reason == code, context
                driver.assert_chase_resume_matches(
                    result, oracle_fp, oracle_stats_fp, context=context
                )


@pytest.mark.parametrize("seed", driver.seeds())
def test_chained_trips_still_reach_oracle(seed):
    """Trip, resume with a budget that trips again, resume again — converges."""
    db, tgds = driver.chase_scenario()
    oracle_fp, _ = _chase_oracle(None)
    counts = _chase_site_counts(None)
    rng = random.Random(seed)
    first = rng.randint(1, counts["trigger-fire"])

    driver.pin_nulls()
    budget = Budget()
    budget.inject(first, site="trigger-fire")
    result = chase(db, tgds, budget=budget)
    hops = 0
    while result.reason in TRIP_CODES:
        assert result.checkpoint is not None
        budget = Budget()
        if hops == 0:  # make the middle leg trip too (ordinal re-seeded)
            budget.inject(
                rng.randint(1, max(1, counts["trigger-fire"] - first)),
                site="trigger-fire",
            )
        result = resume_chase(driver.roundtrip(result.checkpoint), budget=budget)
        hops += 1
        assert hops <= 3, "resume chain did not converge"
    assert driver.chase_fingerprint(result) == oracle_fp


# ======================================================================
# Worker failure: a crashing shard is retried once, then checkpointed
# ======================================================================
#: A process shard "dies" by the coordinator's deterministic budget replay
#: raising mid-merge; at both widths the crash must be retried once, then
#: checkpointed.
CRASH_POOLS = (driver.ProcessPool(2), driver.ProcessPool(4))


def _kill_ordinal(seed, pool):
    counts = _chase_site_counts(pool)
    return random.Random(seed).randint(1, counts["hom-backtrack"])


@pytest.mark.parametrize("pool", CRASH_POOLS)
@pytest.mark.parametrize("seed", driver.seeds())
def test_worker_crash_retried_once(seed, pool):
    db, tgds = driver.chase_scenario()
    oracle_fp, _ = _chase_oracle(pool)
    ordinal = _kill_ordinal(seed, pool)  # probe chase — runs before the pin
    driver.pin_nulls()
    budget = Budget()
    budget.inject(ordinal, site="hom-backtrack", exc=RuntimeError)
    stats = EvalStats()
    result = chase(
        db,
        tgds,
        budget=budget,
        stats=stats,
        parallelism=pool,
        parallel_threshold=0,
    )
    # One worker died mid-level; the coordinator retried its shard inline
    # and the run completed as if nothing happened (stats double-count the
    # retried shard's search work, so only the result is compared).
    assert result.terminated and result.reason not in TRIP_CODES
    assert stats.worker_retries >= 1
    assert driver.chase_fingerprint(result) == oracle_fp


@pytest.mark.parametrize("pool", CRASH_POOLS)
@pytest.mark.parametrize("seed", driver.seeds())
def test_worker_crash_twice_checkpoints_consistent_state(seed, pool):
    db, tgds = driver.chase_scenario()
    oracle_fp, _ = _chase_oracle(pool)
    ordinal = _kill_ordinal(seed, pool)  # probe chase — runs before the pin
    driver.pin_nulls()
    budget = Budget()
    budget.inject(ordinal, site="hom-backtrack", exc=RuntimeError, repeats=2)
    with pytest.raises(ChaseWorkerError) as excinfo:
        chase(
            db,
            tgds,
            budget=budget,
            parallelism=pool,
            parallel_threshold=0,
        )
    # The retry died too: the error escapes, but carries a checkpoint of
    # the consistent pre-level state — resume on a healthy pool ≡ oracle.
    ckpt = excinfo.value.checkpoint
    assert ckpt is not None
    resumed = resume_chase(driver.roundtrip(ckpt), budget=Budget())
    assert driver.chase_fingerprint(resumed) == oracle_fp


# ======================================================================
# Restricted chase: same trip → checkpoint → resume contract
# ======================================================================
def _restricted_oracle():
    db, tgds = driver.restricted_scenario()
    driver.pin_nulls()
    result = restricted_chase(db, tgds)
    assert result.terminated
    return driver.restricted_fingerprint(result)


@pytest.mark.parametrize("seed", driver.seeds())
def test_restricted_sweep(seed):
    db, tgds = driver.restricted_scenario()
    oracle_fp = _restricted_oracle()

    def run(budget):
        driver.pin_nulls()
        restricted_chase(db, tgds, budget=budget)

    counts = driver.probe_site_counts(run)
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, counts["restricted-fire"]):
            driver.pin_nulls()
            budget = Budget()
            budget.inject(ordinal, site="restricted-fire", exc=exc_cls)
            result = restricted_chase(db, tgds, budget=budget)
            context = f"kind={code} ordinal={ordinal} seed={seed}"
            assert result.reason == code, context
            driver.assert_restricted_resume_matches(
                result, oracle_fp, context=context
            )


# ======================================================================
# Rewriting: trip leaves a sound partial; a clean re-run is deterministic
# ======================================================================
REWRITE_TGDS = ["S(x) -> R(x)", "T(x) -> S(x)", "U(x, y) -> T(x)"]
REWRITE_QUERY = "q(x) :- R(x)"


def _ucq_strs(ucq):
    return sorted(str(cq) for cq in ucq.disjuncts)


@pytest.mark.parametrize("seed", driver.seeds())
def test_rewrite_step_sweep(seed):
    tgds = parse_tgds(REWRITE_TGDS)
    query = parse_ucq(REWRITE_QUERY)
    oracle = _ucq_strs(rewrite_ucq(query, tgds))

    budget = Budget()
    rewrite_ucq(query, tgds, budget=budget)
    count = budget.site_counts["rewrite-step"]
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count):
            budget = Budget()
            budget.inject(ordinal, site="rewrite-step", exc=exc_cls)
            with pytest.raises(BudgetExceeded) as excinfo:
                rewrite_ucq(query, tgds, budget=budget)
            exc = excinfo.value
            assert exc.code == code
            # The partial rewriting is a sound under-approximation: every
            # disjunct derived before the trip is in the full rewriting.
            assert exc.partial is not None
            assert set(_ucq_strs(exc.partial)) <= set(oracle)
            assert _ucq_strs(rewrite_ucq(query, tgds)) == oracle


# ======================================================================
# Treewidth: the search trips cleanly; a clean re-run gives the oracle
# ======================================================================
def _grid_graph(n):
    graph = {}
    for i in range(n):
        for j in range(n):
            neighbours = set()
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if 0 <= i + di < n and 0 <= j + dj < n:
                    neighbours.add((i + di, j + dj))
            graph[(i, j)] = neighbours
    return graph


@pytest.mark.parametrize("seed", driver.seeds())
def test_treewidth_branch_sweep(seed):
    graph = _grid_graph(3)
    oracle = has_treewidth_at_most(graph, 2)

    budget = Budget()
    has_treewidth_at_most(graph, 2, budget=budget)
    count = budget.site_counts["treewidth-branch"]
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count):
            budget = Budget()
            budget.inject(ordinal, site="treewidth-branch", exc=exc_cls)
            with pytest.raises(BudgetExceeded) as excinfo:
                has_treewidth_at_most(graph, 2, budget=budget)
            assert excinfo.value.code == code
            assert has_treewidth_at_most(graph, 2) is oracle


# ======================================================================
# Type table (D⁺): trip attaches a sound partial AND a resumable table
# ======================================================================
SATURATION_TGDS = [
    "R(x, y) -> R(y, z)",
    "R(x, y) -> S(x)",
    "S(x), R(x, y) -> T(x, y)",
]
SATURATION_DB = "R(a, b), R(b, c), R(c, a)"


@pytest.mark.parametrize("seed", driver.seeds())
def test_type_table_sweep(seed):
    db = parse_database(SATURATION_DB)
    tgds = parse_tgds(SATURATION_TGDS)
    oracle = {str(a) for a in ground_saturation(db, tgds)}

    budget = Budget()
    ground_saturation(db, tgds, budget=budget)
    count = budget.site_counts["type-table"]
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count, k=1):
            budget = Budget()
            budget.inject(ordinal, site="type-table", exc=exc_cls)
            with pytest.raises(BudgetExceeded) as excinfo:
                ground_saturation(db, tgds, budget=budget)
            exc = excinfo.value
            assert exc.code == code
            assert exc.partial is not None
            assert {str(a) for a in exc.partial} <= oracle
            # The attached table keeps interrupted configurations queued:
            # re-calling with it resumes the closure instead of restarting.
            assert exc.table is not None
            resumed = ground_saturation(
                db, tgds, table=exc.table, budget=Budget()
            )
            assert {str(a) for a in resumed} == oracle


# ======================================================================
# Blocked expansion: graceful truncation, deterministic clean re-run
# ======================================================================
@pytest.mark.parametrize("seed", driver.seeds())
def test_expansion_node_sweep(seed):
    db = parse_database(SATURATION_DB)
    tgds = parse_tgds(SATURATION_TGDS)
    driver.pin_nulls()
    oracle = saturated_expansion(db, tgds, unfold=2)
    assert not oracle.truncated
    oracle_atoms = sorted(str(a) for a in oracle.instance)

    def probe(budget):
        driver.pin_nulls()
        saturated_expansion(db, tgds, unfold=2, budget=budget)

    counts = driver.probe_site_counts(probe)
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(
            rng, counts["expansion-node"], k=1
        ):
            driver.pin_nulls()
            budget = Budget()
            budget.inject(ordinal, site="expansion-node", exc=exc_cls)
            truncated = saturated_expansion(db, tgds, unfold=2, budget=budget)
            assert truncated.truncated
            assert truncated.trip_reason == code
            # Node closures land atomically between checks, so every
            # collected atom is a genuine chase atom.
            assert {str(a) for a in truncated.ground} <= set(oracle_atoms)
            driver.pin_nulls()
            rerun = saturated_expansion(db, tgds, unfold=2)
            assert sorted(str(a) for a in rerun.instance) == oracle_atoms


# ======================================================================
# Finite witness: a certificate cannot degrade — trip propagates
# ======================================================================
@pytest.mark.parametrize("seed", driver.seeds())
def test_witness_attempt_sweep(seed):
    db = parse_database("R(a, b)")
    tgds = parse_tgds(["R(x, y) -> R(y, z)"])  # guarded, infinite chase
    driver.pin_nulls()
    oracle = finite_witness(db, tgds, 1)
    oracle_atoms = sorted(str(a) for a in oracle.model)

    budget = Budget()
    driver.pin_nulls()
    finite_witness(db, tgds, 1, budget=budget)
    count = budget.site_counts["witness-attempt"]
    assert count >= 1
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count, k=1):
            driver.pin_nulls()
            budget = Budget()
            budget.inject(ordinal, site="witness-attempt", exc=exc_cls)
            with pytest.raises(BudgetExceeded) as excinfo:
                finite_witness(db, tgds, 1, budget=budget)
            assert excinfo.value.code == code
            driver.pin_nulls()
            rerun = finite_witness(db, tgds, 1)
            assert sorted(str(a) for a in rerun.model) == oracle_atoms


# ======================================================================
# SQL oracle: partial answers are sound per executed disjunct
# ======================================================================
SQL_DB = "R(a, b), R(b, c), S(c), S(a), T(a, b, c)"
SQL_QUERY = "q(x) :- R(x, y), S(y) | q(x) :- S(x) | q(x) :- T(x, y, z)"


@pytest.mark.parametrize("seed", driver.seeds())
@pytest.mark.parametrize("site", ["sql-load", "sql-disjunct"])
def test_sql_sweep(seed, site):
    db = parse_database(SQL_DB)
    query = parse_ucq(SQL_QUERY)
    oracle = evaluate_via_sqlite(query, db)

    budget = Budget()
    evaluate_via_sqlite(query, db, budget=budget)
    count = budget.site_counts[site]
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count, k=1):
            budget = Budget()
            budget.inject(ordinal, site=site, exc=exc_cls)
            with pytest.raises(BudgetExceeded) as excinfo:
                evaluate_via_sqlite(query, db, budget=budget)
            exc = excinfo.value
            assert exc.code == code
            if site == "sql-disjunct":
                # Executed disjuncts' answers are sound (UCQ is a union).
                assert exc.partial is not None
                assert exc.partial <= oracle
            assert evaluate_via_sqlite(query, db) == oracle


# ======================================================================
# Backend sites: datalog saturation and SQL pushdown degrade gracefully
# ======================================================================
#: Full Σ with a recursive stratum (transitive closure) so both the
#: saturating chase's firings and the SQL saturation loop check repeatedly.
BACKEND_TGDS = [
    "E(x, y) -> P(x, y)",
    "P(x, y), P(y, z) -> P(x, z)",
]
BACKEND_DB = "E(a, b), E(b, c), E(c, d)"
BACKEND_QUERY = "q(x, y) :- P(x, y)"


def _backend_scenario():
    from repro.omq import OMQ

    db = parse_database(BACKEND_DB)
    tgds = parse_tgds(BACKEND_TGDS)
    omq = OMQ.with_full_data_schema(tgds, parse_ucq(BACKEND_QUERY))
    return db, tgds, omq


@pytest.mark.parametrize("seed", driver.seeds())
@pytest.mark.parametrize(
    "site,backend",
    [("trigger-fire", "datalog"), ("sql-pushdown", "sql")],
)
def test_backend_site_sweep(seed, site, backend):
    """A trip mid-saturation yields a sound partial OMQAnswer, not garbage.

    Both backends catch the trip, evaluate the query over the sound
    prefix under a grace budget, and return ``complete=False`` with the
    trip code — the same graceful-degradation contract as the chase.
    """
    from repro.evaluation import evaluate

    db, tgds, omq = _backend_scenario()
    oracle = evaluate(omq, db, backend=backend)
    assert oracle.complete
    oracle_answers = set(oracle.answers)

    budget = Budget()
    evaluate(omq, db, backend=backend, budget=budget)
    count = budget.site_counts[site]
    assert count >= 2, f"scenario exercises {site} only {count} times"
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count, k=1):
            budget = Budget()
            budget.inject(ordinal, site=site, exc=exc_cls)
            result = evaluate(omq, db, backend=backend, budget=budget)
            context = f"site={site} kind={code} ordinal={ordinal} seed={seed}"
            assert not result.complete, context
            assert result.trip == code, context
            assert set(result.answers) <= oracle_answers, context
            # Clean re-run is deterministic and exact.
            rerun = evaluate(omq, db, backend=backend)
            assert rerun.complete and set(rerun.answers) == oracle_answers


@pytest.mark.parametrize("seed", driver.seeds())
def test_datalog_stratum_partial_is_sound(seed):
    """At the saturation layer the trip raises with a sound partial:
    every atom collected before the trip is in the least model, and the
    input database is never lost (rule heads land atomically between
    ``trigger-fire`` checks).
    """
    from repro.datalog import compile_program, saturate

    db, tgds, _ = _backend_scenario()
    program = compile_program(tgds)
    oracle = saturate(db, program).instance.atoms()

    budget = Budget()
    saturate(db, program, budget=budget)
    count = budget.site_counts["trigger-fire"]
    rng = random.Random(seed)
    for code, exc_cls in TRIP_KINDS:
        for ordinal in driver.injection_ordinals(rng, count, k=1):
            budget = Budget()
            budget.inject(ordinal, site="trigger-fire", exc=exc_cls)
            with pytest.raises(BudgetExceeded) as excinfo:
                saturate(db, program, budget=budget)
            exc = excinfo.value
            assert exc.code == code
            assert exc.partial is not None
            assert db.atoms() <= exc.partial.atoms() <= oracle


# ======================================================================
# Service sites: trips at admission/dispatch become clean rejections
# ======================================================================
@pytest.mark.parametrize("site", driver.SERVE_SITES)
@pytest.mark.parametrize("seed", driver.seeds())
def test_serve_site_sweep(seed, site):
    """A budget trip at either service check site never reaches a worker:
    the client gets a clean rejection with a backoff hint, and a clean
    re-run of the same request still produces the exact oracle."""
    del seed  # the service sites fire once per request: ordinal is fixed
    for code, exc_cls in TRIP_KINDS:
        resp, oracle = driver.run_service_request(
            inject_site=site, inject_exc=exc_cls
        )
        context = f"site={site} kind={code}"
        assert resp.status == "rejected", context
        driver.assert_clean_service_outcome(resp, oracle, context=context)
    # Uninjected request: the service recovers fully on the next call.
    resp, oracle = driver.run_service_request()
    assert resp.status == "ok" and frozenset(resp.answers) == oracle
