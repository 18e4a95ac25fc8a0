"""Differential suite: the datalog and SQL backends against the chase.

``repro.evaluate(q, D, backend=)`` must give the same answers whichever
engine runs the evaluation, on the fragments where each engine is sound:

* closed-world (U)CQs — sqlite3 joins vs the in-memory homomorphism
  search (Σ plays no role, so every backend is exact);
* full Σ — the semi-naive datalog least model and the in-database SQL
  saturation both equal the chase instance exactly (no nulls invented);
* linear single-head Σ — the SQL backend evaluates the perfect rewriting
  over D (Prop D.2) while the datalog backend runs the chase's guarded
  strategy; both must agree with chase-based certain answers;
* guarded Σ — the datalog backend (the guarded strategy's blocked
  expansion) vs the chase strategies.

Each seeded sweep draws >= 200 randomized (Σ, D, q) cases from plain
``random.Random`` (deterministic counts, unlike hypothesis), including a
budget-tripped family asserting the partial-answer contract: a tripped
result has ``complete=False``, a trip code, and answers that are a
*subset* of the exact certain answers.
"""

import random

import pytest

from repro.datamodel import Atom, Database, Variable
from repro.evaluation import evaluate
from repro.governance import Budget
from repro.omq import OMQ
from repro.queries import CQ, UCQ
from repro.tgds import TGD

SEEDS = [0, 1, 2]

#: Cases per family; the per-seed total must stay >= 200 (asserted below).
N_CLOSED = 70
N_FULL = 60
N_LINEAR = 40
N_GUARDED = 30
N_BUDGET = 20

PREDS = [("P", 1), ("Q", 1), ("R", 2), ("S", 2)]
CONSTS = ["a", "b", "c", "d", "e"]
VARS = ["x", "y", "z", "w"]


def _case_total() -> int:
    return N_CLOSED + N_FULL + N_LINEAR + N_GUARDED + N_BUDGET


def test_sweep_is_at_least_200_cases_per_seed():
    assert _case_total() >= 200


# ---------------------------------------------------------------------------
# Random generators (plain random.Random: deterministic case counts)
# ---------------------------------------------------------------------------


def rand_db(rng: random.Random, max_atoms: int = 8) -> Database:
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        pred, arity = rng.choice(PREDS)
        atoms.append(
            Atom(pred, tuple(rng.choice(CONSTS) for _ in range(arity)))
        )
    return Database(atoms)


def rand_cq(rng: random.Random) -> CQ:
    body = []
    for _ in range(rng.randint(1, 2)):
        pred, arity = rng.choice(PREDS)
        body.append(
            Atom(pred, tuple(Variable(rng.choice(VARS)) for _ in range(arity)))
        )
    seen = sorted({v for atom in body for v in atom.args}, key=str)
    k = rng.randint(0, min(2, len(seen)))
    return CQ(tuple(rng.sample(seen, k)), body)


def rand_ucq(rng: random.Random) -> UCQ:
    first = rand_cq(rng)
    disjuncts = [first]
    if rng.random() < 0.4:
        other = rand_cq(rng)
        if other.arity == first.arity:
            disjuncts.append(other)
    return UCQ(disjuncts)


def rand_full_tgd(rng: random.Random) -> TGD:
    """Full and guarded: guard atom over all body vars, no existentials."""
    guard_pred, guard_arity = rng.choice(PREDS)
    guard_args = tuple(Variable(rng.choice(VARS)) for _ in range(guard_arity))
    body = [Atom(guard_pred, guard_args)]
    body_vars = sorted(set(guard_args), key=str)
    if rng.random() < 0.5:
        side_pred, side_arity = rng.choice(PREDS)
        body.append(
            Atom(side_pred, tuple(rng.choice(body_vars) for _ in range(side_arity)))
        )
    head = []
    for _ in range(rng.randint(1, 2)):
        head_pred, head_arity = rng.choice(PREDS)
        head.append(
            Atom(head_pred, tuple(rng.choice(body_vars) for _ in range(head_arity)))
        )
    return TGD(body, head)


def rand_linear_tgd(rng: random.Random) -> TGD:
    """Linear single-head, at most one existential head variable."""
    body_pred, body_arity = rng.choice(PREDS)
    body_args = tuple(Variable(rng.choice(VARS)) for _ in range(body_arity))
    pool = sorted(set(body_args), key=str)
    if rng.random() < 0.5:
        pool = pool + [Variable("v_exist")]
    head_pred, head_arity = rng.choice(PREDS)
    head_args = tuple(rng.choice(pool) for _ in range(head_arity))
    return TGD([Atom(body_pred, body_args)], [Atom(head_pred, head_args)])


def rand_guarded_tgd(rng: random.Random) -> TGD:
    """Guarded, possibly existential, possibly multi-atom body/head."""
    guard_pred, guard_arity = rng.choice(PREDS)
    guard_args = tuple(Variable(rng.choice(VARS)) for _ in range(guard_arity))
    body = [Atom(guard_pred, guard_args)]
    body_vars = sorted(set(guard_args), key=str)
    if rng.random() < 0.4:
        side_pred, side_arity = rng.choice(PREDS)
        body.append(
            Atom(side_pred, tuple(rng.choice(body_vars) for _ in range(side_arity)))
        )
    pool = list(body_vars)
    if rng.random() < 0.5:
        pool.append(Variable("v_exist"))
    head = []
    for _ in range(rng.randint(1, 2)):
        head_pred, head_arity = rng.choice(PREDS)
        head.append(
            Atom(head_pred, tuple(rng.choice(pool) for _ in range(head_arity)))
        )
    return TGD(body, head)


def make_omq(tgds, query, db) -> OMQ:
    from repro.tgds.classes import schema_of

    schema = schema_of(list(tgds)).union(query.schema()).union(db.schema())
    return OMQ(schema, tgds, query)


# ---------------------------------------------------------------------------
# Agreement checks
# ---------------------------------------------------------------------------


def check_against_exact(exact_answers, result, context):
    """Complete results must equal the exact answers, partial ones
    under-approximate.  ``complete=False`` does not imply a trip code —
    the guarded strategy also reports incompleteness when its expansion
    blocked; budget trips are asserted separately where a trip is forced.
    """
    if result.complete:
        assert set(result.answers) == exact_answers, context
        assert result.trip is None, context
    else:
        assert set(result.answers) <= exact_answers, context


# ---------------------------------------------------------------------------
# The sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_world_sql_vs_memory(seed):
    rng = random.Random(1000 + seed)
    for case in range(N_CLOSED):
        db = rand_db(rng)
        q = rand_ucq(rng) if rng.random() < 0.5 else rand_cq(rng)
        mem = evaluate(q, db)
        sql = evaluate(q, db, backend="sql")
        assert mem.complete and sql.complete, (seed, case)
        assert set(sql.answers) == set(mem.answers), (seed, case, q)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_sigma_three_way(seed):
    """Full Σ: chase == datalog == sql, all complete."""
    rng = random.Random(2000 + seed)
    for case in range(N_FULL):
        tgds = [rand_full_tgd(rng) for _ in range(rng.randint(1, 3))]
        db = rand_db(rng)
        q = rand_ucq(rng)
        omq = make_omq(tgds, q, db)
        oracle = evaluate(omq, db)
        assert oracle.complete, (seed, case)
        for backend in ("datalog", "sql", "auto"):
            result = evaluate(omq, db, backend=backend)
            assert result.complete, (seed, case, backend)
            assert set(result.answers) == set(oracle.answers), (
                seed, case, backend, tgds, q,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_sigma_three_way(seed):
    """Linear single-head Σ (existentials allowed): all three backends.

    Linear ⊆ guarded, so the datalog backend's guarded strategy is sound
    here too; the SQL backend evaluates the perfect rewriting directly
    over D.
    """
    rng = random.Random(3000 + seed)
    for case in range(N_LINEAR):
        tgds = [rand_linear_tgd(rng) for _ in range(rng.randint(1, 3))]
        db = rand_db(rng, max_atoms=6)
        q = rand_cq(rng)
        omq = make_omq(tgds, q, db)
        # The perfect rewriting is exact for arbitrary linear single-head
        # Σ — even when the chase is infinite — so the SQL backend is the
        # oracle here (Prop D.2), and the chase strategies are checked
        # against *it*.
        sql = evaluate(omq, db, backend="sql")
        assert sql.complete, (seed, case, tgds, q)
        exact = set(sql.answers)
        for backend in ("chase", "datalog", "auto"):
            result = evaluate(omq, db, backend=backend)
            check_against_exact(exact, result, (seed, case, backend, tgds, q))


@pytest.mark.parametrize("seed", SEEDS)
def test_guarded_sigma_datalog_vs_chase(seed):
    """Guarded Σ with existentials: the datalog backend vs the chase."""
    rng = random.Random(4000 + seed)
    exact_cases = 0
    for case in range(N_GUARDED):
        tgds = [rand_guarded_tgd(rng) for _ in range(rng.randint(1, 2))]
        db = rand_db(rng, max_atoms=5)
        q = rand_cq(rng)
        omq = make_omq(tgds, q, db)
        oracle = evaluate(omq, db)
        result = evaluate(omq, db, backend="datalog")
        ctx = (seed, case, tgds, q)
        if oracle.complete:
            exact_cases += 1
            check_against_exact(set(oracle.answers), result, ctx)
        elif result.complete:
            # The guarded strategy proved exactness where the chase
            # truncated: the chase prefix is sound, so it must
            # under-approximate.
            assert set(oracle.answers) <= set(result.answers), ctx
        # Both incomplete: two sound under-approximations of the same
        # certain answers — nothing to compare directly.
    # Most random guarded cases must resolve exactly, or the sweep
    # silently degrades into comparing nothing.
    assert exact_cases >= N_GUARDED // 2, exact_cases


@pytest.mark.parametrize("seed", SEEDS)
def test_benchgen_ontologies_agree(seed):
    """The named benchgen ontology families, randomized databases.

    Not counted toward the >=200 random-case floor — these pin the
    backends on the curated workloads the benchmarks run over.
    """
    from repro.benchgen import (
        employment_database,
        employment_ontology,
        inclusion_chain,
        sharded_ontology,
    )
    from repro.queries import parse_ucq

    rng = random.Random(6000 + seed)

    # Guarded, weakly acyclic: chase is exact; the datalog backend's
    # guarded strategy must agree.
    tgds = employment_ontology()
    db = employment_database(rng.randint(3, 6), 2, seed=seed)
    q = parse_ucq("q(x) :- Person(x) | q(x) :- Mgr(x)")
    omq = make_omq(tgds, q, db)
    oracle = evaluate(omq, db)
    assert oracle.complete
    result = evaluate(omq, db, backend="datalog")
    check_against_exact(set(oracle.answers), result, ("employment", seed))

    # Linear: sql rewriting is the exact oracle; datalog and chase agree.
    depth = rng.randint(2, 4)
    tgds = inclusion_chain(depth)
    db = Database(
        [Atom("R0", (f"a{i}", f"b{i}")) for i in range(rng.randint(2, 6))]
    )
    q = parse_ucq(f"q(x) :- R{depth}(x, y)")
    omq = make_omq(tgds, q, db)
    sql = evaluate(omq, db, backend="sql")
    assert sql.complete
    for backend in ("chase", "datalog", "auto"):
        result = evaluate(omq, db, backend=backend)
        check_against_exact(set(sql.answers), result, ("chain", seed, backend))

    # Full: all three exact, equal.
    tgds = sharded_ontology(2, 2)
    db = Database(
        [
            Atom(f"R{s}_0", (f"v{i}", f"v{i + 1}"))
            for s in range(2)
            for i in range(rng.randint(2, 4))
        ]
    )
    q = parse_ucq("q(x, y) :- R0_2(x, y) | q(x, y) :- R1_2(x, y)")
    omq = make_omq(tgds, q, db)
    oracle = evaluate(omq, db)
    assert oracle.complete
    for backend in ("datalog", "sql", "auto"):
        result = evaluate(omq, db, backend=backend)
        assert result.complete, (seed, backend)
        assert set(result.answers) == set(oracle.answers), (seed, backend)


@pytest.mark.parametrize("seed", SEEDS)
def test_budget_tripped_partials_are_sound(seed):
    """Tripped backends degrade to sound partial answers, never garbage."""
    rng = random.Random(5000 + seed)
    trips_seen = 0
    for case in range(N_BUDGET):
        tgds = [rand_full_tgd(rng) for _ in range(rng.randint(2, 3))]
        db = rand_db(rng)
        q = rand_ucq(rng)
        omq = make_omq(tgds, q, db)
        oracle = evaluate(omq, db)
        assert oracle.complete, (seed, case)
        exact = set(oracle.answers)
        for backend in ("datalog", "sql"):
            budget = Budget(max_atoms=rng.randint(1, 4))
            result = evaluate(omq, db, backend=backend, budget=budget)
            check_against_exact(exact, result, (seed, case, backend))
            if not result.complete:
                trips_seen += 1
                # Full Σ backends are exact absent a trip, so here
                # incompleteness must carry the budget's trip code.
                assert result.trip == "atom budget", (seed, case, backend)
    # The tiny atom budgets must actually trip somewhere in the sweep —
    # otherwise this family silently tests nothing.
    assert trips_seen > 0
