"""Planned-vs-unplanned differential oracle for the homomorphism search.

The join planner (:mod:`repro.datamodel.planner`) only reorders the
backtracking join — it must never change *what* is enumerated.  These
tests run the same searches under all three ``plan=`` policies (dynamic,
``"auto"``, and an explicitly pre-compiled :class:`JoinPlan`) and assert
the multiset of homomorphisms is identical, across random queries and
instances, under mobility/injectivity/fixed-seed variations, through the
evaluation layers, and at every chase worker count.  A probe regression
test pins the planner's reason to exist: on long-body queries the planned
search does a fraction of the dynamic search's index probes.
"""

import random
from collections import Counter

import pytest

from repro.benchgen import (
    clique_cq,
    cycle_cq,
    employment_database,
    employment_ontology,
    path_cq,
    random_binary_database,
    sharded_database,
    sharded_ontology,
)
from repro.datamodel import (
    Atom,
    EvalStats,
    Instance,
    Variable,
    compile_plan,
    find_homomorphisms,
    plan_for,
)
from repro.omq import OMQ, certain_answers
from repro.options import ProcessPool
from repro.queries import evaluate_cq, evaluate_ucq, parse_cq, parse_ucq

WORKERS = (None, ProcessPool(2))


def hom_multiset(homs):
    """Order-insensitive, duplicate-sensitive fingerprint of an enumeration."""
    return Counter(frozenset(h.items()) for h in homs)


def random_cq(seed: int, n_atoms: int = 4, n_vars: int = 5):
    rng = random.Random(seed)
    variables = [Variable(f"x{i}") for i in range(n_vars)]
    atoms = []
    for _ in range(n_atoms):
        pred = rng.choice(["E", "E", "F", "P"])
        arity = 1 if pred == "P" else 2
        atoms.append(Atom(pred, tuple(rng.choice(variables) for _ in range(arity))))
    return atoms


def random_instance(seed: int) -> Instance:
    rng = random.Random(seed)
    instance = random_binary_database(
        8, 30, preds=("E", "F"), seed=seed
    )
    for _ in range(6):
        instance.add(Atom("P", (rng.choice(sorted(instance.dom(), key=str)),)))
    return instance


class TestPolicyAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_policies_enumerate_the_same_multiset(self, seed):
        atoms = random_cq(seed)
        target = random_instance(seed * 31 + 7)
        dynamic = hom_multiset(find_homomorphisms(atoms, target))
        auto = hom_multiset(find_homomorphisms(atoms, target, plan="auto"))
        explicit = hom_multiset(
            find_homomorphisms(
                atoms, target, plan=compile_plan(atoms, target)
            )
        )
        assert dynamic == auto == explicit

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_under_injectivity(self, seed):
        atoms = random_cq(seed, n_atoms=3, n_vars=4)
        target = random_instance(seed + 100)
        dynamic = hom_multiset(
            find_homomorphisms(atoms, target, injective=True)
        )
        auto = hom_multiset(
            find_homomorphisms(atoms, target, injective=True, plan="auto")
        )
        assert dynamic == auto

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_under_fixed_seeds(self, seed):
        atoms = random_cq(seed, n_atoms=3)
        target = random_instance(seed + 200)
        free = sorted({t for a in atoms for t in a.args}, key=str)
        dom = sorted(target.dom(), key=str)
        fixed = {free[0]: dom[seed % len(dom)]}
        dynamic = hom_multiset(find_homomorphisms(atoms, target, fixed=fixed))
        auto = hom_multiset(
            find_homomorphisms(atoms, target, fixed=fixed, plan="auto")
        )
        assert dynamic == auto

    def test_agreement_survives_instance_mutation(self):
        atoms = random_cq(3)
        target = random_instance(303)
        before = hom_multiset(find_homomorphisms(atoms, target, plan="auto"))
        assert before == hom_multiset(find_homomorphisms(atoms, target))
        # Mutate: the stats epoch advances, cached plans must not go stale.
        extra = Atom("E", tuple(sorted(target.dom(), key=str)[:2]))
        target.add(extra)
        after_auto = hom_multiset(find_homomorphisms(atoms, target, plan="auto"))
        after_dyn = hom_multiset(find_homomorphisms(atoms, target))
        assert after_auto == after_dyn


class TestEvaluationLayers:
    @pytest.mark.parametrize("seed", range(4))
    def test_evaluate_cq_parity(self, seed):
        db = random_instance(seed + 400)
        query = parse_cq("q(x, z) :- E(x, y), E(y, z), P(x)")
        assert evaluate_cq(query, db, plan="auto") == evaluate_cq(query, db)

    def test_evaluate_ucq_parity_and_plan_validation(self):
        db = random_instance(42)
        ucq = parse_ucq(["q(x) :- E(x, y), P(x)", "q(x) :- F(x, y), P(y)"])
        assert evaluate_ucq(ucq, db, plan="auto") == evaluate_ucq(ucq, db)
        single = parse_cq("q(x) :- E(x, y)")
        with pytest.raises(ValueError):
            evaluate_ucq(ucq, db, plan=compile_plan(single.atoms, db))

    @pytest.mark.parametrize("workers", WORKERS)
    def test_certain_answers_parity_at_all_worker_counts(self, workers):
        tgds = sharded_ontology(3, 2)
        omq = OMQ.with_full_data_schema(tgds, parse_ucq("q(x) :- R0_1(x, y)"))
        db = sharded_database(3, 8, 20, seed=4)
        planned = certain_answers(omq, db, parallelism=workers, plan="auto")
        unplanned = certain_answers(omq, db, parallelism=workers, plan=None)
        assert planned.answers == unplanned.answers
        assert planned.complete and unplanned.complete

    @pytest.mark.parametrize("workers", WORKERS)
    def test_employment_parity_at_all_worker_counts(self, workers):
        tgds = employment_ontology()
        omq = OMQ.with_full_data_schema(tgds, parse_ucq("q(x) :- Person(x)"))
        db = employment_database(25, 2, seed=9)
        planned = certain_answers(omq, db, parallelism=workers, plan="auto")
        unplanned = certain_answers(omq, db, parallelism=workers, plan=None)
        assert planned.answers == unplanned.answers


class TestProbeRegression:
    def test_long_body_probe_drop_is_at_least_2x(self):
        """The acceptance bar: ≥ 2× fewer index probes on a clique body."""
        db = random_binary_database(10, 60, preds=("E",), seed=13)
        query = clique_cq(4)
        dynamic, planned = EvalStats(), EvalStats()
        baseline = hom_multiset(
            find_homomorphisms(query.atoms, db, stats=dynamic)
        )
        optimised = hom_multiset(
            find_homomorphisms(query.atoms, db, stats=planned, plan="auto")
        )
        assert baseline == optimised
        assert planned.index_probes * 2 <= dynamic.index_probes
        assert planned.plan_probes_saved > 0

    @pytest.mark.parametrize(
        "query", [path_cq(6, boolean=False), cycle_cq(5)], ids=["path6", "cycle5"]
    )
    def test_planned_probe_overhead_is_bounded(self, query):
        """Plans probe O(1) per node vs O(m) dynamic, but the static order
        can expand somewhat more nodes on symmetric bodies (cycles); the
        total probe count must stay within a small factor either way."""
        db = random_binary_database(9, 40, preds=("E",), seed=21)
        dynamic, planned = EvalStats(), EvalStats()
        base = hom_multiset(find_homomorphisms(query.atoms, db, stats=dynamic))
        opt = hom_multiset(
            find_homomorphisms(query.atoms, db, stats=planned, plan="auto")
        )
        assert base == opt
        assert planned.index_probes <= dynamic.index_probes * 1.2
        assert planned.plan_probes_saved > 0
