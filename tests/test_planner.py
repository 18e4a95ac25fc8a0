"""Unit tests for the join-plan compiler (datamodel/planner.py)."""

import pytest

from repro.datamodel import (
    ADAPTIVE_THRESHOLD,
    Atom,
    EvalStats,
    Instance,
    JoinPlan,
    Variable,
    compile_plan,
    estimate_candidates,
    find_homomorphisms,
    instance_stats,
    plan_for,
)
from repro.queries import parse_atoms, parse_cq, parse_database

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def skewed_instance() -> Instance:
    """Big(·,·) has 60 facts, Small(·) has 2 — selectivity is unambiguous."""
    instance = Instance()
    for i in range(60):
        instance.add(Atom("Big", (f"a{i % 12}", f"b{i}")))
    instance.add(Atom("Small", ("a0",)))
    instance.add(Atom("Small", ("a5",)))
    return instance


class TestInstanceStats:
    def test_one_pass_counts(self):
        stats = instance_stats(skewed_instance())
        assert stats.pred_counts == {"Big": 60, "Small": 2}
        assert stats.distinct[("Big", 0)] == 12
        assert stats.distinct[("Big", 1)] == 60
        assert stats.distinct[("Small", 0)] == 2

    def test_cached_until_mutation(self):
        instance = skewed_instance()
        first = instance_stats(instance)
        assert instance_stats(instance) is first
        instance.add(Atom("Small", ("a7",)))
        second = instance_stats(instance)
        assert second is not first
        assert second.pred_counts["Small"] == 3

    def test_discard_also_invalidates(self):
        instance = skewed_instance()
        first = instance_stats(instance)
        instance.discard(Atom("Small", ("a0",)))
        assert instance_stats(instance) is not first

    def test_noop_add_keeps_cache(self):
        instance = skewed_instance()
        first = instance_stats(instance)
        instance.add(Atom("Small", ("a0",)))  # already present
        assert instance_stats(instance) is first

    def test_counts_equal_a_brute_force_count_after_discards(self):
        instance = skewed_instance()
        for i in range(6):
            short = tuple(f"m{j % 3}" for j in range(i % 4))  # arity 0–3
            instance.add(Atom("Mixed", short))
            instance.add(Atom("Mixed", (f"x{i}", "y", f"z{i % 2}", "w")))
        instance.add(Atom("Gone", ("g",)))
        # Discarding the only wide fact leaves positions no live fact reaches.
        instance.add(Atom("Wide", ("p",)))
        instance.add(Atom("Wide", ("p", "q", "r")))
        for atom in [
            Atom("Gone", ("g",)),
            Atom("Wide", ("p", "q", "r")),
            Atom("Big", ("a0", "b0")),
            Atom("Big", ("a0", "b12")),
            Atom("Mixed", ("x1", "y", "z1", "w")),
            Atom("Mixed", ("x3", "y", "z1", "w")),
            Atom("Mixed", ("x5", "y", "z1", "w")),
        ]:
            assert instance.discard(atom)

        pred_counts: dict[str, int] = {}
        values: dict[tuple[str, int], set] = {}
        for atom in instance:
            pred_counts[atom.pred] = pred_counts.get(atom.pred, 0) + 1
            for pos, value in enumerate(atom.args):
                values.setdefault((atom.pred, pos), set()).add(value)
        stats = instance_stats(instance)
        assert stats.pred_counts == pred_counts
        assert stats.distinct == {key: len(seen) for key, seen in values.items()}


class TestEstimates:
    def test_unbound_atom_scans_the_predicate(self):
        stats = instance_stats(skewed_instance())
        assert estimate_candidates(Atom("Big", (X, Y)), (), stats) == 60.0

    def test_bound_position_divides_by_distinct(self):
        stats = instance_stats(skewed_instance())
        assert estimate_candidates(Atom("Big", (X, Y)), (X,), stats) == 5.0
        assert estimate_candidates(Atom("Big", (X, Y)), (Y,), stats) == 1.0

    def test_missing_predicate_estimates_zero(self):
        stats = instance_stats(skewed_instance())
        assert estimate_candidates(Atom("Nope", (X,)), (), stats) == 0.0


class TestCompile:
    def test_selective_atom_first_then_propagation(self):
        instance = skewed_instance()
        atoms = tuple(parse_cq("q(y) :- Big(x, y), Small(x)").atoms)
        plan = compile_plan(atoms, instance)
        # Small (2 facts) leads; Big follows with x bound (estimate 5).
        assert plan.order == (1, 0)
        assert plan.estimates == (2.0, 5.0)
        assert plan.estimated_cost() == 7.0

    def test_plan_records_the_instance_version(self):
        instance = skewed_instance()
        atoms = tuple(parse_atoms("Big(x, y)"))
        assert compile_plan(atoms, instance).version == instance.version

    def test_validate_rejects_a_different_body(self):
        instance = skewed_instance()
        plan = compile_plan(tuple(parse_atoms("Big(x, y)")), instance)
        with pytest.raises(ValueError):
            plan.validate(tuple(parse_atoms("Small(x)")))

    def test_rank_inverts_order(self):
        plan = JoinPlan(
            atoms=(), order=(2, 0, 1), bound=frozenset(), estimates=()
        )
        assert plan.rank() == {2: 0, 0: 1, 1: 2}


class TestPlanCache:
    def test_second_call_hits(self):
        instance = skewed_instance()
        atoms = tuple(parse_atoms("Big(x, y), Small(x)"))
        counters = EvalStats()
        first = plan_for(atoms, instance, stats=counters)
        again = plan_for(atoms, instance, stats=counters)
        assert again is first
        assert counters.plans_compiled == 1
        assert counters.plan_cache_hits == 1

    def test_racing_first_build_keeps_the_other_threads_plans(
        self, monkeypatch
    ):
        # The first statistics build runs a nested plan_for of a second
        # body — standing in for another thread that first touches the
        # same instance while this build is in flight.  Its compiled plan
        # must survive this build's publish.
        from repro.datamodel.planner import InstanceStats

        instance = skewed_instance()
        outer = tuple(parse_atoms("Big(x, y), Small(x)"))
        racer = tuple(parse_atoms("Big(x, y)"))
        counters = EvalStats()
        real_build = InstanceStats.build.__func__
        raced = []

        def build(cls, target):
            if not raced:
                raced.append(None)  # the nested call builds for real
                raced[0] = plan_for(racer, target, stats=counters)
            return real_build(cls, target)

        monkeypatch.setattr(InstanceStats, "build", classmethod(build))
        plan_for(outer, instance, stats=counters)
        assert plan_for(racer, instance, stats=counters) is raced[0]
        assert counters.plans_compiled == 2
        assert counters.plan_cache_hits == 1

    def test_mutation_drops_the_cache(self):
        instance = skewed_instance()
        atoms = tuple(parse_atoms("Big(x, y)"))
        first = plan_for(atoms, instance)
        instance.add(Atom("Big", ("fresh", "fresh")))
        assert plan_for(atoms, instance) is not first

    def test_bound_set_is_part_of_the_key(self):
        instance = skewed_instance()
        atoms = tuple(parse_atoms("Big(x, y), Small(x)"))
        free = plan_for(atoms, instance)
        seeded = plan_for(atoms, instance, bound=(Y,))
        assert seeded is not free
        # With y pre-bound, Big's estimate (1.0) undercuts Small's (2.0).
        assert seeded.order == (0, 1)


class TestSearchIntegration:
    def test_auto_plan_populates_counters(self):
        db = parse_database("E(a, b)\nE(b, c)\nE(c, d)\nP(a)\nP(b)")
        query = parse_cq("q(x) :- E(x, y), E(y, z), P(x)")
        counters = EvalStats()
        rows = list(
            find_homomorphisms(query.atoms, db, stats=counters, plan="auto")
        )
        assert rows  # a → b → c with P(a)
        assert counters.plans_compiled == 1
        assert counters.plan_probes_saved > 0

    def test_explicit_plan_equals_dynamic(self):
        db = parse_database("E(a, b)\nE(b, c)\nE(c, a)\nP(a)")
        query = parse_cq("q(x, z) :- E(x, y), E(y, z), P(x)")
        plan = compile_plan(tuple(query.atoms), db)
        dynamic = {
            frozenset(h.items())
            for h in find_homomorphisms(query.atoms, db)
        }
        planned = {
            frozenset(h.items())
            for h in find_homomorphisms(query.atoms, db, plan=plan)
        }
        assert dynamic == planned

    def test_threshold_fallback_fires_and_stays_correct(self):
        instance = Instance()
        for i in range(200):
            instance.add(Atom("E", (f"u{i}", f"v{i}")))
        instance.add(Atom("P", ("u0",)))
        query = parse_cq("q(x) :- E(x, y), P(x)")
        # Force the planned atom over the threshold: plan E first.
        plan = JoinPlan(
            atoms=tuple(query.atoms),
            order=(0, 1),
            bound=frozenset(),
            estimates=(200.0, 1.0),
            threshold=ADAPTIVE_THRESHOLD,
        )
        counters = EvalStats()
        rows = list(
            find_homomorphisms(
                query.atoms, instance, stats=counters, plan=plan
            )
        )
        assert len(rows) == 1
        assert counters.plan_fallbacks > 0
