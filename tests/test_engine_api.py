"""The unified Engine surface and the uniform kwargs/result protocol.

``repro.Engine`` must agree with the module-level functions it wraps, the
v1 deprecation policy must hold (``chase_strategy=`` is gone — a
``TypeError`` — bare-int ``parallelism`` warns for one release, and a
``ThreadPool`` marker warns and runs serially), and
every evaluation entry point / result type must speak the uniform
protocol: ``budget=``/``stats=`` kwargs in, ``.complete`` / ``.trip`` /
``.stats`` out.
"""

import pytest

from repro import (
    Budget,
    ChaseCache,
    Engine,
    EvalOptions,
    OMQ,
    ProcessPool,
    ThreadPool,
    certain_answers,
    chase,
    extend_chase,
)
from repro.benchgen import employment_database, employment_ontology
from repro.cqs import (
    contained_under,
    equivalent_under,
    is_minimal_under_constraints,
    minimize_under_constraints,
)
from repro.datamodel import EvalStats, is_isomorphic
from repro.governance import BudgetExceeded
from repro.queries import evaluate, holds, is_answer, parse_cq, parse_database, parse_ucq
from repro.tgds import parse_tgds


@pytest.fixture()
def workload():
    tgds = employment_ontology()
    db = employment_database(25, 3, seed=5)
    return tgds, db


QUERY = parse_ucq("q(x) :- Person(x)")


class TestEngineParity:
    def test_chase_matches_free_function(self, workload):
        tgds, db = workload
        engine = Engine(tgds)
        mine = engine.chase(db)
        free = chase(db, tgds)
        # Null names are globally fresh per run, so compare up to renaming.
        assert len(mine.instance) == len(free.instance)
        assert mine.ground_part().atoms() == free.ground_part().atoms()
        assert is_isomorphic(mine.instance, free.instance)

    def test_certain_answers_matches_free_function(self, workload):
        tgds, db = workload
        engine = Engine(tgds)
        omq = OMQ.with_full_data_schema(tgds, QUERY)
        assert engine.certain_answers(QUERY, db).answers == certain_answers(
            omq, db
        ).answers

    def test_accepts_full_omq_and_bare_cq(self, workload):
        tgds, db = workload
        engine = Engine(tgds)
        omq = OMQ.with_full_data_schema(list(tgds), QUERY)
        via_omq = engine.certain_answers(omq, db).answers
        via_cq = engine.certain_answers(parse_cq("q(x) :- Person(x)"), db).answers
        assert via_omq == via_cq

    def test_rejects_omq_with_foreign_tgds(self, workload):
        tgds, db = workload
        engine = Engine(tgds[:-1])
        omq = OMQ.with_full_data_schema(list(tgds), QUERY)
        with pytest.raises(ValueError):
            engine.certain_answers(omq, db)

    def test_evaluate_is_closed_world(self, workload):
        tgds, db = workload
        engine = Engine(tgds)
        answer = engine.evaluate(QUERY, db)
        # Closed world: Person holds only where D says so (it never does —
        # Person is ontology-derived), unlike the open-world reading.
        assert answer.answers == evaluate(QUERY, db)
        assert answer.strategy == "closed-world"
        assert answer.complete and answer.trip is None


class TestEngineGovernance:
    def test_dict_budget_is_per_call(self, workload):
        tgds, db = workload
        engine = Engine(tgds, budget={"max_steps": 100_000}, cache=False)
        first = engine.certain_answers(QUERY, db)
        second = engine.certain_answers(QUERY, db)
        # A fresh allowance per call: neither trips.
        assert first.complete and second.complete

    def test_shared_budget_instance_is_drained(self, workload):
        tgds, db = workload
        shared = Budget(max_steps=150)
        engine = Engine(tgds, budget=shared, cache=False)
        engine.certain_answers(QUERY, db)
        answer = engine.certain_answers(QUERY, db)
        assert answer.trip == "step budget"
        assert not answer.complete

    def test_evaluate_trip_protocol(self, workload):
        _, db = workload
        engine = Engine([], budget={"max_steps": 1})
        answer = engine.evaluate(parse_ucq("q(x) :- Emp(x)"), db)
        assert not answer.complete
        assert answer.trip == "step budget"
        assert answer.trip_reason == answer.trip


class TestDeprecations:
    def test_chase_strategy_is_gone(self, workload):
        """The one-release shim was removed: the old kwarg is a TypeError."""
        tgds, db = workload
        omq = OMQ.with_full_data_schema(tgds, QUERY)
        with pytest.raises(TypeError):
            certain_answers(omq, db, chase_strategy="naive")

    def test_trigger_strategy_does_not_warn(self, workload):
        import warnings

        tgds, db = workload
        omq = OMQ.with_full_data_schema(tgds, QUERY)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            certain_answers(omq, db, trigger_strategy="delta")

    def test_bare_int_parallelism_warns_and_means_processes(self, workload):
        tgds, db = workload
        with pytest.warns(DeprecationWarning, match="ProcessPool"):
            result = chase(db, tgds, parallelism=2)
        assert result.parallelism_kind == "process"
        oracle = chase(db, tgds)
        assert len(result.instance) == len(oracle.instance)

    def test_thread_pool_warns_and_runs_serially(self, workload):
        tgds, db = workload
        oracle = chase(db, tgds)
        with pytest.warns(DeprecationWarning, match="ThreadPool"):
            direct = chase(db, tgds, parallelism=ThreadPool(2))
        with pytest.warns(DeprecationWarning, match="ThreadPool"):
            opts = EvalOptions(parallelism=ThreadPool(4))
        with pytest.warns(DeprecationWarning, match="ThreadPool"):
            via_engine = Engine(tgds, options=opts).chase(db)
        for result in (direct, via_engine):
            assert result.parallelism_kind == "serial"
            assert result.parallelism == 1
            assert result.stats.parallel_levels == 0
            # Null names are globally fresh per run: compare up to renaming.
            assert result.fired == oracle.fired
            assert result.ground_part().atoms() == oracle.ground_part().atoms()
            assert is_isomorphic(result.instance, oracle.instance)

    def test_warnings_name_the_callers_line(self, workload):
        """The default filters show a DeprecationWarning only when it is
        attributed outside the package, so each path must point here."""
        import warnings

        tgds, db = workload
        calls = {
            "EvalOptions(ThreadPool)": lambda: EvalOptions(
                parallelism=ThreadPool(2)
            ),
            "EvalOptions(int)": lambda: EvalOptions(parallelism=2),
            "Engine.chase": lambda: Engine(
                tgds, parallelism=ThreadPool(2)
            ).chase(db),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            deprecations = [
                w for w in caught if issubclass(w.category, DeprecationWarning)
            ]
            assert deprecations, name
            for w in deprecations:
                assert w.filename == __file__, (name, w.filename)

    def test_markers_do_not_warn(self, workload):
        import warnings

        tgds, db = workload
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert chase(db, tgds, parallelism=None).parallelism_kind == "serial"
            assert (
                chase(db, tgds, parallelism=ProcessPool(2)).parallelism_kind
                == "process"
            )


class TestEvalOptions:
    def test_bundle_supplies_engine_defaults(self, workload):
        tgds, db = workload
        opts = EvalOptions(
            trigger_strategy="naive", plan=None, parallelism=ProcessPool(2)
        )
        engine = Engine(tgds, options=opts)
        assert engine.trigger_strategy == "naive"
        assert engine.plan is None
        assert engine.parallelism == ProcessPool(2)
        assert engine.backend == "chase"
        # Explicit kwargs win over the bundle.
        override = Engine(tgds, options=opts, trigger_strategy="delta")
        assert override.trigger_strategy == "delta"
        assert override.plan is None  # still from the bundle

    def test_bundle_agrees_with_explicit_kwargs(self, workload):
        from repro import evaluate as evaluate_unified

        tgds, db = workload
        omq = OMQ.with_full_data_schema(tgds, QUERY)
        bundled = evaluate_unified(
            omq, db, options=EvalOptions(trigger_strategy="naive")
        )
        explicit = evaluate_unified(omq, db, trigger_strategy="naive")
        assert bundled.answers == explicit.answers

    def test_bundle_validates_eagerly(self):
        with pytest.raises(ValueError):
            EvalOptions(backend="mystery")
        with pytest.raises(ValueError):
            EvalOptions(parallelism=0)
        with pytest.raises(TypeError):
            EvalOptions(parallelism="four")

    def test_replace_revalidates(self):
        opts = EvalOptions()
        assert opts.replace(backend="sql").backend == "sql"
        with pytest.raises(ValueError):
            opts.replace(backend="mystery")


class TestUniformKwargs:
    def test_is_answer_and_holds_take_stats_and_budget(self):
        db = parse_database("Emp(ada)")
        stats = EvalStats()
        assert is_answer(parse_cq("q(x) :- Emp(x)"), db, ("ada",), stats=stats)
        assert stats.homs_found >= 1
        assert holds(parse_cq("q() :- Emp(x)"), db, stats=stats)
        with pytest.raises(BudgetExceeded):
            is_answer(
                parse_cq("q(x) :- Emp(x)"),
                db,
                ("ada",),
                budget=Budget(max_steps=0),
            )

    def test_containment_takes_uniform_kwargs(self):
        tgds = parse_tgds(["E(x, y) -> E(y, x)"])
        p = parse_cq("q() :- E(x, y), E(y, x)")
        q = parse_cq("q() :- E(x, y)")
        stats = EvalStats()
        cache = ChaseCache()
        assert contained_under(
            p, q, tgds, stats=stats, cache=cache, parallelism=ProcessPool(2)
        )
        assert equivalent_under(p, q, tgds, cache=cache)
        assert cache.hits >= 1  # the canonical database of q repeats

    def test_minimization_takes_uniform_kwargs(self):
        tgds = parse_tgds(["E(x, y) -> E(y, x)"])
        q = parse_cq("q() :- E(x, y), E(y, x)")
        minimal = minimize_under_constraints(q, tgds, cache=ChaseCache())
        assert len(minimal.atoms) == 1
        assert is_minimal_under_constraints(
            minimal, tgds, parallelism=ProcessPool(2)
        )


class TestResultProtocol:
    def test_chase_result_protocol(self, workload):
        tgds, db = workload
        done = chase(db, tgds)
        assert done.complete is True
        assert done.trip is None and done.trip_reason is None
        assert isinstance(done.stats, EvalStats)
        cut = chase(db, tgds, budget=Budget(max_steps=5))
        assert cut.complete is False
        assert cut.trip == "step budget" == cut.trip_reason

    def test_omq_answer_protocol(self, workload):
        tgds, db = workload
        omq = OMQ.with_full_data_schema(tgds, QUERY)
        answer = certain_answers(omq, db)
        assert answer.complete is True
        assert answer.trip is None and answer.trip_reason is None
        assert isinstance(answer.stats, EvalStats)

    def test_top_level_exports(self):
        import repro

        for name in (
            "Engine",
            "ChaseCache",
            "ChaseResult",
            "OMQAnswer",
            "chase",
            "extend_chase",
            "certain_answers",
            "Budget",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__


class TestConcurrentStats:
    """The engine is shared across service workers: per-request stats are
    accumulated on private objects and merged under a lock, so concurrent
    evaluations never interleave counter updates."""

    def test_concurrent_evaluate_merges_stats_exactly(self):
        import threading

        tgds = employment_ontology()
        db = employment_database(20, 3, seed=5)
        engine = Engine(tgds, cache=False)  # cache off: every call chases
        query = OMQ.with_full_data_schema(
            list(tgds), parse_ucq("q(x) :- Person(x)")
        )
        per_call = []
        lock = threading.Lock()

        def worker():
            stats = EvalStats()
            answer = engine.certain_answers(query, db, stats=stats)
            with lock:
                per_call.append((answer, stats))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(per_call) == 8
        first = per_call[0][0].answers
        assert all(a.answers == first for a, _ in per_call)
        assert all(a.complete for a, _ in per_call)
        # Deterministic work => identical per-call counters, and the
        # session aggregate is their exact sum (no lost updates).
        base = per_call[0][1].triggers_enumerated
        assert base > 0
        assert all(s.triggers_enumerated == base for _, s in per_call)
        session = engine.session_stats()
        assert session.triggers_enumerated == 8 * base

    def test_shared_caller_stats_object_is_safe(self):
        import threading

        tgds = employment_ontology()
        db = employment_database(12, 2, seed=3)
        engine = Engine(tgds, cache=False)
        shared = EvalStats()
        query = parse_ucq("q(x) :- Person(x)")

        def worker():
            engine.evaluate(query, db, stats=shared)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # The shared object saw every merge; parity with the session view.
        assert shared.index_probes == engine.session_stats().index_probes
        assert shared.homs_found == engine.session_stats().homs_found
