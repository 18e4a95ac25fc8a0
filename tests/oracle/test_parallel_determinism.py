"""Determinism oracle: the deprecated parallelism knob changes nothing.

``chase(..., parallelism=ProcessPool(n))`` (and ``parallel_threshold=``)
is accepted for one release, warns, and runs the serial trigger search,
so it must agree with ``parallelism=None`` *exactly* — not just up to
isomorphism: identical atom sets modulo null renaming, identical level
histograms, identical ground parts, identical certain answers, identical
work counters, on the benchgen workloads below.
(``test_process_parallelism.py`` adds the null-identity checks.)
"""

import threading
from collections import Counter

import pytest

from repro.benchgen import (
    employment_database,
    employment_ontology,
    random_binary_database,
    reversal_constraints,
    sharded_database,
    sharded_ontology,
)
from repro.chase import chase
from repro.datamodel import is_isomorphic
from repro.governance import Budget
from repro.omq import OMQ, certain_answers
from repro.options import ProcessPool
from repro.queries import parse_ucq

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

WORKERS = (None, ProcessPool(2), ProcessPool(4))


def level_histogram(result):
    """(predicate, level) counts — isomorphism-invariant level fingerprint."""
    return Counter((atom.pred, lvl) for atom, lvl in result.levels.items())


def assert_same_instance(serial, parallel):
    """Null-free instances must be *equal*; with nulls, isomorphic."""
    if serial.null_count() == 0:
        assert parallel.instance.atoms() == serial.instance.atoms()
    else:
        assert is_isomorphic(serial.instance, parallel.instance)


def assert_same_chase(serial, parallel):
    assert len(parallel.instance) == len(serial.instance)
    assert parallel.terminated == serial.terminated
    assert parallel.reason == serial.reason
    assert parallel.fired == serial.fired
    assert parallel.max_level == serial.max_level
    assert level_histogram(parallel) == level_histogram(serial)
    assert parallel.ground_part().atoms() == serial.ground_part().atoms()
    assert (
        parallel.stats.triggers_enumerated == serial.stats.triggers_enumerated
    )
    assert parallel.stats.triggers_fired == serial.stats.triggers_fired


WORKLOADS = [
    pytest.param(
        sharded_ontology(4, 3),
        sharded_database(4, 12, 30, seed=7),
        id="sharded-4x3",
    ),
    pytest.param(
        employment_ontology(),
        employment_database(50, 3, seed=50),
        id="employment",
    ),
    pytest.param(
        reversal_constraints(("E", "F")),
        random_binary_database(10, 40, preds=("E", "F"), seed=3),
        id="reversal-random",
    ),
]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("tgds,db", WORKLOADS)
    @pytest.mark.parametrize("workers", WORKERS)
    def test_delta(self, tgds, db, workers):
        serial = chase(db, tgds)
        parallel = chase(db, tgds, parallelism=workers, parallel_threshold=0)
        assert_same_chase(serial, parallel)
        assert parallel.stats.parallel_levels == 0
        assert_same_instance(serial, parallel)

    @pytest.mark.parametrize("tgds,db", WORKLOADS)
    def test_naive(self, tgds, db):
        serial = chase(db, tgds, strategy="naive")
        parallel = chase(
            db, tgds, strategy="naive", parallelism=ProcessPool(2),
            parallel_threshold=0
        )
        assert_same_chase(serial, parallel)
        assert_same_instance(serial, parallel)

    def test_threshold_keeps_small_levels_serial(self):
        tgds = employment_ontology()
        db = employment_database(10, 2, seed=1)
        result = chase(
            db, tgds, parallelism=ProcessPool(4), parallel_threshold=10**9
        )
        assert result.stats.parallel_levels == 0
        assert result.stats.shards_dispatched == 0
        assert_same_chase(chase(db, tgds), result)


class TestCertainAnswersParity:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_sharded_workload(self, workers):
        tgds = sharded_ontology(4, 2)
        omq = OMQ.with_full_data_schema(tgds, parse_ucq("q(x) :- R0_2(x, y)"))
        for seed in (1, 2, 3):
            db = sharded_database(4, 10, 25, seed=seed)
            serial = certain_answers(omq, db)
            parallel = certain_answers(omq, db, parallelism=workers)
            assert parallel.answers == serial.answers
            assert parallel.complete and serial.complete

    @pytest.mark.parametrize("workers", WORKERS)
    def test_employment_workload(self, workers):
        tgds = employment_ontology()
        omq = OMQ.with_full_data_schema(tgds, parse_ucq("q(x) :- Person(x)"))
        for seed in (11, 12):
            db = employment_database(40, 3, seed=seed)
            assert (
                certain_answers(omq, db, parallelism=workers).answers
                == certain_answers(omq, db).answers
            )


class TestGovernedParallel:
    def test_budget_trip_returns_consistent_prefix(self):
        tgds = sharded_ontology(4, 3)
        db = sharded_database(4, 12, 30, seed=7)
        budget = Budget(max_steps=200)
        result = chase(db, tgds, budget=budget)
        assert not result.terminated
        assert result.trip == "step budget"
        # Every atom is database-level or derivable: the prefix re-chases to
        # a superset of itself without ever shrinking.
        replay = chase(result.instance, tgds)
        assert result.instance.atoms() <= replay.instance.atoms()

    def test_cross_thread_cancel(self):
        tgds = sharded_ontology(4, 4)
        db = sharded_database(4, 14, 40, seed=2)
        budget = Budget()
        canceller = threading.Thread(target=budget.cancel, args=("stop now",))
        canceller.start()
        canceller.join(timeout=10)
        assert not canceller.is_alive()
        result = chase(db, tgds, budget=budget)
        assert result.trip == "cancelled"
        assert not result.terminated

    def test_parallelism_validation(self):
        db = employment_database(5, 1)
        with pytest.raises(ValueError):
            chase(db, employment_ontology(), parallelism=0)
        with pytest.raises(ValueError):
            chase(db, employment_ontology(), parallelism=ProcessPool(0))
        with pytest.raises(TypeError):
            chase(db, employment_ontology(), parallelism="four")
