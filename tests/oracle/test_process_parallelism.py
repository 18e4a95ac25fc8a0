"""Bit-identity oracle for the deprecated ``ProcessPool`` marker.

``chase(..., parallelism=ProcessPool(n))`` is accepted for one release,
warns, and runs the serial trigger search.  Everything observable must
therefore be *bit-identical* to the serial run — same atoms with the same
null idents, same levels, same counters, same trips — which this module
asserts directly (null-counter pinned, so fingerprints compare raw atom
strings, not isomorphism classes).
"""

import pytest

from repro.chase import chase, resume_chase
from repro.datamodel import EvalStats
from repro.governance import Budget
from repro.options import ProcessPool

from tests.chaos import driver

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

POOLS = (ProcessPool(2), ProcessPool(4))


def _serial_run():
    db, tgds = driver.chase_scenario()
    driver.pin_nulls()
    stats = EvalStats()
    result = chase(db, tgds, stats=stats, parallel_threshold=0)
    return result, stats


class TestProcessEqualsSerial:
    @pytest.mark.parametrize("pool", POOLS)
    def test_bit_identical_instances_and_counters(self, pool):
        serial, serial_stats = _serial_run()
        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        stats = EvalStats()
        parallel = chase(
            db, tgds, stats=stats, parallelism=pool, parallel_threshold=0
        )
        assert parallel.parallelism_kind == "serial"
        assert parallel.parallelism == 1
        assert driver.chase_fingerprint(parallel) == driver.chase_fingerprint(
            serial
        )
        assert driver.stats_fingerprint(stats) == driver.stats_fingerprint(
            serial_stats
        )
        assert stats.parallel_levels == 0
        assert stats.shards_dispatched == 0
        assert stats.worker_retries == 0

    @pytest.mark.parametrize("pool", POOLS)
    def test_naive_strategy_agrees_too(self, pool):
        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        serial = chase(db, tgds, strategy="naive")
        driver.pin_nulls()
        parallel = chase(
            db, tgds, strategy="naive", parallelism=pool, parallel_threshold=0
        )
        assert driver.chase_fingerprint(parallel) == driver.chase_fingerprint(
            serial
        )

    def test_certain_answers_agree(self):
        from repro.omq import OMQ, certain_answers
        from repro.queries import parse_ucq

        db, tgds = driver.chase_scenario()
        omq = OMQ.with_full_data_schema(list(tgds), parse_ucq("q(x) :- S(x)"))
        serial = certain_answers(omq, db)
        parallel = certain_answers(omq, db, parallelism=ProcessPool(2))
        assert parallel.answers == serial.answers
        assert parallel.complete and serial.complete


class TestGovernedProcessChase:
    """Trips and resumes under the marker land exactly as serial ones do."""

    @pytest.mark.parametrize("pool", POOLS)
    def test_step_budget_trips_deterministically(self, pool):
        db, tgds = driver.chase_scenario()
        runs = []
        for _ in range(2):
            driver.pin_nulls()
            result = chase(
                db,
                tgds,
                budget=Budget(max_steps=40),
                parallelism=pool,
                parallel_threshold=0,
            )
            assert result.trip == "step budget"
            runs.append(driver.chase_fingerprint(result))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("pool", (None, ProcessPool(2), ProcessPool(4)))
    def test_resume_equals_oracle(self, pool):
        """resume(trip(run)) ≡ uninterrupted run, with or without a marker."""
        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        oracle = driver.chase_fingerprint(
            chase(db, tgds, parallelism=pool, parallel_threshold=0)
        )
        driver.pin_nulls()
        budget = Budget(max_steps=40)
        tripped = chase(
            db, tgds, budget=budget, parallelism=pool, parallel_threshold=0
        )
        assert tripped.checkpoint is not None
        # Resume under the *same* parallelism and after a JSON round-trip.
        for ckpt in (tripped.checkpoint, driver.roundtrip(tripped.checkpoint)):
            resumed = resume_chase(ckpt, budget=Budget(), parallelism=pool)
            assert driver.chase_fingerprint(resumed) == oracle

    def test_resume_across_kinds_is_identical(self):
        """A checkpoint from a marked run records no parallelism and
        resumes to the serial oracle."""
        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        oracle = driver.chase_fingerprint(chase(db, tgds))
        driver.pin_nulls()
        tripped = chase(
            db,
            tgds,
            budget=Budget(max_steps=40),
            parallelism=ProcessPool(2),
            parallel_threshold=0,
        )
        config = tripped.checkpoint.config
        assert "parallelism" not in config
        assert "parallel_threshold" not in config
        resumed = resume_chase(
            driver.roundtrip(tripped.checkpoint), budget=Budget(),
            parallelism=None,
        )
        assert driver.chase_fingerprint(resumed) == oracle
