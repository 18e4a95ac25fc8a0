"""Property-based tests (hypothesis) for the interned fact store.

The process-parallel chase's correctness leans on three serialisation
invariants, each checked here as a property over random term mixes:

* **snapshot/restore identity** — an :class:`InternPool` restored from its
  snapshot assigns every term and predicate the *same* dense id;
* **delta composition** — applying ``delta_since`` payloads in watermark
  order reconstructs exactly the full snapshot (the per-level worker sync
  is lossless);
* **checkpoint back-compat** — a pre-v2 checkpoint JSON (bare-int
  ``config["parallelism"]`` meaning threads) still loads, resumes, and
  reproduces the uninterrupted run bit-for-bit.
"""

import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.chase import chase, resume_chase
from repro.datamodel import Null, Variable
from repro.datamodel.interning import InternPool
from repro.datamodel.io import (
    checkpoint_from_json_dict,
    checkpoint_to_json_dict,
)
from repro.governance import Budget
from repro.governance.checkpoint import CHECKPOINT_FORMAT_VERSION

from tests.chaos import driver

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ---------------------------------------------------------------------------
# Strategies: the three term shapes the codec must round-trip
# ---------------------------------------------------------------------------
constants = st.text(
    alphabet="abcdefgxyz0123456789_", min_size=1, max_size=8
)
nulls = st.builds(
    Null,
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["", "n", "w"]),
)
variables = st.builds(Variable, st.sampled_from(["x", "y", "z", "u", "v"]))
terms = st.one_of(constants, nulls, variables)
predicates = st.sampled_from(["R", "S", "T", "Emp", "WorksFor", "P0", "Q_1"])


class TestInternRoundTrip:
    @SETTINGS
    @given(st.lists(terms, max_size=30), st.lists(predicates, max_size=10))
    def test_snapshot_restore_preserves_every_id(self, term_list, pred_list):
        pool = InternPool()
        ids = [pool.intern(t) for t in term_list]
        pred_ids = [pool.intern_pred(p) for p in pred_list]

        restored = InternPool.restore(pool.snapshot())
        assert len(restored) == len(pool)
        assert restored.pred_count() == pool.pred_count()
        for term, ident in zip(term_list, ids):
            assert restored.id_of(term) == ident
            assert restored.term_of(ident) == term
        for pred, ident in zip(pred_list, pred_ids):
            assert restored.pred_id_of(pred) == ident
            assert restored.pred_of(ident) == pred

    @SETTINGS
    @given(st.lists(terms, max_size=30), st.lists(predicates, max_size=10))
    def test_snapshot_is_pure_json(self, term_list, pred_list):
        pool = InternPool()
        for t in term_list:
            pool.intern(t)
        for p in pred_list:
            pool.intern_pred(p)
        wire = json.dumps(pool.snapshot(), sort_keys=True)
        restored = InternPool.restore(json.loads(wire))
        assert restored.snapshot() == pool.snapshot()

    @SETTINGS
    @given(
        st.lists(terms, min_size=1, max_size=30, unique=True),
        st.integers(min_value=0, max_value=29),
    )
    def test_delta_composition_equals_snapshot(self, term_list, cut):
        """snapshot == delta(0) ++ delta(watermark): the per-level sync."""
        cut = min(cut, len(term_list))
        pool = InternPool()
        for t in term_list[:cut]:
            pool.intern(t)
        marks = pool.watermarks()
        for t in term_list[cut:]:
            pool.intern(t)

        # A follower synced at `marks` catches up with one delta and then
        # holds exactly the coordinator's tables, id-for-id.
        follower = InternPool()
        for t in term_list[:cut]:
            follower.intern(t)
        follower.apply_delta(pool.delta_since(*marks))
        assert follower.snapshot() == pool.snapshot()
        assert follower.watermarks() == pool.watermarks()

    @SETTINGS
    @given(st.lists(terms, max_size=15))
    def test_unserialisable_entries_become_aligned_placeholders(
        self, term_list
    ):
        """Exotic interned objects don't break the wire snapshot: they
        ship as opaque placeholders at the same ids, so every codable
        term keeps its id on the restored side."""
        from repro.datamodel.io import OpaqueTerm

        class Exotic:
            pass

        pool = InternPool()
        exotic_id = pool.intern(Exotic())
        ids = [pool.intern(t) for t in term_list]

        restored = InternPool.restore(pool.snapshot())
        assert len(restored) == len(pool)
        placeholder = restored.term_of(exotic_id)
        assert isinstance(placeholder, OpaqueTerm)
        assert placeholder.ident == exotic_id
        for term, ident in zip(term_list, ids):
            assert restored.id_of(term) == ident

    @SETTINGS
    @given(st.lists(terms, min_size=1, max_size=20, unique=True))
    def test_out_of_order_delta_is_refused(self, term_list):
        pool = InternPool()
        for t in term_list:
            pool.intern(t)
        stale = pool.delta_since(0, 0)
        follower = InternPool.restore(pool.snapshot())
        try:
            follower.apply_delta(stale)
        except ValueError:
            pass  # expected: watermark mismatch
        else:
            assert len(term_list) == 0  # only an empty delta may re-apply


# ---------------------------------------------------------------------------
# Checkpoint format back-compat: v1 payloads (bare-int parallelism) load
# ---------------------------------------------------------------------------
def _downgrade_to_v1(payload: dict, threads: int) -> dict:
    """What a pre-PR writer produced: version 1, int-valued parallelism."""
    old = json.loads(json.dumps(payload))  # deep copy through the wire
    old["version"] = 1
    old.setdefault("config", {})["parallelism"] = threads
    return old


class TestCheckpointBackCompat:
    def _tripped_checkpoint(self):
        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        budget = Budget()
        budget.inject(5, site="trigger-fire")
        result = chase(db, tgds, budget=budget)
        assert result.checkpoint is not None
        return result.checkpoint

    def test_v1_int_parallelism_is_shimmed(self):
        ckpt = self._tripped_checkpoint()
        old = _downgrade_to_v1(checkpoint_to_json_dict(ckpt), threads=4)
        loaded = checkpoint_from_json_dict(old)
        assert loaded.config["parallelism"] == {"kind": "thread", "workers": 4}

    def test_v1_serial_parallelism_is_shimmed(self):
        ckpt = self._tripped_checkpoint()
        old = _downgrade_to_v1(checkpoint_to_json_dict(ckpt), threads=1)
        loaded = checkpoint_from_json_dict(old)
        assert loaded.config["parallelism"] == {"kind": "serial", "workers": 1}

    def test_v1_checkpoint_resumes_to_oracle(self):
        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        oracle = driver.chase_fingerprint(chase(db, tgds))

        ckpt = self._tripped_checkpoint()
        old = _downgrade_to_v1(checkpoint_to_json_dict(ckpt), threads=2)
        resumed = resume_chase(checkpoint_from_json_dict(old), budget=Budget())
        assert driver.chase_fingerprint(resumed) == oracle

    def test_thread_checkpoint_resumes_serially(self):
        # What a ThreadPool(4) run checkpointed (and what the format-1 shim
        # decodes a bare int to): the resume runs serially, warns nothing,
        # and still reaches the uninterrupted oracle.
        import warnings

        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        oracle = driver.chase_fingerprint(chase(db, tgds))

        payload = checkpoint_to_json_dict(self._tripped_checkpoint())
        payload["config"]["parallelism"] = {"kind": "thread", "workers": 4}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            resumed = resume_chase(
                checkpoint_from_json_dict(payload), budget=Budget()
            )
        assert resumed.parallelism_kind == "serial"
        assert resumed.parallelism == 1
        assert driver.chase_fingerprint(resumed) == oracle

    def test_current_version_round_trips(self):
        ckpt = self._tripped_checkpoint()
        payload = checkpoint_to_json_dict(ckpt)
        assert payload["version"] == CHECKPOINT_FORMAT_VERSION == 2
        loaded = checkpoint_from_json_dict(payload)
        assert loaded.config == ckpt.config

    def test_newer_version_is_refused(self):
        import pytest

        from repro.governance.checkpoint import CheckpointError

        ckpt = self._tripped_checkpoint()
        payload = checkpoint_to_json_dict(ckpt)
        payload["version"] = CHECKPOINT_FORMAT_VERSION + 1
        with pytest.raises(CheckpointError):
            checkpoint_from_json_dict(payload)
