"""Property-based tests (hypothesis) for the interned fact store.

**Checkpoint back-compat**: a pre-v2 checkpoint JSON (bare-int
``config["parallelism"]`` meaning threads), and a v2 one recording a
thread or process pool, still loads, resumes serially, and reproduces the
uninterrupted run bit-for-bit.

The :class:`~repro.datamodel.Instance` contract is checked against a
reference model (an insertion-ordered list plus a set) over random add /
discard / re-add sequences, together with the order its derived
instances keep and the store's memory per fact.
"""

import gc
import json
import random
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.chase import chase, resume_chase
from repro.datamodel import Atom, Instance, Variable
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

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_pool_checkpoint_resumes_serially(self, kind):
        # What a ThreadPool(4) or ProcessPool(4) run checkpointed (the
        # format-1 shim decodes a bare int to the thread form): the resume
        # runs serially, warns nothing, and still reaches the
        # uninterrupted oracle.
        import warnings

        db, tgds = driver.chase_scenario()
        driver.pin_nulls()
        oracle = driver.chase_fingerprint(chase(db, tgds))

        payload = checkpoint_to_json_dict(self._tripped_checkpoint())
        payload["config"]["parallelism"] = {"kind": kind, "workers": 4}
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
        from repro.governance.checkpoint import CheckpointError

        ckpt = self._tripped_checkpoint()
        payload = checkpoint_to_json_dict(ckpt)
        payload["version"] = CHECKPOINT_FORMAT_VERSION + 1
        with pytest.raises(CheckpointError):
            checkpoint_from_json_dict(payload)


# ---------------------------------------------------------------------------
# The Instance contract against a reference model
# ---------------------------------------------------------------------------
MODEL_PREDS = ("R", "S")
MODEL_VALUES = ("a", "b", "c", 1)
model_atoms = st.builds(
    Atom,
    st.sampled_from(MODEL_PREDS),
    # Arity 0–3 under one predicate name: mixed arity is accepted.
    st.lists(st.sampled_from(MODEL_VALUES), max_size=3).map(tuple),
)
model_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "discard", "drop_held", "readd"]),
        st.integers(min_value=0, max_value=1),  # which of the two instances
        model_atoms,
        st.integers(min_value=0, max_value=1_000),  # which held atom to drop
    ),
    max_size=40,
)


class _Reference:
    """An instance as the paper defines it: a set, here with its order."""

    def __init__(self) -> None:
        self.order: list[Atom] = []
        self.members: set[Atom] = set()

    def add(self, atom: Atom) -> bool:
        if atom in self.members:
            return False
        self.order.append(atom)
        self.members.add(atom)
        return True

    def discard(self, atom: Atom) -> bool:
        if atom not in self.members:
            return False
        self.order.remove(atom)
        self.members.discard(atom)
        return True


def _check_against(instance: Instance, ref: _Reference) -> None:
    X = Variable("x")
    free = (Variable("u"), Variable("v"), Variable("w"))
    assert len(instance) == len(ref.members)
    assert list(instance) == ref.order
    assert instance.atoms() == frozenset(ref.members)
    for pred in MODEL_PREDS:
        of_pred = [a for a in ref.order if a.pred == pred]
        assert instance.atoms_with_pred(pred) == set(of_pred)
        unbound = instance.candidates(Atom(pred, free), {})
        assert len(unbound) == len(of_pred)
        assert list(unbound) == of_pred
        for pos in range(4):
            # X at *pos*, bound to each value in turn: one posting list.
            pattern = Atom(pred, free[:pos] + (X,))
            for value in MODEL_VALUES + ("unseen",):
                holding = [
                    a for a in of_pred if pos < a.arity and a.args[pos] == value
                ]
                assert instance.atoms_matching(pred, pos, value) == set(holding)
                found = instance.candidates(pattern, {X: value})
                assert len(found) == len(holding)
                assert list(found) == holding
    occurrences = Counter(t for a in ref.order for t in a.args)
    assert instance.dom() == set(occurrences)
    assert instance.isolated_constants() == {
        t for t, n in occurrences.items() if n == 1
    }
    assert instance == Instance(ref.order, pool=instance.pool)


class TestInstanceModel:
    @SETTINGS
    @given(model_ops)
    def test_random_mutations_match_the_reference(self, ops):
        pool = InternPool()  # shared: pred/term ids exist the other lacks
        instances = (Instance(pool=pool), Instance(pool=pool))
        refs = (_Reference(), _Reference())
        dropped: list[tuple[int, Atom]] = []
        for kind, which, atom, pick in ops:
            instance, ref = instances[which], refs[which]
            if kind == "drop_held" and ref.order:
                atom = ref.order[pick % len(ref.order)]
            if kind == "readd" and dropped:
                which, atom = dropped.pop()
                instance, ref = instances[which], refs[which]
            if kind in ("add", "readd"):
                assert instance.add(atom) == ref.add(atom)
            else:
                removed = instance.discard(atom)
                assert removed == ref.discard(atom)
                if removed:
                    dropped.append((which, atom))
            _check_against(instance, ref)
        for instance, ref in zip(instances, refs):
            _check_against(instance, ref)
        assert (instances[0] == instances[1]) == (refs[0].members == refs[1].members)


class TestDerivedOrder:
    """copy/restrict/union keep the insertion order, not a hash order."""

    ATOMS = [
        Atom("EF"[i % 2], (f"n{i}", f"n{(7 * i) % 12}")) for i in range(12)
    ]

    def test_copy_keeps_insertion_order(self):
        db = Instance(reversed(self.ATOMS))
        assert list(db.copy()) == list(db)

    def test_restrict_keeps_insertion_order(self):
        db = Instance(reversed(self.ATOMS))
        keep = {f"n{i}" for i in range(0, 12, 2)}
        expected = [a for a in db if keep.issuperset(a.args)]
        assert list(db.restrict(keep)) == expected
        expected = [a for a in db if a.pred == "E"]
        assert list(db.restrict_preds(["E"])) == expected

    def test_union_appends_the_other_in_its_order(self):
        left = Instance(self.ATOMS[:8][::-1])
        right = Instance(self.ATOMS[4:][::-1])
        merged = left.union(right)
        assert list(merged) == list(left) + [a for a in right if a not in left]


def test_bytes_per_fact():
    """20,000 binary facts cost at most half of the row-table layout's 413 B.

    The pool is interned and the atoms are built (and hashed) beforehand,
    so the figure is the store's own containers: the atom dict, the id-tuple
    map, the postings and the domain counts.
    """
    rng = random.Random(0)
    values = [f"c{i}" for i in range(3_000)]
    pool = InternPool()
    pool.intern_pred("E")
    for value in values:
        pool.intern(value)
    atoms: dict[Atom, None] = {}
    while len(atoms) < 20_000:
        atoms[Atom("E", (rng.choice(values), rng.choice(values)))] = None
    facts = list(atoms)
    del atoms
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instance = Instance(facts, pool=pool)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(instance) == len(facts)
    assert used / len(facts) <= 206, f"{used / len(facts):.0f} B per fact"
