"""E21 — Checkpoint/resume: continuing beats restarting.

Claim: a budget-tripped chase is not lost work — the level-boundary
`ChaseCheckpoint` it carries resumes (even after a JSON round-trip, i.e.
from another process) in the time the *remaining* levels cost, while a
restart pays for the whole chase again.
Measured: on a join-chain workload (``R_i(x,y), S(y,z), T(y,u) →
R_{i+1}(x,z)`` with ``S`` a cycle and ``T`` a FANOUT-wide side relation —
uniform level costs with real three-atom joins whose fan-out makes
trigger *search*, the cost resume skips, dominate the per-atom instance
rebuild resume must repay), wall time of a full restart vs a resume from
a checkpoint taken at ~75% of the firings — the resume leg includes
deserializing the checkpoint from its wire bytes, and both legs run
governed (a fresh ``Budget()``), since a production re-run after a trip
would be governed too.  A final existential rule keeps null replay in
the measured path, and bit-identical final instances are asserted
throughout (the resumed run replays the very same nulls).  Results are
dumped to ``BENCH_resume.json`` in the repo root for the CI trajectory.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from harness import print_table, timed

from repro.chase import chase, resume_chase
from repro.datamodel import Atom, Instance, set_null_counter
from repro.datamodel.io import checkpoint_from_json_dict, checkpoint_to_json_dict
from repro.governance import Budget
from repro.tgds import parse_tgds

#: (chain depth, cycle size, R0 facts) — each level joins every live
#: R_i fact against the S cycle, firing exactly one R_{i+1} per fact, so
#: level costs are uniform and the trip fraction equals the work fraction.
SIZES = ((12, 40, 75), (18, 50, 110), (24, 50, 150))
#: T tuples per cycle node.  All FANOUT candidates of an R_i fact share
#: one frontier image, so only one fires — the fan-out multiplies the
#: *search* cost per firing (what a resume skips) without growing the
#: instance (what a resume must rebuild), the regime of any workload
#: whose joins do real work.
FANOUT = 8
TRIP_FRACTION = 0.75
NULL_BASE = 10_000
REPEATS = 3
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_resume.json"


def _workload(depth: int, cycle: int, n_facts: int):
    tgds = parse_tgds(
        [
            f"R{i}(x, y), S(y, z), T(y, u) -> R{i+1}(x, z)"
            for i in range(depth)
        ]
        # One existential at the end of the chain: the resumed leg must
        # also replay null invention bit-identically.
        + [f"R{depth}(x, y) -> W(x, w)"]
    )
    db = Instance(
        [Atom("S", (f"c{j}", f"c{(j + 1) % cycle}")) for j in range(cycle)]
        + [
            Atom("T", (f"c{j}", f"t{j}_{m}"))
            for j in range(cycle)
            for m in range(FANOUT)
        ]
        + [Atom("R0", (f"a{i}", f"c{i % cycle}")) for i in range(n_facts)]
    )
    return db, tgds


def _tripped_wire(db, tgds, fired_total: int) -> str:
    """Trip at ~TRIP_FRACTION of the firings; return the checkpoint's bytes."""
    budget = Budget()
    budget.inject(int(TRIP_FRACTION * fired_total), site="trigger-fire")
    set_null_counter(NULL_BASE)
    tripped = chase(db, tgds, budget=budget)
    assert tripped.checkpoint is not None
    return json.dumps(checkpoint_to_json_dict(tripped.checkpoint))


def _resume_from_wire(wire: str):
    """The full cross-process resume path: parse wire → rebuild → finish."""
    return resume_chase(
        checkpoint_from_json_dict(json.loads(wire)), budget=Budget()
    )


def run(sizes=SIZES) -> list[dict]:
    rows = []
    json_rows = []
    for depth, cycle, n_facts in sizes:
        db, tgds = _workload(depth, cycle, n_facts)

        def _restart(db=db, tgds=tgds):
            # Governed like the resume leg (a re-run after a trip would
            # be), so neither side gets a free ride on check overhead.
            set_null_counter(NULL_BASE)
            return chase(db, tgds, budget=Budget())

        # Best of REPEATS per leg, with the legs interleaved (restart,
        # resume, restart, ...): host drift between two blocks of repeats
        # would move the gated ratio.  The first restart also sizes the trip.
        full, restart_s = timed(_restart)
        wire = _tripped_wire(db, tgds, full.fired)
        resumed, resume_s = timed(_resume_from_wire, wire)
        for _ in range(REPEATS - 1):
            full, seconds = timed(_restart)
            restart_s = min(restart_s, seconds)
            resumed, seconds = timed(_resume_from_wire, wire)
            resume_s = min(resume_s, seconds)

        # Bit-identity: the resumed run replays the same nulls and levels
        # as the uninterrupted run (null counter pinned in the checkpoint).
        assert resumed.terminated
        assert resumed.instance.atoms() == full.instance.atoms()
        assert resumed.levels == full.levels
        assert resumed.fired == full.fired

        ratio = resume_s / max(restart_s, 1e-9)
        ckpt_kib = len(wire) / 1024
        rows.append(
            {
                "depth": depth,
                "|D|": len(db),
                "chase atoms": len(full.instance),
                "restart": restart_s,
                "resume": resume_s,
                "resume/restart": f"{ratio:.2f}",
                "ckpt KiB": f"{ckpt_kib:.1f}",
            }
        )
        json_rows.append(
            {
                "depth": depth,
                "db_atoms": len(db),
                "chase_atoms": len(full.instance),
                "trip_fraction": TRIP_FRACTION,
                "restart_seconds": restart_s,
                "resume_seconds": resume_s,
                "resume_over_restart": ratio,
                "checkpoint_bytes": len(wire),
                "bit_identical": True,
            }
        )

    # Acceptance: from 75% done, finishing via the checkpoint must cost at
    # most half a restart on the largest workload (deserialization and
    # instance rebuild included — the cross-process path, not a warm one).
    ratio = json_rows[-1]["resume_over_restart"]
    assert ratio <= 0.5, f"resume cost {ratio:.2f}x restart, wanted <= 0.5x"

    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "E21 checkpoint/resume vs restart",
                "workload": (
                    "join chain R_i(x,y), S(y,z), T(y,u) -> R_{i+1}(x,z) "
                    f"over an S-cycle with a {FANOUT}-wide T fan-out, "
                    "existential tail rule"
                ),
                "trip_fraction": TRIP_FRACTION,
                "fanout": FANOUT,
                "note": (
                    "resume timing includes json.loads + checkpoint "
                    "rebuild, i.e. the full resume-in-another-process "
                    "path; restart is the uninterrupted chase; both "
                    "legs run under a fresh Budget()"
                ),
                "rows": json_rows,
            },
            indent=2,
        )
        + "\n"
    )
    return rows


def test_e21_restart(benchmark):
    db, tgds = _workload(18, 50, 110)

    def _restart():
        set_null_counter(NULL_BASE)
        return chase(db, tgds, budget=Budget())

    benchmark(_restart)


def test_e21_resume_from_wire(benchmark):
    db, tgds = _workload(18, 50, 110)
    set_null_counter(NULL_BASE)
    full = chase(db, tgds)
    wire = _tripped_wire(db, tgds, full.fired)
    benchmark(lambda: _resume_from_wire(wire))


if __name__ == "__main__":
    print_table("E21 — resume from checkpoint vs restart", run())
    print(f"\nJSON written to {JSON_PATH}")
