"""E19 — The chase and the cross-call chase cache.

Claim: the saturate-once-query-many structure of OMQ workloads makes a
cross-call chase cache a 10×-class win.  Measured: on the sharded
composition-tower workload (4 independent TGD towers), wall time of the
chase and of a cold vs a cached-repeat ``Engine.certain_answers``, with
identical answer sets asserted throughout.  Results (plus cpu_count, the
Python version, and the sizes of the intern pool behind the final
instance, which is the process-wide default pool) are dumped to
``BENCH_parallel_chase.json`` in the repo root for the CI trajectory.
The file keeps the name it had when this experiment also timed
``ProcessPool(4)``, the process-sharded trigger search, which never beat
the serial chase (0.09–0.21× on one CPU, 0.18–0.42× on two vCPUs) and
now runs serially.
"""

import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from harness import print_table, timed

from repro import Engine
from repro.benchgen import sharded_database, sharded_ontology
from repro.chase import ChaseCache, chase
from repro.omq import OMQ, certain_answers
from repro.queries import parse_ucq

SHARDS = 4
DEPTH = 3
ONTOLOGY = sharded_ontology(SHARDS, DEPTH)
QUERY = parse_ucq(f"q(x) :- R0_{DEPTH}(x, y)")
OMQ_Q = OMQ.with_full_data_schema(ONTOLOGY, QUERY)
SIZES = (20, 35, 50)
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel_chase.json"


def run(sizes=SIZES) -> list[dict]:
    rows = []
    json_rows = []
    for size in sizes:
        db = sharded_database(SHARDS, 14, size, seed=size)

        serial, serial_s = timed(chase, db, ONTOLOGY)

        # Cached repeat: one Engine session, same (D, Σ), query twice.
        engine = Engine(ONTOLOGY)
        first, first_s = timed(engine.certain_answers, QUERY, db)
        repeat, repeat_s = timed(engine.certain_answers, QUERY, db)
        assert repeat.answers == first.answers
        assert repeat.answers == certain_answers(OMQ_Q, db).answers
        assert engine.cache.hits >= 1

        cache_speedup = first_s / max(repeat_s, 1e-9)
        rows.append(
            {
                "|D|": len(db),
                "chase atoms": len(serial.instance),
                "serial": serial_s,
                "certain (cold)": first_s,
                "certain (cached)": repeat_s,
                "cache speedup": f"{cache_speedup:.1f}x",
            }
        )
        json_rows.append(
            {
                "db_atoms": len(db),
                "chase_atoms": len(serial.instance),
                "interning": serial.instance.pool.sizes(),
                "serial_seconds": serial_s,
                "certain_cold_seconds": first_s,
                "certain_cached_seconds": repeat_s,
                "cache_speedup": cache_speedup,
                "answers": len(first.answers),
                "identical_answers": True,
            }
        )

    # Acceptance: a repeated certain_answers over an unchanged (D, Σ) must
    # be ≥ 10× faster through the cache on the largest workload.
    cache_speedup = json_rows[-1]["cache_speedup"]
    assert cache_speedup >= 10.0, f"cache speedup only {cache_speedup:.1f}x"

    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "E19 chase + chase cache",
                "workload": f"sharded_ontology({SHARDS}, {DEPTH})",
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "rows": json_rows,
            },
            indent=2,
        )
        + "\n"
    )
    return rows


def test_e19_serial_chase(benchmark):
    db = sharded_database(SHARDS, 14, 35, seed=35)
    benchmark(chase, db, ONTOLOGY)


def test_e19_cached_certain_answers(benchmark):
    db = sharded_database(SHARDS, 14, 35, seed=35)
    cache = ChaseCache()
    certain_answers(OMQ_Q, db, cache=cache)  # warm
    benchmark(lambda: certain_answers(OMQ_Q, db, cache=cache).answers)


if __name__ == "__main__":
    print_table("E19 — chase + chase cache", run())
    print(f"\nJSON written to {JSON_PATH}")
