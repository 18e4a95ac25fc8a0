"""E22 — Backend crossover: when pushing evaluation beats the chase.

Claim: the chase is the general-purpose engine, but on the fragments
where a specialised backend is sound it should win — and the win is
structural, not constant-factor.  Two workload columns:

* **linear** — an inclusion-dependency chain (``R_i(x,y) → R_{i+1}(x,z)``,
  E7's family).  The chase *materialises* ``depth × |D|`` derived atoms
  (all nulls) before evaluating the query; ``backend="sql"`` evaluates
  the perfect rewriting (Prop D.2) straight over ``D`` in sqlite — no
  materialisation at all.  Acceptance: sql is at least 2× faster than
  chase on at least one size.
* **full** — transitive closure (``E ⊆ P``, ``P ∘ P ⊆ P``) over a chain.
  All three backends are exact; the in-database saturation and the
  semi-naive engine are compared against the chase on equal answers.

Every row asserts all backends return identical answer sets before any
timing is trusted.  Results are dumped to ``BENCH_backends.json`` in the
repo root for the CI trajectory; the ``crossover`` field records the
smallest linear size where sql beats the chase.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from harness import print_table, timed

from repro.benchgen import inclusion_chain
from repro.datamodel import Atom, Instance
from repro.evaluation import evaluate
from repro.omq import OMQ
from repro.queries import parse_ucq
from repro.tgds import parse_tgds

#: Linear column: (chain depth, |R0| facts).
LINEAR_SIZES = ((4, 120), (8, 240), (12, 400))
#: Full column: chain length n for transitive closure (O(n^2) P atoms).
FULL_SIZES = (40, 70, 100)
REPEATS = 3
#: The timed legs, run in this order on every repeat.
LEGS = ("chase", "datalog", "sql")
JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"


def _linear_workload(depth: int, n_facts: int):
    tgds = inclusion_chain(depth)
    db = Instance([Atom("R0", (f"a{i}", f"b{i}")) for i in range(n_facts)])
    omq = OMQ.with_full_data_schema(
        tgds, parse_ucq(f"q(x) :- R{depth}(x, y)")
    )
    return omq, db


def _full_workload(n: int):
    tgds = parse_tgds(["E(x, y) -> P(x, y)", "P(x, y), P(y, z) -> P(x, z)"])
    db = Instance([Atom("E", (f"v{i}", f"v{i+1}")) for i in range(n)])
    omq = OMQ.with_full_data_schema(tgds, parse_ucq("q(x, y) :- P(x, y)"))
    return omq, db


def _interleaved_best_of(repeats: int, omq, db) -> dict:
    """backend -> (last result, fastest seconds).

    The backends run in turn on each repeat, so a slow stretch of the
    host lands on every leg alike instead of on whichever ran last;
    the best of *repeats* damps the remaining scheduler noise.
    """
    best = {backend: (None, float("inf")) for backend in LEGS}
    for _ in range(repeats):
        for backend in LEGS:
            result, seconds = timed(_run_backend, omq, db, backend)
            best[backend] = (result, min(best[backend][1], seconds))
    return best


def _run_backend(omq, db, backend):
    # No shared cache: each timed call pays its own materialisation, so
    # the comparison is engine vs engine, not cache-hit vs cold.
    return evaluate(omq, db, backend=backend)


def run(linear_sizes=LINEAR_SIZES, full_sizes=FULL_SIZES) -> list[dict]:
    rows = []
    json_rows = []

    for depth, n_facts in linear_sizes:
        omq, db = _linear_workload(depth, n_facts)
        timings = _interleaved_best_of(REPEATS, omq, db)
        chase_ans, chase_s = timings["chase"]
        datalog_ans, datalog_s = timings["datalog"]
        sql_ans, sql_s = timings["sql"]
        assert chase_ans.complete and sql_ans.complete
        assert set(sql_ans.answers) == set(chase_ans.answers)
        if datalog_ans.complete:
            assert set(datalog_ans.answers) == set(chase_ans.answers)
        speedup = chase_s / max(sql_s, 1e-9)
        rows.append(
            {
                "workload": f"linear d={depth}",
                "|D|": len(db),
                "answers": len(set(chase_ans.answers)),
                "chase": chase_s,
                "datalog": datalog_s,
                "sql": sql_s,
                "chase/sql": f"{speedup:.1f}x",
            }
        )
        json_rows.append(
            {
                "workload": "linear",
                "depth": depth,
                "db_atoms": len(db),
                "chase_seconds": chase_s,
                "datalog_seconds": datalog_s,
                "sql_seconds": sql_s,
                "chase_over_sql": speedup,
            }
        )

    for n in full_sizes:
        omq, db = _full_workload(n)
        timings = _interleaved_best_of(REPEATS, omq, db)
        chase_ans, chase_s = timings["chase"]
        datalog_ans, datalog_s = timings["datalog"]
        sql_ans, sql_s = timings["sql"]
        assert chase_ans.complete and datalog_ans.complete and sql_ans.complete
        assert (
            set(chase_ans.answers)
            == set(datalog_ans.answers)
            == set(sql_ans.answers)
        )
        rows.append(
            {
                "workload": f"full TC n={n}",
                "|D|": len(db),
                "answers": len(set(chase_ans.answers)),
                "chase": chase_s,
                "datalog": datalog_s,
                "sql": sql_s,
                "chase/sql": f"{chase_s / max(sql_s, 1e-9):.1f}x",
            }
        )
        json_rows.append(
            {
                "workload": "full-tc",
                "n": n,
                "db_atoms": len(db),
                "chase_seconds": chase_s,
                "datalog_seconds": datalog_s,
                "sql_seconds": sql_s,
                "chase_over_sql": chase_s / max(sql_s, 1e-9),
            }
        )

    # Acceptance: the rewrite-over-D pushdown must beat materialisation by
    # at least 2x somewhere in the linear column.
    linear = [r for r in json_rows if r["workload"] == "linear"]
    best = max(r["chase_over_sql"] for r in linear)
    assert best >= 2.0, (
        f"sql pushdown only {best:.2f}x faster than chase on the linear "
        "column, wanted >= 2x"
    )
    crossover = next(
        (r["depth"] for r in linear if r["chase_over_sql"] >= 2.0), None
    )

    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "E22 backend crossover",
                "workloads": {
                    "linear": (
                        "inclusion chain R_i(x,y) -> R_{i+1}(x,z); chase "
                        "materialises depth*|D| null atoms, sql evaluates "
                        "the perfect rewriting over D"
                    ),
                    "full-tc": (
                        "transitive closure over a chain; all three "
                        "backends exact, equal answers asserted"
                    ),
                },
                "crossover_depth_sql_2x": crossover,
                "rows": json_rows,
            },
            indent=2,
        )
        + "\n"
    )
    return rows


def test_e22_linear_chase(benchmark):
    omq, db = _linear_workload(8, 240)
    benchmark(lambda: _run_backend(omq, db, "chase"))


def test_e22_linear_sql(benchmark):
    omq, db = _linear_workload(8, 240)
    benchmark(lambda: _run_backend(omq, db, "sql"))


def test_e22_full_tc_datalog(benchmark):
    omq, db = _full_workload(70)
    benchmark(lambda: _run_backend(omq, db, "datalog"))


if __name__ == "__main__":
    print_table("E22 — backend crossover (chase vs datalog vs sql)", run())
    print(f"\nJSON written to {JSON_PATH}")
