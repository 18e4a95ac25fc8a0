"""TGD-set generators for the experiments.

Three families:

* a fixed employment-domain guarded ontology (weakly acyclic — terminating
  chase, used wherever exactness must be certified);
* inclusion-dependency *chains* of configurable depth (linear single-head —
  the UCQ-rewriting workload, E7);
* recursive guarded sets with infinite chase (the blocked-chase /
  linearization workloads, E6/E15).
"""

from __future__ import annotations

from ..tgds import TGD, parse_tgds

__all__ = [
    "employment_ontology",
    "inclusion_chain",
    "recursive_guarded_ontology",
    "reversal_constraints",
    "sharded_ontology",
]


def employment_ontology() -> list[TGD]:
    """A weakly acyclic guarded ontology over the employment domain."""
    return parse_tgds(
        [
            "Emp(x) -> Person(x)",
            "Mgr(x) -> Emp(x)",
            "Mgr(x) -> Manages(x, y)",
            "Manages(x, y) -> Emp(y)",
            "WorksFor(x, y) -> Company(y)",
            "WorksFor(x, y) -> Emp(x)",
            "ReportsTo(x, y) -> Emp(x)",
            "ReportsTo(x, y) -> Mgr(y)",
            "Company(y) -> HasCEO(y, z)",
            "HasCEO(y, z) -> Mgr(z)",
        ]
    )


def inclusion_chain(depth: int) -> list[TGD]:
    """``R0(x,y) → R1(x,z); R1(x,y) → R2(x,z); ...`` — linear, depth TGDs.

    Rewriting a query over ``R_depth`` back to ``R0`` takes *depth* steps,
    so the rewriting size scales with the chain (experiment E7).
    """
    return parse_tgds(
        [f"R{i}(x, y) -> R{i+1}(x, z)" for i in range(depth)]
    )


def recursive_guarded_ontology() -> list[TGD]:
    """A guarded set with an infinite chase (manager regress).

    Every employee reports to somebody, reporters are employees — the chase
    never terminates, but ground saturation and the blocked expansion stay
    finite (experiments E6/E15).
    """
    return parse_tgds(
        [
            "Emp(x) -> ReportsTo(x, y)",
            "ReportsTo(x, y) -> Emp(y)",
            "ReportsTo(x, y) -> Super(y, x)",
        ]
    )


def reversal_constraints(preds: tuple[str, ...] = ("E",)) -> list[TGD]:
    """Symmetric-closure constraints ``P(x,y) → Pr(y,x)`` per predicate."""
    return parse_tgds([f"{p}(x, y) -> {p}r(y, x)" for p in preds])


def sharded_ontology(shards: int, depth: int) -> list[TGD]:
    """*shards* independent composition towers of *depth* full TGDs each.

    Shard ``s`` is ``R{s}_{i}(x,y), R{s}_{i}(y,z) → R{s}_{i+1}(x,z)`` for
    ``i < depth`` — full (no existentials, terminating) and touching only
    its own predicates, so per level the trigger searches of distinct
    shards are completely independent.  Experiment E19 times the serial
    chase and the chase cache on it.
    """
    rules = [
        f"R{s}_{i}(x, y), R{s}_{i}(y, z) -> R{s}_{i+1}(x, z)"
        for s in range(shards)
        for i in range(depth)
    ]
    return parse_tgds(rules)
