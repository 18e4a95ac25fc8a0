"""repro — a reproduction of *"The Limits of Efficiency for Open- and
Closed-World Query Evaluation Under Guarded TGDs"* (Barceló, Dalmau, Feier,
Lutz, Pieris; PODS 2020).

The package implements the paper's two protagonists and everything they
stand on:

* **OMQs** (:class:`repro.OMQ`) — ontology-mediated queries, evaluated
  under open-world (certain-answer) semantics via the chase (Prop 3.1),
  with the FPT pipeline for (G, UCQ_k) of Prop 3.3(3);
* **CQSs** (:class:`repro.CQS`) — constraint-query specifications,
  evaluated closed-world, with containment under constraints (Prop 4.5),
  UCQ_k-approximations and the uniform-equivalence decider (Prop 5.11);
* the substrate: relational instances and homomorphisms, CQs/UCQs with
  cores and bounded-treewidth evaluation (Prop 2.1), TGD classes
  G/FG/FG_m/L/FULL, the oblivious chase with levels, the type-blocked
  guarded chase (ground saturation / ``D⁺``), linearization via Σ-types
  (Lemma A.3), UCQ rewriting for linear TGDs (Prop D.2), finite
  controllability witnesses (Thm 6.7), Grohe's database construction
  (Thm 6.1 / Lemma H.2) and the p-Clique reductions behind the paper's
  W[1]-hardness results.

Every expensive engine is governed: pass ``budget=Budget(deadline=...,
max_atoms=..., max_steps=...)`` to ``chase``/``certain_answers``/
``rewrite_ucq`` and friends to get sound partial results instead of
hangs (see ``docs/resource_governance.md``).  Tripped chase-based runs
additionally carry a resumable :class:`ChaseCheckpoint` — continue them
with :func:`resume_chase`, :meth:`Engine.resume`, or the CLI's
``--resume`` (serialization via :mod:`repro.datamodel.io`).

Quickstart::

    from repro import Engine, parse_database, parse_tgds, parse_ucq

    db = parse_database("Emp(ada), WorksFor(ada, acme)")
    sigma = parse_tgds(["Emp(x) -> Person(x)", "WorksFor(x, y) -> Comp(y)"])
    engine = Engine(sigma)           # session: chase cache + governance policy
    engine.certain_answers(parse_ucq("q(x) :- Person(x)"), db).answers
    # {('ada',)} — repeated calls over the same D hit the chase cache

The free functions remain available for one-shot use
(``certain_answers(Q, db)``, ``chase(db, sigma)``); ``docs/api.md``
documents the Engine session, the uniform ``budget=``/``stats=`` kwargs,
the ``.complete``/``.trip``/``.stats`` result protocol, and the
deprecation map (``parallelism=`` among it).
"""

from .datamodel import (
    Atom,
    Database,
    EvalStats,
    Instance,
    JoinPlan,
    Null,
    Schema,
    Variable,
    compile_plan,
    fresh_null,
    plan_for,
    variables,
)
from .queries import (
    CQ,
    UCQ,
    core,
    evaluate_td,
    is_answer,
    parse_atom,
    parse_atoms,
    parse_cq,
    parse_database,
    parse_ucq,
)
from .tgds import TGD, parse_tgd, parse_tgds
from .chase import (
    ChaseCache,
    ChaseResult,
    ChaseWorkerError,
    chase,
    extend_chase,
    ground_saturation,
    linearize,
    resume_chase,
    rewrite_ucq,
    saturated_expansion,
)
from .governance import Budget, BudgetExceeded, ChaseCheckpoint, CheckpointError
from .options import EvalOptions, Parallelism, ProcessPool, ThreadPool
from .treewidth import cq_treewidth, in_cq_k, in_ucq_k, ucq_treewidth
from .omq import OMQ, OMQAnswer, certain_answers, evaluate_fpt, is_certain_answer
from .cqs import CQS, is_uniformly_ucq_k_equivalent, ucq_k_approximation
from .semantic import in_cq_k_equiv, semantic_treewidth
from .datalog import DatalogProgram, DatalogRule, compile_program, saturate
from .engine import Engine
from .evaluation import evaluate

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Budget",
    "BudgetExceeded",
    "CQ",
    "CQS",
    "ChaseCache",
    "ChaseCheckpoint",
    "ChaseResult",
    "ChaseWorkerError",
    "CheckpointError",
    "Database",
    "DatalogProgram",
    "DatalogRule",
    "Engine",
    "EvalOptions",
    "EvalStats",
    "Instance",
    "JoinPlan",
    "Null",
    "OMQ",
    "OMQAnswer",
    "Parallelism",
    "ProcessPool",
    "Schema",
    "TGD",
    "ThreadPool",
    "UCQ",
    "__version__",
    "certain_answers",
    "chase",
    "compile_plan",
    "compile_program",
    "core",
    "cq_treewidth",
    "evaluate",
    "evaluate_fpt",
    "evaluate_td",
    "extend_chase",
    "fresh_null",
    "ground_saturation",
    "in_cq_k",
    "in_cq_k_equiv",
    "in_ucq_k",
    "is_answer",
    "is_certain_answer",
    "is_uniformly_ucq_k_equivalent",
    "linearize",
    "parse_atom",
    "parse_atoms",
    "parse_cq",
    "parse_database",
    "parse_tgd",
    "parse_tgds",
    "parse_ucq",
    "plan_for",
    "resume_chase",
    "rewrite_ucq",
    "saturate",
    "saturated_expansion",
    "semantic_treewidth",
    "ucq_k_approximation",
    "ucq_treewidth",
    "variables",
]
