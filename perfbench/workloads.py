"""Tenants and seeded request streams for the three ``repro serve`` workloads.

Everything here is a pure function of the workload name, the seed and the
size table: the same arguments give a byte-identical stream (see
:func:`digest`).  The generators live in the benchmark, not in
``repro.benchgen``, so a change to the library cannot change the inputs.

A workload is a :class:`Workload`: a table of distinct requests plus the
order they are sent in.  ``warmup`` runs first, in order; ``stream`` is
the list sent after it, cycled when the run outlasts it: first
``settle`` requests untimed, then the measured phase; ``window`` is the
number of measured requests over which the layer counts are taken.  The
reasons for each workload and the layer metrics each should move are in
``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

#: The guarded, weakly acyclic employment ontology plus one existential
#: rule with a two-atom body, so that ``auto`` routes it to the chase.
CHASE_RULES = [
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
    "WorksFor(x, y), Mgr(x) -> Leads(x, y, z)",
]
#: Transitive closure: full, so ``auto`` routes it to datalog.
DATALOG_RULES = ["E(x, y) -> T(x, y)", "T(x, y), E(y, z) -> T(x, z)"]
#: ``inclusion_chain(5)``: linear single-head, so ``auto`` routes it to sql.
SQL_RULES = [f"R{i}(x, y) -> R{i + 1}(x, z)" for i in range(5)]

#: Tenant name -> rule source.  One tenant per ``auto`` route.
TENANTS = {"acme": CHASE_RULES, "graph": DATALOG_RULES, "chain": SQL_RULES}
#: The route ``auto`` is expected to pick for each tenant's OMQs.
ROUTES = {"acme": "chase", "graph": "datalog", "chain": "sql"}

#: Size table.  ``full`` is what the benchmark runs; ``tiny`` is for the
#: smoke test.  The service's cache bound is 128 entries per tier, so the
#: cold workload keeps more than 128 distinct keys per tier.
SIZES = {
    "full": {
        "cold_keys": 200,  # distinct databases per tenant, cycled
        "cold_employees": 18,
        "cold_layers": 4,
        "cold_width": 4,
        "cold_facts": 40,
        "fill": 130,  # tiny warm-up entries per cached tier
        "hot_dbs": 6,  # databases per tenant
        "hot_employees": 80,
        "hot_layers": 6,
        "hot_width": 5,
        "join_graphs": 16,
        "join_nodes": 30,
        "join_degree": 3,
        "cqs_layers": 5,
        "cqs_width": 4,
        "window": {"omq-cold": 300, "omq-hot": 250, "cq-joins": 80},
    },
    "tiny": {
        "cold_keys": 4,
        "cold_employees": 4,
        "cold_layers": 2,
        "cold_width": 2,
        "cold_facts": 6,
        "fill": 3,
        "hot_dbs": 2,
        "hot_employees": 6,
        "hot_layers": 3,
        "hot_width": 2,
        "join_graphs": 2,
        "join_nodes": 6,
        "join_degree": 2,
        "cqs_layers": 3,
        "cqs_width": 2,
        "window": {"omq-cold": 6, "omq-hot": 6, "cq-joins": 6},
    },
}

@dataclass
class Workload:
    #: Distinct requests: dicts with ``tenant``, ``kind``, ``query``, ``database``.
    requests: list[dict] = field(default_factory=list)
    warmup: list[int] = field(default_factory=list)
    stream: list[int] = field(default_factory=list)
    #: Requests from the start of the stream sent after the warm-up and
    #: before the measured phase, untimed: they replace the warm-up's tiny
    #: cache entries with full-size ones, so that the measured phase
    #: starts with the heap it will run with.
    settle: int = 0
    window: int = 0

    def add(self, tenant: str, kind: str, query: str, database: list[str]) -> int:
        self.requests.append(
            {"tenant": tenant, "kind": kind, "query": query, "database": database}
        )
        return len(self.requests) - 1


def digest(workload: Workload) -> str:
    """SHA-256 of the whole generated stream, printed with every run."""
    payload = json.dumps(
        [workload.requests, workload.warmup, workload.stream, workload.settle, workload.window],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
def employment(rng: random.Random, n: int, p: str) -> list[str]:
    """Employment facts over constants prefixed *p* (disjoint per prefix).

    The share of employees with each kind of fact is fixed and only who
    gets which is random, so every seed gives databases of one size."""
    companies = max(2, n // 8)
    facts = [f"Company({p}c{i})" for i in range(companies)]
    facts += [f"Emp({p}e{e})" for e in range(n)]
    for e in rng.sample(range(n), n * 7 // 10):
        facts.append(f"WorksFor({p}e{e}, {p}c{rng.randrange(companies)})")
    for e in rng.sample(range(n), n // 4):
        facts.append(f"Mgr({p}e{e})")
    for e in rng.sample(range(1, n), n * 4 // 10):
        facts.append(f"ReportsTo({p}e{e}, {p}e{rng.randrange(e)})")
    return facts


def out_regular(rng: random.Random, nodes: int, degree: int, p: str) -> list[str]:
    """A random digraph in which every node has *degree* out-edges.

    Walk counts, and so the cost of path and star queries, are then the
    same on every seed; only cycles and cliques vary."""
    facts = []
    for a in range(nodes):
        for b in sorted(rng.sample([v for v in range(nodes) if v != a], degree)):
            facts.append(f"E({p}v{a}, {p}v{b})")
    return facts


def layered(rng: random.Random, layers: int, width: int) -> list[tuple[int, int]]:
    """A layered DAG: each node has two successors in the next layer.

    The transitive closure of a sparse random digraph swings with whether
    a giant strongly connected component forms; a layered DAG keeps the
    closure, and so the datalog tenant's cost, close to one size."""
    levels = [list(range(i * width, (i + 1) * width)) for i in range(layers)]
    pairs = []
    for here, there in zip(levels, levels[1:]):
        for a in here:
            pairs += [(a, b) for b in sorted(rng.sample(there, min(2, width)))]
    return pairs


def edge_facts(pairs, p: str, pred: str = "E") -> list[str]:
    return [f"{pred}({p}v{a}, {p}v{b})" for a, b in pairs]


def closed_layered(rng: random.Random, layers: int, width: int, p: str) -> list[str]:
    """A layered DAG plus its transitive closure ``T``: a model of
    ``DATALOG_RULES``, so the CQS promise check passes."""
    pairs = layered(rng, layers, width)
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure = []
    for start in sorted(succ):
        stack, seen = list(succ[start]), set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ.get(v, ()))
        closure += [(start, v) for v in sorted(seen)]
    return edge_facts(pairs, p) + edge_facts(closure, p, "T")


def chain_facts(rng: random.Random, count: int, p: str) -> list[str]:
    """*count* distinct facts over ``R0``..``R5``."""
    pool = max(4, count // 2)
    facts: set[str] = set()
    while len(facts) < count:
        facts.add(f"R{rng.randrange(6)}({p}c{rng.randrange(pool)}, {p}c{rng.randrange(pool)})")
    return sorted(facts)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
ACME_QUERIES = [
    "q(x) :- Person(x)",
    "q(x) :- Mgr(x)",
    "q(x) :- Manages(x, y)",
    "q(x) :- Leads(x, y, z)",
    "q(x, y) :- Leads(x, y, z)",
    "q(x, y) :- WorksFor(x, y), Company(y)",
    "q(y) :- HasCEO(y, z)",
    "q(x) :- ReportsTo(x, y), Mgr(y)",
    "q(x, z) :- ReportsTo(x, y), ReportsTo(y, z)",
    "q(y) :- WorksFor(x, y), Mgr(x)",
    "q(x) :- Leads(x, y, z), Manages(x, w)",
    "q(x) :- Emp(x), WorksFor(x, y) | q(x) :- Mgr(x)",
    "q(x) :- Person(x), Mgr(x) | q(x) :- Leads(x, y, z)",
    "q(x, y) :- ReportsTo(x, y), WorksFor(y, c), Company(c)",
    "q(x) :- Manages(x, y), Emp(y), Person(x)",
    "q(c) :- HasCEO(c, z), Mgr(z), Company(c)",
]
GRAPH_QUERIES = [
    "q(x, y) :- T(x, y)",
    "q(x) :- T(x, x)",
    "q(x) :- T(x, y), E(y, x)",
    "q(x, y) :- E(x, y), T(y, x)",
    "q(x) :- T(x, y), T(y, z), E(z, x)",
    "q(x) :- T(x, y), T(y, x) | q(x) :- E(x, y), E(y, x)",
    "q(x, z) :- E(x, y), E(y, z), T(z, x)",
    "q(x) :- E(x, y), T(y, z), E(z, w)",
]
CHAIN_QUERIES = [
    "q(x) :- R5(x, y)",
    "q(x) :- R3(x, y)",
    "q(x, y) :- R1(x, y)",
    "q(x) :- R2(x, y), R0(y, z)",
    "q(x) :- R4(x, y) | q(x) :- R0(x, x)",
]


def _graph_constant_queries(p: str, nodes: int, count: int) -> list[str]:
    """Constant-bearing queries: many distinct UCQs over one database."""
    out = []
    for i in range(count):
        c = f"'{p}v{(i * 5) % nodes}'"
        out.append(
            f"q(y) :- T({c}, y)" if i % 2 == 0 else f"q(x) :- T(x, y), E(y, {c})"
        )
    return out


def _path(n: int, head: str) -> str:
    body = ", ".join(f"E(x{i}, x{i + 1})" for i in range(n))
    return f"q({head}) :- {body}"


def _cycle(n: int) -> str:
    return "q() :- " + ", ".join(f"E(x{i}, x{(i + 1) % n})" for i in range(n))


def _clique(k: int) -> str:
    pairs = [f"E(x{i}, x{j})" for i in range(k) for j in range(k) if i < j]
    return "q() :- " + ", ".join(pairs)


def _inflated_triangle(extra: int) -> str:
    atoms = ["E(t1, t2)", "E(t2, t3)", "E(t3, t1)"]
    for i in range(extra):
        atoms += [f"E(t1, p{i}a)", f"E(p{i}a, p{i}b)", f"E(p{i}b, t1)"]
    return "q() :- " + ", ".join(atoms)


#: Closed-world templates: (kind, query text).  Heads keep answer sets
#: small; Boolean bodies enumerate every homomorphism, so they stay short.
#: On an out-degree-3 graph of 30 nodes each costs 5-40 ms (a path of
#: five edges, at 75 ms, was dropped so that no request dominates a run).
JOIN_TEMPLATES = [
    ("cq", _path(3, "x0, x3")),
    ("cq", _path(4, "x0")),
    ("cq", _cycle(4)),
    ("cq", _cycle(5)),
    ("cq", "q(c) :- E(c, y1), E(c, y2), E(c, y3), E(y1, z)"),
    ("cq", _clique(3)),
    ("cq", _clique(4)),
    ("cq", _inflated_triangle(2)),
    ("ucq", "q(x) :- E(x, y), E(y, x) | q(x) :- E(x, y), E(y, z), E(z, x)"),
    (
        "ucq",
        "q(x) :- E(x, y), E(y, z), E(z, w) | q(x) :- E(y, x), E(z, x), E(w, x)"
        " | q(x) :- E(x, y), E(y, z), E(z, x)",
    ),
]
#: Closed-world queries under the graph tenant's Σ (the CQS kind).
CQS_TEMPLATES = [
    "q(x, y) :- T(x, z), E(z, y), T(y, w)",
    "q(x) :- E(x, y), T(y, z), E(z, w), T(w, u)",
    "q(x) :- T(x, y), T(y, z), T(z, w) | q(x) :- E(x, y), E(y, z)",
]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _fill(w: Workload, size: dict) -> list[int]:
    """Tiny one-fact databases that fill the chase and materialisation
    tiers to the cache bound before the measured phase."""
    out = []
    for i in range(size["fill"]):
        out.append(w.add("acme", "omq", "q(x) :- Person(x)", [f"Mgr(w{i}m)"]))
        out.append(
            w.add("graph", "omq", "q(x, y) :- T(x, y)", [f"E(w{i}a, w{i}b)"])
        )
    return out


def omq_cold(rng: random.Random, size: dict) -> Workload:
    w = Workload()
    w.warmup = _fill(w, size)
    seq = []
    for k in range(size["cold_keys"]):
        seq.append(
            w.add(
                "acme",
                "omq",
                ACME_QUERIES[k % len(ACME_QUERIES)],
                employment(rng, size["cold_employees"], f"k{k}"),
            )
        )
        seq.append(
            w.add(
                "graph",
                "omq",
                GRAPH_QUERIES[k % len(GRAPH_QUERIES)],
                edge_facts(layered(rng, size["cold_layers"], size["cold_width"]), f"k{k}"),
            )
        )
        seq.append(
            w.add(
                "chain",
                "omq",
                CHAIN_QUERIES[k % len(CHAIN_QUERIES)],
                chain_facts(rng, size["cold_facts"], f"k{k}"),
            )
        )
    w.stream = seq
    # The stream takes the tenants in turn: this sends `fill` requests to
    # each, enough to replace every warm-up entry of both cached tiers.
    w.settle = size["fill"] * 3
    w.window = size["window"]["omq-cold"]
    return w


def omq_hot(rng: random.Random, size: dict) -> Workload:
    w = Workload()
    pairs = []
    for d in range(size["hot_dbs"]):
        p = f"h{d}"
        acme_db = employment(rng, size["hot_employees"], p)
        graph_db = edge_facts(layered(rng, size["hot_layers"], size["hot_width"]), p)
        graph_queries = GRAPH_QUERIES + _graph_constant_queries(
            p, size["hot_layers"] * size["hot_width"], len(ACME_QUERIES) - len(GRAPH_QUERIES)
        )
        for q in ACME_QUERIES:
            pairs.append(w.add("acme", "omq", q, acme_db))
        for q in graph_queries:
            pairs.append(w.add("graph", "omq", q, graph_db))
    # Warm every (database, query) pair; the measured phase then visits
    # them in a seeded order, so only the read path of the cache runs.
    w.warmup = list(pairs)
    order = list(pairs)
    rng.shuffle(order)
    w.stream = order
    w.window = size["window"]["omq-hot"]
    return w


def cq_joins(rng: random.Random, size: dict) -> Workload:
    w = Workload()
    seq = []
    for g in range(size["join_graphs"]):
        p = f"j{g}"
        db = out_regular(rng, size["join_nodes"], size["join_degree"], p)
        for kind, q in JOIN_TEMPLATES:
            seq.append(w.add("acme", kind, q, db))
        closed = closed_layered(rng, size["cqs_layers"], size["cqs_width"], p)
        for q in CQS_TEMPLATES:
            seq.append(w.add("graph", "cqs", q, closed))
    rng.shuffle(seq)
    w.warmup = seq[:4]
    w.stream = seq
    w.window = size["window"]["cq-joins"]
    return w


BUILDERS = {
    "omq-cold": omq_cold,
    "omq-hot": omq_hot,
    "cq-joins": cq_joins,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload *name* generated from *seed* (same seed, same bytes)."""
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, SIZES[size])
