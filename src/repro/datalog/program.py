"""Datalog programs compiled from full TGDs, with stratum compilation.

A full TGD (no existential variables) *is* a Datalog rule once its head is
split into single atoms (:meth:`repro.tgds.TGD.split_head` — semantics-
preserving exactly for full TGDs).  A :class:`DatalogProgram` is a list of
such rules plus the derived structure the saturation backends need:

* the **EDB/IDB split** — a predicate is intensional iff some rule derives
  it; everything else is extensional (read-only input);
* **strata** — the condensation of the predicate-dependency graph
  (head depends on every body predicate), topologically ordered.  With no
  negation every partition into SCCs works.  The SQL pushdown iterates
  the strata (a lower stratum saturates once and is then frozen), and
  they are the structure the paper's fixed-parameter arguments are
  stated over: each stratum is a least fixpoint of a monotone operator
  over the previous strata's output.  The in-memory
  :func:`~repro.datalog.saturate` needs no strata: one delta-chase level
  loop over all rules reaches the same least model.

The compiler refuses non-full TGDs — existential heads are not Datalog;
the guarded fragment routes them through the blocked-chase type machinery
instead (see :mod:`repro.datalog.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..datamodel import Atom, Schema
from ..tgds import TGD, schema_of

__all__ = ["DatalogRule", "DatalogProgram", "compile_program", "stratify"]


@dataclass(frozen=True)
class DatalogRule:
    """One single-head, constant-free Datalog rule ``head :- body``.

    ``body`` may be empty (a variable-free head would be a fact rule;
    TGDs are constant-free so in practice bodies are non-empty).  The
    rule is range-restricted by construction: a full TGD's head
    variables all occur in its body.
    """

    body: tuple[Atom, ...]
    head: Atom
    name: str = ""

    def __post_init__(self) -> None:
        head_vars = self.head.variables()
        body_vars: set = set()
        for atom in self.body:
            body_vars |= atom.variables()
        if not head_vars <= body_vars:
            raise ValueError(
                f"rule {self} is not range-restricted: "
                f"{head_vars - body_vars} occur only in the head"
            )

    def predicates(self) -> set[str]:
        return {self.head.pred} | {a.pred for a in self.body}

    def __repr__(self) -> str:
        body = ", ".join(map(str, self.body)) if self.body else "⊤"
        return f"{self.head} :- {body}"


@dataclass
class DatalogProgram:
    """A compiled rule set with its EDB/IDB split and strata.

    ``strata`` is a list of rule-index lists: stratum ``i`` contains the
    rules whose head predicates form the ``i``-th SCC group of the
    dependency condensation.  Saturating the strata in order is complete
    because rule bodies only read predicates from the same or earlier
    strata.
    """

    rules: list[DatalogRule]
    idb: frozenset[str] = field(default=frozenset())
    strata: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.idb:
            self.idb = frozenset(r.head.pred for r in self.rules)
        if not self.strata and self.rules:
            self.strata = stratify(self.rules)

    def predicates(self) -> set[str]:
        preds: set[str] = set()
        for rule in self.rules:
            preds |= rule.predicates()
        return preds

    def schema(self) -> Schema:
        atoms = [r.head for r in self.rules]
        for rule in self.rules:
            atoms.extend(rule.body)
        return Schema.from_atoms(atoms)

    def stratum_of(self, pred: str) -> int:
        """The stratum index deriving *pred* (-1 for EDB predicates)."""
        for index, stratum in enumerate(self.strata):
            if any(self.rules[i].head.pred == pred for i in stratum):
                return index
        return -1

    def max_idb_body_atoms(self) -> int:
        """Max IDB atoms in any body — 0/1 means the recursion is *linear*
        and the whole program fits a single SQLite ``WITH RECURSIVE``."""
        return max(
            (
                sum(1 for a in rule.body if a.pred in self.idb)
                for rule in self.rules
            ),
            default=0,
        )

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def compile_program(tgds: Sequence[TGD]) -> DatalogProgram:
    """Compile a **full** TGD set into a stratified Datalog program.

    >>> from repro.tgds import parse_tgds
    >>> program = compile_program(parse_tgds(
    ...     ["R(x, y) -> S(x, y)", "S(x, y), S(y, z) -> S(x, z)"]
    ... ))
    >>> len(program.rules), len(program.strata)
    (2, 1)
    """
    rules: list[DatalogRule] = []
    for tgd in tgds:
        if not tgd.is_full():
            raise ValueError(
                f"cannot compile {tgd!r} to Datalog: existential heads are "
                "not expressible; evaluate guarded Σ with the chase's "
                "'guarded' strategy instead (backend='datalog' does so)"
            )
        for single in tgd.split_head():
            rules.append(
                DatalogRule(single.body, single.head[0], name=single.name)
            )
    return DatalogProgram(rules)


def stratify(rules: Sequence[DatalogRule]) -> list[list[int]]:
    """Strata = SCC condensation of the head→body dependency graph.

    Returns rule-index groups in evaluation order: a rule lands after
    every rule deriving a predicate its body reads, except within a
    mutually recursive SCC, which stays together.  Tarjan-free
    implementation: iterative Kosaraju over the predicate graph.
    """
    idb = {r.head.pred for r in rules}
    # Predicate graph: edge derived-pred -> body-pred (IDB only).
    preds = sorted(idb)
    edges: dict[str, set[str]] = {p: set() for p in preds}
    for rule in rules:
        for atom in rule.body:
            if atom.pred in idb:
                edges[rule.head.pred].add(atom.pred)

    # Iterative DFS post-order on the forward graph.
    order: list[str] = []
    seen: set[str] = set()
    for root in preds:
        if root in seen:
            continue
        stack: list[tuple[str, Iterable[str]]] = [(root, iter(sorted(edges[root])))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(edges[nxt]))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    # Reverse graph, processed in reverse post-order → SCCs.
    redges: dict[str, set[str]] = {p: set() for p in preds}
    for src, dsts in edges.items():
        for dst in dsts:
            redges[dst].add(src)
    component: dict[str, int] = {}
    components: list[list[str]] = []
    for root in reversed(order):
        if root in component:
            continue
        group: list[str] = []
        stack2 = [root]
        component[root] = len(components)
        while stack2:
            node = stack2.pop()
            group.append(node)
            for nxt in sorted(redges[node]):
                if nxt not in component:
                    component[nxt] = len(components)
                    stack2.append(nxt)
        components.append(group)

    # Kosaraju yields components in reverse-topological order of the
    # condensation of the *forward* (head→body) graph: a head's component
    # appears before its dependencies.  Evaluation wants dependencies
    # first, so components are emitted reversed.
    strata: list[list[int]] = []
    for group in reversed(components):
        members = set(group)
        stratum = [
            i for i, rule in enumerate(rules) if rule.head.pred in members
        ]
        if stratum:
            strata.append(stratum)
    return strata
