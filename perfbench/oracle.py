"""Expected answers, computed in the client before the server starts.

Each request is answered by a different route from the one ``auto`` takes
in the server, so a fault in the served route cannot hide in the oracle:

* OMQs the server sends to sql or datalog: the delta chase, then the UCQ;
* OMQs the server sends to the chase: the *naive* trigger strategy;
* closed-world queries: the homomorphism search with ``plan=None``
  (dynamic per-node ordering instead of a compiled join plan).

The chase of one database is shared by every query asked over it.
"""

from __future__ import annotations

from repro import CQS, evaluate, parse_database, parse_tgds, parse_ucq
from repro.chase import chase
from repro.datalog.backend import choose_backend
from repro.queries import evaluate_ucq


def _rows(answers) -> frozenset:
    return frozenset(tuple(str(t) for t in row) for row in answers)


class Oracle:
    def __init__(self, tenants: dict[str, list[str]]) -> None:
        self.tgds = {name: parse_tgds("\n".join(rules)) for name, rules in tenants.items()}
        self.routes = {name: choose_backend(t) for name, t in self.tgds.items()}
        self._chased: dict[tuple, tuple] = {}

    def _chase(self, tenant: str, database: list[str]):
        key = (tenant, tuple(database))
        if key not in self._chased:
            db = parse_database(", ".join(database))
            strategy = "naive" if self.routes[tenant] == "chase" else "delta"
            result = chase(db, self.tgds[tenant], strategy=strategy)
            if not result.terminated:
                raise RuntimeError(f"oracle chase did not terminate for {tenant}")
            self._chased[key] = (result.instance, db.dom())
        return self._chased[key]

    def answers(self, request: dict) -> frozenset:
        tenant, kind = request["tenant"], request["kind"]
        query = parse_ucq(request["query"])
        if kind == "omq":
            instance, dom = self._chase(tenant, request["database"])
            rows = evaluate_ucq(query, instance, plan=None)
            return _rows(r for r in rows if all(c in dom for c in r))
        db = parse_database(", ".join(request["database"]))
        if kind == "cqs":
            return _rows(evaluate(CQS(self.tgds[tenant], query), db, plan=None).answers)
        return _rows(evaluate(query, db, plan=None).answers)
