"""Metrics from the raw replies, the healthz scrapes and the span records.

End-to-end timings are pooled over the whole measured phase.  Layer
counts (the ``EvalStats`` fields of each reply, the route each reply
names and the healthz cache counters) cover the first ``window``
requests of the phase, which are the same requests on every run of a
seed, so the counts repeat exactly.  Layer timings from the wire cover
the whole phase.
"""

from __future__ import annotations

import json
from collections import defaultdict

CACHE_COUNTERS = (
    "hits",
    "misses",
    "extensions",
    "stores",
    "evictions",
    "materialisation_hits",
    "materialisation_stores",
)
#: Layers the traced run reports self time for, outermost first.
TRACED_LAYERS = (
    "serve.net",
    "serve.service",
    "engine",
    "datalog.backend",
    "chase.cache",
    "chase.engine",
    "datalog.saturation",
    "queries.sql",
    "chase.rewriting",
    "queries.evaluation",
    "datamodel.homomorphisms",
    "datamodel.planner",
)
#: (metric, EvalStats field) pairs reported per request over the window.
PER_REQUEST_COUNTS = (
    ("chase.engine.triggers_enumerated_per_req", "triggers_enumerated"),
    ("chase.engine.triggers_fired_per_req", "triggers_fired"),
    ("chase.engine.triggers_deduped_per_req", "triggers_deduped"),
    ("datalog.saturation.rounds_per_req", "datalog_rounds"),
    ("datalog.saturation.facts_per_req", "datalog_facts"),
    ("queries.sql.statements_per_req", "sql_statements"),
    ("datamodel.homomorphisms.homs_found_per_req", "homs_found"),
    ("datamodel.homomorphisms.index_probes_per_req", "index_probes"),
    ("datamodel.homomorphisms.hom_backtracks_per_req", "hom_backtracks"),
    ("datamodel.planner.plans_compiled_per_req", "plans_compiled"),
    ("datamodel.planner.plan_cache_hits_per_req", "plan_cache_hits"),
    ("datamodel.planner.plan_fallbacks_per_req", "plan_fallbacks"),
    ("datamodel.planner.plan_probes_saved_per_req", "plan_probes_saved"),
)


class Unsound(Exception):
    """A served answer that is not a subset of the oracle's."""


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation."""
    data = sorted(values)
    rank = q * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def decode(replies) -> list[dict]:
    return [json.loads(r.raw) for r in replies]


def check(replies, bodies: list[dict], expected: dict) -> int:
    """Failed replies among *replies*; raises :class:`Unsound` on an answer
    outside the oracle's.  A reply fails unless it is ``ok``, complete and
    equal to the oracle."""
    failed = 0
    for reply, body in zip(replies, bodies):
        answers = frozenset(tuple(row) for row in body.get("answers", ()))
        oracle = expected[reply.key]
        if answers - oracle:
            raise Unsound(
                f"request {body.get('id')}: {len(answers - oracle)} answer(s) "
                f"not in the oracle, e.g. {sorted(answers - oracle)[0]}"
            )
        if body.get("status") != "ok" or body.get("complete") is not True or answers != oracle:
            failed += 1
    return failed


def throughput(phase) -> float:
    return len(phase.replies) / phase.wall_s


def server_cpu_ms(phase) -> float:
    return 1e3 * phase.server_cpu_s / len(phase.replies)


def end_to_end(phase, setup_runs: list[float], peak_rss_mb: float) -> dict:
    """Pooled over every request of the phase: a slice of a few seconds
    holds too few of a workload's distinct requests for its percentiles
    to repeat, while the whole phase covers the stream several times."""
    latency = [1e3 * (r.received - r.sent) for r in phase.replies]
    return {
        "throughput_rps": (throughput(phase), "req/s"),
        "latency_p50_ms": (percentile(latency, 0.5), "ms"),
        "latency_p90_ms": (percentile(latency, 0.9), "ms"),
        "server_cpu_ms_per_req": (server_cpu_ms(phase), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (percentile(setup_runs, 0.5), "s"),
    }


def diagnostics(phase) -> dict:
    n = len(phase.replies)
    return {
        "samples": n,
        "samples_beyond_p90": n - 1 - int(0.9 * (n - 1)),
        "server.requests": (
            phase.healthz["after"]["requests"]["total"]
            - phase.healthz["before"]["requests"]["total"]
        ),
        "host.steal_s": round(phase.steal_s, 3),
        "client.cpu_ms_per_req": round(1e3 * phase.client_cpu_s / n, 4),
        "wall_s": round(phase.wall_s, 3),
    }


def _cache_delta(before: dict, after: dict) -> dict:
    return {k: after["cache"][k] - before["cache"][k] for k in CACHE_COUNTERS}


def _clock_digits(body: dict) -> int:
    """Bytes a reply spends on its clock readings, whose printed length
    varies from run to run; response sizes leave them out."""
    readings = [body.get("latency"), body.get("queue_wait")]
    readings.append(body.get("stats", {}).get("wall_seconds"))
    return sum(len(json.dumps(v)) for v in readings if v is not None)


def window_counts(phase, bodies: list[dict], window: int) -> dict:
    """Exact layer counts over the first *window* measured requests."""
    inside = [(r, b) for r, b in zip(phase.replies, bodies) if r.seq < window]
    totals: dict[str, float] = defaultdict(float)
    routes: dict[str, int] = defaultdict(int)
    for reply, body in inside:
        for name, value in body.get("stats", {}).items():
            if name != "wall_seconds":
                totals[name] += value
        routes[body.get("backend", "")] += 1
        totals["request_bytes"] += reply.request_bytes
        totals["response_bytes"] += len(reply.raw) - _clock_digits(body)
    cache = _cache_delta(phase.healthz["before"], phase.healthz["window"])
    return {"requests": len(inside), "stats": dict(totals), "routes": dict(routes), "cache": cache}


def per_layer(phase, bodies: list[dict], window: int) -> dict:
    """The layer metrics that come from the wire (untraced run)."""
    counts = window_counts(phase, bodies, window)
    n = counts["requests"]
    stats, cache = counts["stats"], counts["cache"]
    latency = [1e3 * (r.received - r.sent) for r in phase.replies]
    server_latency = [1e3 * b["latency"] for b in bodies]
    lookups = (
        cache["hits"] + cache["misses"] + cache["extensions"]
        + cache["materialisation_hits"] + cache["materialisation_stores"]
    )
    reused = cache["hits"] + cache["extensions"] + cache["materialisation_hits"]
    enumerated = stats.get("triggers_enumerated", 0)
    homs = stats.get("homs_found", 0)
    out = {
        "serve.net.wire_ms_p50": (
            percentile([c - s for c, s in zip(latency, server_latency)], 0.5), "ms"
        ),
        "serve.net.request_kb": (stats["request_bytes"] / 1024 / n, "KB"),
        "serve.net.response_kb": (stats["response_bytes"] / 1024 / n, "KB"),
        "serve.service.queue_wait_ms_p50": (
            percentile([1e3 * b["queue_wait"] for b in bodies], 0.5), "ms"
        ),
        "serve.service.latency_ms_p50": (percentile(server_latency, 0.5), "ms"),
    }
    for route in ("chase", "datalog", "sql"):
        out[f"datalog.backend.route_{route}_share"] = (
            counts["routes"].get(route, 0) / n, "ratio"
        )
    for name in CACHE_COUNTERS:
        out[f"chase.cache.{name}"] = (cache[name], "count")
    out["chase.cache.reuse_ratio"] = (reused / lookups if lookups else 0.0, "ratio")
    out["chase.engine.ms_per_req"] = (
        1e3 * sum(b.get("stats", {}).get("wall_seconds", 0.0) for b in bodies) / len(bodies),
        "ms",
    )
    for metric, field in PER_REQUEST_COUNTS:
        out[metric] = (stats.get(field, 0) / n, "count")
    out["chase.engine.fire_ratio"] = (
        stats.get("triggers_fired", 0) / enumerated if enumerated else 0.0, "ratio"
    )
    out["datamodel.homomorphisms.probes_per_hom"] = (
        stats.get("index_probes", 0) / homs if homs else 0.0, "ratio"
    )
    out["governance.budget.trips"] = (
        sum(1 for b in bodies if b.get("trip") is not None), "count"
    )
    return out


def self_times(spans: list[dict], requests: set[str]) -> tuple[dict, dict]:
    """Per-layer self seconds and item counts over *requests* (wire ids)."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_busy[span["parent"]] += span["busy"]
    selfs: dict[str, float] = defaultdict(float)
    items: dict[str, int] = defaultdict(int)
    for span in spans:
        if span["rid"] in requests:
            selfs[span["name"]] += span["busy"] - child_busy[span["sid"]]
            items[span["name"]] += span["items"]
    return selfs, items


def traced(spans: list[dict], phase, untraced_phase, window: int) -> dict:
    """The layer self times of the traced run, and its overhead.

    Self times cover the whole phase; the rewriting's CQ count, like the
    wire counts, covers the window."""
    n = len(phase.replies)
    selfs, _ = self_times(spans, {f"m{r.seq}" for r in phase.replies})
    in_window = {f"m{r.seq}" for r in phase.replies if r.seq < window}
    _, items = self_times(spans, in_window)
    out = {
        f"{layer}.self_ms_per_req": (1e3 * selfs.get(layer, 0.0) / n, "ms")
        for layer in TRACED_LAYERS
    }
    out["chase.rewriting.cqs_per_req"] = (
        items.get("chase.rewriting", 0) / len(in_window), "count"
    )
    out["tracing.overhead_pct"] = (
        100.0 * (server_cpu_ms(phase) / server_cpu_ms(untraced_phase) - 1.0), "%"
    )
    out["tracing.throughput_overhead_pct"] = (
        100.0 * (1.0 - throughput(phase) / throughput(untraced_phase)), "%"
    )
    return out


def layer_profile(name: str, counts: dict) -> tuple[bool, str]:
    """Does the workload still exercise what its name says?"""
    c, s, routes = counts["cache"], counts["stats"], counts["routes"]
    chase_n = routes.get("chase", 0)
    if name == "omq-cold":
        ok = (
            c["misses"] == chase_n
            and c["materialisation_stores"] == routes.get("datalog", 0)
            and all(routes.get(r, 0) for r in ("chase", "datalog", "sql"))
        )
        detail = f"misses {c['misses']} / chase-routed {chase_n}, mat stores {c['materialisation_stores']} / datalog-routed {routes.get('datalog', 0)}, routes {routes}"
    elif name == "omq-hot":
        ok = (
            c["misses"] == 0
            and c["materialisation_stores"] == 0
            and s.get("triggers_enumerated", 0) == 0
            and s.get("datalog_rounds", 0) == 0
        )
        detail = f"misses {c['misses']}, mat stores {c['materialisation_stores']}, triggers {s.get('triggers_enumerated', 0)}, rounds {s.get('datalog_rounds', 0)}"
    else:
        lookups = sum(c.values()) - c["evictions"] - c["stores"]
        ok = lookups == 0 and s.get("triggers_enumerated", 0) == 0
        detail = f"cache lookups {lookups}, triggers {s.get('triggers_enumerated', 0)}"
    return ok, detail
