"""Span recorder for the traced run, and the launcher that installs it.

Run as ``python tracing.py SPANS_FILE serve ...``: the launcher rebinds the
layers' public entry points to recording wrappers, then runs the shipped
``repro.cli.main`` with the remaining arguments.  The untraced run starts
``python -m repro serve`` directly and installs nothing.

A span records its layer name, start, end, parent span and request id.
Repeated calls into one layer under one parent span (every resume of a
homomorphism generator, say) fold into one record that also keeps the
call count and the summed busy time, so memory grows with requests times
layers, not with calls.  A layer's self time is its busy time minus the
busy time of its child spans.  Records stay in memory and are written as
JSON lines when ``main`` returns.

Request ids come from the wire: the ``id`` field of each request line.
The service evaluates on a worker thread that ``run_in_executor`` starts
without the request's context, so the service span is looked up there by
the identity of the request's query object.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter
_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("sid", "name", "parent", "rid", "start", "end", "busy", "calls", "items", "children")

    def __init__(self, sid, name, parent, rid):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = None
        self.end = None
        self.busy = 0.0
        self.calls = 0
        self.items = 0
        self.children = {}

    def as_dict(self) -> dict:
        return {
            "sid": self.sid,
            "name": self.name,
            "parent": None if self.parent is None else self.parent.sid,
            "rid": self.rid,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "calls": self.calls,
            "items": self.items,
        }


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: id(query object) -> service span, for the thread hop.
        self.links: dict[int, Span] = {}

    def root(self, name: str) -> Span:
        span = Span(len(self.spans), name, None, None)
        self.spans.append(span)
        return span

    def child(self, name: str) -> Span | None:
        """The span for *name* under the current span (folded per parent)."""
        parent = _current.get()
        if parent is None:
            return None  # work outside any request (e.g. the dispatcher)
        span = parent.children.get(name)
        if span is None:
            span = Span(len(self.spans), name, parent, parent.rid)
            parent.children[name] = span
            self.spans.append(span)
        return span

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                if span.rid is not None:
                    out.write(json.dumps(span.as_dict()) + "\n")


def _enter(span: Span):
    token = _current.set(span)
    start = _clock()
    if span.start is None:
        span.start = start
    return token, start


def _leave(span: Span, token, start) -> None:
    end = _clock()
    span.busy += end - start
    span.calls += 1
    span.end = end
    _current.reset(token)


def wrap_call(rec: Recorder, name: str, fn, *, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.child(name)
        if span is None:
            return fn(*args, **kwargs)
        token, start = _enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            _leave(span, token, start)
        if count is not None:
            span.items += count(result)
        return result

    return wrapper


def wrap_generator(rec: Recorder, name: str, fn):
    """Time every resume of the generator, not the call that creates it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.child(name)
        gen = fn(*args, **kwargs)
        if span is None:
            return gen
        return _resumes(span, gen)

    return wrapper


def _resumes(span: Span, gen):
    try:
        while True:
            token, start = _enter(span)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                _leave(span, token, start)
            yield item
    finally:
        gen.close()


def wrap_async(rec: Recorder, name: str, fn, *, link_arg=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = rec.child(name)
        if span is None:
            return await fn(*args, **kwargs)
        if link_arg is not None:
            rec.links[id(args[link_arg])] = span
        token, start = _enter(span)
        try:
            return await fn(*args, **kwargs)
        finally:
            _leave(span, token, start)
            if link_arg is not None:
                rec.links.pop(id(args[link_arg]), None)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to *original* at
    *replacement*: modules import these names directly."""
    for modname, module in list(sys.modules.items()):
        if modname == "repro" or modname.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


#: Modules on the request path, imported before rebinding so that no
#: later import re-creates an unwrapped binding.
_MODULES = [
    "repro.cli",
    "repro.serve.net",
    "repro.serve.service",
    "repro.engine",
    "repro.evaluation",
    "repro.omq.evaluation",
    "repro.datalog.backend",
    "repro.datalog.saturation",
    "repro.chase.cache",
    "repro.chase.engine",
    "repro.chase.rewriting",
    "repro.queries.sql",
    "repro.queries.evaluation",
    "repro.datamodel.homomorphisms",
    "repro.datamodel.planner",
    "repro.tgds.satisfaction",
    "repro.cqs.cqs",
]

#: Layer name -> (module, function names) for plain functions.
FUNCTIONS = {
    "engine": ("repro.evaluation", ["evaluate"]),
    "datalog.backend": (
        "repro.datalog.backend",
        ["choose_backend", "datalog_certain_answers", "sql_certain_answers"],
    ),
    "chase.engine": ("repro.chase.engine", ["chase", "extend_chase", "resume_chase"]),
    "datalog.saturation": ("repro.datalog.saturation", ["saturate"]),
    "queries.sql": (
        "repro.queries.sql",
        ["load_into_sqlite", "execute_ucq", "evaluate_via_sqlite", "saturate_in_sqlite"],
    ),
    "datamodel.homomorphisms": ("repro.datamodel.homomorphisms", ["find_homomorphism"]),
    "datamodel.planner": ("repro.datamodel.planner", ["plan_for"]),
}
#: Layer name -> (module, generator function names).
GENERATORS = {
    "queries.evaluation": ("repro.queries.evaluation", ["iter_answers"]),
    "datamodel.homomorphisms": ("repro.datamodel.homomorphisms", ["find_homomorphisms"]),
}
#: Layer name -> (module, class, method names) for methods.
METHODS = {
    "engine": ("repro.engine", "Engine", ["certain_answers", "evaluate"]),
    "chase.cache": ("repro.chase.cache", "ChaseCache", ["chase", "materialise"]),
}


def install(rec: Recorder) -> None:
    """Rebind the entry points of every traced layer to recording wrappers."""
    for name in _MODULES:
        importlib.import_module(name)
    for layer, (modname, names) in FUNCTIONS.items():
        module = sys.modules[modname]
        for fname in names:
            original = getattr(module, fname)
            _rebind(original, wrap_call(rec, layer, original))
    for layer, (modname, names) in GENERATORS.items():
        module = sys.modules[modname]
        for fname in names:
            original = getattr(module, fname)
            if not inspect.isgeneratorfunction(original):
                raise TypeError(f"{modname}.{fname} is no longer a generator")
            _rebind(original, wrap_generator(rec, layer, original))
    rewrite = sys.modules["repro.chase.rewriting"].rewrite_ucq
    _rebind(rewrite, wrap_call(rec, "chase.rewriting", rewrite, count=len))
    for layer, (modname, cls, names) in METHODS.items():
        klass = getattr(sys.modules[modname], cls)
        for mname in names:
            setattr(klass, mname, wrap_call(rec, layer, getattr(klass, mname)))
    _install_service(rec)


def _install_service(rec: Recorder) -> None:
    """serve.net spans one request line from its arrival to its response
    write; serve.service spans ``QueryService.submit``; the worker-thread
    evaluation is linked back to its service span."""
    net = sys.modules["repro.serve.net"]
    service = sys.modules["repro.serve.service"]
    read_frame, write_line, parse_request = net._read_frame, net._write_line, net._parse_request

    async def traced_read_frame(*args, **kwargs):
        frame = await read_frame(*args, **kwargs)
        if isinstance(frame, bytes):
            span = rec.root("serve.net")
            _current.set(span)
            span.start = _clock()
        return frame

    async def traced_write_line(*args, **kwargs):
        try:
            await write_line(*args, **kwargs)
        finally:
            span = _current.get()
            if span is not None and span.parent is None:
                span.end = _clock()
                span.busy = span.end - span.start
                span.calls = 1
                _current.set(None)

    def traced_parse_request(svc, payload):
        span = _current.get()
        if span is not None and "id" in payload:
            span.rid = payload["id"]
        return parse_request(svc, payload)

    net._read_frame = traced_read_frame
    net._write_line = traced_write_line
    net._parse_request = traced_parse_request

    klass = service.QueryService
    klass.submit = wrap_async(rec, "serve.service", klass.submit, link_arg=2)
    evaluate_on_worker = klass._evaluate

    def linked_evaluate(self, req, *args, **kwargs):
        token = _current.set(rec.links.get(id(req.query)))
        try:
            return evaluate_on_worker(self, req, *args, **kwargs)
        finally:
            _current.reset(token)

    klass._evaluate = linked_evaluate


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
