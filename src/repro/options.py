"""Session-level evaluation options — the frozen v1 configuration surface.

Two things live here, both importable straight from :mod:`repro`:

* the **parallelism markers** :class:`ProcessPool` and the deprecated
  :class:`ThreadPool`, which say how the chase's per-level trigger search
  is sharded; and
* :class:`EvalOptions`, the one dataclass that bundles every session-level
  evaluation knob (strategy, trigger strategy, join plan policy, backend,
  parallelism, level bound) so it can be built once and handed to
  :func:`repro.evaluate`, :class:`repro.Engine`, and
  :meth:`repro.serve.QueryService.submit` alike; the backend names it
  accepts are :data:`BACKENDS`, checked by :func:`check_backend` at every
  entry point.

Parallelism semantics (v1)
--------------------------

``parallelism=`` accepts ``ProcessPool(n)``, ``None`` (serial), or a
plain int.  Process workers are the one sharding mechanism because the
trigger search is CPU-bound pure Python: thread shards contend on the GIL
and ran at 0.66–0.98× serial speed on E19's sharded workload (2-vCPU
host), so ``ThreadPool(n)`` now emits a :class:`DeprecationWarning` and
runs serially — its results were always bit-identical to serial.  Passing
a bare int > 1 — which used to mean *threads* — still works for one
release as *n* processes but emits a :class:`DeprecationWarning`; spell
the intent with a marker instead.  ``ProcessPool()`` with no width
defaults to the CPU count.

:func:`resolve_parallelism` is the single normalisation point: every
entry-path knob funnels through it to a ``(kind, workers)`` pair with
``kind in {"serial", "process"}`` and ``workers >= 1``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import warnings
from dataclasses import dataclass
from typing import ClassVar, Union

__all__ = [
    "BACKENDS",
    "EvalOptions",
    "Parallelism",
    "ProcessPool",
    "ThreadPool",
    "check_backend",
    "resolve_parallelism",
]

#: The evaluation backends every ``backend=`` knob accepts.
BACKENDS = ("auto", "chase", "datalog", "sql")


def check_backend(backend: str) -> str:
    """Return *backend* if it names one of :data:`BACKENDS`, else raise."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            + ", ".join(repr(name) for name in BACKENDS)
        )
    return backend


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise ValueError(f"pool workers must be >= 1 or None, got {workers}")


@dataclass(frozen=True)
class ProcessPool:
    """Shard each level's trigger search across *workers* OS processes.

    ``ProcessPool()`` (workers=None) sizes the pool to the CPU count at
    run time.  Workers are persistent for the duration of one chase: they
    receive the TGD shard and intern-pool snapshot once, then per-level
    deltas (see :mod:`repro.chase.procpool`).
    """

    workers: int | None = None
    kind: ClassVar[str] = "process"

    def __post_init__(self) -> None:
        _check_workers(self.workers)


@dataclass(frozen=True)
class ThreadPool:
    """Deprecated: runs the trigger search serially, with a warning.

    Thread shards contended on the GIL and never beat the serial search,
    so :func:`resolve_parallelism` maps this marker to serial and emits a
    :class:`DeprecationWarning`; use :class:`ProcessPool` to shard.
    """

    workers: int | None = None
    kind: ClassVar[str] = "thread"

    def __post_init__(self) -> None:
        _check_workers(self.workers)


#: Everything the ``parallelism=`` knob accepts.
Parallelism = Union[ProcessPool, ThreadPool, int, None]


#: The top-level package name: frames whose module lies under it are ours.
_PACKAGE = __name__.partition(".")[0]


def _warn_deprecated(message: str) -> None:
    """Emit a DeprecationWarning at the first stack frame outside the package.

    The markers reach :func:`resolve_parallelism` through ``chase()``,
    ``EvalOptions``, ``Engine`` and the service, each at a different depth;
    a fixed ``stacklevel`` lands inside the package for most of them, and
    Python's default filters hide a DeprecationWarning attributed there.
    """
    frame = sys._getframe(1)
    level = 2  # stacklevel 2 is this function's caller, i.e. *frame*
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module != _PACKAGE and not module.startswith(_PACKAGE + "."):
            break
        frame = frame.f_back
        level += 1
    warnings.warn(message, DeprecationWarning, stacklevel=level)


def resolve_parallelism(parallelism: Parallelism) -> tuple[str, int]:
    """Normalise a ``parallelism=`` value to ``(kind, workers)``.

    ``None`` → ``("serial", 1)``; a :class:`ProcessPool` resolves to
    processes with ``workers=None`` meaning the CPU count, and a width of
    1 collapses to serial (there is nothing to shard).  A
    :class:`ThreadPool` resolves to serial with a
    :class:`DeprecationWarning`.  A bare int > 1 resolves to processes with
    a one-release :class:`DeprecationWarning` (ints used to mean threads);
    a bare 1 is serial and warns nothing.
    """
    if parallelism is None:
        return ("serial", 1)
    if isinstance(parallelism, ThreadPool):
        _warn_deprecated(
            f"{parallelism!r} is deprecated and runs serially (thread shards "
            "never beat the serial trigger search); pass None, or "
            "ProcessPool(n) to shard across processes"
        )
        return ("serial", 1)
    if isinstance(parallelism, ProcessPool):
        workers = parallelism.workers
        if workers is None:
            workers = os.cpu_count() or 1
        return (parallelism.kind, workers) if workers > 1 else ("serial", 1)
    if not isinstance(parallelism, int) or isinstance(parallelism, bool):
        raise TypeError(
            "parallelism must be ProcessPool(n), an int, or None, got "
            f"{parallelism!r}"
        )
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1 or None, got {parallelism}")
    if parallelism == 1:
        return ("serial", 1)
    _warn_deprecated(
        f"parallelism={parallelism} as a bare int now means {parallelism} "
        "worker *processes* (it used to mean threads) and will require a "
        f"marker in the next release; spell it ProcessPool({parallelism})"
    )
    return ("process", parallelism)


@dataclass(frozen=True)
class EvalOptions:
    """Session-level evaluation options, bundled once and reused everywhere.

    Accepted by :func:`repro.evaluate` (``options=``), :class:`repro.Engine`
    (``options=``), and :meth:`repro.serve.QueryService.submit`
    (``options=``).  Explicit keyword arguments at a call site always win
    over the bundled value — options are *defaults for the session*, not
    overrides.

    Attributes
    ----------
    strategy:
        OMQ evaluation strategy (``"auto"``, ``"chase"``, ``"bounded"``) —
        see :func:`repro.omq.certain_answers`.
    trigger_strategy:
        Chase trigger search: ``"delta"`` (semi-naive) or ``"naive"``.
    plan:
        Join-ordering policy for UCQ evaluation (``"auto"`` or ``None``).
    backend:
        Evaluation backend, one of :data:`BACKENDS`.  ``"auto"`` is
        resolved per Σ before the chase knobs apply, so they take effect
        whenever it picks the chase.
    parallelism:
        How to shard the chase's per-level trigger search — a
        :class:`ProcessPool` marker or ``None`` (serial).
    level_bound:
        Level bound for the bounded strategy (``None`` → the default).
    """

    strategy: str = "auto"
    trigger_strategy: str = "delta"
    plan: str | None = "auto"
    backend: str = "chase"
    parallelism: Parallelism = None
    level_bound: int | None = None

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside a chase: normalising here
        # surfaces a bad width/kind immediately (the result is discarded).
        resolve_parallelism(self.parallelism)
        check_backend(self.backend)

    def replace(self, **changes) -> "EvalOptions":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)
