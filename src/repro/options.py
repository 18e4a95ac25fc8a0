"""Session-level evaluation options — the frozen v1 configuration surface.

Two things live here, both importable straight from :mod:`repro`:

* the deprecated **parallelism markers** :class:`ProcessPool` and
  :class:`ThreadPool`, kept for one release so existing callers still
  run; and
* :class:`EvalOptions`, the one dataclass that bundles every session-level
  evaluation knob (strategy, trigger strategy, join plan policy, backend,
  parallelism, level bound) so it can be built once and handed to
  :func:`repro.evaluate`, :class:`repro.Engine`, and
  :meth:`repro.serve.QueryService.submit` alike; the backend names it
  accepts are :data:`BACKENDS`, checked by :func:`check_backend` at every
  entry point.

Parallelism semantics (v1)
--------------------------

The chase's trigger search runs serially.  Neither sharding mechanism
ever beat it: thread shards contended on the GIL (0.66–0.98× serial on
E19's sharded workload, 2-vCPU host), and process shards paid for
shipping every level to the workers and merging back (0.09–0.21× serial
on one CPU, 0.28–0.56× at two workers on two vCPUs).  ``parallelism=``
still accepts ``ProcessPool(n)``, ``ThreadPool(n)``, ``None``, or a
plain int for one release: ``None`` and ``1`` mean serial and stay
silent; a marker or an int > 1 emits a :class:`DeprecationWarning` and
runs serially, with results identical to a serial run.

:func:`check_parallelism` is the single validation point, the twin of
:func:`check_backend`: every entry path that takes the knob funnels
through it, so malformed values still raise.
"""

from __future__ import annotations

import dataclasses
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
    "check_parallelism",
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
    """Deprecated: runs the trigger search serially, with a warning.

    Process shards never beat the serial search, so
    :func:`check_parallelism` warns and the chase runs serially.
    """

    workers: int | None = None
    kind: ClassVar[str] = "process"

    def __post_init__(self) -> None:
        _check_workers(self.workers)


@dataclass(frozen=True)
class ThreadPool:
    """Deprecated: runs the trigger search serially, with a warning.

    Thread shards contended on the GIL and never beat the serial search,
    so :func:`check_parallelism` warns and the chase runs serially.
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

    The markers reach :func:`check_parallelism` through ``chase()``,
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


def check_parallelism(parallelism: Parallelism) -> Parallelism:
    """Return *parallelism* if it is a valid value, else raise.

    ``None`` and ``1`` are serial and pass silently.  A
    :class:`ProcessPool` or :class:`ThreadPool` marker, or an int > 1,
    asks for worker shards the chase no longer has: it emits a
    :class:`DeprecationWarning` and the run stays serial.  Anything else
    raises — ``TypeError`` for a non-int, ``ValueError`` below 1 (a
    marker's width is checked when the marker is built).
    """
    if parallelism is None:
        return parallelism
    if not isinstance(parallelism, (ProcessPool, ThreadPool)):
        if not isinstance(parallelism, int) or isinstance(parallelism, bool):
            raise TypeError(
                f"parallelism must be None or an int, got {parallelism!r}"
            )
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1 or None, got {parallelism}")
        if parallelism == 1:
            return parallelism
    _warn_deprecated(
        f"parallelism={parallelism!r} is deprecated and runs serially "
        "(worker shards never beat the serial trigger search); leave it unset"
    )
    return parallelism


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
        Deprecated: ``None`` or ``1``.  A marker or an int > 1 warns and
        runs serially (see :func:`check_parallelism`).
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
        # Fail (or warn) at construction, not deep inside a chase.
        check_parallelism(self.parallelism)
        check_backend(self.backend)

    def replace(self, **changes) -> "EvalOptions":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)
