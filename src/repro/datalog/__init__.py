"""Datalog programs, their saturation, and the non-chase backends.

:func:`compile_program` turns full TGDs into a stratified
:class:`DatalogProgram`; :func:`saturate` computes its least model by
running the semi-naive delta chase (:func:`repro.chase.chase`) over the
rules — the chase is the one semi-naive engine.  The OMQ-level backends
(:mod:`repro.datalog.backend` — Datalog saturation for full Σ, the
chase's ``"guarded"`` strategy for guarded Σ with existentials, and
SQLite pushdown, behind ``repro.evaluate(..., backend=)``) also pull in
the OMQ layer and SQL compiler, and are therefore exposed lazily
(PEP 562), keeping ``import repro.datalog`` light.  ``BACKENDS`` is a
re-export of :data:`repro.options.BACKENDS`.
"""

from __future__ import annotations

from .program import DatalogProgram, DatalogRule, compile_program, stratify
from .saturation import SaturationRun, saturate

__all__ = [
    "DatalogProgram",
    "DatalogRule",
    "SaturationRun",
    "compile_program",
    "saturate",
    "stratify",
    # Lazily exposed from .backend:
    "BACKENDS",
    "BackendUnsupported",
    "choose_backend",
    "datalog_certain_answers",
    "sql_certain_answers",
]

_BACKEND_NAMES = {
    "BACKENDS",
    "BackendUnsupported",
    "choose_backend",
    "datalog_certain_answers",
    "sql_certain_answers",
}


def __getattr__(name: str):
    if name in _BACKEND_NAMES:
        from . import backend

        return getattr(backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
