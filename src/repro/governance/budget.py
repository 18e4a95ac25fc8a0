"""The resource governor: one budget object for every expensive procedure.

Every nontrivial procedure in this reproduction is worst-case exponential —
that is the paper's point (Thms 5.1/5.3/5.7: evaluation is 2ExpTime-hard in
general, FPT only under bounded treewidth) — so every engine must be
*interruptible*.  Instead of one ad-hoc cap per module (`max_atoms` here, a
retry budget there, nothing anywhere for wall-clock time), a single
:class:`Budget` is threaded through the chase engines, the homomorphism
search, the UCQ rewriter, exact treewidth, and the finite-controllability
witness construction.

Design
------

* A :class:`Budget` carries a wall-clock **deadline**, an **atom budget**
  (instance size), a **step budget** (governed work units), and a
  cooperative **cancellation** flag.
* Engines call :meth:`Budget.check` at well-known *check sites* —
  ``"trigger-fire"`` before firing a chase trigger, ``"hom-backtrack"`` per
  candidate fact in the backtracking join, ``"rewrite-step"`` per resolution
  /factorization candidate, ``"treewidth-branch"`` per elimination-order
  branch, ``"expansion-node"`` per guarded-chase-forest node,
  ``"type-table"`` per type-completion trigger, ``"restricted-fire"`` and
  ``"witness-attempt"`` for the restricted chase and witness retries.
* A trip raises a subclass of :class:`BudgetExceeded` whose ``code`` is the
  machine-readable trip reason.  The frame that owns a meaningful partial
  result catches the exception (or lets a wrapper catch it) and either
  attaches the partial via :meth:`BudgetExceeded.attach` or converts the
  trip into a *graceful degradation*: the chase returns a level-wise prefix,
  ``certain_answers`` returns sound partial answers with ``complete=False``,
  exact treewidth falls back to the min-fill upper bound.
* :meth:`Budget.inject` is a **fault-injection hook** for the
  ``tests/faults/`` suite: the n-th check (optionally at one specific site)
  raises a chosen exception, proving that a trip at *any* site leaves
  partial results consistent.

Soundness invariant: every engine arranges its mutations so that state is
consistent *between* any two checks (e.g. a trigger's head atoms are added
atomically, with no check in between), so a trip can never tear a result.

Thread safety
-------------

A single :class:`Budget` may be shared by the worker threads of the
parallel chase (``chase(..., parallelism=N)``).  :meth:`Budget.check`,
:meth:`Budget.cancel`, and :meth:`Budget.inject` take an internal lock, so
counters (``checks``, ``steps``, ``site_counts``) never lose updates and a
one-shot injection fires on exactly one thread.  The contract for engines
stays the same as in the serial case: keep shared state consistent between
any two checks, and let the first frame that owns a meaningful partial
result catch the trip.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import Counter
from typing import Callable

__all__ = [
    "Budget",
    "BudgetExceeded",
    "DeadlineExceeded",
    "AtomBudgetExceeded",
    "StepBudgetExceeded",
    "Cancelled",
    "TRIP_CODES",
    "trip_exception",
    "CHECK_SITES",
    "UnregisteredCheckSiteWarning",
]


class BudgetExceeded(RuntimeError):
    """Base of the budget-trip hierarchy.

    Attributes
    ----------
    code:
        The machine-readable trip reason (``"deadline"``, ``"atom budget"``,
        ``"step budget"``, ``"cancelled"``) — also what governed results
        report as their ``trip``/``reason``.
    site:
        The check site that tripped (e.g. ``"trigger-fire"``).
    partial:
        The partial result accumulated before the trip, when a frame on the
        unwind path attached one (a chase prefix, a partial rewriting, ...).
    stats:
        The :class:`~repro.datamodel.EvalStats` accumulated so far, when
        attached.
    checkpoint:
        A resumable :class:`~repro.governance.ChaseCheckpoint`, when the
        tripped engine supports checkpointing (the chase engines set it on
        the unwind path; ``None`` elsewhere).
    """

    code = "budget"

    def __init__(
        self,
        message: str = "",
        *,
        site: str | None = None,
        partial=None,
        stats=None,
    ) -> None:
        super().__init__(message or self.code)
        self.site = site
        self.partial = partial
        self.stats = stats
        self.checkpoint = None

    def attach(self, *, partial=None, stats=None) -> "BudgetExceeded":
        """Fill in partial result / stats while unwinding (first frame wins).

        Intermediate frames closer to the trip know finer-grained state, so
        only unset attributes are overwritten; returns self for re-raising.
        """
        if partial is not None and self.partial is None:
            self.partial = partial
        if stats is not None and self.stats is None:
            self.stats = stats
        return self


class DeadlineExceeded(BudgetExceeded):
    """The wall-clock deadline passed."""

    code = "deadline"


class AtomBudgetExceeded(BudgetExceeded):
    """The governed instance grew past the atom/node budget."""

    code = "atom budget"


class StepBudgetExceeded(BudgetExceeded):
    """The governed step budget (work units) was exhausted."""

    code = "step budget"


class Cancelled(BudgetExceeded):
    """The budget was cooperatively cancelled (or a fault was injected)."""

    code = "cancelled"


#: Machine-readable trip reasons, mapped to their exception classes.
TRIP_CODES: dict[str, type[BudgetExceeded]] = {
    cls.code: cls
    for cls in (DeadlineExceeded, AtomBudgetExceeded, StepBudgetExceeded, Cancelled)
}


def trip_exception(code: str, message: str, **kwargs) -> BudgetExceeded:
    """Build the exception class matching a recorded trip *code*."""
    return TRIP_CODES.get(code, BudgetExceeded)(message, **kwargs)


#: The registry of governed check sites: every ``Budget.check(site, ...)``
#: call in ``src/`` must use one of these names.  The registry is what the
#: chaos harness (``tests/chaos/``) sweeps — a new check site cannot ship
#: without appearing here (a lint test greps the source tree), and appearing
#: here means the chaos driver injects trips at it.  Keys are the site
#: names; values describe what one check covers.
CHECK_SITES: dict[str, str] = {
    "trigger-fire": "oblivious chase: before each semi-oblivious trigger firing",
    "restricted-fire": "restricted chase: before each head-checked firing",
    "hom-backtrack": "homomorphism search: per candidate fact considered",
    "rewrite-step": "UCQ rewriting: per resolution/factorization candidate",
    "treewidth-branch": "exact treewidth: per elimination-order search node",
    "type-table": "blocked chase: per type-completion trigger",
    "expansion-node": "guarded expansion / FC witness: per forest node",
    "witness-attempt": "finite-controllability witness: per retry",
    "sql-load": "SQLite backend: per relation loaded",
    "sql-disjunct": "SQLite backend: per UCQ disjunct executed",
    "sql-pushdown": "SQLite pushdown: per saturation statement executed",
    "serve-admission": "async service: per request offered to admission control",
    "serve-dispatch": "async service: per request handed to an evaluation worker",
}


class UnregisteredCheckSiteWarning(RuntimeWarning):
    """A ``Budget.check`` call used a site name missing from CHECK_SITES.

    Raised (as a warning, once per site per process) so a new governed call
    site cannot silently dodge the chaos-injection sweep; register the site
    in :data:`CHECK_SITES` and give it a scenario in ``tests/chaos/``.
    """


#: Unregistered sites already warned about (warn once per process).
_warned_sites: set[str] = set()
_warned_lock = threading.Lock()


def _warn_unregistered(site: str) -> None:
    with _warned_lock:
        if site in _warned_sites:
            return
        _warned_sites.add(site)
    warnings.warn(
        f"Budget.check called with unregistered site {site!r}; add it to "
        "repro.governance.CHECK_SITES and cover it in tests/chaos/",
        UnregisteredCheckSiteWarning,
        stacklevel=3,
    )


class Budget:
    """Deadline + atom budget + step budget + cooperative cancellation.

    Parameters
    ----------
    deadline:
        Wall-clock seconds from construction; ``None`` disables.
    max_atoms:
        Largest instance size a governed engine may report via
        ``check(..., atoms=n)``; ``None`` disables.
    max_steps:
        Total governed work units (checks with ``step=True``); ``None``
        disables.
    clock:
        Injectable monotonic clock (tests pin time without sleeping).
    hard:
        When True, this budget's deadline is a **hard cap** inherited by
        every budget derived from it: :meth:`child` budgets and
        :meth:`grace` budgets can never outlive it.  This is the service
        layer's deadline-inheritance contract — a request admitted with a
        2 s deadline cannot spend 4 s via a grace extension.  The default
        (False) preserves the original documented behaviour: a root
        budget's :meth:`grace` grants a fresh allowance, bounding a
        governed call's total wall time by *twice* the deadline.

    A single budget may be shared across several cooperating calls (one OMQ
    evaluation = one chase + one UCQ evaluation); counters and the deadline
    are global to the object.  :meth:`grace` derives the answer-extraction
    budget used after a trip, bounding the *total* wall time of a governed
    ``certain_answers`` call by twice the deadline (or by the inherited
    hard cap, when one exists).  :meth:`child` derives a sub-budget that
    can never exceed the parent's remaining allowance.
    """

    __slots__ = (
        "deadline",
        "max_atoms",
        "max_steps",
        "_clock",
        "_start",
        "_expires",
        "_hard_expires",
        "checks",
        "steps",
        "site_counts",
        "_cancel_reason",
        "_inject_at",
        "_inject_site",
        "_inject_exc",
        "_inject_repeats",
        "_lock",
    )

    def __init__(
        self,
        *,
        deadline: float | None = None,
        max_atoms: int | None = None,
        max_steps: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        hard: bool = False,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0")
        self.deadline = deadline
        self.max_atoms = max_atoms
        self.max_steps = max_steps
        self._clock = clock
        self._start = clock()
        self._expires = None if deadline is None else self._start + deadline
        self._hard_expires = self._expires if hard else None
        self.checks = 0
        self.steps = 0
        self.site_counts: Counter[str] = Counter()
        self._cancel_reason: str | None = None
        self._inject_at: int | None = None
        self._inject_site: str | None = None
        self._inject_exc: BaseException | type[BaseException] | None = None
        self._inject_repeats: int = 1
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._start

    def remaining(self) -> float | None:
        """Seconds until the deadline (None if no deadline)."""
        if self._expires is None:
            return None
        return self._expires - self._clock()

    @property
    def cancelled(self) -> bool:
        return self._cancel_reason is not None

    @property
    def expired(self) -> bool:
        """True iff the deadline has passed (False with no deadline)."""
        return self._expires is not None and self._clock() > self._expires

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}s")
        if self.max_atoms is not None:
            parts.append(f"max_atoms={self.max_atoms}")
        if self.max_steps is not None:
            parts.append(f"max_steps={self.max_steps}")
        parts.append(f"checks={self.checks}")
        return f"Budget<{', '.join(parts)}>"

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Cooperatively cancel: the next check raises :class:`Cancelled`.

        Safe to call from any thread; every thread sharing the budget trips
        at its next check.
        """
        with self._lock:
            self._cancel_reason = reason

    def inject(
        self,
        after_n_checks: int,
        *,
        site: str | None = None,
        exc: BaseException | type[BaseException] | None = None,
        repeats: int = 1,
    ) -> None:
        """Fault-injection hook: trip the n-th *future* check.

        Counts checks from now (``after_n_checks=1`` trips the very next
        check); *site* restricts counting to one check site; *exc* is the
        exception instance or class to raise (:class:`Cancelled` by
        default).  *exc* need not be a :class:`BudgetExceeded` — the chaos
        harness injects plain ``RuntimeError`` to simulate a parallel-chase
        worker crashing (a non-budget failure the coordinator must recover
        from).  *repeats* re-arms the injection that many times total, each
        firing on the next matching check — how the harness kills a worker,
        then kills its retry too.  Used by ``tests/faults/`` and
        ``tests/chaos/`` to prove every check site leaves partial results
        consistent and resumable.
        """
        if after_n_checks < 1:
            raise ValueError("after_n_checks must be >= 1")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        with self._lock:
            base = self.site_counts[site] if site is not None else self.checks
            self._inject_at = base + after_n_checks
            self._inject_site = site
            self._inject_exc = exc
            self._inject_repeats = repeats

    def child(
        self,
        *,
        deadline: float | None = None,
        max_atoms: int | None = None,
        max_steps: int | None = None,
        fresh_clock: bool = False,
    ) -> "Budget":
        """A derived budget clamped to this budget's remaining allowance.

        Callers used to hand-compute remaining deadlines (and grace budgets
        could exceed a parent's wall-clock cap entirely); ``child`` is the
        one place that arithmetic lives now:

        * the child's deadline is ``min(deadline, self.remaining())`` (and
          never beyond an inherited hard cap — see the ``hard`` constructor
          flag);
        * ``max_atoms`` is clamped to the parent's ``max_atoms``;
        * ``max_steps`` is clamped to the parent's *unspent* step
          allowance.

        *fresh_clock* is the grace variant (see :meth:`grace`): the
        parent's own — possibly already expired — deadline does not bind,
        only the lineage's hard cap does.  The child propagates the hard
        cap to its own descendants, so a request-level deadline clamps
        every budget derived anywhere below it.  Pending fault injections
        and cancellation are *not* inherited.
        """
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0")
        now = self._clock()
        caps = []
        if deadline is not None:
            caps.append(now + deadline)
        if self._hard_expires is not None:
            caps.append(self._hard_expires)
        if not fresh_clock and self._expires is not None:
            caps.append(self._expires)
        expires = min(caps) if caps else None
        if max_atoms is not None and self.max_atoms is not None:
            max_atoms = min(max_atoms, self.max_atoms)
        elif max_atoms is None:
            max_atoms = self.max_atoms
        remaining_steps = (
            None if self.max_steps is None else max(0, self.max_steps - self.steps)
        )
        if max_steps is not None and remaining_steps is not None:
            max_steps = min(max_steps, remaining_steps)
        elif max_steps is None:
            max_steps = remaining_steps
        derived = Budget(
            deadline=None if expires is None else max(0.0, expires - now),
            max_atoms=max_atoms,
            max_steps=max_steps,
            clock=self._clock,
        )
        derived._hard_expires = self._hard_expires
        return derived

    def grace(self, seconds: float | None = None) -> "Budget":
        """A fresh budget for answer extraction after this one tripped.

        Grants *seconds* of wall clock (default: the original deadline, so a
        governed evaluation's total time is at most twice its deadline) with
        no atom/step budget and no pending injection.  With neither
        *seconds* nor a deadline the grace budget is unlimited.

        Implemented as :meth:`child` with a fresh clock: when the budget
        descends from a **hard** deadline (the async service's per-request
        budgets), the grace allowance is clamped so the total wall time
        never exceeds the inherited cap — ``certain_answers``' post-trip
        answer extraction cannot blow a request's deadline contract.
        """
        limit = seconds if seconds is not None else self.deadline
        derived = self.child(deadline=limit, fresh_clock=True)
        # Grace is answer extraction only: atom/step caps tripped the main
        # leg and must not re-trip the extraction of sound partials.
        derived.max_atoms = None
        derived.max_steps = None
        return derived

    # ------------------------------------------------------------------
    # The check — the single governor entry point
    # ------------------------------------------------------------------
    def check(self, site: str, *, atoms: int | None = None, step: bool = True) -> None:
        """Governor check; raises a :class:`BudgetExceeded` subclass on a trip.

        *site* names the check site (for injection and telemetry); *atoms*
        reports the governed structure's current size against ``max_atoms``;
        ``step=True`` counts one work unit against ``max_steps``.

        Thread-safe: counters are updated under an internal lock, so a
        budget shared by the parallel chase's workers never loses a step
        and a one-shot injection fires on exactly one thread.
        """
        if site not in CHECK_SITES and site not in _warned_sites:
            _warn_unregistered(site)
        with self._lock:
            self.checks += 1
            self.site_counts[site] += 1
            self._maybe_inject(site)
            if self._cancel_reason is not None:
                raise Cancelled(self._cancel_reason, site=site)
            if self._expires is not None and self._clock() > self._expires:
                raise DeadlineExceeded(
                    f"deadline of {self.deadline}s exceeded at {site} "
                    f"(elapsed {self.elapsed():.3f}s)",
                    site=site,
                )
            if (
                atoms is not None
                and self.max_atoms is not None
                and atoms >= self.max_atoms
            ):
                raise AtomBudgetExceeded(
                    f"atom budget of {self.max_atoms} reached at {site} "
                    f"({atoms} atoms)",
                    site=site,
                )
            if step:
                self.steps += 1
                if self.max_steps is not None and self.steps > self.max_steps:
                    raise StepBudgetExceeded(
                        f"step budget of {self.max_steps} exhausted at {site}",
                        site=site,
                    )

    def check_batch(
        self, site: str, n: int, *, atoms: int | None = None, step: bool = True
    ) -> None:
        """Replay *n* checks of *site* in one locked update.

        The process-parallel chase's workers cannot share this object
        across the process boundary, so they run under a local *counting*
        budget and ship their per-site check counts back with the level's
        candidates; the coordinator replays each shard's counts here, **in
        shard order**, before accepting the shard's work.  Replay order is
        fixed, so injection windows, step budgets, and cancellation trip on
        the same shard every run — the determinism the chaos sweep pins.

        Semantically equivalent to *n* successive ``check(site)`` calls,
        with two deliberate deviations: counters land at the full batch
        value even when a trip fires partway through the window (the worker
        already did the work the counters describe), and at most one
        pending injection fires per batch (remaining ``repeats`` stay
        armed for subsequent checks or batches — matching one-kill-per-
        dispatch worker-crash semantics).
        """
        if n <= 0:
            return
        if site not in CHECK_SITES and site not in _warned_sites:
            _warn_unregistered(site)
        with self._lock:
            self.checks += n
            self.site_counts[site] += n
            self._maybe_inject(site)
            if self._cancel_reason is not None:
                raise Cancelled(self._cancel_reason, site=site)
            if self._expires is not None and self._clock() > self._expires:
                raise DeadlineExceeded(
                    f"deadline of {self.deadline}s exceeded at {site} "
                    f"(elapsed {self.elapsed():.3f}s)",
                    site=site,
                )
            if (
                atoms is not None
                and self.max_atoms is not None
                and atoms >= self.max_atoms
            ):
                raise AtomBudgetExceeded(
                    f"atom budget of {self.max_atoms} reached at {site} "
                    f"({atoms} atoms)",
                    site=site,
                )
            if step:
                self.steps += n
                if self.max_steps is not None and self.steps > self.max_steps:
                    raise StepBudgetExceeded(
                        f"step budget of {self.max_steps} exhausted at {site}",
                        site=site,
                    )

    def _maybe_inject(self, site: str) -> None:
        """Fire a pending injection whose ordinal the counters have reached.

        Caller holds ``self._lock``.  Batched replay may jump the counter
        *past* the armed ordinal; ``>=`` catches the window.
        """
        if self._inject_at is None:
            return
        count = (
            self.site_counts[site]
            if self._inject_site == site
            else self.checks if self._inject_site is None else None
        )
        if count is None or count < self._inject_at:
            return
        exc = self._inject_exc
        self._inject_repeats -= 1
        if self._inject_repeats > 0:
            # Re-arm: the next matching check fires again.
            self._inject_at = count + 1
        else:
            self._inject_at = None  # injections exhausted
        if exc is None:
            raise Cancelled(f"fault injected at {site}", site=site)
        if isinstance(exc, type):
            if issubclass(exc, BudgetExceeded):
                raise exc(f"fault injected at {site}", site=site)
            raise exc(f"fault injected at {site}")
        if isinstance(exc, BudgetExceeded):
            exc.site = exc.site or site
        raise exc
