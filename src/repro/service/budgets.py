"""Per-request resource budgets and the degradation signal.

A :class:`Budget` bounds how much work one analysis request may spend:

``max_wall_s``
    wall-clock seconds for the whole request;
``max_ops``
    deterministic substrate operations (:func:`repro.perf.total_ops`
    delta) — the machine-independent cost measure FIGO uses;
``max_fm_constraints``
    cumulative Fourier–Motzkin work (bound-pair combinations charged by
    :func:`charge_fm` in :mod:`repro.linalg.fourier_motzkin`).

The substrate layers call :func:`checkpoint` / :func:`charge_fm` at
their entry points; when the active budget is exhausted they raise
:class:`BudgetExceeded`.  The analysis layers catch it at two
granularities and *degrade instead of failing*:

* :class:`~repro.arraydf.analysis.ArrayDataflow` demotes the procedure
  being analyzed to a conservative whole-array summary
  (:mod:`repro.service.degrade`);
* the parallelization driver demotes the loop being decided to
  ``serial`` ("not proven parallel").

Both demotions are sound — they only ever move answers toward "not
parallel" — and both bump a ``budget.*`` counter surfaced by
``--profile``.  A budget keeps raising while exhausted (checks are
cheap), so after the first trip every remaining unit/loop degrades
quickly rather than continuing to burn the request's time.

A memo or summary-cache hit answers without work, and the tables are
shared by every job of a process.  So work under an FM or ops limit is
*metered* (:func:`metered`): it reads no memoized or cached answer, and
whether it exhausts an FM limit depends on the request alone, never on
what this process or a concurrent job computed before.  (The ops limit
reads :func:`repro.perf.total_ops`, which counts every thread's work.)

The module is intentionally light (stdlib + :mod:`repro.perf` only) so
the linear-algebra substrate can import it without cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro import perf

perf.declare("budget.trip.wall")
perf.declare("budget.trip.ops")
perf.declare("budget.trip.fm")
perf.declare("budget.degraded_unit")
perf.declare("budget.degraded_loop")


class BudgetExceeded(RuntimeError):
    """A resource budget ran out; carriers catch this and degrade."""

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail
        message = f"{kind} budget exhausted"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


@dataclass(frozen=True)
class Budget:
    """Resource limits for one analysis request (``None`` = unlimited)."""

    max_wall_s: Optional[float] = None
    max_ops: Optional[int] = None
    max_fm_constraints: Optional[int] = None

    @staticmethod
    def unlimited() -> "Budget":
        return Budget()

    #: the only keys a request's ``budget`` object may carry
    KEYS = ("max_wall_s", "max_ops", "max_fm_constraints")

    @staticmethod
    def from_dict(data: Optional[Dict]) -> "Budget":
        """Build from a request payload.

        Unknown keys are *rejected* (:class:`ValueError` naming the bad
        key) rather than silently ignored — a typo like ``max_walls``
        would otherwise grant an unlimited budget while the client
        believes one is in force.
        """
        if not data:
            return Budget()
        unknown = sorted(set(data) - set(Budget.KEYS))
        if unknown:
            raise ValueError(
                "unknown budget key(s): "
                + ", ".join(repr(k) for k in unknown)
                + " (allowed: " + ", ".join(Budget.KEYS) + ")"
            )
        return Budget(
            max_wall_s=data.get("max_wall_s"),
            max_ops=data.get("max_ops"),
            max_fm_constraints=data.get("max_fm_constraints"),
        )

    @property
    def is_unlimited(self) -> bool:
        return (
            self.max_wall_s is None
            and self.max_ops is None
            and self.max_fm_constraints is None
        )


class _ActiveBudget:
    """Book-keeping for the budget currently in scope."""

    __slots__ = ("budget", "metered", "started", "ops_base", "fm_spent", "trips")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.metered = budget.max_ops is not None or budget.max_fm_constraints is not None
        self.started = time.perf_counter()
        self.ops_base = perf.total_ops()
        self.fm_spent = 0
        self.trips: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _trip(self, kind: str, detail: str) -> None:
        first = kind not in self.trips
        self.trips[kind] = self.trips.get(kind, 0) + 1
        if first:
            perf.bump(f"budget.trip.{kind}")
        raise BudgetExceeded(kind, detail)

    def checkpoint(self) -> None:
        b = self.budget
        if b.max_wall_s is not None:
            used = time.perf_counter() - self.started
            if used > b.max_wall_s:
                self._trip("wall", f"{used:.3f}s > {b.max_wall_s}s")
        if b.max_ops is not None:
            used_ops = perf.total_ops() - self.ops_base
            if used_ops > b.max_ops:
                self._trip("ops", f"{used_ops} > {b.max_ops}")

    def charge_fm(self, amount: int) -> None:
        b = self.budget
        if b.max_fm_constraints is None:
            self.checkpoint()
            return
        self.fm_spent += amount
        if self.fm_spent > b.max_fm_constraints:
            self._trip(
                "fm", f"{self.fm_spent} > {b.max_fm_constraints} constraints"
            )
        self.checkpoint()

    @property
    def degraded(self) -> bool:
        return bool(self.trips)


#: the budget in scope for the current request, held **per thread**.
#: The worker fleet (:mod:`repro.service.workers`) runs several jobs
#: concurrently on threads, each under its own budget; a process-global
#: slot would let one job's budget meter another job's work.  Pool
#: worker *processes* activate their own scope from the shipped request
#: payload.
class _ThreadBudget(threading.local):
    #: class default: a thread that never set one pays no failed lookup
    active: Optional[_ActiveBudget] = None


_tls = _ThreadBudget()


def active_budget() -> Optional[_ActiveBudget]:
    """The calling thread's active budget book-keeping, or ``None``."""
    return _tls.active


def metered() -> bool:
    """Whether an FM or ops limit is in force for the calling thread, so
    no memo table or summary-cache entry may answer (module docstring)."""
    active = _tls.active
    return active is not None and active.metered


def clear_thread_budget() -> None:
    """Drop any budget inherited by this thread (forked pool workers).

    A forked worker process begins life as a copy of the submitting
    thread — including that thread's active budget.  Tasks carry their
    own shipped remaining budget, so the inherited scope must go before
    the worker starts serving.
    """
    _tls.active = None


def record_trips(trips: Dict[str, int]) -> None:
    """Count trips a pool worker's scope recorded against the calling
    thread's scope, so a request fanned out to processes still reports
    itself degraded."""
    active = active_budget()
    if active is not None:
        for kind, n in trips.items():
            active.trips[kind] = active.trips.get(kind, 0) + n


@contextmanager
def budget_scope(budget: Optional[Budget]) -> Iterator[Optional[_ActiveBudget]]:
    """Activate *budget* for the dynamic extent of the block.

    ``None`` or an unlimited budget leaves enforcement off (zero
    overhead in the substrate hot paths).  Scopes nest; the inner scope
    wins while active.  The scope is per-thread.
    """
    if budget is None or budget.is_unlimited:
        yield None
        return
    previous = active_budget()
    scope = _ActiveBudget(budget)
    _tls.active = scope
    try:
        yield scope
    finally:
        _tls.active = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Disable budget enforcement for the block (calling thread only).

    The degradation paths run under an *exhausted* budget by definition;
    the (cheap, bounded) work of building a conservative fallback must
    not re-trip it.
    """
    previous = active_budget()
    _tls.active = None
    try:
        yield
    finally:
        _tls.active = previous


def checkpoint() -> None:
    """Raise :class:`BudgetExceeded` if the active budget ran out.

    Cheap no-op without an active budget; hot substrate entry points
    (feasibility tests, FM elimination) call this.
    """
    active = active_budget()
    if active is not None:
        active.checkpoint()


def charge_fm(amount: int) -> None:
    """Charge *amount* units of Fourier–Motzkin work to the budget."""
    active = active_budget()
    if active is not None:
        active.charge_fm(amount)
