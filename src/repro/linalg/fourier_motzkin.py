"""Fourier–Motzkin variable elimination.

Projection is **exact over the rationals** and a **superset over the
integers** (the real shadow).  Both directions the analysis relies on are
sound with this choice:

* *independence / coverage proofs* show a system infeasible; rational
  infeasibility implies integer infeasibility, so proofs are never wrong;
* *dependence reports* may be conservative (a rationally-feasible but
  integer-empty conflict system reports a dependence that does not exist),
  which can only suppress a parallelization, never break one.

Constraint normalization in :class:`~repro.linalg.constraint.Constraint`
additionally applies gcd-based integer tightening to every produced
inequality, which recovers exactness for the common single-variable cases
(e.g. ``2*i <= 5`` becomes ``i <= 2``).

Both :func:`eliminate` and :func:`eliminate_all` are memoized on the
interned identity of their arguments; region projection repeatedly
eliminates the same loop indices from the same systems, and the memo
turns those repeats into dictionary lookups.

The kernel works on the interned symbolic objects directly: every
combined bound pair is a normalized, interned
:class:`~repro.linalg.constraint.Constraint`.  Region systems stay tiny
(a handful of constraints over two or three variables), so there is no
lowered matrix form to amortize.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Iterable, List, Tuple

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.system import LinearSystem
from repro.service.budgets import charge_fm, metered

# Pair-combination blowup guard: systems beyond this many constraints fall
# back to dropping the variable's constraints entirely (a coarser but still
# sound superset).
MAX_CONSTRAINTS = 600

# Intermediate systems larger than this get a cheap pairwise-redundancy
# sweep between eliminations; small systems are left untouched so their
# canonical forms (and rendered predicates) match the unswept pipeline.
SIMPLIFY_THRESHOLD = 32

_ELIM = perf.memo_table("fm.eliminate", cap=8192)
_ELIM_ALL = perf.memo_table("fm.eliminate_all", cap=8192)

perf.declare("fm.fallback_drop")

#: cap on remembered analysis contexts: a long-lived ``repro serve``
#: process sees an unbounded stream of context labels, so the warned set
#: evicts oldest-first instead of growing forever
_WARNED_CONTEXTS_MAX = 512

#: analysis-context labels (procedure / loop) already warned about; the
#: warning fires once per context, further drops there only count.  A
#: dict (insertion-ordered) used as a bounded FIFO set.
_warned_contexts: dict = {}


def _reset_warned() -> None:
    _warned_contexts.clear()


perf.on_reset(_reset_warned)


def _mark_warned(ctx: str) -> bool:
    """Record *ctx* as warned-about; True when it was new (warn now)."""
    if ctx in _warned_contexts:
        return False
    if len(_warned_contexts) >= _WARNED_CONTEXTS_MAX:
        _warned_contexts.pop(next(iter(_warned_contexts)))
    _warned_contexts[ctx] = True
    return True


#: when set, fallback warnings are appended here instead of emitted
#: (process-executor workers capture, the parent replays)
_capture: list = None  # type: ignore[assignment]


@contextmanager
def capture_fallback_warnings():
    """Collect fallback warnings as ``(context, message)`` records.

    Pool workers run tasks under this context manager and ship the
    records to the parent instead of warning on their own stderr; the
    parent replays them through :func:`replay_fallback_warnings`, whose
    dedup set spans *all* workers — so a context that trips in four
    workers still warns exactly once, same as the serial path.  The
    worker-local ``_warned_contexts`` set still dedups what gets
    captured, keeping shipped records small.
    """
    global _capture
    previous = _capture
    records: list = []
    _capture = records
    try:
        yield records
    finally:
        _capture = previous


def replay_fallback_warnings(records) -> None:
    """Re-emit captured worker warnings, once per analysis context."""
    for ctx, message in records:
        if _mark_warned(ctx):
            warnings.warn(message, RuntimeWarning, stacklevel=2)


def _note_fallback(var: str, n_pairs: int) -> None:
    """Record a precision-losing fallback drop.

    Drops are attributed to the procedure/loop being analyzed via the
    perf analysis-context stack: one warning per context (not one per FM
    call), with per-context totals in the ``fm.fallback_drop[<ctx>]``
    counters that ``--profile`` reports.
    """
    ctx = perf.current_context()
    perf.bump("fm.fallback_drop")
    perf.bump(f"fm.fallback_drop[{ctx}]")
    if _mark_warned(ctx):
        message = (
            "Fourier-Motzkin elimination of %r in %s would combine %d bound "
            "pairs (> %d); dropping the variable's constraints instead. The "
            "result is a sound superset but loses precision. Further drops "
            "here are counted in perf counter 'fm.fallback_drop[%s]' "
            "without warning." % (var, ctx, n_pairs, MAX_CONSTRAINTS * 4, ctx)
        )
        if _capture is not None:
            _capture.append((ctx, message))
        else:
            warnings.warn(message, RuntimeWarning, stacklevel=3)


def _split_bounds(
    system: LinearSystem, var: str
) -> Tuple[List[Constraint], List[Constraint], List[Constraint], List[Constraint]]:
    """Partition constraints by their relation to *var*.

    Returns (lower bounds, upper bounds, equalities containing var,
    constraints not mentioning var).  For a ``<=`` constraint
    ``a*var + rest <= 0``: ``a > 0`` makes it an upper bound on var,
    ``a < 0`` a lower bound.
    """
    lowers: List[Constraint] = []
    uppers: List[Constraint] = []
    eqs: List[Constraint] = []
    others: List[Constraint] = []
    for c in system:
        a = c.expr.coeff(var)
        if a == 0:
            others.append(c)
        elif c.rel is Rel.EQ:
            eqs.append(c)
        elif a > 0:
            uppers.append(c)
        else:
            lowers.append(c)
    return lowers, uppers, eqs, others


def eliminate(system: LinearSystem, var: str) -> LinearSystem:
    """Project *var* out of *system* (memoized).

    Strategy: if an equality pins ``var`` with a unit coefficient, solve
    and substitute (exact over the integers).  Otherwise rewrite remaining
    equalities as inequality pairs and combine every lower bound with every
    upper bound.
    """
    if var not in system.variables():
        return system
    key = (system, var)
    cached = None if metered() else _ELIM.data.get(key)
    if cached is not None:
        _ELIM.hits += 1
        return cached
    _ELIM.misses += 1
    result = _eliminate_uncached(system, var)
    _ELIM.data[key] = result
    return result


def _eliminate_uncached(system: LinearSystem, var: str) -> LinearSystem:
    perf.bump("fm.eliminate")
    lowers, uppers, eqs, others = _split_bounds(system, var)

    # Exact substitution via a unit-coefficient equality.
    from repro.symbolic.affine import AffineExpr

    for eq in eqs:
        a = eq.expr.coeff(var)
        if abs(a) == 1:
            # a*var + rest == 0  =>  var = -rest/a  (a is ±1)
            rest = eq.expr + AffineExpr.var(var, -a)
            solution = -rest if a == 1 else rest
            remaining = [c for c in system if c is not eq]
            return LinearSystem(
                c.substitute({var: solution}) for c in remaining
            )

    # Demote equalities to inequality pairs.
    for eq in eqs:
        a = eq.expr.coeff(var)
        le = Constraint(eq.expr, Rel.LE)
        ge = Constraint(-eq.expr, Rel.LE)
        if a > 0:
            uppers.append(le)
            lowers.append(ge)
        else:
            lowers.append(le)
            uppers.append(ge)

    n_pairs = len(lowers) * len(uppers)
    if n_pairs > MAX_CONSTRAINTS * 4:
        # Combinatorial blowup: drop the variable's constraints (sound
        # superset).  In practice region systems stay tiny.
        _note_fallback(var, n_pairs)
        return LinearSystem(others)

    charge_fm(n_pairs)
    combined: List[Constraint] = list(others)
    for lo in lowers:
        a_lo = lo.expr.coeff(var)  # negative
        for up in uppers:
            a_up = up.expr.coeff(var)  # positive
            # lo: a_lo*var + r_lo <= 0  =>  var >= r_lo / (-a_lo)
            # up: a_up*var + r_up <= 0  =>  var <= -r_up / a_up
            # combine: a_up * r_lo - a_lo * r_up <= 0 (note -a_lo > 0)
            new_expr = lo.expr * a_up - up.expr * a_lo
            # the var terms cancel: a_lo*a_up - a_up*a_lo = 0
            combined.append(Constraint(new_expr, Rel.LE))
    perf.bump("fm.pair_combine", n_pairs)
    result = LinearSystem(combined)
    if len(result) > MAX_CONSTRAINTS:
        result = result.simplified()
    return result


def eliminate_all(system: LinearSystem, variables: Iterable[str]) -> LinearSystem:
    """Project out *variables* one at a time, cheapest-first (memoized).

    The ordering heuristic minimizes the expected constraint growth each
    round: variables pinned by a unit-coefficient equality are eliminated
    first (exact substitution, no growth), then the variable with the
    smallest lower-bound × upper-bound product.
    """
    todo0 = tuple(sorted(v for v in set(variables) if v in system.variables()))
    if not todo0:
        return system
    key = (system, todo0)
    cached = None if metered() else _ELIM_ALL.data.get(key)
    if cached is not None:
        _ELIM_ALL.hits += 1
        return cached
    _ELIM_ALL.misses += 1
    current = _eliminate_all_uncached(system, todo0)
    _ELIM_ALL.data[key] = current
    return current


def _eliminate_all_uncached(
    system: LinearSystem, todo0: Tuple[str, ...]
) -> LinearSystem:
    todo = list(todo0)
    current = system
    while todo:
        # re-rank each round: elimination changes occurrence counts
        live = current.variables()
        todo = [v for v in todo if v in live]
        if not todo:
            break
        costs = {}
        for v in todo:
            n_lo = n_up = 0
            unit_eq = False
            for c in current:
                a = c.expr.coeff(v)
                if a == 0:
                    continue
                if c.rel is Rel.EQ:
                    if abs(a) == 1:
                        unit_eq = True
                    n_lo += 1
                    n_up += 1
                elif a > 0:
                    n_up += 1
                else:
                    n_lo += 1
            costs[v] = (0 if unit_eq else 1, n_lo * n_up)
        todo.sort(key=lambda v: (costs[v], v))
        var = todo.pop(0)
        current = eliminate(current, var)
        if len(current) > SIMPLIFY_THRESHOLD:
            current = current.simplified()
    return current
