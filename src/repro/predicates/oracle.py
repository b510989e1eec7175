"""Tiered predicate oracle: memoized `is_unsat` / `implies` / `equivalent`.

The predicate layer's semantic queries all reduce to unsatisfiability of
a DNF expansion, conjunct by conjunct.  This module answers them through
three tiers, cheapest first, with every result memoized in
predicate-keyed tables:

* **tier 0 — structural**: boolean complements among opaque/divisibility
  literals, pairwise structural complements among linear atoms
  (``c ∧ ¬c``), and syntactic conjunct subsumption (a conjunct that is a
  superset of one already proven infeasible is infeasible);
* **tier 1 — intervals**: the single-variable bounds abstraction of
  :mod:`repro.linalg.intervals`, which refutes or proves rational
  feasibility without eliminating any variables;
* **tier 2 — exact**: the Fourier–Motzkin feasibility kernel, invoked
  on the same sorted system the ground path builds.

The oracle is a pure cost optimization: tiers 0 and 1 only answer when
their verdict provably coincides with tier 2 (see the agreement argument
in ``intervals.py``), and the DNF expansion (including its abort bound)
is byte-identical to the ground path's — so every query returns what
the uncached, untiered ground path would.  That ground path lives in
``tests/predicates/reference.py``, which the identity tests route the
analysis through.

Budget contract (mirrors the PR 2 summary-cache contract): tier 2 runs
under `service.budgets` checkpoints inside the feasibility kernel; a
``BudgetExceeded`` escaping a query aborts it *before* any memo store,
so degraded (budget-interrupted) answers are never cached, while memo
hits stay free under any budget.

Counters (visible under ``--profile``): ``pred.oracle.tier0`` /
``tier1`` / ``tier2`` count which tier settled each conjunct;
``pred.oracle.unsat`` / ``implies`` / ``conjunct`` / ``dnf`` /
``negate`` are the memo tables, reset by ``perf.reset_all_caches()``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from repro import perf
from repro.linalg import intervals
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.feasibility import is_feasible
from repro.linalg.system import LinearSystem
from repro.predicates.atoms import LinAtom
from repro.predicates.formula import Atom, NotPred, Predicate, p_and, p_not
from repro.predicates.simplify import to_dnf
from repro.service.budgets import metered

Conjunct = FrozenSet[Predicate]

perf.declare("pred.oracle.tier0")
perf.declare("pred.oracle.tier1")
perf.declare("pred.oracle.tier2")

_UNSAT = perf.memo_table("pred.oracle.unsat", cap=32768)
_IMPLIES = perf.memo_table("pred.oracle.implies", cap=32768)
_CONJUNCT = perf.memo_table("pred.oracle.conjunct", cap=32768)
_DNF = perf.memo_table("pred.oracle.dnf", cap=32768)
_NEGATE = perf.memo_table("pred.oracle.negate", cap=32768)

_MISS = perf.MISS


# ----------------------------------------------------------------------
# cached DNF
# ----------------------------------------------------------------------


def cached_dnf(pred: Predicate) -> Optional[Tuple[Conjunct, ...]]:
    """`to_dnf` with the default bound, memoized; ``None`` on abort."""
    hit = _DNF.data.get(pred, _MISS)
    if hit is not _MISS:
        _DNF.hits += 1
        return hit
    _DNF.misses += 1
    dnf = to_dnf(pred)
    result = None if dnf is None else tuple(dnf)
    _DNF.data[pred] = result
    return result


# ----------------------------------------------------------------------
# per-conjunct tiers
# ----------------------------------------------------------------------


def _conjunct_unsat_uncached(conj: Conjunct) -> bool:
    positives = set()
    negatives = set()
    constraints: List[Constraint] = []
    for lit in conj:
        if isinstance(lit, Atom):
            if isinstance(lit.atom, LinAtom):
                constraints.append(lit.atom.constraint)
            else:
                positives.add(lit.atom)
        elif isinstance(lit, NotPred):
            negatives.add(lit.operand.atom)
        else:  # pragma: no cover - literals are atoms by construction
            raise TypeError(f"not a literal: {lit!r}")
    if positives & negatives:
        perf.bump("pred.oracle.tier0")
        return True
    if not constraints:
        perf.bump("pred.oracle.tier0")
        return False
    # tier 0: pairwise structural complements (c ∧ ¬c is infeasible)
    cset = frozenset(constraints)
    for c in cset:
        if c.rel is Rel.LE and c.negate() in cset:
            perf.bump("pred.oracle.tier0")
            return True
    # tier 1: interval/box reasoning, exact whenever definitive
    verdict = intervals.classify_constraints(constraints)
    if verdict == intervals.INFEASIBLE:
        perf.bump("pred.oracle.tier1")
        return True
    if verdict == intervals.FEASIBLE:
        perf.bump("pred.oracle.tier1")
        return False
    # tier 2: the exact kernel, invoked exactly as the ground path does
    perf.bump("pred.oracle.tier2")
    constraints.sort(key=Constraint.sort_key)
    return not is_feasible(LinearSystem(constraints))


def conjunct_unsat(conj: Conjunct) -> bool:
    """Tiered, memoized contradiction test for one literal conjunct.

    Always agrees with the ground conjunct test (exact feasibility of
    the conjoined linear atoms, boolean complements among the rest).
    """
    hit = _MISS if metered() else _CONJUNCT.data.get(conj, _MISS)
    if hit is not _MISS:
        _CONJUNCT.hits += 1
        return hit
    _CONJUNCT.misses += 1
    result = _conjunct_unsat_uncached(conj)
    _CONJUNCT.data[conj] = result
    return result


# ----------------------------------------------------------------------
# the public queries
# ----------------------------------------------------------------------


def is_unsat(pred: Predicate) -> bool:
    """Sound unsatisfiability; identical to the ground path's answer."""
    if pred.is_false():
        return True
    if pred.is_true():
        return False
    hit = _MISS if metered() else _UNSAT.data.get(pred, _MISS)
    if hit is not _MISS:
        _UNSAT.hits += 1
        return hit
    _UNSAT.misses += 1
    dnf = cached_dnf(pred)
    if dnf is None:
        result = False  # expansion aborted: cannot prove (ground behavior)
    else:
        result = True
        proven: List[Conjunct] = []
        for conj in dnf:
            # tier 0: syntactic subsumption against proven conjuncts
            if any(p <= conj for p in proven):
                perf.bump("pred.oracle.tier0")
                continue
            if conjunct_unsat(conj):
                proven.append(conj)
                continue
            result = False
            break
    _UNSAT.data[pred] = result
    return result


def _negated(q: Predicate) -> Predicate:
    hit = _NEGATE.data.get(q, _MISS)
    if hit is not _MISS:
        _NEGATE.hits += 1
        return hit
    _NEGATE.misses += 1
    result = p_not(q)
    _NEGATE.data[q] = result
    return result


def implies(p: Predicate, q: Predicate) -> bool:
    """Sound implication (``p → q`` proven via unsat of ``p ∧ ¬q``)."""
    if p.is_false() or q.is_true():
        return True
    key = (p, q)
    hit = _MISS if metered() else _IMPLIES.data.get(key, _MISS)
    if hit is not _MISS:
        _IMPLIES.hits += 1
        return hit
    _IMPLIES.misses += 1
    result = is_unsat(p_and(p, _negated(q)))
    _IMPLIES.data[key] = result
    return result


def equivalent(p: Predicate, q: Predicate) -> bool:
    """Sound (incomplete) logical equivalence: implication both ways."""
    return implies(p, q) and implies(q, p)
