"""The ground predicate oracle: the reference the tiered oracle must match.

:mod:`repro.predicates.oracle` answers ``is_unsat`` / ``implies`` /
``equivalent`` through memoized structural, interval and exact tiers.
This module keeps the uncached, untiered path those answers must always
equal: expand to DNF, then decide each conjunct by boolean complements
among opaque/divisibility literals and exact Fourier–Motzkin
feasibility of the linear ones.

:func:`ground_oracle` routes the oracle module's functions to the
ground path, and runs linear entailment, ``simplify`` and summary
containment without their memo tables, for the extent of a ``with``
block, so whole analyses can be run both ways and compared byte for
byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro import perf
from repro.linalg.constraint import Constraint
from repro.linalg.feasibility import is_feasible
from repro.linalg.system import LinearSystem
from repro.predicates import oracle
from repro.predicates.atoms import LinAtom
from repro.predicates.formula import Atom, NotPred, Predicate, p_and, p_not
from repro.predicates.simplify import Conjunct, to_dnf


def conjunct_infeasible(conj: Conjunct) -> bool:
    """Is a single conjunct of literals contradictory?

    Checks boolean complements on opaque/div literals and exact
    infeasibility of the conjoined linear atoms.
    """
    positives = set()
    negatives = set()
    constraints = []
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
        return True
    if constraints:
        # conjuncts are frozensets: sort so the constructed system (and
        # every op count derived from it) is hash-seed independent
        constraints.sort(key=Constraint.sort_key)
        return not is_feasible(LinearSystem(constraints))
    return False


def ground_is_unsat(pred: Predicate) -> bool:
    """The uncached, untiered unsatisfiability test (reference path)."""
    if pred.is_false():
        return True
    if pred.is_true():
        return False
    dnf = to_dnf(pred)
    if dnf is None:
        return False
    return all(conjunct_infeasible(c) for c in dnf)


def ground_implies(p: Predicate, q: Predicate) -> bool:
    """``p → q`` via the ground unsatisfiability of ``p ∧ ¬q``."""
    if p.is_false() or q.is_true():
        return True
    return ground_is_unsat(p_and(p, p_not(q)))


def ground_dnf(pred: Predicate) -> Optional[Tuple[Conjunct, ...]]:
    """`to_dnf` with the default bound, uncached; ``None`` on abort."""
    dnf = to_dnf(pred)
    return None if dnf is None else tuple(dnf)


#: (module, attribute, ground replacement); ``oracle.equivalent`` calls
#: the module's ``implies``, so it follows along
_ROUTES = (
    (oracle, "is_unsat", ground_is_unsat),
    (oracle, "implies", ground_implies),
    (oracle, "cached_dnf", ground_dnf),
    (oracle, "conjunct_unsat", conjunct_infeasible),
)

#: memo tables the ground path runs without: linear entailment
#: (``repro.linalg.implication.entails``, which ``simplify`` and the
#: region operations bind at import), whole-result ``simplify`` and
#: summary containment (``repro.arraydf.values._covers``)
_UNMEMOIZED = (
    "pred.oracle.entails",
    "pred.oracle.simplify",
    "pred.oracle.covers",
)


class _NoStore(dict):
    """A memo table's ``data`` that keeps nothing: every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


@contextmanager
def ground_oracle() -> Iterator[None]:
    """Answer every oracle query on the ground path inside the block.

    Callers reach the oracle through module attributes at call time
    (``repro.predicates.simplify`` and the dependence test do), so
    rebinding them routes the whole analysis; the memo tables of the
    remaining predicate-level queries store nothing.  Caches are reset
    on entry and exit: no memo filled on one path serves the other, and
    the process pool is torn down, so ``jobs > 1`` workers fork with
    the routing in place.
    """
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in _ROUTES]
    tables = [perf.memo_table(name) for name in _UNMEMOIZED]
    saved_data = [table.data for table in tables]
    perf.reset_all_caches()
    for mod, name, fn in _ROUTES:
        setattr(mod, name, fn)
    for table in tables:
        table.data = _NoStore()
    try:
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
        for table, data in zip(tables, saved_data):
            table.data = data
        perf.reset_all_caches()
