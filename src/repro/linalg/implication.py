"""Entailment and containment between systems.

All proofs go through infeasibility of a conjunction with a negated
constraint; since rational infeasibility implies integer infeasibility,
every ``True`` answer is a real proof.  ``False`` means "could not prove",
never "disproved".
"""

from __future__ import annotations

from typing import Iterable

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.feasibility import is_feasible
from repro.linalg.system import LinearSystem
from repro.service.budgets import metered

#: the predicate oracle's entailment cache — it lives down here because
#: `linalg` must not import the predicates layer; `_drop_entailed_linear`
#: and `remove_redundant` both route through it
_ENTAILS = perf.memo_table("pred.oracle.entails", cap=32768)


def entails(system: LinearSystem, constraint: Constraint) -> bool:
    """Does every integer point of *system* satisfy *constraint*?

    Proven by showing ``system ∧ ¬constraint`` infeasible.  Equalities
    split into the two strict sides.  Memoized.
    """
    if constraint.is_tautology():
        return True
    if system.is_trivially_empty():
        return True
    key = (system, constraint)
    hit = perf.MISS if metered() else _ENTAILS.data.get(key, perf.MISS)
    if hit is not perf.MISS:
        _ENTAILS.hits += 1
        return hit
    _ENTAILS.misses += 1
    result = _entails_uncached(system, constraint)
    _ENTAILS.data[key] = result
    return result


def _entails_uncached(system: LinearSystem, constraint: Constraint) -> bool:
    if constraint.rel is Rel.EQ:
        lt = Constraint(constraint.expr + 1, Rel.LE)  # expr <= -1
        gt = Constraint(-constraint.expr + 1, Rel.LE)  # expr >= 1
        return not is_feasible(system.conjoin(lt)) and not is_feasible(
            system.conjoin(gt)
        )
    return not is_feasible(system.conjoin(constraint.negate()))


def system_implies(antecedent: LinearSystem, consequent: LinearSystem) -> bool:
    """Does *antecedent* ⊆ *consequent* hold (as point sets)?"""
    return all(entails(antecedent, c) for c in consequent)


def systems_equivalent(a: LinearSystem, b: LinearSystem) -> bool:
    """Mutual containment."""
    return system_implies(a, b) and system_implies(b, a)


def remove_redundant(system: LinearSystem) -> LinearSystem:
    """Drop constraints entailed by the remaining ones.

    One pass: each constraint is tested against the conjunction of the
    already-kept prefix and the not-yet-visited suffix.  This computes
    the same fixpoint as the classic remove-one-and-restart loop —
    entailment is monotone in the constraint set, so a constraint kept
    against the full set stays non-entailed after later removals — but
    with one entailment test per constraint instead of O(n²) restarts
    (each a feasibility call), and every test lands in the oracle's
    entailment cache.
    """
    kept = list(system.constraints)
    out: list = []
    for i, c in enumerate(kept):
        rest = LinearSystem(out + kept[i + 1 :])
        if not entails(rest, c):
            out.append(c)
    return LinearSystem(out)


def any_entailed(system: LinearSystem, candidates: Iterable[Constraint]) -> bool:
    """True if *system* entails at least one of *candidates*."""
    return any(entails(system, c) for c in candidates)
