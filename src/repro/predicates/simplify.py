"""Semantic operations on predicates: unsatisfiability, implication,
equivalence and feasibility-backed simplification.

All answers are *sound but incomplete*: ``is_unsat`` returning ``True`` is
a proof; returning ``False`` means "could not prove".  Opaque and
divisibility atoms are treated as free booleans (a relaxation, hence
sound for unsat proofs); linear atoms go through the exact Fourier–Motzkin
substrate.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional

from repro import perf
from repro.linalg.constraint import Constraint
from repro.linalg.implication import entails
from repro.linalg.system import LinearSystem
from repro.predicates.atoms import LinAtom
from repro.predicates.formula import (
    AndPred,
    Atom,
    FALSE,
    NotPred,
    OrPred,
    Predicate,
    TRUE,
    p_and,
    p_not,
    p_or,
)
from repro.service.budgets import metered

# Bound on the number of DNF disjuncts explored before giving up.
MAX_DNF = 256

Literal = Predicate  # Atom | NotPred
Conjunct = FrozenSet[Literal]


def to_dnf(pred: Predicate, limit: int = MAX_DNF) -> Optional[List[Conjunct]]:
    """Expand an NNF formula into a list of literal conjuncts.

    Returns ``None`` when the expansion exceeds *limit* (callers must then
    be conservative).
    """
    if pred.is_false():
        return []
    if pred.is_true():
        return [frozenset()]
    if isinstance(pred, (Atom, NotPred)):
        return [frozenset([pred])]
    if isinstance(pred, OrPred):
        out: List[Conjunct] = []
        for op in pred.operands:
            sub = to_dnf(op, limit)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > limit:
                return None
        return out
    if isinstance(pred, AndPred):
        acc: List[Conjunct] = [frozenset()]
        for op in pred.operands:
            sub = to_dnf(op, limit)
            if sub is None:
                return None
            acc = [a | b for a in acc for b in sub]
            if len(acc) > limit:
                return None
        return acc
    raise TypeError(f"unknown predicate node {type(pred).__name__}")


# The semantic queries delegate to the tiered, memoized oracle
# (repro.predicates.oracle); the oracle imports this module's to_dnf,
# so the reference is resolved lazily to break the cycle.

_oracle = None


def _get_oracle():
    global _oracle
    if _oracle is None:
        from repro.predicates import oracle

        _oracle = oracle
    return _oracle


def is_unsat(pred: Predicate) -> bool:
    """Sound unsatisfiability: ``True`` is a proof of unsatisfiability."""
    return _get_oracle().is_unsat(pred)


def implies(p: Predicate, q: Predicate) -> bool:
    """Sound implication test: ``p → q`` proven via unsat of ``p ∧ ¬q``."""
    return _get_oracle().implies(p, q)


def equivalent(p: Predicate, q: Predicate) -> bool:
    """Sound (incomplete) logical equivalence."""
    return _get_oracle().equivalent(p, q)


def linear_system_of(conj: Conjunct) -> LinearSystem:
    """The conjunction of the linear atoms of a conjunct."""
    constraints = [
        lit.atom.constraint
        for lit in conj
        if isinstance(lit, Atom) and isinstance(lit.atom, LinAtom)
    ]
    constraints.sort(key=Constraint.sort_key)
    return LinearSystem(constraints)


_SIMPLIFY = perf.memo_table("pred.oracle.simplify", cap=32768)


def simplify(pred: Predicate) -> Predicate:
    """Feasibility-backed cleanup.

    * conjunctions of linear atoms collapse to FALSE when infeasible and
      drop atoms entailed by the rest;
    * disjunctions drop branches implied by another branch (absorption);
    * unsatisfiable formulas collapse to FALSE; valid ones to TRUE.

    Bounded: the global checks only run when the DNF stays small.
    Memoized (whole-result).
    """
    hit = perf.MISS if metered() else _SIMPLIFY.data.get(pred, perf.MISS)
    if hit is not perf.MISS:
        _SIMPLIFY.hits += 1
        return hit
    _SIMPLIFY.misses += 1
    result = _simplify_uncached(pred)
    _SIMPLIFY.data[pred] = result
    return result


def _simplify_uncached(pred: Predicate) -> Predicate:
    pred = _simplify_node(pred)
    if pred.is_true() or pred.is_false():
        return pred
    if is_unsat(pred):
        return FALSE
    if is_unsat(p_not(pred)):
        return TRUE
    return pred


def _simplify_node(pred: Predicate) -> Predicate:
    if isinstance(pred, AndPred):
        ops = [_simplify_node(op) for op in pred.operands]
        ops = _drop_entailed_linear(ops)
        return p_and(*ops)
    if isinstance(pred, OrPred):
        ops = [_simplify_node(op) for op in pred.operands]
        kept: List[Predicate] = []
        for op in ops:
            if any(implies(op, other) for other in kept):
                continue
            kept = [k for k in kept if not implies(k, op)]
            kept.append(op)
        return p_or(*kept)
    return pred


def _drop_entailed_linear(ops: Iterable[Predicate]) -> List[Predicate]:
    """Within a conjunction, drop linear atoms entailed by the others."""
    ops = list(ops)
    lin_idx = [
        i
        for i, op in enumerate(ops)
        if isinstance(op, Atom) and isinstance(op.atom, LinAtom)
    ]
    if len(lin_idx) < 2:
        return ops
    keep = set(range(len(ops)))
    for i in lin_idx:
        others = LinearSystem(
            ops[j].atom.constraint for j in lin_idx if j != i and j in keep
        )
        if entails(others, ops[i].atom.constraint):
            keep.discard(i)
    return [ops[i] for i in sorted(keep)]
