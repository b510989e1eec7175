"""Oracle memoization under per-request budgets.

Contract (mirrors the summary cache's): a budget trip aborts the query
*before* any memo store, so a degraded (budget-interrupted) answer can
never be served from cache later.  Under a wall-clock budget genuine
memo hits stay free even once it is exhausted; an FM or ops limit
meters work, so under one the memo is not read at all.
"""

import time

import pytest

from repro import perf
from repro.predicates import oracle
from repro.predicates.atoms import LinAtom
from repro.predicates.formula import p_and, p_atom
from repro.service.budgets import Budget, BudgetExceeded, budget_scope, checkpoint
from repro.symbolic.affine import AffineExpr

from tests.predicates.reference import ground_is_unsat

C = AffineExpr.const
X = AffineExpr.var("x")
Y = AffineExpr.var("y")


@pytest.fixture(autouse=True)
def _fresh_oracle():
    perf.reset_all_caches()
    yield
    perf.reset_all_caches()


def _fm_pred():
    """Two-variable contradiction: the interval tier cannot settle it,
    so the query must reach the (budgeted) Fourier–Motzkin kernel.
    (Not a structural complement, so ``p_and`` does not fold it.)"""
    return p_and(
        p_atom(LinAtom.le(X - Y, C(0))),
        p_atom(LinAtom.le(Y - X, C(-2))),
    )


def test_budget_trip_leaves_no_memo_entry():
    p = _fm_pred()
    with pytest.raises(BudgetExceeded):
        with budget_scope(Budget(max_ops=0)):
            oracle.is_unsat(p)
    assert p not in oracle._UNSAT.data
    assert all(p not in conj for conj in oracle._CONJUNCT.data)


def test_implies_trip_leaves_no_memo_entry():
    p = _fm_pred()
    q = p_atom(LinAtom.le(X, C(0)))
    with pytest.raises(BudgetExceeded):
        with budget_scope(Budget(max_ops=0)):
            oracle.implies(p, q)
    assert (p, q) not in oracle._IMPLIES.data


def test_unbudgeted_query_computes_and_caches():
    p = _fm_pred()
    assert oracle.is_unsat(p)
    assert oracle._UNSAT.data[p] is True


def test_memo_hit_is_free_under_exhausted_budget():
    p = _fm_pred()
    assert oracle.is_unsat(p)  # warm the memo, unbudgeted
    with budget_scope(Budget(max_wall_s=0.0)):
        time.sleep(0.001)
        with pytest.raises(BudgetExceeded):
            checkpoint()  # exhausted
        assert oracle.is_unsat(p)  # pure hit: no kernel work, no trip


def test_metered_budget_reads_no_memo():
    p = _fm_pred()
    assert oracle.is_unsat(p)  # warm the memo, unbudgeted
    with pytest.raises(BudgetExceeded):
        with budget_scope(Budget(max_ops=0)):
            oracle.is_unsat(p)  # recomputed, so the kernel work trips
    assert oracle._UNSAT.data[p] is True


def test_recompute_after_trip_yields_correct_answer():
    """A tripped query leaves the oracle able to answer correctly once
    resources allow."""
    p = _fm_pred()
    with pytest.raises(BudgetExceeded):
        with budget_scope(Budget(max_ops=0)):
            oracle.is_unsat(p)
    assert oracle.is_unsat(p) is True
    assert oracle.is_unsat(p) == ground_is_unsat(p)
