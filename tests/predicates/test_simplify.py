"""Unit tests for semantic predicate operations."""

from repro.predicates.atoms import LinAtom, OpaqueAtom
from repro.predicates.formula import (
    FALSE,
    TRUE,
    p_and,
    p_atom,
    p_not,
    p_or,
)
from repro.predicates.simplify import (
    equivalent,
    implies,
    is_unsat,
    simplify,
    to_dnf,
)
from repro.symbolic.affine import AffineExpr

from tests.predicates.reference import conjunct_infeasible

X = AffineExpr.var("x")
Y = AffineExpr.var("y")
C = AffineExpr.const

GT5 = p_atom(LinAtom.gt(X, C(5)))
LE0 = p_atom(LinAtom.le(X, C(0)))
GT3 = p_atom(LinAtom.gt(X, C(3)))
P = p_atom(OpaqueAtom("p", ()))
Q = p_atom(OpaqueAtom("q", ()))


class TestDNF:
    def test_constants(self):
        assert to_dnf(FALSE) == []
        assert to_dnf(TRUE) == [frozenset()]

    def test_literal(self):
        assert to_dnf(P) == [frozenset([P])]

    def test_or_of_ands(self):
        f = p_or(p_and(P, Q), GT5)
        dnf = to_dnf(f)
        assert len(dnf) == 2

    def test_distribution(self):
        f = p_and(p_or(P, Q), GT5)
        dnf = to_dnf(f)
        assert len(dnf) == 2
        assert all(any(lit == GT5 for lit in conj) for conj in dnf)

    def test_limit_gives_none(self):
        big = p_and(
            *[p_or(p_atom(OpaqueAtom(f"a{i}", ())), p_atom(OpaqueAtom(f"b{i}", ())))
              for i in range(12)]
        )
        assert to_dnf(big, limit=16) is None


class TestUnsat:
    def test_linear_contradiction(self):
        assert is_unsat(p_and(GT5, LE0))

    def test_linear_satisfiable(self):
        assert not is_unsat(p_and(GT5, GT3))

    def test_opaque_complement(self):
        assert is_unsat(p_and(P, p_not(P)))

    def test_mixed_disjunction(self):
        # (x>5 ∧ x<=0) ∨ (p ∧ ¬p) — both arms contradictory
        f = p_or(p_and(GT5, LE0), p_and(P, p_not(P)))
        assert is_unsat(f)

    def test_opaque_relaxation_conservative(self):
        # p ∧ q is satisfiable as free booleans
        assert not is_unsat(p_and(P, Q))

    def test_conjunct_infeasible_direct(self):
        conj = frozenset([GT5, LE0])
        assert conjunct_infeasible(conj)


class TestImplies:
    def test_linear_strengthening(self):
        assert implies(GT5, GT3)
        assert not implies(GT3, GT5)

    def test_reflexive(self):
        for f in (GT5, P, p_and(GT5, P)):
            assert implies(f, f)

    def test_conjunction_implies_conjunct(self):
        assert implies(p_and(P, GT5), P)
        assert implies(p_and(P, GT5), GT5)

    def test_disjunct_implies_disjunction(self):
        assert implies(P, p_or(P, Q))

    def test_false_implies_anything(self):
        assert implies(FALSE, P)

    def test_anything_implies_true(self):
        assert implies(P, TRUE)

    def test_equivalent_after_normalization(self):
        a = p_atom(LinAtom.gt(X, C(5)))
        b = p_atom(LinAtom.ge(X, C(6)))
        assert equivalent(a, b)

    def test_demorgan_equivalence(self):
        assert equivalent(p_not(p_and(P, Q)), p_or(p_not(P), p_not(Q)))


class TestSimplify:
    def test_unsat_collapses(self):
        assert simplify(p_and(GT5, LE0)) is FALSE

    def test_valid_collapses(self):
        assert simplify(p_or(GT5, p_not(GT5))) is TRUE

    def test_entailed_linear_dropped(self):
        # x > 5 ∧ x > 3 simplifies to x > 5
        s = simplify(p_and(GT5, GT3))
        assert s == GT5

    def test_or_absorption(self):
        # (x>5) ∨ (x>3) simplifies to x>3
        s = simplify(p_or(GT5, GT3))
        assert s == GT3

    def test_opaque_preserved(self):
        s = simplify(p_and(P, GT5))
        assert implies(s, P) and implies(s, GT5)

    def test_simplify_keeps_semantics(self):
        from repro.predicates.evaluate import evaluate

        f = p_or(p_and(GT5, GT3), p_and(LE0, GT3))
        s = simplify(f)
        for x in range(-2, 10):
            assert evaluate(f, {"x": x}) == evaluate(s, {"x": x})
