"""Single linear constraints, normalized for structural sharing.

A constraint is ``expr REL 0`` with ``REL`` one of ``<=`` or ``==``.
Strict inequalities over the integers are normalized away at construction:
``e < 0`` becomes ``e + 1 <= 0`` (valid because all region/predicate
constraints in this system range over integer-valued program quantities).

Constraints are **hash-consed** at two levels: a raw memo keyed on the
(interned) input expression short-circuits re-normalization of arguments
seen before, and an intern table on the normalized form guarantees that
structurally equal constraints are pointer-equal.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping, Union

from repro import perf
from repro.symbolic.affine import AffineExpr
from repro.symbolic.simplify import integerize, tighten_le

Number = Union[int, Fraction]

_RAW = perf.memo_table("constraint.raw", cap=16384)
_INTERN = perf.memo_table("constraint.intern")


class Rel(enum.Enum):
    """Constraint relation against zero."""

    LE = "<="
    EQ = "=="


class Constraint:
    """An immutable, interned, normalized linear constraint ``expr REL 0``.

    Normalization:

    * coefficients and constant are scaled to integers with content 1;
    * for ``<=`` constraints, integer tightening divides out the gcd of
      the variable coefficients and floors the constant;
    * for ``==`` constraints with variable-coefficient gcd ``g``, if the
      constant is not divisible by ``g`` the constraint is recorded as
      trivially false (it has no integer solutions).
    """

    __slots__ = ("expr", "rel", "_hash", "_sort_key", "_trivial")

    def __new__(cls, expr: AffineExpr, rel: Rel = Rel.LE) -> "Constraint":
        raw_key = (expr, rel)
        self = _RAW.data.get(raw_key)
        if self is not None:
            _RAW.hits += 1
            return self
        _RAW.misses += 1
        perf.bump("constraint.norm")
        norm = tighten_le(expr) if rel is Rel.LE else integerize(expr)
        key = (norm, rel)
        self = _INTERN.data.get(key)
        if self is None:
            _INTERN.misses += 1
            self = object.__new__(cls)
            object.__setattr__(self, "expr", norm)
            object.__setattr__(self, "rel", rel)
            object.__setattr__(self, "_hash", hash(key))
            object.__setattr__(self, "_sort_key", None)
            object.__setattr__(self, "_trivial", None)
            _INTERN.data[key] = self
        else:
            _INTERN.hits += 1
        _RAW.data[raw_key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Constraint is immutable")

    def __reduce__(self):
        # re-intern on unpickle (canonical identity in every process)
        return (Constraint, (self.expr, self.rel))

    # ------------------------------------------------------------------
    # constructors mirroring source-level comparisons
    # ------------------------------------------------------------------
    @staticmethod
    def le(lhs: AffineExpr, rhs: AffineExpr) -> "Constraint":
        """``lhs <= rhs``"""
        return Constraint(lhs - rhs, Rel.LE)

    @staticmethod
    def lt(lhs: AffineExpr, rhs: AffineExpr) -> "Constraint":
        """``lhs < rhs`` over the integers: ``lhs - rhs + 1 <= 0``."""
        return Constraint(lhs - rhs + 1, Rel.LE)

    @staticmethod
    def ge(lhs: AffineExpr, rhs: AffineExpr) -> "Constraint":
        """``lhs >= rhs``"""
        return Constraint(rhs - lhs, Rel.LE)

    @staticmethod
    def gt(lhs: AffineExpr, rhs: AffineExpr) -> "Constraint":
        """``lhs > rhs`` over the integers."""
        return Constraint(rhs - lhs + 1, Rel.LE)

    @staticmethod
    def eq(lhs: AffineExpr, rhs: AffineExpr) -> "Constraint":
        """``lhs == rhs``"""
        return Constraint(lhs - rhs, Rel.EQ)

    # ------------------------------------------------------------------
    # classification (computed once; constraints are interned)
    # ------------------------------------------------------------------
    def _classify(self) -> str:
        if self.expr.is_constant():
            c = self.expr.constant
            if self.rel is Rel.LE:
                return "taut" if c <= 0 else "contra"
            return "taut" if c == 0 else "contra"
        if self.rel is Rel.EQ:
            # integer-infeasible equality: gcd of coefficients does not
            # divide the constant (expr already integerized)
            from math import gcd

            g = 0
            for _, c in self.expr.terms():
                g = gcd(g, abs(int(c)))
            if g > 1 and int(self.expr.constant) % g != 0:
                return "contra"
        return "open"

    def _classification(self) -> str:
        if self._trivial is None:
            object.__setattr__(self, "_trivial", self._classify())
        return self._trivial

    def is_tautology(self) -> bool:
        """True iff the constraint holds for every assignment."""
        return self._classification() == "taut"

    def is_contradiction(self) -> bool:
        """True iff the constraint holds for no integer assignment."""
        return self._classification() == "contra"

    def sort_key(self):
        """A cheap deterministic ordering key (structural, not textual)."""
        if self._sort_key is None:
            key = (
                self.rel.value,
                tuple(
                    (v, c.numerator, c.denominator)
                    for v, c in self.expr.terms()
                ),
                self.expr.constant.numerator,
                self.expr.constant.denominator,
            )
            object.__setattr__(self, "_sort_key", key)
        return self._sort_key

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def negate(self) -> "Constraint":
        """Negation of a ``<=`` constraint over the integers.

        ``not (e <= 0)`` is ``e >= 1`` i.e. ``-e + 1 <= 0``.  Negating an
        equality is not convex; callers handle ``==`` at the formula level
        (it splits into two ``<`` branches).
        """
        if self.rel is Rel.EQ:
            raise ValueError("cannot negate an equality into one constraint")
        return Constraint(-self.expr + 1, Rel.LE)

    def substitute(
        self, bindings: Mapping[str, Union[AffineExpr, Number]]
    ) -> "Constraint":
        new = self.expr.substitute(bindings)
        if new is self.expr:
            return self
        return Constraint(new, self.rel)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        new = self.expr.rename(mapping)
        if new is self.expr:
            return self
        return Constraint(new, self.rel)

    def evaluate(self, env: Mapping[str, Number]) -> bool:
        v = self.expr.evaluate(env)
        return v <= 0 if self.rel is Rel.LE else v == 0

    def variables(self):
        return self.expr.variables()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Constraint):
            return NotImplemented
        # distinct-but-equal instances only exist across a cache reset
        return self.rel is other.rel and self.expr == other.expr

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constraint({self})"

    def __str__(self) -> str:
        return f"{self.expr} {self.rel.value} 0"


TRUE = Constraint(AffineExpr.ZERO, Rel.LE)
FALSE = Constraint(AffineExpr.ONE, Rel.LE)


def _reseed() -> None:
    for c in (TRUE, FALSE):
        _INTERN.data[(c.expr, c.rel)] = c
        _RAW.data[(c.expr, c.rel)] = c


perf.on_reset(_reseed)
