"""A single convex array region.

``ArrayRegion("a", 2, system)`` describes the set of elements
``a(__d0, __d1)`` whose dimension variables satisfy *system* (which may
also mention loop indices and symbolic parameters; those are free
variables parameterizing the region).

Regions are immutable, **interned** value objects: structurally equal
regions are pointer-equal, so they serve as O(1) memo keys for the region
algebra (subtraction, coalescing, projection).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from repro import perf
from repro.linalg.constraint import Constraint
from repro.linalg.feasibility import is_feasible
from repro.linalg.implication import system_implies
from repro.linalg.system import LinearSystem
from repro.service.budgets import metered
from repro.symbolic.affine import AffineExpr
from repro.symbolic.terms import dim_var, is_dim_var, iter_dim_vars

_INTERN = perf.memo_table("region.intern")


class ArrayRegion:
    """An immutable, interned convex region of one array."""

    __slots__ = ("array", "rank", "system", "_hash", "_empty")

    def __new__(cls, array: str, rank: int, system: LinearSystem) -> "ArrayRegion":
        key = (array, rank, system)
        self = _INTERN.data.get(key)
        if self is not None:
            _INTERN.hits += 1
            return self
        _INTERN.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_empty", None)
        _INTERN.data[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ArrayRegion is immutable")

    def __reduce__(self):
        # re-intern on unpickle (canonical identity in every process)
        return (ArrayRegion, (self.array, self.rank, self.system))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_subscripts(
        array: str, subscripts: Iterable[Optional[AffineExpr]]
    ) -> "ArrayRegion":
        """The single-element region ``array(e0, e1, …)``.

        A ``None`` subscript (non-affine) leaves that dimension
        unconstrained — the sound over-approximation of an unanalyzable
        subscript.
        """
        constraints = []
        subs = list(subscripts)
        for k, e in enumerate(subs):
            if e is not None:
                constraints.append(
                    Constraint.eq(AffineExpr.var(dim_var(k)), e)
                )
        return ArrayRegion(array, len(subs), LinearSystem(constraints))

    @staticmethod
    def whole(array: str, rank: int, extents=None) -> "ArrayRegion":
        """The region covering the declared array.

        *extents* is an optional list of per-dimension affine extents
        (1-based Fortran arrays: ``1 <= __dk <= extent``); ``None``
        entries leave the dimension unbounded.
        """
        constraints = []
        if extents is not None:
            for k, ext in enumerate(extents):
                dv = AffineExpr.var(dim_var(k))
                constraints.append(Constraint.ge(dv, AffineExpr.const(1)))
                if ext is not None:
                    constraints.append(Constraint.le(dv, ext))
        return ArrayRegion(array, rank, LinearSystem(constraints))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Proven-empty test (conservative: False = maybe non-empty)."""
        cached = self._empty
        if cached is None or metered():
            cached = not is_feasible(self.system)
            object.__setattr__(self, "_empty", cached)
        return cached

    def dim_vars(self) -> Tuple[str, ...]:
        return tuple(iter_dim_vars(self.rank))

    def parameters(self) -> FrozenSet[str]:
        """Free non-dimension variables (loop indices, symbolics)."""
        return frozenset(
            v for v in self.system.variables() if not is_dim_var(v)
        )

    def contains(self, other: "ArrayRegion") -> bool:
        """Proven containment ``other ⊆ self`` (same array required)."""
        if self.array != other.array:
            return False
        return system_implies(other.system, self.system)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def conjoin(self, extra: LinearSystem) -> "ArrayRegion":
        return ArrayRegion(self.array, self.rank, self.system & extra)

    def substitute(self, bindings: Mapping[str, AffineExpr]) -> "ArrayRegion":
        return ArrayRegion(self.array, self.rank, self.system.substitute(bindings))

    def rename(self, mapping: Mapping[str, str]) -> "ArrayRegion":
        return ArrayRegion(self.array, self.rank, self.system.rename(mapping))

    def rename_array(self, new_name: str) -> "ArrayRegion":
        return ArrayRegion(new_name, self.rank, self.system)

    def contains_point(self, point, env: Mapping[str, int]) -> bool:
        """Membership of a concrete element under parameter values *env*.

        *point* gives the subscript value for each dimension in order
        (Fortran-style values, verbatim — no index-base shifting).
        """
        full = dict(env)
        for k, v in enumerate(point):
            full[dim_var(k)] = v
        return self.system.evaluate(full)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ArrayRegion):
            return NotImplemented
        # distinct-but-equal instances only exist across a cache reset
        return (
            self.array == other.array
            and self.rank == other.rank
            and self.system == other.system
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ArrayRegion({self.array}[{self.rank}], {self.system})"

    def __str__(self):
        return f"{self.array}{{{self.system}}}"
