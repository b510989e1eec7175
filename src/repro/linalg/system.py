"""Conjunctions of linear constraints (convex integer polyhedra).

A :class:`LinearSystem` is the workhorse of the region representation: an
array region is a system over the dimension variables, loop indices and
symbolic parameters.  Systems are immutable; all operations return new
systems.  Redundant duplicate constraints are removed at construction and a
cheap pairwise-redundancy sweep is available via :meth:`simplified`.

Construction is **hash-consed**: a raw memo keyed on the input constraint
tuple skips re-canonicalization of sequences seen before, and an intern
table on the canonical sorted tuple makes structurally equal systems
pointer-equal (O(1) equality/hash for all downstream memo keys).
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple, Union

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.symbolic.affine import AffineExpr

Number = Union[int, Fraction]

_RAW = perf.memo_table("system.raw", cap=16384)
_INTERN = perf.memo_table("system.intern")
_RENAME = perf.memo_table("system.rename", cap=8192)


class LinearSystem:
    """An immutable, interned conjunction of :class:`Constraint`.

    The empty conjunction is the universe (always true).  A system that
    contains a contradictory constraint normalizes to the canonical
    *false* system.
    """

    __slots__ = ("_constraints", "_hash", "_vars")

    def __new__(cls, constraints: Iterable[Constraint] = ()) -> "LinearSystem":
        raw = (
            constraints
            if type(constraints) is tuple
            else tuple(constraints)
        )
        self = _RAW.data.get(raw)
        if self is not None:
            _RAW.hits += 1
            return self
        _RAW.misses += 1
        perf.bump("system.norm")
        kept = []
        seen = set()
        false = False
        for c in raw:
            if c.is_tautology():
                continue
            if c.is_contradiction():
                false = True
                break
            if c not in seen:
                seen.add(c)
                kept.append(c)
        if false:
            from repro.linalg.constraint import FALSE

            kept = [FALSE]
        kept.sort(key=Constraint.sort_key)
        canonical = tuple(kept)
        self = _INTERN.data.get(canonical)
        if self is None:
            _INTERN.misses += 1
            self = object.__new__(cls)
            object.__setattr__(self, "_constraints", canonical)
            object.__setattr__(self, "_hash", hash(canonical))
            object.__setattr__(self, "_vars", None)
            _INTERN.data[canonical] = self
        else:
            _INTERN.hits += 1
        _RAW.data[raw] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinearSystem is immutable")

    def __reduce__(self):
        # re-intern on unpickle (canonical identity in every process)
        return (LinearSystem, (self._constraints,))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def universe() -> "LinearSystem":
        return _UNIVERSE

    @staticmethod
    def empty() -> "LinearSystem":
        """The canonical infeasible system."""
        return _EMPTY

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return self._constraints

    def is_universe(self) -> bool:
        return not self._constraints

    def is_trivially_empty(self) -> bool:
        """Syntactic check: contains the canonical false constraint.

        For a semantic emptiness test use
        :func:`repro.linalg.feasibility.is_feasible`.
        """
        return any(c.is_contradiction() for c in self._constraints)

    def variables(self) -> FrozenSet[str]:
        cached = self._vars
        if cached is None:
            vs: set = set()
            for c in self._constraints:
                vs.update(c.variables())
            cached = frozenset(vs)
            object.__setattr__(self, "_vars", cached)
        return cached

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def conjoin(self, other: Union["LinearSystem", Constraint]) -> "LinearSystem":
        """Conjunction (polyhedron intersection)."""
        if isinstance(other, Constraint):
            return LinearSystem(self._constraints + (other,))
        if not other._constraints:
            return self
        if not self._constraints:
            return other
        return LinearSystem(self._constraints + other._constraints)

    __and__ = conjoin

    def substitute(
        self, bindings: Mapping[str, Union[AffineExpr, Number]]
    ) -> "LinearSystem":
        return LinearSystem(
            tuple(c.substitute(bindings) for c in self._constraints)
        )

    def rename(self, mapping: Mapping[str, str]) -> "LinearSystem":
        """Rename variables (memoized on the interned system + mapping).

        Region summaries are re-instantiated with the same index
        renamings at every call site, so warm analyses replay identical
        rename chains; the memo turns those into dictionary lookups.
        """
        if not self._constraints:
            return self
        key = (self, tuple(sorted(mapping.items())))
        cached = _RENAME.data.get(key)
        if cached is not None:
            _RENAME.hits += 1
            return cached
        _RENAME.misses += 1
        result = LinearSystem(
            tuple(c.rename(mapping) for c in self._constraints)
        )
        _RENAME.data[key] = result
        return result

    def evaluate(self, env: Mapping[str, Number]) -> bool:
        return all(c.evaluate(env) for c in self._constraints)

    def partition_by_vars(
        self, vars_of_interest: FrozenSet[str]
    ) -> Tuple["LinearSystem", "LinearSystem"]:
        """Split into (constraints touching *vars_of_interest*, the rest)."""
        touching, rest = [], []
        for c in self._constraints:
            if any(v in vars_of_interest for v in c.variables()):
                touching.append(c)
            else:
                rest.append(c)
        return LinearSystem(tuple(touching)), LinearSystem(tuple(rest))

    # ------------------------------------------------------------------
    # simplification
    # ------------------------------------------------------------------
    def simplified(self) -> "LinearSystem":
        """Drop constraints pairwise implied by a single other constraint.

        Two ``<=`` constraints with the same variable part keep only the
        tighter one; a ``<=`` implied by an ``==`` on the same expression
        is dropped.  This is the cheap O(n²) sweep used after unions and
        substitutions; full redundancy elimination (via feasibility) is
        done lazily by :func:`repro.linalg.implication.remove_redundant`.
        """
        by_varpart = {}
        eqs = []
        for c in self._constraints:
            var_part = c.expr - c.expr.constant
            if c.rel is Rel.EQ:
                eqs.append(c)
                continue
            key = var_part
            prev = by_varpart.get(key)
            if prev is None or c.expr.constant > prev.expr.constant:
                # larger constant = tighter upper bound for e + c <= 0
                by_varpart[key] = c
        eq_exprs = {c.expr - c.expr.constant: c.expr.constant for c in eqs}
        kept = list(eqs)
        for var_part, c in sorted(
            by_varpart.items(), key=lambda kv: kv[0].sort_key()
        ):
            if var_part in eq_exprs and -eq_exprs[var_part] >= -c.expr.constant:
                # equality pins e == -k; the inequality e <= -c is implied
                # when -k <= -c.expr.constant  <=>  k >= c.expr.constant
                if eq_exprs[var_part] >= c.expr.constant:
                    continue
            neg = -var_part
            if neg in eq_exprs:
                # e == k implies -e <= -k i.e. covers var_part = -e
                if -eq_exprs[neg] >= c.expr.constant:
                    continue
            kept.append(c)
        return LinearSystem(tuple(kept))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinearSystem):
            return NotImplemented
        # distinct-but-equal instances only exist across a cache reset
        return self._constraints == other._constraints

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.is_universe():
            return "LinearSystem(universe)"
        return f"LinearSystem({{{'; '.join(map(str, self._constraints))}}})"

    def __str__(self) -> str:
        if self.is_universe():
            return "true"
        return " ∧ ".join(map(str, self._constraints))


_UNIVERSE = LinearSystem(())
from repro.linalg.constraint import FALSE as _FALSE_C  # noqa: E402

_EMPTY = LinearSystem((_FALSE_C,))


def _reseed() -> None:
    for s in (_UNIVERSE, _EMPTY):
        _INTERN.data[s._constraints] = s
        _RAW.data[s._constraints] = s


perf.on_reset(_reseed)
