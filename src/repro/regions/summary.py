"""Summary sets: finite unions of convex regions, per array.

A :class:`SummarySet` is the value the array data-flow analysis
manipulates — one list of convex regions per array name.  May-summaries
(R, W, E) tolerate over-approximation; must-summaries (definitely
written) tolerate only under-approximation, and the operations that
differ are provided in both flavours (``union``/``intersect_pairwise``,
``project_may``/``project_must``).

Sets are immutable; a per-array region budget triggers exact coalescing
first and hull widening as a last resort (may-summaries only — the
must widening is *dropping* regions).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.linalg.system import LinearSystem
from repro.regions.operations import hull_join, intersect_regions, try_coalesce
from repro.regions.project import (
    must_project_over_loop,
    project_over_loop,
)
from repro import perf
from repro.regions.region import ArrayRegion
from repro.regions.subtract import subtract_summary
from repro.service.budgets import metered

REGION_BUDGET = 12

#: may-union results keyed by the (value-hashable) operand pair and
#: budget; warm re-analyses replay identical union chains, and the
#: regions inside are interned so re-returning a cached set is safe.
#: An entry holds ~0.9 KB (two operand sets and the result), several
#: times a region-algebra entry, hence the smaller cap
_UNION = perf.memo_table("summary.union", cap=4096)


class SummarySet:
    """An immutable map ``array name → tuple of convex regions``."""

    __slots__ = ("_data", "_hash")

    def __init__(
        self, data: Optional[Mapping[str, Iterable[ArrayRegion]]] = None
    ) -> None:
        clean: Dict[str, Tuple[ArrayRegion, ...]] = {}
        if data:
            for name, regions in data.items():
                kept = tuple(r for r in regions if not r.is_empty())
                if kept:
                    clean[name] = kept
        object.__setattr__(self, "_data", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("SummarySet is immutable")

    def __reduce__(self):
        return (SummarySet, (self._data,))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "SummarySet":
        return _EMPTY

    @staticmethod
    def of(*regions: ArrayRegion) -> "SummarySet":
        data: Dict[str, List[ArrayRegion]] = {}
        for r in regions:
            data.setdefault(r.array, []).append(r)
        return SummarySet(data)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def arrays(self) -> Tuple[str, ...]:
        return tuple(sorted(self._data))

    def regions(self, array: str) -> Tuple[ArrayRegion, ...]:
        return self._data.get(array, ())

    def all_regions(self) -> Iterator[ArrayRegion]:
        for name in sorted(self._data):
            yield from self._data[name]

    def is_empty(self) -> bool:
        return not self._data

    def region_count(self) -> int:
        return sum(len(v) for v in self._data.values())

    def restricted_to(self, array: str) -> "SummarySet":
        if array not in self._data:
            return _EMPTY
        return SummarySet({array: self._data[array]})

    def covers(self, other: "SummarySet") -> bool:
        """Proven ``other ⊆ self``: every region of *other* must be
        contained in a single region of self (sufficient condition) or
        have an empty residue after exact subtraction."""
        for name in other.arrays():
            mine = self.regions(name)
            for r in other.regions(name):
                if any(m.contains(r) for m in mine):
                    continue
                residue = subtract_summary([r], list(mine))
                if any(not p.is_empty() for p in residue):
                    return False
        return True

    # ------------------------------------------------------------------
    # lattice operations
    # ------------------------------------------------------------------
    def union(self, other: "SummarySet", budget: int = REGION_BUDGET) -> "SummarySet":
        """May-union with exact coalescing and hull widening at budget
        (memoized; the operation is pure over interned regions)."""
        if not other._data and all(
            len(v) <= budget for v in self._data.values()
        ):
            return self
        if not self._data and all(
            len(v) <= budget for v in other._data.values()
        ):
            return other
        key = (self, other, budget)
        cached = None if metered() else _UNION.data.get(key)
        if cached is not None:
            _UNION.hits += 1
            return cached
        _UNION.misses += 1
        data: Dict[str, List[ArrayRegion]] = {
            k: list(v) for k, v in self._data.items()
        }
        for name, regions in other._data.items():
            data.setdefault(name, [])
            for r in regions:
                data[name] = _insert_region(data[name], r)
        for name in list(data):
            if len(data[name]) > budget:
                data[name] = _widen(data[name], budget)
        result = SummarySet(data)
        _UNION.data[key] = result
        return result

    def intersect_pairwise(self, other: "SummarySet") -> "SummarySet":
        """Exact intersection of two unions (pairwise distribution).

        Used for the must-write meet at control-flow joins:
        ``(A ∪ B) ∩ (C ∪ D) = AC ∪ AD ∪ BC ∪ BD``.
        """
        data: Dict[str, List[ArrayRegion]] = {}
        for name in self.arrays():
            if name not in other._data:
                continue
            pieces: List[ArrayRegion] = []
            for a in self.regions(name):
                for b in other.regions(name):
                    x = intersect_regions(a, b)
                    if x is not None and not x.is_empty():
                        pieces = _insert_region(pieces, x)
            if pieces:
                data[name] = pieces
        return SummarySet(data)

    def subtract(self, writes: "SummarySet") -> "SummarySet":
        """Exact subtraction (piece-wise); used for ``E2 − M1``."""
        data: Dict[str, List[ArrayRegion]] = {}
        for name in self.arrays():
            pieces = subtract_summary(
                list(self.regions(name)), list(writes.regions(name))
            )
            pieces = [p for p in pieces if not p.is_empty()]
            if pieces:
                data[name] = pieces
        return SummarySet(data)

    def intersect_nonempty(self, other: "SummarySet") -> bool:
        """Could the two summaries overlap?  (Conservative: ``True`` on
        any feasible pairwise intersection.)"""
        for name in self.arrays():
            for a in self.regions(name):
                for b in other.regions(name):
                    x = intersect_regions(a, b)
                    if x is not None and not x.is_empty():
                        return True
        return False

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def conjoin_all(self, extra: LinearSystem) -> "SummarySet":
        """Conjoin constraints into every region (predicate embedding)."""
        return SummarySet(
            {
                name: [r.conjoin(extra) for r in regions]
                for name, regions in self._data.items()
            }
        )

    def substitute(self, bindings) -> "SummarySet":
        return SummarySet(
            {
                name: [r.substitute(bindings) for r in regions]
                for name, regions in self._data.items()
            }
        )

    def rename_vars(self, mapping: Mapping[str, str]) -> "SummarySet":
        return SummarySet(
            {
                name: [r.rename(mapping) for r in regions]
                for name, regions in self._data.items()
            }
        )

    def project_may(
        self, index: str, iteration_space: LinearSystem
    ) -> "SummarySet":
        """Over-approximating projection across a loop (R, W, E)."""
        return SummarySet(
            {
                name: [
                    project_over_loop(r, index, iteration_space)
                    for r in regions
                ]
                for name, regions in self._data.items()
            }
        )

    def project_must(
        self, index: str, iteration_space: LinearSystem
    ) -> "SummarySet":
        """Under-approximating projection: regions whose elimination is
        not provably integer-exact are dropped."""
        data: Dict[str, List[ArrayRegion]] = {}
        for name, regions in self._data.items():
            kept: List[ArrayRegion] = []
            for r in regions:
                projected = must_project_over_loop(r, index, iteration_space)
                if projected is not None and not projected.is_empty():
                    kept.append(projected)
            if kept:
                data[name] = kept
        return SummarySet(data)

    def drop_arrays(self, names: Iterable[str]) -> "SummarySet":
        names = set(names)
        return SummarySet(
            {k: v for k, v in self._data.items() if k not in names}
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SummarySet):
            return NotImplemented
        if hash(self) != hash(other):
            return False
        if set(self._data) != set(other._data):
            return False
        return all(
            set(self._data[k]) == set(other._data[k]) for k in self._data
        )

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash(
                tuple(
                    (k, frozenset(v))
                    for k, v in sorted(self._data.items())
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self):
        if not self._data:
            return "SummarySet(∅)"
        parts = [
            f"{name}: {len(regions)} region(s)"
            for name, regions in sorted(self._data.items())
        ]
        return f"SummarySet({'; '.join(parts)})"

    def __str__(self):
        if not self._data:
            return "∅"
        parts = []
        for name in sorted(self._data):
            for r in self._data[name]:
                parts.append(str(r))
        return " ∪ ".join(parts)


_EMPTY = SummarySet()


def _insert_region(
    regions: List[ArrayRegion], new: ArrayRegion
) -> List[ArrayRegion]:
    """Insert with exact coalescing against existing regions."""
    if new.is_empty():
        return regions
    out: List[ArrayRegion] = []
    current = new
    for r in regions:
        merged = try_coalesce(r, current)
        if merged is not None:
            current = merged
        else:
            out.append(r)
    out.append(current)
    return out


def _widen(regions: List[ArrayRegion], budget: int) -> List[ArrayRegion]:
    """Hull-join smallest-system regions until within budget (may only).

    Large systems use the syntactic constraint intersection instead of
    the semantic hull — weaker but sound, and O(n) instead of FM-heavy.
    """
    from repro.regions.operations import COALESCE_LIMIT

    out = list(regions)
    while len(out) > budget:
        out.sort(key=lambda r: len(r.system))
        a = out.pop(0)
        b = out.pop(0)
        if len(a.system) > COALESCE_LIMIT or len(b.system) > COALESCE_LIMIT:
            common = set(a.system) & set(b.system)
            merged = ArrayRegion(a.array, a.rank, LinearSystem(common))
        else:
            merged = hull_join(a, b)
        out.append(merged)
    return out
