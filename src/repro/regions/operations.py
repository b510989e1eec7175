"""Binary operations on single regions: intersection, containment, hull.

Subtraction (the non-convex one) lives in
:mod:`repro.regions.subtract`; projection in
:mod:`repro.regions.project`.
"""

from __future__ import annotations

from typing import Optional

from repro import perf
from repro.linalg.implication import entails, system_implies
from repro.linalg.system import LinearSystem
from repro.regions.region import ArrayRegion
from repro.service.budgets import metered

_COALESCE = perf.memo_table("region.coalesce", cap=16384)


def intersect_regions(a: ArrayRegion, b: ArrayRegion) -> Optional[ArrayRegion]:
    """Exact intersection; ``None`` for regions of different arrays."""
    if a.array != b.array or a.rank != b.rank:
        return None
    return ArrayRegion(a.array, a.rank, a.system & b.system)


def region_contains(outer: ArrayRegion, inner: ArrayRegion) -> bool:
    """Proven ``inner ⊆ outer``; ``False`` means *could not prove*."""
    return outer.contains(inner)


def hull_join(a: ArrayRegion, b: ArrayRegion) -> ArrayRegion:
    """A convex over-approximation of ``a ∪ b``.

    Keeps exactly the constraints of one operand entailed by the other
    (the "constraint hull").  This is the widening applied when a
    summary set exceeds its region budget; it is sound (a superset of
    the union) but may lose precision.
    """
    if a.array != b.array or a.rank != b.rank:
        raise ValueError("hull_join requires regions of the same array")
    kept = [c for c in a.system if entails(b.system, c)]
    kept += [c for c in b.system if entails(a.system, c)]
    return ArrayRegion(a.array, a.rank, LinearSystem(kept))


# systems larger than this skip the exact hull-merge attempt — the
# quadratic subtraction check dominates analysis time on big regions
COALESCE_LIMIT = 6


def try_coalesce(a: ArrayRegion, b: ArrayRegion) -> Optional[ArrayRegion]:
    """Merge two regions exactly when one contains the other, or when
    their constraint hull is proven equal to the union (memoized).

    The second case covers the ubiquitous adjacent-interval pattern
    (e.g. ``1 <= d <= k`` ∪ ``k+1 <= d <= n``): the hull is exact iff
    ``hull − a − b`` is empty, which we check with the exact subtractor.
    Returns ``None`` when no exact merge is found.  Regions with large
    constraint systems only attempt the cheap containment merges.
    """
    key = (a, b)
    cached = perf.MISS if metered() else _COALESCE.data.get(key, perf.MISS)
    if cached is not perf.MISS:
        _COALESCE.hits += 1
        return cached
    _COALESCE.misses += 1
    result = _try_coalesce_impl(a, b)
    _COALESCE.data[key] = result
    return result


def _try_coalesce_impl(a: ArrayRegion, b: ArrayRegion) -> Optional[ArrayRegion]:
    if a.array != b.array or a.rank != b.rank:
        return None
    if len(a.system) > COALESCE_LIMIT or len(b.system) > COALESCE_LIMIT:
        # even the containment checks are FM-heavy on large systems;
        # only a syntactic subset test is worth it here
        if set(b.system).issuperset(a.system):
            return a  # b has more constraints: b ⊆ a
        if set(a.system).issuperset(b.system):
            return b
        return None
    if a.contains(b):
        return a
    if b.contains(a):
        return b
    hull = hull_join(a, b)
    from repro.regions.subtract import subtract_region

    residue = subtract_region(hull, a)
    residue = [
        r for piece in residue for r in subtract_region(piece, b)
    ]
    if all(r.is_empty() for r in residue):
        return hull
    return None
