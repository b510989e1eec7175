"""Exact region subtraction (producing a union of convex pieces).

For convex ``A`` and ``B`` over integer points::

    A − B = ⋃_{c ∈ B}  A ∧ ¬c

where ``¬(e <= 0)`` is the integer complement ``e >= 1`` and an equality
splits into its two strict sides.  Each piece is convex; empty pieces are
dropped.  The operation is exact over the integers (up to the rational
feasibility filter, which may *keep* an integer-empty piece — sound,
since subtraction results are used as over-approximations of what
*remains*, e.g. still-exposed reads).
"""

from __future__ import annotations

from typing import List

from repro import perf
from repro.linalg.constraint import Constraint, Rel
from repro.linalg.system import LinearSystem
from repro.regions.region import ArrayRegion
from repro.service.budgets import metered

_SUBTRACT = perf.memo_table("region.subtract", cap=16384)


def _complement_pieces(constraint: Constraint) -> List[Constraint]:
    """The constraints whose disjunction is ¬constraint (integer domain)."""
    if constraint.rel is Rel.LE:
        return [constraint.negate()]
    # ¬(e == 0): e <= -1 or e >= 1
    return [
        Constraint(constraint.expr + 1, Rel.LE),
        Constraint(-constraint.expr + 1, Rel.LE),
    ]


def subtract_region(a: ArrayRegion, b: ArrayRegion) -> List[ArrayRegion]:
    """``a − b`` as a list of disjoint convex regions (memoized).

    Regions of different arrays don't interact: returns ``[a]``.
    Regions are interned, so the memo key hashes in O(1); a fresh list
    is returned each call so callers may extend/consume it freely.
    """
    key = (a, b)
    cached = None if metered() else _SUBTRACT.data.get(key)
    if cached is not None:
        _SUBTRACT.hits += 1
        return list(cached)
    _SUBTRACT.misses += 1
    result = _subtract_region_impl(a, b)
    _SUBTRACT.data[key] = tuple(result)
    return result


def _subtract_region_impl(a: ArrayRegion, b: ArrayRegion) -> List[ArrayRegion]:
    """The unmemoized subtraction (exposed for cache-correctness tests)."""
    if a.array != b.array or a.rank != b.rank:
        return [a]
    if b.system.is_universe():
        return []
    pieces: List[ArrayRegion] = []
    # carve A progressively: piece_k = A ∧ c_1 ∧ … ∧ c_{k-1} ∧ ¬c_k keeps
    # the pieces disjoint
    prefix = LinearSystem()
    for c in b.system:
        for neg in _complement_pieces(c):
            piece = ArrayRegion(a.array, a.rank, a.system & prefix & LinearSystem([neg]))
            if not piece.is_empty():
                pieces.append(piece)
        prefix = prefix & LinearSystem([c])
    return pieces


def subtract_summary(
    regions: List[ArrayRegion], writes: List[ArrayRegion], budget: int = 24
) -> List[ArrayRegion]:
    """Subtract every write region from every region in *regions*.

    Used by the exposed-read computation ``E2 − W1``.  If the piece count
    exceeds *budget* the remaining subtractions are skipped for the
    affected region (keeping the not-yet-subtracted region — a sound
    over-approximation of what stays exposed).
    """
    current = list(regions)
    for w in writes:
        if len(w.system) > 2 * budget:
            continue  # complementing a huge write is never profitable
        next_pieces: List[ArrayRegion] = []
        for r in current:
            if len(next_pieces) > budget or len(r.system) > 2 * budget:
                next_pieces.append(r)
                continue
            next_pieces.extend(subtract_region(r, w))
        current = next_pieces
        if len(current) > budget:
            break
    return current
