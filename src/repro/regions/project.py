"""Projection of regions across loop iteration spaces.

Converting a loop-body summary (parameterized by the index ``i``) into a
loop summary means computing ``⋃_{lo <= i <= hi} region(i)`` — realized
exactly (over the rationals) by conjoining the iteration-space
constraints and Fourier–Motzkin-eliminating ``i``.

For **may** information (R, E) this union-projection is the right
operation.  For **must** information (W) the union over iterations is
also correct — every iteration's writes happen — *provided the loop
executes*; the caller guards loop summaries with the non-empty-iteration
condition where it matters.
"""

from __future__ import annotations

from typing import Iterable

from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.system import LinearSystem
from repro.regions.region import ArrayRegion


def project_vars(region: ArrayRegion, variables: Iterable[str]) -> ArrayRegion:
    """Eliminate *variables* from the region's system (sound superset)."""
    return ArrayRegion(
        region.array,
        region.rank,
        eliminate_all(region.system, variables),
    )


def project_over_loop(
    region: ArrayRegion,
    index: str,
    iteration_space: LinearSystem,
) -> ArrayRegion:
    """Union of ``region(i)`` over the iteration space, by elimination."""
    conjoined = region.system & iteration_space
    return ArrayRegion(
        region.array,
        region.rank,
        eliminate_all(conjoined, [index]),
    )


# ----------------------------------------------------------------------
# must (under-approximating) projection
# ----------------------------------------------------------------------
#
# Fourier–Motzkin projection over-approximates the union over *integer*
# iterations: ``d == 2*i`` with ``1 <= i <= n`` projects to
# ``2 <= d <= 2n`` which wrongly includes odd elements.  Using such a
# projection as a *must-write* would fabricate coverage, so must-writes
# are only projected when the elimination is provably exact over the
# integers.  A sufficient criterion covering the Fortran-benchmark
# patterns:
#
#   every constraint mentioning the index has coefficient ±1 on it and
#   integer coefficients elsewhere.
#
# Then either (a) an equality ``i == g(d, params)`` makes elimination an
# exact integer substitution, or (b) all bounds are integer-valued
# ``A_j <= i <= B_k`` whose pairwise combination ``A_j <= B_k`` implies
# an integer witness exists in the interval.


def exact_for_integers(system: LinearSystem, index: str) -> bool:
    """Is FM elimination of *index* exact over the integer points?"""
    for c in system:
        a = c.expr.coeff(index)
        if a == 0:
            continue
        if abs(a) != 1:
            return False
        if not c.expr.is_integral():
            return False
    return True


def must_project_over_loop(
    region: ArrayRegion,
    index: str,
    iteration_space: LinearSystem,
):
    """Exact union over iterations, or ``None`` when exactness fails.

    Callers treat ``None`` as "no must-write information survives the
    loop" (the sound default).
    """
    conjoined = region.system & iteration_space
    if not exact_for_integers(conjoined, index):
        return None
    return ArrayRegion(
        region.array,
        region.rank,
        eliminate_all(conjoined, [index]),
    )
