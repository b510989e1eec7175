"""`remove_redundant` single-pass vs. the classic fixpoint reference.

The rewritten single pass must compute exactly the constraint list the
old remove-one-and-restart loop converged to — entailment is monotone in
the constraint set, so a constraint kept against the full set stays
non-entailed after later removals.  The randomized corpus here checks
that equivalence on systems shaped like region bounds (single- and
two-variable rows, occasional equalities, occasionally infeasible).
"""

import random

import pytest

from repro.linalg.constraint import Constraint
from repro.linalg.implication import entails, remove_redundant
from repro.linalg.system import LinearSystem
from repro.symbolic.affine import AffineExpr

from tests.predicates.reference import ground_oracle

C = AffineExpr.const
V = [AffineExpr.var(n) for n in ("x", "y", "z")]


def _reference_remove_redundant(system: LinearSystem) -> LinearSystem:
    """The pre-oracle implementation: pop one entailed constraint, then
    restart the scan, until a full scan removes nothing."""
    kept = list(system.constraints)
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(kept):
            rest = LinearSystem(kept[:i] + kept[i + 1 :])
            if entails(rest, c):
                kept.pop(i)
                changed = True
                break
    return LinearSystem(kept)


def _random_system(rng: random.Random) -> LinearSystem:
    rows = []
    for _ in range(rng.randrange(2, 7)):
        v = V[rng.randrange(len(V))]
        c = C(rng.randrange(-5, 6))
        kind = rng.randrange(5)
        if kind == 0:
            rows.append(Constraint.ge(v, c))
        elif kind == 1:
            rows.append(Constraint.le(v, c))
        elif kind == 2:
            rows.append(Constraint.eq(v, c))
        else:
            w = V[rng.randrange(len(V))]
            row = Constraint.le(v - w, c) if kind == 3 else Constraint.ge(
                v + w, c
            )
            rows.append(row)
    return LinearSystem(rows)


@pytest.mark.parametrize("seed", range(6))
def test_single_pass_matches_fixpoint_reference(seed):
    rng = random.Random(seed)
    for _ in range(60):
        system = _random_system(rng)
        fast = remove_redundant(system)
        slow = _reference_remove_redundant(system)
        assert list(fast.constraints) == list(slow.constraints), system


def test_matches_reference_with_oracle_cache_disabled():
    """The rewrite is independent of the entailment memo."""
    rng = random.Random(99)
    systems = [_random_system(rng) for _ in range(30)]
    expected = [_reference_remove_redundant(s) for s in systems]
    with ground_oracle():
        got = [remove_redundant(s) for s in systems]
    for s, e, g in zip(systems, expected, got):
        assert list(e.constraints) == list(g.constraints), s


def test_keeps_duplicate_free_minimal_form():
    x = V[0]
    system = LinearSystem(
        [
            Constraint.ge(x, C(0)),
            Constraint.ge(x, C(0)),  # exact duplicate
            Constraint.ge(x, C(-5)),  # entailed by x >= 0
            Constraint.le(x, C(9)),
        ]
    )
    out = remove_redundant(system)
    assert list(out.constraints) == list(
        _reference_remove_redundant(system).constraints
    )
    assert len(out) <= 2
