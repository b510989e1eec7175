"""Tier-0 graph-based dependence screen.

A lightweight dependence identifier (after Alluru et al.'s graph-based
data-dependence framework) that runs *before* the predicated array
data-flow analysis.  From cheap syntactic/affine facts — distinct array
names never conflict, read-only arrays carry no cross-iteration
dependence, and accesses whose subscripts provably move with the loop
index are disjoint between iterations — it proves a loop
*independent* when every written array has a *witness dimension*: a
subscript position where all of the array's accesses use the same
loop-variant affine expression, so any two iterations touch provably
disjoint elements (and the scalar story is clean: no exposed scalar
flow, no reductions).  Every other loop is left to the full analysis.

Soundness contract (proven by the differential sweep in
``tests/integration/test_screen_soundness.py``): a loop screened
independent is always one the full predicated analysis proves
parallel outright — the screen's witness implies that every conflict
system the dependence test would build contains ``d_k = f(i1) ∧
d_k = f(i2) ∧ i1 < i2`` with ``f`` loop-variant affine, which is
rationally infeasible.  The screen therefore synthesizes the *exact*
decision row ``decide_loop`` would produce (status ``parallel``,
condition ``TRUE``, per-array verdicts ``ArrayVerdict(a, TRUE,
FALSE)``), which ``decide_unit`` adopts after a cross-check against
the loop's real summary instead of running the dependence test.

The screen never consults budgets — it is pure syntax.  The pipeline
screens lazily (:func:`unit_lookup`): ``decide_unit`` looks a loop up
only when it misses both the decisions cache and the nest memo, so the
``screen.independent``/``screen.unknown`` counters count loops screened,
not loops seen.  :func:`screen_unit` screens every loop of a unit at
once.  The unscreened analysis (no loop gets a row) is a test reference
in ``tests/pipeline/reference.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import perf
from repro.ir.exprtools import to_affine
from repro.ir.loopinfo import LoopInfo, classify_scalars, collect_loop_info
from repro.ir.regiongraph import build_region_tree
from repro.lang.astnodes import (
    ArrayRef,
    Assign,
    DoLoop,
    Subroutine,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.predicates.formula import FALSE, TRUE

for _name in (
    "screen.independent",
    "screen.unknown",
    "screen.agree",
    "screen.disagree",
):
    perf.declare(_name)

#: cap on per-array accesses the screen reasons about; beyond it the
#: analysis's region unions may hull-widen (region budget) and the
#: witness argument no longer tracks what the summaries actually hold
MAX_ACCESSES = 8


def _collect_accesses(loop: DoLoop) -> Tuple[Set[str], Dict[str, List[ArrayRef]]]:
    """All array references in the loop body, grouped by array name.

    Over-collects relative to the analysis (which ignores reads in
    branch conditions and loop bounds) — a superset can only make the
    screen more conservative, never unsound.
    """
    written: Set[str] = set()
    refs: Dict[str, List[ArrayRef]] = {}
    for s in walk_stmts(loop.body):
        if isinstance(s, Assign) and isinstance(s.target, ArrayRef):
            written.add(s.target.name)
        for e in stmt_exprs(s):
            for node in walk_exprs(e):
                if isinstance(node, ArrayRef):
                    refs.setdefault(node.name, []).append(node)
    return written, refs


def _witness_dim(
    accesses: List[ArrayRef], index: str, variant: Set[str]
) -> Optional[int]:
    """A subscript dimension proving cross-iteration disjointness.

    Dimension ``k`` is a witness when every access subscripts it with
    one and the same affine expression ``f``, ``f`` moves with the loop
    index (non-zero coefficient) and mentions no other variable the
    loop writes — then any conflict system conjoins ``d_k = f(i1)``
    with ``d_k = f(i2)`` and ``i1 < i2``, which has no rational
    solution.
    """
    if not accesses:
        return None
    ndims = len(accesses[0].subscripts)
    if any(len(a.subscripts) != ndims for a in accesses):
        return None
    for k in range(ndims):
        f = to_affine(accesses[0].subscripts[k])
        if f is None:
            continue
        coeff = dict(f.terms()).get(index)
        if not coeff:
            continue
        if (set(f.variables()) - {index}) & variant:
            continue
        if all(to_affine(a.subscripts[k]) == f for a in accesses[1:]):
            return k
    return None


def _inner_loops_nonempty(loop: DoLoop) -> bool:
    """Reject constant-bounds inner loops that provably never run.

    An inner loop with zero iterations contributes nothing to the outer
    body's summary, so an array written only under it would vanish from
    the analysis's write set while the screen still predicts a verdict
    for it.
    """
    for s in walk_stmts(loop.body):
        if not isinstance(s, DoLoop):
            continue
        lo, hi = to_affine(s.lo), to_affine(s.hi)
        step = to_affine(s.step) if s.step is not None else None
        if lo is None or hi is None or not lo.is_constant() or not hi.is_constant():
            continue
        down = step is not None and step.is_constant() and step.constant < 0
        if (hi.constant < lo.constant) if not down else (lo.constant < hi.constant):
            return False
    return True


def screen_loop(info: LoopInfo, symtab) -> Optional[dict]:
    """The ready-made row of a loop the screen proves independent, else
    ``None``.

    The row is exactly the dict
    :func:`repro.partests.driver._decision_rows` would produce for the
    loop: status ``parallel``, condition ``TRUE``.
    """
    loop = info.loop
    if not info.is_candidate or info.has_calls or not _inner_loops_nonempty(loop):
        return None
    obstacles, reductions, privates = classify_scalars(
        info, info.scalar_writes, symtab
    )
    if obstacles or reductions:
        return None

    written, refs = _collect_accesses(loop)
    variant = set(info.scalar_writes)
    for array in sorted(written):
        accesses = refs.get(array, [])
        if (
            len(accesses) > MAX_ACCESSES
            or _witness_dim(accesses, loop.var, variant) is None
        ):
            return None

    from repro.partests.dependence import ArrayVerdict

    return {
        "label": loop.label,
        "status": "parallel",
        "condition": TRUE,
        "runtime_test": None,
        "runtime_cost": 0,
        "private_arrays": [],
        "private_scalars": sorted(privates),
        "reduction_scalars": [],
        "reason": "",
        "depth": info.region.loop_depth(),
        "verdict": (
            {a: ArrayVerdict(a, TRUE, FALSE) for a in sorted(written)},
            frozenset(),
            frozenset(),
            frozenset(privates),
        ),
    }


def _counted(info: LoopInfo, symtab) -> Optional[dict]:
    """:func:`screen_loop`, counted in ``screen.independent`` or
    ``screen.unknown``."""
    row = screen_loop(info, symtab)
    perf.bump("screen.unknown" if row is None else "screen.independent")
    return row


def unit_lookup(symtab, tree) -> Callable[[str], Optional[dict]]:
    """The lazy screen of one (scalar-propagated) unit: ``label ->``
    the loop's ready-made row, or ``None``.  A loop is screened only
    when looked up, so the loops ``decide_unit`` binds from its caches
    are never screened.  *tree* is the unit's ``(region tree, loop
    info)`` pair."""
    _proc, infos = tree
    by_label = {info.loop.label: info for info in infos.values()}

    def lookup(label: str) -> Optional[dict]:
        info = by_label.get(label)
        return None if info is None else _counted(info, symtab)

    return lookup


def screen_unit(unit: Subroutine, symtab, tree=None) -> Dict[str, dict]:
    """``label -> ready-made row`` for every loop of one
    (scalar-propagated) unit the screen proves independent, screening
    every loop at once (the reference the soundness sweep reads); *tree*
    is the unit's ``(region tree, loop info)`` pair where the caller has
    one."""
    if tree is None:
        proc = build_region_tree(unit)
        tree = (proc, collect_loop_info(proc))
    _proc, infos = tree
    rows: Dict[str, dict] = {}
    for info in infos.values():
        row = _counted(info, symtab)
        if row is not None:
            rows[row["label"]] = row
    return rows
