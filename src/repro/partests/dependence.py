"""Cross-iteration dependence and privatization testing.

Given a loop's per-iteration body value ``v(i)``, two symbolic
iterations ``i1 < i2`` are materialized by renaming the index, and the
conflict systems are tested for feasibility:

* **independence**: no overlap between ``W(i1)``/``W(i2)``,
  ``W(i1)``/``R(i2)`` or ``R(i1)``/``W(i2)``;
* **privatization**: overlaps exist but no cross-iteration *flow* into
  an exposed read — ``W(i1) ∩ E(i2) = ∅``.

The predicated twist: each side may carry guarded refinements.  An
over-approximating guarded pair ⟨p, S⟩ means accesses are within ``S``
whenever ``p`` holds, so the loop is conflict-free *under* the
disjunction of all guard combinations whose refined systems are
infeasible::

    parallel_condition = ∨_{k,l} (p_k ∧ p_l ∧ [S_k(i1) ∩ S_l(i2) = ∅])

Affine guard conjuncts mentioning the index are *embedded* into the
conflict system (after renaming to the corresponding iteration copy);
residual guards must be loop-invariant to participate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arraydf.analysis import LoopSummary
from repro.arraydf.embedding import split_linear_conjuncts
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.values import GuardedSummary
from repro.ir.loopinfo import classify_scalars
from repro.ir.symboltable import SymbolTable
from repro.linalg.constraint import Constraint
from repro.linalg.feasibility import is_feasible
from repro.linalg.system import LinearSystem
from repro.predicates.formula import (
    FALSE,
    Predicate,
    TRUE,
    p_and,
    p_or,
)
from repro.predicates.simplify import simplify
from repro.regions.summary import SummarySet
from repro.symbolic.affine import AffineExpr
from repro.symbolic.terms import GEN_PREFIX


@dataclass
class ArrayVerdict:
    """Per-array outcome of the loop tests."""

    array: str
    independent_under: Predicate
    privatizable_under: Predicate
    copy_in: Optional[SummarySet] = None  # exposed region needing init

    @property
    def parallel_under(self) -> Predicate:
        return simplify(p_or(self.independent_under, self.privatizable_under))


@dataclass
class LoopVerdict:
    """Outcome of the dependence/privatization tests for one loop."""

    summary: LoopSummary
    array_verdicts: Dict[str, ArrayVerdict] = field(default_factory=dict)
    scalar_obstacles: FrozenSet[str] = frozenset()
    reduction_scalars: FrozenSet[str] = frozenset()
    private_scalars: FrozenSet[str] = frozenset()

    @property
    def parallel_condition(self) -> Predicate:
        """Predicate under which the loop is safely parallel."""
        if self.scalar_obstacles:
            return FALSE
        cond: Predicate = TRUE
        for v in self.array_verdicts.values():
            cond = p_and(cond, v.parallel_under)
        return simplify(cond)

    @property
    def private_arrays(self) -> List[str]:
        return sorted(
            a
            for a, v in self.array_verdicts.items()
            if not v.independent_under.is_true()
            and not v.privatizable_under.is_false()
        )


# ----------------------------------------------------------------------
# guard handling
# ----------------------------------------------------------------------


GuardedCases = Tuple[Predicate, List[Tuple[SummarySet, LinearSystem]]]


def _prepare_guarded(
    alts: Sequence[GuardedSummary],
    default_summary: SummarySet,
    index: str,
    iter_name: str,
    volatile: frozenset,
    embedding: bool,
) -> List[GuardedCases]:
    """Rename one side's guarded summaries to an iteration copy.

    Each usable alternative becomes ``(loop-entry guard, cases)`` where
    the cases — ``(summary, embedded system)`` pairs produced by
    :func:`split_guard_cases` — jointly bound *every* iteration (the
    refined summary where the index-dependent guard part held, the
    default elsewhere).  Alternatives with volatile non-linear guards
    are dropped; the TRUE default always survives.
    """
    from repro.arraydf.embedding import split_guard_cases

    out: List[GuardedCases] = []
    rename = {index: iter_name}
    for g in alts:
        split = split_guard_cases(
            g.pred, g.summary, default_summary, volatile, embedding
        )
        if split is None:
            continue
        pred, cases = split
        if pred.variables() & volatile:
            continue
        out.append(
            (
                pred,
                [
                    (s.rename_vars(rename), sys.rename(rename))
                    for s, sys in cases
                ],
            )
        )
    return out


def _conflict_systems(
    s1: SummarySet,
    s2: SummarySet,
    array: str,
    base: LinearSystem,
    guards: LinearSystem,
) -> List[LinearSystem]:
    """The feasible conflict systems between s1(i1) and s2(i2).

    Region dimension variables are shared between the two sides — both
    describe elements of the same array — while iteration-dependent
    parts were renamed apart by the caller.  An empty list means the two
    sides are provably disjoint.
    """
    out = []
    for a in s1.regions(array):
        for b in s2.regions(array):
            system = a.system & b.system & base & guards
            if is_feasible(system):
                out.append(system)
    return out


def _extract_breaking(
    conflicts: List[LinearSystem],
    iter_vars: Tuple[str, str],
    trivial_filter,
) -> Predicate:
    """Predicate extraction from dependence testing.

    Each conflict system is non-empty only if its projection onto the
    symbolic parameters (dimension variables and both iteration copies
    eliminated) is satisfiable; the conjunction of the negated
    projections is a sufficient condition for independence — the
    paper's boundary-condition run-time tests.
    """
    from repro.arraydf.extraction import MAX_ATOMS, MAX_PIECES
    from repro.linalg.fourier_motzkin import eliminate_all
    from repro.predicates.atoms import LinAtom
    from repro.predicates.formula import p_atom, p_not
    from repro.symbolic.terms import is_dim_var

    if len(conflicts) > MAX_PIECES:
        return FALSE
    negs: List[Predicate] = []
    for system in conflicts:
        to_drop = [
            v
            for v in system.variables()
            if is_dim_var(v) or v in iter_vars
        ]
        params = eliminate_all(system, to_drop)
        if params.is_universe() or len(params) > MAX_ATOMS:
            return FALSE
        conj = p_and(*(p_atom(LinAtom(c)) for c in params))
        negs.append(p_not(conj))
    breaking = p_and(*negs)
    if breaking.is_false() or breaking.is_true():
        return FALSE
    if trivial_filter is not None and trivial_filter(breaking):
        return FALSE
    return breaking


def _no_conflict_condition(
    side1: List[GuardedCases],
    side2: List[GuardedCases],
    array: str,
    base: LinearSystem,
    iter_vars: Tuple[str, str],
    opts: AnalysisOptions,
    trivial_filter=None,
) -> Predicate:
    """∨ over guard combinations proving the two sides disjoint.

    A combination is conflict-free only if *every* cross pair of its
    iteration-covering cases is; when conflicts remain, predicate
    extraction contributes the combination guarded by the breaking
    condition of all its conflict systems.
    """
    cond: Predicate = FALSE
    for p1, cases1 in side1:
        for p2, cases2 in side2:
            guard_pred = p_and(p1, p2)
            if guard_pred.is_false():
                continue
            conflicts: List[LinearSystem] = []
            for s1, g1 in cases1:
                for s2, g2 in cases2:
                    conflicts.extend(
                        _conflict_systems(s1, s2, array, base, g1 & g2)
                    )
            if not conflicts:
                cond = p_or(cond, guard_pred)
            elif opts.predicates and opts.extraction:
                breaking = _extract_breaking(
                    conflicts, iter_vars, trivial_filter
                )
                if not breaking.is_false():
                    cond = p_or(cond, p_and(guard_pred, breaking))
            if cond.is_true():
                return TRUE
    return cond


# ----------------------------------------------------------------------
# the loop test
# ----------------------------------------------------------------------


def test_loop(
    summary: LoopSummary,
    symtab: SymbolTable,
    opts: AnalysisOptions,
) -> LoopVerdict:
    """Run the dependence and privatization tests on one loop."""
    info = summary.info
    loop = summary.loop
    body = summary.body_value
    verdict = LoopVerdict(summary=summary)

    # ---- scalar dependences -------------------------------------------
    obstacles, reductions, privates = classify_scalars(
        info, body.scalar_writes | info.scalar_writes, symtab
    )
    verdict.scalar_obstacles = frozenset(obstacles)
    verdict.reduction_scalars = frozenset(reductions)
    verdict.private_scalars = frozenset(privates)

    # ---- array dependences ---------------------------------------------
    index = loop.var
    # generated names: a program identifier cannot start with ``__``
    i1, i2 = f"{GEN_PREFIX}it1_{index}", f"{GEN_PREFIX}it2_{index}"
    space = info.iteration_space()
    base = (
        space.rename({index: i1})
        & space.rename({index: i2})
        & LinearSystem(
            [Constraint.lt(AffineExpr.var(i1), AffineExpr.var(i2))]
        )
    )

    volatile = (
        frozenset([index])
        | body.scalar_writes
        | frozenset(body.w.arrays())
    )

    # The loop executes only where its reaching path predicate holds
    # (the forward conjunction of tests along control-flow paths); the
    # loop-invariant affine conjuncts strengthen every conflict system.
    if opts.predicates and not summary.path_pred.is_true():
        split = split_linear_conjuncts(summary.path_pred)
        if split is not None:
            path_sys, _residue = split
            base = base & LinearSystem(
                c
                for c in path_sys
                if not (set(c.variables()) & volatile)
            )

    use_preds = opts.predicates
    w_alts = body.w_alts if use_preds else body.w_alts[-1:]
    e_alts = body.e if use_preds else body.e[-1:]
    e_default = body.exposed_default()

    w1 = _prepare_guarded(w_alts, body.w, index, i1, volatile, opts.embedding)
    w2 = _prepare_guarded(w_alts, body.w, index, i2, volatile, opts.embedding)
    # flow for privatization runs from the execution-earlier iteration
    # into the execution-later one; with a negative step the larger
    # index (i2) executes first, so the roles swap
    if info.step is not None and info.step < 0:
        flow_w, flow_e = w2, _prepare_guarded(
            e_alts, e_default, index, i1, volatile, opts.embedding
        )
    else:
        flow_w, flow_e = w1, _prepare_guarded(
            e_alts, e_default, index, i2, volatile, opts.embedding
        )
    r1 = [
        (
            TRUE,
            [(body.r.rename_vars({index: i1}), LinearSystem.universe())],
        )
    ]
    r2 = [
        (
            TRUE,
            [(body.r.rename_vars({index: i2}), LinearSystem.universe())],
        )
    ]

    # Profitability: reject breaking conditions that only hold when the
    # loop is trivially short, or when they empty all of the loop's array
    # accesses (a test that passes only for do-nothing executions is
    # useless as a run-time parallelization guard).
    work_systems = [
        r.system & space
        for r in list(body.w.all_regions()) + list(body.r.all_regions())
    ]

    def trivial_filter(breaking: Predicate) -> bool:
        from repro.predicates.atoms import LinAtom
        from repro.predicates.formula import p_atom
        from repro.predicates.oracle import cached_dnf, conjunct_unsat
        from repro.predicates.simplify import is_unsat, linear_system_of

        if info.lo_affine is not None and info.hi_affine is not None:
            # iteration-count span respects execution direction
            if info.step is not None and info.step < 0:
                span = info.lo_affine - info.hi_affine
            else:
                span = info.hi_affine - info.lo_affine
            nontrivial = p_atom(LinAtom.ge(span, AffineExpr.const(2)))
            if is_unsat(p_and(breaking, nontrivial)):
                return True
        if not work_systems:
            return False
        dnf = cached_dnf(breaking)
        if dnf is None:
            return False
        for conj in dnf:
            if conjunct_unsat(conj):
                continue
            cond_sys = linear_system_of(conj)
            for ws in work_systems:
                if is_feasible(ws & cond_sys):
                    return False  # some disjunct permits real work
        return True

    def drop_workless(pred: Predicate) -> Predicate:
        """Remove disjuncts that only hold when the loop does no work.

        A run-time test passing exclusively on empty executions is not a
        parallelization win; the paper's derived tests guard loops that
        actually run.  Disjuncts whose linear part admits at least one
        array access (or that contain opaque atoms we cannot evaluate)
        are kept.
        """
        from repro.predicates.oracle import (
            cached_dnf as _dnf,
            conjunct_unsat as _ci,
        )
        from repro.predicates.simplify import linear_system_of as _ls
        from repro.predicates.atoms import LinAtom
        from repro.predicates.formula import Atom

        if pred.is_true() or pred.is_false() or not work_systems:
            return pred
        dnf = _dnf(pred)
        if dnf is None:
            return pred
        kept = []
        for conj in dnf:
            if _ci(conj):
                continue
            has_opaque = any(
                not (isinstance(l, Atom) and isinstance(l.atom, LinAtom))
                for l in conj
            )
            cond_sys = _ls(conj)
            allows_work = any(
                is_feasible(ws & cond_sys) for ws in work_systems
            )
            if allows_work or has_opaque:
                kept.append(p_and(*conj))
        return p_or(*kept)

    iters = (i1, i2)
    for array in sorted(body.w.arrays()):
        indep = p_and(
            _no_conflict_condition(
                w1, w2, array, base, iters, opts, trivial_filter
            ),
            _no_conflict_condition(
                w1, r2, array, base, iters, opts, trivial_filter
            ),
            _no_conflict_condition(
                r1, w2, array, base, iters, opts, trivial_filter
            ),
        )
        indep = simplify(drop_workless(simplify(indep)))
        if indep.is_true():
            verdict.array_verdicts[array] = ArrayVerdict(
                array, TRUE, FALSE
            )
            continue
        no_flow = simplify(
            drop_workless(
                simplify(
                    _no_conflict_condition(
                        flow_w, flow_e, array, base, iters, opts, trivial_filter
                    )
                )
            )
        )
        det = _deterministic_writes_condition(body, array, volatile, opts)
        priv = simplify(p_and(no_flow, det))
        copy_in = None
        if not priv.is_false():
            copy_in = summary.loop_value.exposed_default().restricted_to(array)
        verdict.array_verdicts[array] = ArrayVerdict(
            array, indep, priv, copy_in
        )

    return verdict


def _deterministic_writes_condition(
    body, array: str, volatile: frozenset, opts: AnalysisOptions
) -> Predicate:
    """Condition under which one iteration's writes to *array* are a
    deterministic region (may-write ⊆ must-write).

    Privatization finalizes by copying the last iteration's private
    region back; that is only correct when every iteration overwrites
    the same (iteration-indexed) region it may touch — e.g. a scatter
    ``a(idx(i)) = …`` has an unbounded may-write, no must-write, and is
    *not* privatizable even though it carries no flow.
    """
    cond: Predicate = FALSE
    for gw in body.w_alts:
        if gw.pred.variables() & volatile:
            continue
        may = gw.summary.restricted_to(array)
        for gm in body.m:
            if gm.pred.variables() & volatile:
                continue
            pred = p_and(gw.pred, gm.pred)
            if pred.is_false():
                continue
            if gm.summary.restricted_to(array).covers(may):
                cond = p_or(cond, pred)
                if cond.is_true():
                    return TRUE
        if not opts.predicates:
            break  # base analysis: defaults only
    return cond
