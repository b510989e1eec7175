"""Per-loop metadata: normalized bounds, candidacy, scalar def/use sets.

A loop is a *candidate* for parallelization (the denominator of the
paper's Table statistics) when it has no I/O and no early return in its
body, and its bounds/step are loop-invariant.  Loops nested inside an
already-parallelized loop are excluded later by the driver, mirroring
"SUIF only exploits a single level of parallelism".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.exprtools import to_affine
from repro.ir.regiongraph import LoopRegion, ProcRegion
from repro.lang.astnodes import (
    ArrayRef,
    Assign,
    Call,
    DoLoop,
    Expr,
    If,
    PrintStmt,
    ReadStmt,
    Return,
    VarRef,
    expr_variables,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.linalg.constraint import Constraint
from repro.linalg.system import LinearSystem
from repro.symbolic.affine import AffineExpr


@dataclass
class LoopInfo:
    """Analysis-facing facts about one DO loop."""

    loop: DoLoop
    region: LoopRegion
    lo_affine: Optional[AffineExpr]
    hi_affine: Optional[AffineExpr]
    step: Optional[int]  # None when non-constant
    has_io: bool
    has_return: bool
    has_calls: bool
    bounds_invariant: bool
    scalar_writes: Set[str] = field(default_factory=set)
    scalar_exposed_reads: Set[str] = field(default_factory=set)
    reductions: Set[str] = field(default_factory=set)

    @property
    def is_candidate(self) -> bool:
        """Eligible for the parallelization tests at all."""
        return (
            not self.has_io
            and not self.has_return
            and self.bounds_invariant
            and self.step is not None
        )

    @property
    def is_affine(self) -> bool:
        return self.lo_affine is not None and self.hi_affine is not None

    def iteration_space(self) -> LinearSystem:
        """Constraints binding the index variable to the iteration range.

        For a positive constant step: ``lo <= i <= hi``; negative steps
        flip the bounds.  Non-unit strides keep the interval hull (a
        sound superset of the strided set).  ``min``/``max`` intrinsic
        bounds contribute their exact conjunction of inequalities
        (``i <= min(a, b)`` ⇔ ``i <= a ∧ i <= b``); other non-affine
        bounds yield no constraint (still sound).
        """
        if self.step is None:
            return LinearSystem.universe()
        i = AffineExpr.var(self.loop.var)
        lo_expr, hi_expr = self.loop.lo, self.loop.hi
        if self.step < 0:
            lo_expr, hi_expr = hi_expr, lo_expr
        constraints = []
        constraints.extend(_lower_bound_constraints(i, lo_expr))
        constraints.extend(_upper_bound_constraints(i, hi_expr))
        return LinearSystem(constraints)

    @property
    def label(self) -> str:
        return self.loop.label


def _upper_bound_constraints(index: AffineExpr, bound: Expr) -> list:
    """``index <= bound`` as exact constraints where expressible.

    ``min(a, b)`` bounds conjoin both sides; affine bounds give one
    inequality; anything else gives none (sound superset).
    """
    from repro.lang.astnodes import Intrinsic

    if isinstance(bound, Intrinsic) and bound.name == "min":
        out = []
        for arg in bound.args:
            out.extend(_upper_bound_constraints(index, arg))
        return out
    affine = to_affine(bound)
    if affine is not None:
        return [Constraint.le(index, affine)]
    return []


def _lower_bound_constraints(index: AffineExpr, bound: Expr) -> list:
    """``index >= bound`` as exact constraints where expressible."""
    from repro.lang.astnodes import Intrinsic

    if isinstance(bound, Intrinsic) and bound.name == "max":
        out = []
        for arg in bound.args:
            out.extend(_lower_bound_constraints(index, arg))
        return out
    affine = to_affine(bound)
    if affine is not None:
        return [Constraint.ge(index, affine)]
    return []


def _expr_writes_none_of(stmts, names: Set[str]) -> bool:
    """True if no statement assigns/reads-into any of *names*."""
    for s in stmts:
        if isinstance(s, Assign) and isinstance(s.target, VarRef):
            if s.target.name in names:
                return False
        if isinstance(s, ReadStmt) and any(n in names for n in s.names):
            return False
        if isinstance(s, DoLoop) and s.var in names:
            return False
    return True


def _is_reduction(stmt: Assign) -> bool:
    """Recognize ``s = s + e`` / ``s = s - e`` / ``s = s * e`` and the
    commuted ``s = e + s`` / ``s = e * s`` scalar-reduction idiom."""
    if not isinstance(stmt.target, VarRef):
        return False
    name = stmt.target.name
    v = stmt.value
    from repro.lang.astnodes import BinOp

    if isinstance(v, BinOp) and v.op in ("+", "*", "-"):
        if isinstance(v.left, VarRef) and v.left.name == name:
            return name not in expr_variables(v.right)
        if v.op in ("+", "*") and isinstance(v.right, VarRef) and v.right.name == name:
            return name not in expr_variables(v.left)
    return False


def analyze_loop(region: LoopRegion) -> LoopInfo:
    """Compute :class:`LoopInfo` for one loop region."""
    loop = region.stmt
    body_stmts = list(walk_stmts(loop.body))

    has_io = any(isinstance(s, (ReadStmt, PrintStmt)) for s in body_stmts)
    has_return = any(isinstance(s, Return) for s in body_stmts)
    has_calls = any(isinstance(s, Call) for s in body_stmts)

    lo_affine = to_affine(loop.lo)
    hi_affine = to_affine(loop.hi)
    step: Optional[int] = 1
    if loop.step is not None:
        step_affine = to_affine(loop.step)
        if (
            step_affine is not None
            and step_affine.is_constant()
            and step_affine.constant.denominator == 1
            and step_affine.constant != 0
        ):
            step = int(step_affine.constant)
        else:
            step = None

    # bounds are invariant when no variable they mention is written in the
    # body (including inner loop indices and read statements)
    bound_vars: Set[str] = set()
    for e in (loop.lo, loop.hi, loop.step):
        if e is not None:
            bound_vars |= set(expr_variables(e))
    bound_vars.add(loop.var)  # index must not be written by the body
    # scalars are passed by value in this language model, so calls cannot
    # clobber loop bounds; only direct writes in the body matter
    bounds_invariant = _expr_writes_none_of(body_stmts, bound_vars)

    info = LoopInfo(
        loop=loop,
        region=region,
        lo_affine=lo_affine,
        hi_affine=hi_affine,
        step=step,
        has_io=has_io,
        has_return=has_return,
        has_calls=has_calls,
        bounds_invariant=bounds_invariant,
    )
    info.scalar_writes, info.scalar_exposed_reads, info.reductions = scalar_flow(loop)
    return info


def scalar_flow(loop: DoLoop) -> Tuple[Set[str], Set[str], Set[str]]:
    """First-order scalar def/use classification over one iteration:
    the scalars written, the upward-exposed scalar reads and the
    reductions.

    Walks the body in order, tracking scalars definitely written so far
    on *all* paths (approximated by: written at top level or in both
    branches of an If).  A scalar read before being definitely written is
    upward exposed.  Inner-loop indices count as written.  Reductions are
    recognized syntactically.
    """
    writes: Set[str] = set()
    exposed: Set[str] = set()
    reductions: Set[str] = set()
    written: Set[str] = set()

    def visit(stmts, written: Set[str]) -> Set[str]:
        for s in stmts:
            if isinstance(s, Assign):
                reads = expr_variables(s.value)
                if isinstance(s.target, ArrayRef):
                    for sub in s.target.subscripts:
                        reads |= expr_variables(sub)
                for r in sorted(reads):
                    if r not in written:
                        exposed.add(r)
                if isinstance(s.target, VarRef):
                    writes.add(s.target.name)
                    if _is_reduction(s):
                        reductions.add(s.target.name)
                    written = written | {s.target.name}
            elif isinstance(s, DoLoop):
                for e in (s.lo, s.hi, s.step):
                    if e is not None:
                        for r in sorted(expr_variables(e)):
                            if r not in written:
                                exposed.add(r)
                writes.add(s.var)
                # writes inside a loop that may execute zero times are
                # not definite: analyze the body for exposure but keep
                # only the pre-loop definite set, plus the index
                visit(s.body, written | {s.var})
                written = written | {s.var}
            elif isinstance(s, (ReadStmt,)):
                for nm in s.names:
                    writes.add(nm)
                    written = written | {nm}
            elif isinstance(s, PrintStmt):
                for a in s.args:
                    names = expr_variables(a) if not hasattr(a, "text") else set()
                    for r in sorted(names):
                        if r not in written:
                            exposed.add(r)
            elif isinstance(s, Call):
                for a in s.args:
                    for r in sorted(expr_variables(a)):
                        if r not in written:
                            exposed.add(r)
            elif isinstance(s, If):
                for r in sorted(expr_variables(s.cond)):
                    if r not in written:
                        exposed.add(r)
                w_then = visit(s.then_body, set(written))
                w_else = visit(s.else_body, set(written))
                written = w_then & w_else
        return written

    visit(loop.body, written)
    # remove array names: expr_variables reports arrays too
    # (callers filter against the symbol table; we keep names verbatim)
    return writes, exposed, reductions


def classify_scalars(
    info: LoopInfo, written: Iterable[str], symtab
) -> Tuple[Set[str], Set[str], Set[str]]:
    """The dependence test's scalar classification: each scalar in
    *written* as an obstacle (upward-exposed read), a reduction or a
    private, as ``(obstacles, reductions, privates)``.

    The loop's own index and its inner-loop indices are exempt, and
    names the symbol table does not hold as scalars are skipped.
    """
    loop = info.loop
    exempt = {loop.var} | {
        s.var for s in walk_stmts(loop.body) if isinstance(s, DoLoop)
    }
    obstacles: Set[str] = set()
    reductions: Set[str] = set()
    privates: Set[str] = set()
    for name in written:
        if name in exempt or not symtab.is_scalar(name):
            continue
        if name in info.reductions:
            reductions.add(name)
        elif name in info.scalar_exposed_reads:
            obstacles.add(name)
        else:
            privates.add(name)
    return obstacles, reductions, privates


def collect_loop_info(proc: ProcRegion) -> Dict[DoLoop, LoopInfo]:
    """LoopInfo for every loop in a procedure, keyed by the loop node."""
    out: Dict[DoLoop, LoopInfo] = {}
    for region in proc.loops():
        out[region.stmt] = analyze_loop(region)
    return out
