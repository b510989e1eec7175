"""Forward scalar propagation.

SUIF's array analysis sits on top of scalar symbolic analysis; without
it, a setup like::

    read n
    m = n + 1
    do i = 1, m
      a(i) = a(i + n) ...

treats ``m`` as an opaque symbol unrelated to ``n`` and loses the
``m = n + 1`` relation the dependence test needs.  This pass propagates
straight-line scalar definitions forward, substituting each eligible
scalar's defining affine expression into every later expression of the
unit.

Eligibility (deliberately conservative):

* the scalar is defined exactly once in the unit, by an affine
  expression at the **top level** (not under a loop or branch);
* it is never written anywhere else (no other assignment, no ``read``,
  not a loop index);
* the variables of its definition are *stable* at and after the
  definition point — themselves never rewritten later (transitively
  true for propagated scalars since substitution bottoms out in stable
  roots).

The pass returns a structurally identical program (same statement
order, fresh statement objects, renumbered identically), so loop labels
and ``nid``s line up with the original — plans computed on the
propagated program drive the original's execution unchanged.

Because every eligible definition sits in the top-level straight-line
prefix and is never rewritten, one sequential scan finds them all: a
definition reaches every statement after it on every path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.exprtools import to_affine
from repro.lang.astnodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    DoLoop,
    Expr,
    If,
    Intrinsic,
    Num,
    PrintStmt,
    Program,
    ReadStmt,
    Return,
    Stmt,
    Subroutine,
    UnOp,
    VarRef,
    assign_nids,
    walk_stmts,
)
from repro.symbolic.affine import AffineExpr


def _writes_of_unit(unit: Subroutine) -> Dict[str, int]:
    """How many times each scalar is written anywhere in the unit."""
    counts: Dict[str, int] = {}
    for s in walk_stmts(unit.body):
        if isinstance(s, Assign) and isinstance(s.target, VarRef):
            counts[s.target.name] = counts.get(s.target.name, 0) + 1
        elif isinstance(s, ReadStmt):
            for n in s.names:
                counts[n] = counts.get(n, 0) + 1
        elif isinstance(s, DoLoop):
            counts[s.var] = counts.get(s.var, 0) + 2  # loop indexes churn
    return counts


def _affine_to_expr(affine: AffineExpr) -> Optional[Expr]:
    """Render an affine expression back into AST form (integers only)."""
    if not affine.is_integral():
        return None
    out: Optional[Expr] = None
    for var, coeff in affine.terms():
        c = int(coeff)
        term: Expr = VarRef(var)
        if c == -1:
            term = UnOp("-", term)
        elif c != 1:
            term = BinOp("*", Num(abs(c)), term)
            if c < 0:
                term = UnOp("-", term)
        out = term if out is None else BinOp("+", out, term)
    const = int(affine.constant)
    if out is None:
        return Num(const)
    if const > 0:
        out = BinOp("+", out, Num(const))
    elif const < 0:
        out = BinOp("-", out, Num(-const))
    return out


def _subst_expr(expr: Expr, env: Dict[str, Expr]) -> Expr:
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, VarRef):
        return env.get(expr.name, expr)
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.name, tuple(_subst_expr(s, env) for s in expr.subscripts)
        )
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op, _subst_expr(expr.left, env), _subst_expr(expr.right, env)
        )
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _subst_expr(expr.operand, env))
    if isinstance(expr, Intrinsic):
        return Intrinsic(
            expr.name, tuple(_subst_expr(a, env) for a in expr.args)
        )
    return expr  # _StringArg and friends


def _rewrite_stmt(stmt: Stmt, env: Dict[str, Expr]) -> Stmt:
    if isinstance(stmt, Assign):
        new: Stmt = Assign(
            _subst_expr(stmt.target, env)
            if isinstance(stmt.target, ArrayRef)
            else stmt.target,
            _subst_expr(stmt.value, env),
        )
    elif isinstance(stmt, DoLoop):
        new = DoLoop(
            stmt.var,
            _subst_expr(stmt.lo, env),
            _subst_expr(stmt.hi, env),
            _subst_expr(stmt.step, env) if stmt.step is not None else None,
            [_rewrite_stmt(s, env) for s in stmt.body],
            label=stmt.label,
        )
    elif isinstance(stmt, If):
        new = If(
            _subst_expr(stmt.cond, env),
            [_rewrite_stmt(s, env) for s in stmt.then_body],
            [_rewrite_stmt(s, env) for s in stmt.else_body],
        )
    elif isinstance(stmt, Call):
        new = Call(stmt.name, [_subst_expr(a, env) for a in stmt.args])
    elif isinstance(stmt, ReadStmt):
        new = ReadStmt(list(stmt.names))
    elif isinstance(stmt, PrintStmt):
        new = PrintStmt([_subst_expr(a, env) for a in stmt.args])
    elif isinstance(stmt, Return):
        new = Return()
    else:  # pragma: no cover
        raise TypeError(f"unknown statement {stmt!r}")
    new.line = stmt.line
    return new


def _propagate_unit(unit: Subroutine) -> Subroutine:
    writes = _writes_of_unit(unit)
    stable: Set[str] = {
        name
        for name, decl in unit.decls.items()
        if not decl.is_array and writes.get(name, 0) <= 1
    }

    env: Dict[str, Expr] = {}
    body: List[Stmt] = []
    prefix = True  # still in the straight-line top-level prefix
    for stmt in unit.body:
        rewritten = _rewrite_stmt(stmt, env)
        body.append(rewritten)
        if isinstance(stmt, (DoLoop, If, Call)):
            prefix = False
        if (
            prefix
            and isinstance(stmt, Assign)
            and isinstance(stmt.target, VarRef)
            and stmt.target.name in stable
        ):
            affine = to_affine(_subst_expr(stmt.value, env))
            if affine is not None and all(
                v in stable for v in affine.variables()
            ):
                rendered = _affine_to_expr(affine)
                if rendered is not None:
                    env[stmt.target.name] = rendered
    return Subroutine(
        unit.name, list(unit.params), dict(unit.decls), body, unit.is_main
    )


def propagate_scalars(program: Program) -> Program:
    """Forward-propagate straight-line scalar definitions in every unit."""
    units = {
        name: _propagate_unit(unit) for name, unit in program.units.items()
    }
    out = Program(program.name, units, program.main)
    assign_nids(out)
    return out
