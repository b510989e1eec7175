"""AST → source-text pretty printer.

``pretty(program)`` produces text that re-parses to an equivalent program
(round-trip property tested in ``tests/lang/test_prettyprint.py``).  The
two-version code generator uses this to emit transformed programs.
"""

from __future__ import annotations

from typing import List, Union

from repro.lang.astnodes import (
    ASSUMED,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Decl,
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
)

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "==": 4,
    "!=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "**": 8,
}


def expr_str(expr: Expr, parent_prec: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(expr, Num):
        v = expr.value
        if isinstance(v, float) and v == int(v):
            return f"{v:.1f}"
        return str(v)
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, ArrayRef):
        subs = ", ".join(expr_str(s) for s in expr.subscripts)
        return f"{expr.name}({subs})"
    if isinstance(expr, Intrinsic):
        args = ", ".join(expr_str(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, UnOp):
        if expr.op == "not":
            inner = expr_str(expr.operand, 3)
            return f"not {inner}"
        inner = expr_str(expr.operand, 7)
        return f"-{inner}"
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        left = expr_str(expr.left, prec)
        # +1 on the right side keeps left-associativity explicit for - /
        right = expr_str(expr.right, prec + (0 if expr.op in ("and", "or") else 1))
        text = f"{left} {expr.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    # _StringArg from print statements
    text = getattr(expr, "text", None)
    if text is not None:
        return f"'{text}'"
    raise TypeError(f"unknown expression {expr!r}")


def _decl_str(decl: Decl) -> str:
    if not decl.is_array:
        return decl.name
    dims = ", ".join(
        "*" if d == ASSUMED else expr_str(d) for d in decl.dims
    )
    return f"{decl.name}({dims})"


def _stmt_lines(stmt: Stmt, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, Assign):
        out.append(f"{pad}{expr_str(stmt.target)} = {expr_str(stmt.value)}")
    elif isinstance(stmt, DoLoop):
        header = f"{pad}do {stmt.var} = {expr_str(stmt.lo)}, {expr_str(stmt.hi)}"
        if stmt.step is not None:
            header += f", {expr_str(stmt.step)}"
        out.append(header)
        for s in stmt.body:
            _stmt_lines(s, indent + 1, out)
        out.append(f"{pad}enddo")
    elif isinstance(stmt, If):
        out.append(f"{pad}if ({expr_str(stmt.cond)}) then")
        for s in stmt.then_body:
            _stmt_lines(s, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}else")
            for s in stmt.else_body:
                _stmt_lines(s, indent + 1, out)
        out.append(f"{pad}endif")
    elif isinstance(stmt, Call):
        args = ", ".join(expr_str(a) for a in stmt.args)
        out.append(f"{pad}call {stmt.name}({args})")
    elif isinstance(stmt, ReadStmt):
        out.append(f"{pad}read {', '.join(stmt.names)}")
    elif isinstance(stmt, PrintStmt):
        args = ", ".join(expr_str(a) for a in stmt.args)
        out.append(f"{pad}print {args}" if args else f"{pad}print")
    elif isinstance(stmt, Return):
        out.append(f"{pad}return")
    else:
        raise TypeError(f"unknown statement {stmt!r}")


def stmt_str(stmt: Stmt) -> str:
    """Render one statement, with any nested body, unindented."""
    lines: List[str] = []
    _stmt_lines(stmt, 0, lines)
    return "\n".join(lines)


def decl_str(decl: Decl) -> str:
    """Render one declaration as a type statement (``real a(10)``)."""
    return f"{decl.typ} {_decl_str(decl)}"


def unit_str(unit: Subroutine) -> str:
    lines: List[str] = []
    if unit.is_main:
        lines.append(f"program {unit.name}")
    else:
        lines.append(f"subroutine {unit.name}({', '.join(unit.params)})")
    by_type = {"integer": [], "real": []}
    for decl in unit.decls.values():
        by_type[decl.typ].append(_decl_str(decl))
    for typ in ("integer", "real"):
        if by_type[typ]:
            lines.append(f"  {typ} {', '.join(by_type[typ])}")
    for s in unit.body:
        _stmt_lines(s, 1, lines)
    lines.append("end")
    return "\n".join(lines)


def pretty(program: Program) -> str:
    """Render the whole program, main unit first."""
    units = [program.main_unit] + [
        u for name, u in program.units.items() if name != program.main
    ]
    return "\n\n".join(unit_str(u) for u in units) + "\n"
