"""AST node definitions.

Expressions are immutable value objects (frozen dataclasses) — two
structurally equal subscript expressions compare equal, which the region
builder relies on.  Statements are identity objects carrying a
program-unique ``nid`` (assigned by the parser / builder) plus the source
line, so analyses can key results by statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    """Integer or real literal."""

    value: Union[int, float]


@dataclass(frozen=True)
class VarRef:
    """Scalar variable reference."""

    name: str


@dataclass(frozen=True)
class ArrayRef:
    """Array element reference ``name(sub1, sub2, …)``."""

    name: str
    subscripts: Tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    """Binary operation.

    ``op`` ∈ {``+ - * / **``, ``< <= > >= == !=``, ``and or``}.
    """

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnOp:
    """Unary ``-`` or ``not``."""

    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Intrinsic:
    """Intrinsic call: ``mod``, ``min``, ``max``, ``abs``."""

    name: str
    args: Tuple["Expr", ...]


Expr = Union[Num, VarRef, ArrayRef, BinOp, UnOp, Intrinsic]
LValue = Union[VarRef, ArrayRef]

RELOPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
BOOLOPS = frozenset({"and", "or"})
ARITHOPS = frozenset({"+", "-", "*", "/", "**"})
INTRINSICS = frozenset({"mod", "min", "max", "abs"})


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------


@dataclass(eq=False)
class Stmt:
    """Base statement: identity equality, unique ``nid``."""

    nid: int = field(default=-1, init=False)
    line: int = field(default=0, init=False)


@dataclass(eq=False)
class Assign(Stmt):
    target: LValue
    value: Expr


@dataclass(eq=False)
class DoLoop(Stmt):
    var: str
    lo: Expr
    hi: Expr
    step: Optional[Expr]
    body: List[Stmt]
    label: str = ""  # assigned by normalize: "<unit>:L<k>"


@dataclass(eq=False)
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt]


@dataclass(eq=False)
class Call(Stmt):
    name: str
    args: List[Expr]


@dataclass(eq=False)
class ReadStmt(Stmt):
    """``read x, y`` — run-time input into scalars (symbolic to analysis)."""

    names: List[str]


@dataclass(eq=False)
class PrintStmt(Stmt):
    args: List[Expr]


@dataclass(eq=False)
class Return(Stmt):
    pass


# ----------------------------------------------------------------------
# declarations / units / program
# ----------------------------------------------------------------------

ASSUMED = "*"  # assumed-size final dimension marker


@dataclass
class Decl:
    """A variable declaration.

    ``dims`` is ``None`` for scalars, otherwise a tuple of extent
    expressions; the last extent may be :data:`ASSUMED` for assumed-size
    formal arrays (``real x(*)``).
    """

    name: str
    typ: str  # "integer" | "real"
    dims: Optional[Tuple[Union[Expr, str], ...]] = None

    @property
    def is_array(self) -> bool:
        return self.dims is not None

    @property
    def rank(self) -> int:
        return len(self.dims) if self.dims else 0


@dataclass
class Subroutine:
    """A program unit; the main program is a parameterless unit with
    ``is_main=True``."""

    name: str
    params: List[str]
    decls: Dict[str, Decl]
    body: List[Stmt]
    is_main: bool = False


@dataclass
class Program:
    """A whole program: ordered units, one of which is the main unit."""

    name: str
    units: "Dict[str, Subroutine]"
    main: str

    @property
    def main_unit(self) -> Subroutine:
        return self.units[self.main]


# ----------------------------------------------------------------------
# tree walking helpers
# ----------------------------------------------------------------------


def walk_stmts(stmts: List[Stmt]) -> Iterator[Stmt]:
    """Yield every statement, pre-order, descending into bodies."""
    for s in stmts:
        yield s
        if isinstance(s, DoLoop):
            yield from walk_stmts(s.body)
        elif isinstance(s, If):
            yield from walk_stmts(s.then_body)
            yield from walk_stmts(s.else_body)


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    """Yield every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, UnOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, (ArrayRef, Intrinsic)):
        for a in (expr.subscripts if isinstance(expr, ArrayRef) else expr.args):
            yield from walk_exprs(a)


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Top-level expressions appearing directly in *stmt* (not its body)."""
    if isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, DoLoop):
        yield stmt.lo
        yield stmt.hi
        if stmt.step is not None:
            yield stmt.step
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, Call):
        yield from stmt.args
    elif isinstance(stmt, PrintStmt):
        yield from stmt.args


def expr_variables(expr: Expr) -> frozenset:
    """All scalar/array names appearing in *expr*."""
    names = set()
    for e in walk_exprs(expr):
        if isinstance(e, VarRef):
            names.add(e.name)
        elif isinstance(e, ArrayRef):
            names.add(e.name)
    return frozenset(names)


def loops_of(unit: Subroutine) -> List[DoLoop]:
    """All DO loops in *unit*, outermost first (pre-order)."""
    return [s for s in walk_stmts(unit.body) if isinstance(s, DoLoop)]


def assign_nids(program: Program, relabel: bool = True) -> None:
    """Assign program-unique ``nid`` to every statement and loop labels.

    Idempotent: re-running renumbers consistently in pre-order.  Pass
    ``relabel=False`` to keep existing loop labels (used by the
    two-version transform, whose cloned loops carry ``_par``/``_seq``
    suffixes).
    """
    counter = 0
    for unit in program.units.values():
        loop_counter = 0
        for s in walk_stmts(unit.body):
            s.nid = counter
            counter += 1
            if isinstance(s, DoLoop):
                loop_counter += 1
                if relabel or not s.label:
                    s.label = f"{unit.name}:L{loop_counter}"
