"""The region graph: SUIF's hierarchical program representation.

A *program region* is a basic block, a loop body, a loop, a procedure
call, or a procedure body (Section 3 of the paper).  We realize this as a
tree of :class:`Region` nodes over the AST:

* :class:`StmtRegion` — one simple statement (assign/read/print/return);
  maximal runs of these under a common parent form the basic blocks;
* :class:`CallRegion` — one call site;
* :class:`IfRegion` — a structured conditional with two child sequences;
* :class:`LoopRegion` — a DO loop whose single child is the loop-body
  sequence;
* :class:`SeqRegion` — an ordered sequence of sibling regions (a loop
  body or branch arm);
* :class:`ProcRegion` — a procedure body (the root for one unit).

Every region knows its parent, its enclosing loop nest and its unit name,
which the dependence tests and reporting rely on.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.lang.astnodes import (
    Assign,
    Call,
    DoLoop,
    If,
    PrintStmt,
    ReadStmt,
    Return,
    Stmt,
    Subroutine,
)


class Region:
    """Base region node."""

    __slots__ = ("parent", "unit_name", "rid")

    def __init__(self) -> None:
        self.parent: Optional[Region] = None
        self.unit_name: str = ""
        self.rid: int = -1

    # -- structure -------------------------------------------------------
    def children(self) -> Sequence["Region"]:
        return ()

    def walk(self) -> Iterator["Region"]:
        """Pre-order traversal of the region subtree."""
        yield self
        for c in self.children():
            yield from c.walk()

    # -- context ---------------------------------------------------------
    def enclosing_loops(self) -> List["LoopRegion"]:
        """Loop regions containing this region, outermost first."""
        loops: List[LoopRegion] = []
        node = self.parent
        while node is not None:
            if isinstance(node, LoopRegion):
                loops.append(node)
            node = node.parent
        loops.reverse()
        return loops

    def enclosing_proc(self) -> "ProcRegion":
        node: Optional[Region] = self
        while node is not None and not isinstance(node, ProcRegion):
            node = node.parent
        if node is None:
            raise ValueError("region is detached from a procedure")
        return node

    def loop_depth(self) -> int:
        return len(self.enclosing_loops())


class StmtRegion(Region):
    """A simple statement (assignment, read, print, return)."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: Stmt) -> None:
        super().__init__()
        self.stmt = stmt

    def __repr__(self) -> str:
        return f"StmtRegion(nid={self.stmt.nid})"


class CallRegion(Region):
    """A call site."""

    __slots__ = ("stmt",)

    def __init__(self, stmt: Call) -> None:
        super().__init__()
        self.stmt = stmt

    @property
    def callee(self) -> str:
        return self.stmt.name

    def __repr__(self) -> str:
        return f"CallRegion({self.stmt.name}, nid={self.stmt.nid})"


class SeqRegion(Region):
    """An ordered sequence of sibling regions."""

    __slots__ = ("items",)

    def __init__(self, items: List[Region]) -> None:
        super().__init__()
        self.items = items

    def children(self) -> Sequence[Region]:
        return self.items

    def __repr__(self) -> str:
        return f"SeqRegion(len={len(self.items)})"


class IfRegion(Region):
    """A structured conditional."""

    __slots__ = ("stmt", "then_seq", "else_seq")

    def __init__(self, stmt: If, then_seq: SeqRegion, else_seq: SeqRegion) -> None:
        super().__init__()
        self.stmt = stmt
        self.then_seq = then_seq
        self.else_seq = else_seq

    def children(self) -> Sequence[Region]:
        return (self.then_seq, self.else_seq)

    def __repr__(self) -> str:
        return f"IfRegion(nid={self.stmt.nid})"


class LoopRegion(Region):
    """A DO loop; its only child is the loop-body sequence."""

    __slots__ = ("stmt", "body_seq")

    def __init__(self, stmt: DoLoop, body_seq: SeqRegion) -> None:
        super().__init__()
        self.stmt = stmt
        self.body_seq = body_seq

    def children(self) -> Sequence[Region]:
        return (self.body_seq,)

    @property
    def index_var(self) -> str:
        return self.stmt.var

    @property
    def label(self) -> str:
        return self.stmt.label

    def __repr__(self) -> str:
        return f"LoopRegion({self.stmt.label})"


class ProcRegion(Region):
    """A procedure body — the root region of one unit."""

    __slots__ = ("unit", "body_seq")

    def __init__(self, unit: Subroutine, body_seq: SeqRegion) -> None:
        super().__init__()
        self.unit = unit
        self.body_seq = body_seq

    def children(self) -> Sequence[Region]:
        return (self.body_seq,)

    def loops(self) -> List[LoopRegion]:
        """All loop regions in this procedure, pre-order (outermost first)."""
        return [r for r in self.walk() if isinstance(r, LoopRegion)]

    def __repr__(self) -> str:
        return f"ProcRegion({self.unit.name})"


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def _build_seq(stmts: List[Stmt], counter: List[int], unit_name: str) -> SeqRegion:
    items: List[Region] = []
    for s in stmts:
        items.append(_build_stmt(s, counter, unit_name))
    seq = SeqRegion(items)
    _stamp(seq, counter, unit_name)
    for item in items:
        item.parent = seq
    return seq


def _build_stmt(stmt: Stmt, counter: List[int], unit_name: str) -> Region:
    if isinstance(stmt, DoLoop):
        body = _build_seq(stmt.body, counter, unit_name)
        region: Region = LoopRegion(stmt, body)
        _stamp(region, counter, unit_name)
        body.parent = region
        return region
    if isinstance(stmt, If):
        then_seq = _build_seq(stmt.then_body, counter, unit_name)
        else_seq = _build_seq(stmt.else_body, counter, unit_name)
        region = IfRegion(stmt, then_seq, else_seq)
        _stamp(region, counter, unit_name)
        then_seq.parent = region
        else_seq.parent = region
        return region
    if isinstance(stmt, Call):
        region = CallRegion(stmt)
        _stamp(region, counter, unit_name)
        return region
    if isinstance(stmt, (Assign, ReadStmt, PrintStmt, Return)):
        region = StmtRegion(stmt)
        _stamp(region, counter, unit_name)
        return region
    raise TypeError(f"unknown statement {stmt!r}")


def _stamp(region: Region, counter: List[int], unit_name: str) -> None:
    region.rid = counter[0]
    counter[0] += 1
    region.unit_name = unit_name


def build_region_tree(unit: Subroutine) -> ProcRegion:
    """Build the region tree for one program unit."""
    counter = [0]
    body = _build_seq(unit.body, counter, unit.name)
    proc = ProcRegion(unit, body)
    _stamp(proc, counter, unit.name)
    body.parent = proc
    return proc
