"""The array data-flow analysis walker.

One implementation serves both analyses (base and predicated) under
:class:`~repro.arraydf.options.AnalysisOptions`.  The walker runs
bottom-up over the call graph and, within each unit, bottom-up over the
region tree:

* statement leaves produce :meth:`AccessValue.leaf` values from their
  array references;
* sequences fold with :func:`seq_compose` (the PredSubtract-powered
  exposed-read calculation);
* conditionals join with :func:`branch_join` (PredUnion), guarding the
  branch values with the derived branch predicate;
* loops translate the body value (a function of the index) into a loop
  value by projection over the iteration space — with predicate
  embedding for index-dependent guards, exact-only projection of
  must-writes, and the prior-iteration must-write subtraction for
  exposed reads;
* call sites splice in the callee's translated summary (``Reshape``).

For every loop the walker records a :class:`LoopSummary` carrying the
per-iteration body value — what the parallelization tests in
:mod:`repro.partests` consume — and the loop value, the projection over
the iteration space, computed when it is first read.  It has three
readers: the enclosing region's composition, a caller's call-site
translation (through the unit's proc value) and the copy-in region of
an array the loop privatizes.  No unit can call the main program, so
nothing reads its value: the walker visits the main program's top level
for its loops only, folds nothing (``proc_value`` is ``None``), and an
outermost main-program loop is projected only if it privatizes an array.

Three serving-substrate hooks wrap the walk:

* **summary cache** — with a :class:`~repro.service.cache.SummaryCache`,
  each unit's summary is stored under a content key (canonical unit
  source + callee keys + options); a warm run loads and *rebinds* the
  summary to the current AST instead of re-walking the unit.  Fresh
  generated names are drawn from a per-unit source so a unit's summary
  is a pure function of its key — cached and recomputed summaries are
  structurally identical.
* **nest memo** — within one process, the rows of every call-free
  top-level loop nest are memoized in ``nest.summary`` under the nest's
  canonical text, the options, the path predicate and the declarations
  of the names the nest references; a later walk of the same nest, in
  any program, rebinds the rows to its own loops by position instead of
  walking.  Such a walk draws no fresh names (the prior-iteration copy
  is ``__tprior_<index>``), so its rows are a pure function of that
  key.  A row holds ``None`` for a loop value not yet projected; a
  binding projects it on its own first read.  A walk that reads the
  outermost loop's value of such an entry stores new rows that carry
  it; rows are never written in place.  The driver's
  ``nest.decisions`` memo reuses the key for the nest's loop decisions.
* **budgets** — when the active :class:`~repro.service.budgets.Budget`
  trips mid-unit, the unit degrades to the conservative whole-array
  summary from :mod:`repro.service.degrade` (sound, never stored in the
  cache) instead of crashing; callers of a degraded unit are tainted and
  bypass the cache store as well.  A tripped walk stores no nest rows;
  a metered one reads none (:func:`~repro.service.budgets.metered`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import perf
from repro.arraydf.embedding import (
    embed_into_summary,
    split_guard_cases,
)
from repro.arraydf.extraction import pred_subtract
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.values import (
    AccessValue,
    GuardedSummary,
    branch_join,
    guarded_value,
    seq_compose_all,
    _dedup_guarded,
)
from repro.ir.callgraph import CallGraph
from repro.ir.exprtools import cond_to_predicate, to_affine
from repro.ir.loopinfo import LoopInfo, collect_loop_info
from repro.ir.regiongraph import (
    CallRegion,
    IfRegion,
    LoopRegion,
    ProcRegion,
    Region,
    SeqRegion,
    StmtRegion,
    build_region_tree,
)
from repro.ir.symboltable import SymbolTable
from repro.lang.astnodes import (
    ArrayRef,
    Assign,
    DoLoop,
    Expr,
    If,
    PrintStmt,
    Program,
    ReadStmt,
    Return,
    VarRef,
    walk_exprs,
)
from repro.lang.prettyprint import decl_str, stmt_str
from repro.linalg.constraint import Constraint
from repro.linalg.system import LinearSystem
from repro.predicates.formula import Predicate, TRUE, p_and
from repro.predicates.simplify import is_unsat
from repro.regions.region import ArrayRegion
from repro.regions.reshape import CallContext, translate_summary_set
from repro.regions.summary import SummarySet
from repro.service.budgets import BudgetExceeded, checkpoint, metered
from repro.service.cache import SummaryCache, unit_key
from repro.symbolic.affine import AffineExpr
from repro.symbolic.terms import GEN_PREFIX, FreshNameSource

#: the rows of each call-free top-level loop nest (see the module
#: docstring), keyed by :meth:`_UnitWalker._nest_key`
_NEST_SUMMARIES = perf.memo_table("nest.summary", cap=2048)
#: top-level nests that contain a call: their walk reads callee
#: summaries and fresh names, so they are never memoized
perf.declare("nest.excluded")

#: identifiers in a nest's canonical text; a word character or a dot
#: before the match makes it part of a number (``1e-05``)
_IDENT = re.compile(r"(?<![\w.])[a-z_]\w*")


@dataclass
class LoopSummary:
    """Everything the parallelization tests need about one loop."""

    loop: DoLoop
    info: LoopInfo
    body_value: AccessValue  # per-iteration, as a function of the index
    opts: AnalysisOptions
    unit_name: str = ""
    path_pred: Predicate = TRUE  # conjunction of tests reaching the loop
    #: the projection once :attr:`loop_value` was read, else ``None``
    projected: Optional[AccessValue] = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return self.loop.label

    @property
    def loop_value(self) -> AccessValue:
        """The body value projected across the iteration space,
        computed on first read (a function of the body value, the loop
        info and the options: it draws no fresh names)."""
        if self.projected is None:
            self.projected = _project_loop(self.body_value, self.info, self.opts)
        return self.projected


@dataclass
class UnitSummary:
    """Analysis results for one program unit."""

    unit_name: str
    #: what a call site splices in; ``None`` for the main program,
    #: which no unit can call
    proc_value: Optional[AccessValue]
    loops: Dict[DoLoop, LoopSummary] = field(default_factory=dict)
    loop_info: Dict[DoLoop, LoopInfo] = field(default_factory=dict)
    #: the memo key of each call-free top-level nest, by its outermost
    #: loop; the driver keys the nest's decisions by it
    nest_keys: Dict[DoLoop, tuple] = field(default_factory=dict)


class ArrayDataflow:
    """The interprocedural array data-flow analysis."""

    def __init__(
        self,
        program: Program,
        opts: Optional[AnalysisOptions] = None,
        cache: Optional[SummaryCache] = None,
        propagated: bool = False,
    ):
        """*propagated* marks *program* as already scalar-propagated (the
        pipeline runs propagation as its own pass); without it the
        walker propagates here."""
        self.opts = opts or AnalysisOptions.predicated()
        if self.opts.scalar_propagation and not propagated:
            from repro.ir.scalarprop import propagate_scalars

            program = propagate_scalars(program)
        self.program = program
        self.callgraph = CallGraph(program)
        self.symtabs: Dict[str, SymbolTable] = {
            name: SymbolTable(unit) for name, unit in program.units.items()
        }
        self.units: Dict[str, UnitSummary] = {}
        self.cache = cache
        #: content key per analyzed unit, filled only when a cache is
        #: attached; ``decide`` reuses it as the decisions cache key
        self.unit_keys: Dict[str, str] = {}
        #: units whose summary (or a callee's) was budget-degraded;
        #: their results are conservative and must never be cached
        self.tainted_units: Set[str] = set()
        self._trees: Dict[str, Tuple[ProcRegion, Dict[DoLoop, LoopInfo]]] = {}

    def region_tree(self, name: str) -> Tuple[ProcRegion, Dict[DoLoop, LoopInfo]]:
        """The unit's region tree and loop info, built on first request;
        the screen, the walk and a cache rebind share them."""
        tree = self._trees.get(name)
        if tree is None:
            proc = build_region_tree(self.program.units[name])
            tree = self._trees[name] = (proc, collect_loop_info(proc))
        return tree

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> "ArrayDataflow":
        for name in self.callgraph.bottom_up_order():
            self.run_unit(name)
        return self

    def run_unit(self, name: str) -> UnitSummary:
        """Analyze one unit and record its summary.

        Every callee of *name* must have been analyzed already: the
        caller — :meth:`run` or the pipeline's summarize pass — runs
        units in ``callgraph.bottom_up_order()``.  The walk keeps its
        mutable state in a per-call :class:`_UnitWalker`.
        """
        summary = self._run_unit(name)
        self.units[name] = summary
        return summary

    def _run_unit(self, name: str) -> UnitSummary:
        """Analyze one unit via the cache/budget wrapper.

        Summaries are keyed by canonical unit source + callee keys +
        options; a hit is *rebound* to the current parse (AST node ids
        are program-wide, so cached loop values are matched back to the
        current loops by their per-unit deterministic labels).  A
        :class:`BudgetExceeded` raised anywhere under the walk demotes
        the unit to the conservative whole-array summary — sound, and
        marked tainted so neither it nor its callers reach the cache.
        """
        unit = self.program.units[name]
        tainted = any(
            c in self.tainted_units for c in self.callgraph.callees(name)
        )
        key = None
        if self.cache is not None:
            from repro.lang.prettyprint import unit_str

            callee_keys = [
                (c, self.unit_keys.get(c, f"missing:{c}"))
                for c in sorted(self.callgraph.callees(name))
            ]
            key = unit_key(unit_str(unit), callee_keys, self.opts)
            self.unit_keys[name] = key
            if not tainted:
                payload = self.cache.load(key, "summary")
                if payload is not None:
                    rebound = self._rebind_summary(payload, unit)
                    if rebound is not None:
                        return rebound
        tree = self.region_tree(name)
        try:
            checkpoint()
            with perf.analysis_context(name):
                # fresh names are per-walk so a summary is a pure function
                # of (unit source, callee summaries, options) — a cache
                # requirement
                summary = _UnitWalker(self).analyze(unit, tree)
        except BudgetExceeded:
            from repro.service.degrade import conservative_unit_summary

            perf.bump("budget.degraded_unit")
            self.tainted_units.add(name)
            return conservative_unit_summary(
                unit, self.symtabs[name], self.opts, tree
            )
        if tainted:
            self.tainted_units.add(name)
        elif self.cache is not None and key is not None:
            self.cache.store(key, "summary", _summary_payload(summary))
        return summary

    def _rebind_summary(self, payload, unit) -> Optional[UnitSummary]:
        """Reattach a cached summary payload to the current parse.

        The payload carries only interned symbolic values keyed by loop
        label; the syntactic parts (region tree, loop info) come from
        :meth:`region_tree`, so every AST reference points into *this*
        parse.  Returns ``None`` (treated as a miss) on any shape
        mismatch.
        """
        _proc, info = self.region_tree(unit.name)
        by_label = {loop.label: loop for loop in info}
        try:
            proc_value, loop_rows = payload
            loops = [by_label.get(row[0]) for row in loop_rows]
        except (TypeError, ValueError, IndexError):
            return None
        bound = _bind_loop_rows(loop_rows, loops, info, unit.name, self.opts)
        if bound is None:
            return None
        summary = UnitSummary(unit.name, proc_value, {}, info)
        summary.loops.update((ls.loop, ls) for ls in bound)
        return summary

    def all_loop_summaries(self) -> List[LoopSummary]:
        out: List[LoopSummary] = []
        for name in self.program.units:
            if name in self.units:
                out.extend(self.units[name].loops.values())
        return out


class _UnitWalker:
    """One unit's bottom-up region walk.

    A walker is created per :meth:`ArrayDataflow.run_unit` call and owns
    the only mutable walk state, the fresh-name source that call sites
    draw from.  Callee summaries are read from the parent dataflow's
    ``units`` table, which :meth:`ArrayDataflow.run_unit`'s bottom-up
    contract has populated.
    """

    __slots__ = ("opts", "symtabs", "units", "fresh")

    def __init__(self, dataflow: "ArrayDataflow") -> None:
        self.opts = dataflow.opts
        self.symtabs = dataflow.symtabs
        self.units = dataflow.units
        self.fresh = FreshNameSource()

    # ------------------------------------------------------------------
    # per-unit walk
    # ------------------------------------------------------------------
    def analyze(self, unit, tree) -> UnitSummary:
        """Walk *unit* over its ``(region tree, loop info)`` *tree*."""
        proc, info = tree
        summary = UnitSummary(unit.name, None, {}, info)
        symtab = self.symtabs[unit.name]
        if unit.is_main:
            self._visit_loops(proc.body_seq, symtab, summary)
            return summary
        value = self._region_value(proc.body_seq, symtab, summary)
        # local arrays are invisible to callers
        local_arrays = [
            a for a in symtab.declared_arrays() if not symtab.is_formal(a)
        ]
        summary.proc_value = _drop_arrays_from_value(value, local_arrays)
        return summary

    def _branch_paths(
        self, cond: Predicate, path_pred: Predicate
    ) -> Tuple[Predicate, Predicate]:
        """The path predicates of a conditional's two branches."""
        if not self.opts.predicates:
            return TRUE, TRUE
        from repro.predicates.formula import p_not

        return p_and(path_pred, cond), p_and(path_pred, p_not(cond))

    def _visit_loops(
        self,
        region: Region,
        symtab: SymbolTable,
        out: UnitSummary,
        path_pred: Predicate = TRUE,
    ) -> None:
        """The main program's top level: record each loop's summary, in
        the walk's order, and fold nothing — no unit can call the main
        program, so no loop value here has a reader yet."""
        if isinstance(region, SeqRegion):
            for c in region.items:
                self._visit_loops(c, symtab, out, path_pred)
        elif isinstance(region, IfRegion):
            then_path, else_path = self._branch_paths(
                cond_to_predicate(region.stmt.cond), path_pred
            )
            self._visit_loops(region.then_seq, symtab, out, then_path)
            self._visit_loops(region.else_seq, symtab, out, else_path)
        elif isinstance(region, LoopRegion):
            self._loop(region, symtab, out, path_pred, read=False)

    def _region_value(
        self,
        region: Region,
        symtab: SymbolTable,
        out: UnitSummary,
        path_pred: Predicate = TRUE,
    ) -> AccessValue:
        if isinstance(region, SeqRegion):
            return seq_compose_all(
                (
                    self._region_value(c, symtab, out, path_pred)
                    for c in region.items
                ),
                self.opts,
            )
        if isinstance(region, StmtRegion):
            return self._stmt_value(region.stmt, symtab)
        if isinstance(region, IfRegion):
            cond = cond_to_predicate(region.stmt.cond)
            then_path, else_path = self._branch_paths(cond, path_pred)
            v_then = self._region_value(
                region.then_seq, symtab, out, then_path
            )
            v_else = self._region_value(
                region.else_seq, symtab, out, else_path
            )
            return branch_join(cond, v_then, v_else, self.opts)
        if isinstance(region, LoopRegion):
            return self._loop(region, symtab, out, path_pred).loop_value
        if isinstance(region, CallRegion):
            return self._call_value(region, symtab)
        raise TypeError(f"unknown region {region!r}")

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------
    def _expr_reads(self, expr: Expr, symtab: SymbolTable) -> List[ArrayRegion]:
        regions = []
        for e in walk_exprs(expr):
            if isinstance(e, ArrayRef):
                subs = [to_affine(s) for s in e.subscripts]
                regions.append(ArrayRegion.from_subscripts(e.name, subs))
        return regions

    def _stmt_value(self, stmt, symtab: SymbolTable) -> AccessValue:
        if isinstance(stmt, Assign):
            reads = list(self._expr_reads(stmt.value, symtab))
            scalar_writes: frozenset = frozenset()
            writes = SummarySet.empty()
            must = SummarySet.empty()
            if isinstance(stmt.target, ArrayRef):
                for s in stmt.target.subscripts:
                    reads.extend(self._expr_reads(s, symtab))
                subs = [to_affine(s) for s in stmt.target.subscripts]
                writes = SummarySet.of(
                    ArrayRegion.from_subscripts(stmt.target.name, subs)
                )
                # a non-affine subscript writes *one unknown* element: the
                # may-write is the whole array but nothing is definitely
                # written (a universe must-write would fabricate coverage)
                if all(s is not None for s in subs):
                    must = writes
            else:
                scalar_writes = frozenset([stmt.target.name])
            read_set = SummarySet.of(*reads)
            return AccessValue(
                r=read_set,
                w=writes,
                m=(GuardedSummary(TRUE, must),),
                e=(GuardedSummary(TRUE, read_set),),
                scalar_writes=scalar_writes,
            )
        if isinstance(stmt, ReadStmt):
            return AccessValue.leaf(
                SummarySet.empty(), SummarySet.empty(), frozenset(stmt.names)
            )
        if isinstance(stmt, PrintStmt):
            reads = []
            for a in stmt.args:
                if hasattr(a, "text"):
                    continue
                reads.extend(self._expr_reads(a, symtab))
            return AccessValue.leaf(SummarySet.of(*reads), SummarySet.empty())
        if isinstance(stmt, Return):
            return AccessValue.empty()
        raise TypeError(f"unexpected statement {stmt!r}")

    # ------------------------------------------------------------------
    # call sites
    # ------------------------------------------------------------------
    def _call_value(self, region: CallRegion, symtab: SymbolTable) -> AccessValue:
        call = region.stmt
        callee_name = call.name
        # scalars any argument expression reads
        arg_reads: List[ArrayRegion] = []
        for a in call.args:
            if isinstance(a, VarRef) and symtab.is_array(a.name):
                continue
            arg_reads.extend(self._expr_reads(a, symtab))

        if not self.opts.interprocedural or callee_name not in self.units:
            return self._conservative_call_value(call, symtab, arg_reads)

        callee_summary = self.units[callee_name].proc_value
        ctx = CallContext(
            call, symtab, self.symtabs[callee_name], self.fresh
        )
        r_alts = translate_summary_set(callee_summary.r, ctx, must=False)
        w_alts = translate_summary_set(callee_summary.w, ctx, must=False)
        m_default = callee_summary.must_default()
        e_default = callee_summary.exposed_default()
        m_alts = translate_summary_set(m_default, ctx, must=True)
        e_alts = translate_summary_set(e_default, ctx, must=False)
        if not (self.opts.predicates and self.opts.extraction):
            # the optimistic Reshape value is guarded by an *extracted*
            # size/divisibility predicate — unavailable without extraction
            m_alts = [a for a in m_alts if a[0].is_true()] or [
                (TRUE, SummarySet.empty())
            ]
            e_alts = [a for a in e_alts if a[0].is_true()]
            w_alts = [a for a in w_alts if a[0].is_true()]

        r = r_alts[-1][1].union(SummarySet.of(*arg_reads), self.opts.region_budget)
        w = w_alts[-1][1]
        # scalar formals are passed by value in this model: calls write no
        # caller scalars
        m = guarded_value(m_alts, w, "must", self.opts)
        e = guarded_value(e_alts, r, "exposed", self.opts)
        wg = guarded_value(w_alts, w, "exposed", self.opts)
        return AccessValue(
            r=r, w=w, m=m, e=e, w_alts=wg, scalar_writes=frozenset()
        )

    def _conservative_call_value(
        self, call, symtab: SymbolTable, arg_reads: List[ArrayRegion]
    ) -> AccessValue:
        """No summary available: every argument array may be read and
        written anywhere, nothing is definitely written."""
        touched: List[ArrayRegion] = list(arg_reads)
        for a in call.args:
            if isinstance(a, VarRef) and symtab.is_array(a.name):
                touched.append(
                    ArrayRegion.whole(
                        a.name, symtab.rank(a.name), symtab.affine_extents(a.name)
                    )
                )
        may = SummarySet.of(*touched)
        return AccessValue(
            r=may,
            w=may,
            m=(GuardedSummary(TRUE, SummarySet.empty()),),
            e=(GuardedSummary(TRUE, may),),
            scalar_writes=frozenset(),
        )

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------
    def _loop(
        self,
        region: LoopRegion,
        symtab: SymbolTable,
        out: UnitSummary,
        path_pred: Predicate = TRUE,
        read: bool = True,
    ) -> LoopSummary:
        """Record the summaries of the loop and of the loops inside it.

        With *read*, the loop's value is projected before a top-level
        nest's rows are memoized, so the rows carry it; a memo hit whose
        rows lack it is replaced by rows that carry it.
        """
        loop = region.stmt
        info = out.loop_info[loop]
        top = not region.enclosing_loops()
        key = None
        if top and info.has_calls:
            perf.bump("nest.excluded")
        elif top:
            key = out.nest_keys[loop] = self._nest_key(loop, symtab, path_pred)
            rows = None if metered() else _NEST_SUMMARIES.get(key)
            if rows is not None:
                # the key holds the nest's text, so the rows fit its loops
                bound = _bind_loop_rows(
                    rows, _nest_loops([loop], []), out.loop_info, out.unit_name, self.opts
                )
                out.loops.update((ls.loop, ls) for ls in bound)
                root = bound[-1]
                if read and rows[-1][2] is None:
                    # stored by a walk that did not read it: project once
                    # and store new rows that carry it
                    root.projected = _project_loop(root.body_value, root.info, self.opts)
                    _NEST_SUMMARIES.data[key] = rows[:-1] + _loop_rows([root])
                return root
        body_value = self._region_value(region.body_seq, symtab, out, path_pred)
        summary = out.loops[loop] = LoopSummary(
            loop, info, body_value, self.opts, out.unit_name, path_pred
        )
        if read:
            summary.projected = _project_loop(body_value, info, self.opts)
        if key is not None:
            _NEST_SUMMARIES.data[key] = _loop_rows(
                out.loops[l] for l in _nest_loops([loop], [])
            )
        return summary

    def _nest_key(
        self, loop: DoLoop, symtab: SymbolTable, path_pred: Predicate
    ) -> tuple:
        """What a call-free top-level nest's walk and decisions read.

        The walk reads the nest's statements, the options and the path
        predicate; the decisions also read the declarations of the
        names the nest mentions (scalar or array, or undeclared).  Each
        declaration's text carries its name, so the declared ones are
        enough: every other identifier of the text is undeclared.
        """
        text = stmt_str(loop)
        decls = tuple(
            decl_str(d)
            for d in map(symtab.decl, sorted(set(_IDENT.findall(text))))
            if d is not None
        )
        return (text, self.opts, path_pred, decls)


def _project_loop(
    body: AccessValue, info: LoopInfo, opts: AnalysisOptions
) -> AccessValue:
    """A loop's value: its body value projected across the iteration
    space."""
    index = info.loop.var
    space = info.iteration_space()
    # variables a guard may not mention if it is to survive projection
    volatile = frozenset([index]) | body.scalar_writes

    r = body.r.project_may(index, space)
    w = body.w.project_may(index, space)

    m_alts = _project_must_alts(body.m, index, space, volatile, opts)
    e_alts = _project_exposed_alts(body, index, space, volatile, info.step, opts)

    w_alts: List[GuardedSummary] = []
    for g in body.w_alts:
        split = split_guard_cases(
            g.pred, g.summary, body.w, volatile, opts.embedding
        )
        if split is None:
            continue
        pred, cases = split
        if pred.variables() & volatile:
            continue
        projected = SummarySet.empty()
        for s, _sys in cases:
            projected = projected.union(
                s.project_may(index, space), opts.region_budget
            )
        w_alts.append(GuardedSummary(pred, projected))
    if not any(g.is_default() for g in w_alts):
        w_alts.append(GuardedSummary(TRUE, w))

    return AccessValue(
        r=r,
        w=w,
        m=_dedup_guarded(m_alts, opts.max_guarded, keep="max"),
        e=_dedup_guarded(e_alts, opts.max_guarded, keep="min"),
        w_alts=_dedup_guarded(w_alts, opts.max_guarded, keep="min"),
        scalar_writes=body.scalar_writes | frozenset([index]),
    )

def _project_must_alts(
    alts: Tuple[GuardedSummary, ...],
    index: str,
    space: LinearSystem,
    volatile: frozenset,
    opts: AnalysisOptions,
) -> List[GuardedSummary]:
    """Project guarded must-writes across the iteration space.

    An index-dependent guard is *embedded* (its linear conjuncts are
    conjoined into the regions, making the projection range over
    exactly the iterations where the guard held).  A residual guard
    must be loop-invariant or the alternative is dropped.
    """
    out: List[GuardedSummary] = []
    for g in alts:
        pred, summary = g.pred, g.summary
        if opts.embedding and (pred.variables() & volatile):
            pred, summary = embed_into_summary(pred, summary)
        if pred.variables() & volatile:
            continue  # guard not interpretable at loop entry
        projected = summary.project_must(index, space)
        out.append(GuardedSummary(pred, projected))
    if not any(g.is_default() for g in out):
        out.append(GuardedSummary(TRUE, SummarySet.empty()))
    return out

def _project_exposed_alts(
    body: AccessValue,
    index: str,
    space: LinearSystem,
    volatile: frozenset,
    step,
    opts: AnalysisOptions,
) -> List[GuardedSummary]:
    """Exposed reads of the loop.

    For each usable exposed alternative ``(p_e, E(i))`` and each
    usable must alternative ``(p_m, M(i))``::

        E_loop = ⋃_i  E(i) − M_before(i)
        M_before(i) = ⋃_{i' executed before i} M(i')

    realized by renaming the must summary to a fresh iterator ``i'``,
    must-projecting it over the execution-earlier range (``i' < i``
    for positive steps, ``i' > i`` for negative — execution order,
    not index order), subtracting (with predicate extraction) and
    may-projecting the residue.  A non-constant step yields no prior
    iterations (sound: nothing is subtracted).
    """
    out: List[GuardedSummary] = []
    # created and eliminated inside this projection, so one name per
    # index is enough and the walk draws no fresh names
    prior = f"{GEN_PREFIX}prior_{index}"
    if step is not None and step < 0:
        order = Constraint.gt(
            AffineExpr.var(prior), AffineExpr.var(index)
        )
    else:
        order = Constraint.lt(
            AffineExpr.var(prior), AffineExpr.var(index)
        )
    prior_space = space.rename({index: prior}) & LinearSystem([order])
    if step is None or abs(step) != 1:
        # a strided loop's prior iterations are a strided subset of
        # the index range; subtracting the hull would fabricate
        # coverage, so no prior writes are claimed
        prior_space = LinearSystem.empty()
    e_default = body.exposed_default()
    for ge in body.e:
        split = split_guard_cases(
            ge.pred, ge.summary, e_default, volatile, opts.embedding
        )
        if split is None:
            continue
        e_pred, e_cases = split
        if e_pred.variables() & volatile:
            continue
        for gm in body.m:
            # must-writes may be embedded without complement cases:
            # restricting to guard-holding iterations only shrinks them
            m_pred, m_sum = gm.pred, gm.summary
            if opts.embedding and (m_pred.variables() & volatile):
                m_pred, m_sum = embed_into_summary(m_pred, m_sum)
            if m_pred.variables() & volatile:
                continue
            combined = p_and(e_pred, m_pred)
            if combined.is_false() or is_unsat(combined):
                continue  # prune before the expensive subtraction
                # (an unsat guard would be dedup-dropped afterwards)
            m_before = m_sum.rename_vars({index: prior}).project_must(
                prior, prior_space
            )
            # combine the iteration-covering exposure cases: the loop
            # exposure is bounded by the union of per-case residues,
            # and is empty under the conjunction of per-case breaking
            # conditions
            union_residue = SummarySet.empty()
            all_break: Predicate = TRUE
            have_break = True
            for e_sum, _sys in e_cases:
                alts = pred_subtract(e_sum, m_before, opts)
                default_diff = next(
                    s for p, s in alts if p.is_true()
                )
                union_residue = union_residue.union(
                    default_diff.project_may(index, space),
                    opts.region_budget,
                )
                case_break = next(
                    (
                        p
                        for p, s in alts
                        if not p.is_true()
                        and s.is_empty()
                        and not (p.variables() & volatile)
                    ),
                    None,
                )
                if default_diff.is_empty():
                    continue  # this case contributes nothing anyway
                if case_break is None:
                    have_break = False
                else:
                    all_break = p_and(all_break, case_break)
            base_pred = p_and(e_pred, m_pred)
            if base_pred.is_false():
                continue
            out.append(GuardedSummary(base_pred, union_residue))
            if (
                have_break
                and not all_break.is_true()
                and not union_residue.is_empty()
            ):
                pred = p_and(base_pred, all_break)
                if not pred.is_false():
                    out.append(GuardedSummary(pred, SummarySet.empty()))
    if not any(g.is_default() for g in out):
        # sound fallback: every read may be exposed
        out.append(
            GuardedSummary(TRUE, body.r.project_may(index, space))
        )
    return out


def _summary_payload(summary: UnitSummary):
    """The cacheable projection of a :class:`UnitSummary`.

    Only interned symbolic values go to disk — AST and region objects
    stay out (their node ids are program-wide, so they could not be
    reused by another parse anyway).  Loop rows keep the walker's
    post-order so a rebound summary reports loops in the same order.
    """
    return (summary.proc_value, _loop_rows(summary.loops.values()))


def _loop_rows(loop_summaries) -> list:
    """AST-free rows of loop summaries, in the order given.

    A row is ``(label, body value, loop value, path predicate)``, with
    ``None`` for a loop value not yet projected.
    """
    return [
        (ls.label, ls.body_value, ls.projected, ls.path_pred)
        for ls in loop_summaries
    ]


def _bind_loop_rows(
    rows, loops: List[Optional[DoLoop]], loop_info, unit_name: str, opts
) -> Optional[List[LoopSummary]]:
    """Reattach :func:`_loop_rows` rows to the current parse's *loops*,
    matched by position; ``None`` on any shape mismatch.  The disk
    cache finds the loops by the rows' labels, the nest memo by the
    nest's walk order.  A value not yet projected is projected on the
    bound summary's first read; the rows are never written."""
    if len(rows) != len(loops):
        return None
    out: List[LoopSummary] = []
    try:
        for loop, (_label, body_value, loop_value, path_pred) in zip(loops, rows):
            if loop is None:
                return None
            out.append(
                LoopSummary(
                    loop, loop_info[loop], body_value, opts, unit_name, path_pred, loop_value
                )
            )
    except (TypeError, ValueError, KeyError):
        return None
    return out


def _nest_loops(stmts, out: List[DoLoop]) -> List[DoLoop]:
    """The loops of *stmts* in the walker's post-order, appended to
    *out* (call with ``[loop]`` for one nest)."""
    for s in stmts:
        if isinstance(s, DoLoop):
            _nest_loops(s.body, out)
            out.append(s)
        elif isinstance(s, If):
            _nest_loops(s.then_body, out)
            _nest_loops(s.else_body, out)
    return out


def _drop_arrays_from_value(value: AccessValue, arrays: List[str]) -> AccessValue:
    if not arrays:
        return value
    return AccessValue(
        r=value.r.drop_arrays(arrays),
        w=value.w.drop_arrays(arrays),
        m=tuple(
            GuardedSummary(g.pred, g.summary.drop_arrays(arrays))
            for g in value.m
        ),
        e=tuple(
            GuardedSummary(g.pred, g.summary.drop_arrays(arrays))
            for g in value.e
        ),
        w_alts=tuple(
            GuardedSummary(g.pred, g.summary.drop_arrays(arrays))
            for g in value.w_alts
        ),
        scalar_writes=value.scalar_writes,
    )
