"""The parallelization driver: program in, per-loop decisions out.

This is the top of the compiler stack — the piece the paper's tables
summarize.  For every loop it reports one of:

``parallel``
    independent at compile time, no transformations needed;
``parallel_private``
    parallel after array/scalar privatization (and reduction handling);
``runtime``
    parallel under a derived predicate, guarded by a low-cost run-time
    test (two-version loop);
``serial``
    no strategy proved safe;
``not_candidate``
    ineligible (I/O, early return, non-invariant bounds, non-constant
    step).

Loops nested inside a loop already parallelized at an outer level are
flagged ``enclosed`` (SUIF exploits a single level of parallelism).

The driver carries the serving-substrate hooks through the pipeline:

* a :class:`~repro.service.cache.SummaryCache` is handed to the
  data-flow walker and additionally caches per-unit *decisions* (the
  dependence/privatization outcomes) under the same content keys;
* the ``nest.decisions`` memo keeps the decision rows of every
  call-free top-level loop nest under the walker's nest key (see
  :mod:`repro.arraydf.analysis`), so a warm process decides a nest it
  has seen in any earlier program by rebinding rows;
* a tripped :class:`~repro.service.budgets.Budget` demotes the loop
  being decided to ``serial`` ("not proven parallel") instead of
  aborting the request — sound, counted in ``budget.degraded_loop``,
  and never written back to the cache or the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import perf
from repro.arraydf.analysis import ArrayDataflow, LoopSummary
from repro.arraydf.options import AnalysisOptions
from repro.ir.loopinfo import classify_scalars
from repro.lang.astnodes import DoLoop, Program, walk_stmts
from repro.partests.dependence import LoopVerdict, test_loop
from repro.partests.runtime_tests import (
    is_runtime_evaluable,
    render_predicate,
    test_cost,
)
from repro.predicates.formula import Predicate, TRUE
from repro.service.budgets import BudgetExceeded, metered
from repro.service.cache import SummaryCache

#: the decision rows of each call-free top-level loop nest, in
#: ``_decision_rows`` form, under the walker's nest key
_NEST_DECISIONS = perf.memo_table("nest.decisions", cap=2048)


@dataclass
class LoopResult:
    """Final decision for one loop."""

    label: str
    unit: str
    loop: DoLoop
    status: str  # parallel | parallel_private | runtime | serial | not_candidate
    condition: Optional[Predicate] = None
    runtime_test: Optional[str] = None  # rendered source text
    runtime_cost: int = 0
    private_arrays: List[str] = field(default_factory=list)
    private_scalars: List[str] = field(default_factory=list)
    reduction_scalars: List[str] = field(default_factory=list)
    reason: str = ""
    depth: int = 0
    enclosed: bool = False  # nested inside a parallelized loop
    verdict: Optional[LoopVerdict] = None

    @property
    def is_parallelized(self) -> bool:
        return self.status in ("parallel", "parallel_private", "runtime")

    @property
    def is_outer_parallel(self) -> bool:
        return self.is_parallelized and not self.enclosed


@dataclass
class ProgramResult:
    """All loop decisions for one program, plus analysis timing."""

    program: Program
    options: AnalysisOptions
    loops: List[LoopResult] = field(default_factory=list)
    analysis_seconds: float = 0.0

    # -- counters used by the experiment tables ----------------------------
    def count(self, *statuses: str) -> int:
        return sum(1 for l in self.loops if l.status in statuses)

    @property
    def total_loops(self) -> int:
        return len(self.loops)

    @property
    def candidate_loops(self) -> int:
        return sum(1 for l in self.loops if l.status != "not_candidate")

    @property
    def parallelized(self) -> int:
        return sum(1 for l in self.loops if l.is_parallelized)

    @property
    def outer_parallelized(self) -> int:
        return sum(1 for l in self.loops if l.is_outer_parallel)

    @property
    def runtime_tested(self) -> int:
        return self.count("runtime")

    def by_label(self) -> Dict[str, LoopResult]:
        return {l.label: l for l in self.loops}

    def parallel_labels(self) -> List[str]:
        return [l.label for l in self.loops if l.is_parallelized]


def program_rows(result: ProgramResult) -> list:
    """The whole-program payload of *result*: ``(unit, decision rows)``
    per unit in program (parse) order — what the program-level cache
    stores and a batch worker ships back, and what
    :func:`rebind_program` reads."""
    return [
        (name, _decision_rows([l for l in result.loops if l.unit == name]))
        for name in result.program.units
    ]


def rebind_program(
    program: Program, opts: AnalysisOptions, payload
) -> Optional[ProgramResult]:
    """Reattach a whole-program payload of decision rows to *program*.

    The payload is what the program-level cache stores and what a batch
    worker ships back.  Loop decisions are matched by label against the
    *unpropagated* program (labels are stable across scalar
    propagation); the ``enclosed`` flags are derived state and
    recomputed.  Returns ``None`` — a miss — on any shape mismatch.
    """
    result = ProgramResult(program, opts)
    try:
        if len(payload) != len(program.units):
            return None
        for unit_name, rows in payload:
            unit = program.units.get(unit_name)
            if unit is None:
                return None
            loops_by_label = {
                s.label: s for s in walk_stmts(unit.body) if isinstance(s, DoLoop)
            }
            rebound = _rebind_rows_by_label(rows, loops_by_label, unit_name)
            if rebound is None:
                return None
            result.loops.extend(rebound)
    except (TypeError, ValueError):
        return None
    mark_enclosed(result)
    return result


def decide_unit(
    dataflow: ArrayDataflow,
    unit_name: str,
    summary,
    symtab,
    opts: AnalysisOptions,
    cache: Optional[SummaryCache] = None,
    screen: Optional[Callable[[str], Optional[dict]]] = None,
) -> Tuple[List[LoopResult], bool]:
    """Decide every loop of one unit, via the decisions cache.

    Decisions are a pure function of the unit's summary key (they read
    only the loop summaries, the symbol table and the options), so they
    share it.  Budget-degraded loops — and every loop of a unit whose
    summary was degraded — stay out of the cache.  Returns the loop
    results plus whether any loop was budget-degraded.

    *screen* looks a loop's label up in the tier-0 screen
    (:func:`repro.arraydf.screen.unit_lookup`): the ready-made
    ``parallel`` row of a loop it proves independent, else ``None``.  It
    is called only for a loop that misses both caches, so no other loop
    is screened.  A loop with a row takes it after a cheap cross-check
    against the real summary (write set and scalar classes must match
    the prediction — ``screen.agree``), skipping the full dependence
    test; any mismatch falls back to :func:`decide_loop`
    (``screen.disagree``), keeping results identical by construction.

    A nest the walker keyed (``summary.nest_keys``) is first looked up
    in the ``nest.decisions`` memo: its rows are a function of the key,
    since the screen rows of its loops are a function of the nest's
    text and declarations too.  A nest with a budget-degraded loop is
    not stored.
    """
    key = dataflow.unit_keys.get(unit_name)
    cacheable = (
        cache is not None
        and key is not None
        and unit_name not in dataflow.tainted_units
    )
    if cacheable:
        rows = cache.load(key, "decisions")
        if rows is not None:
            rebound = _rebind_decisions(rows, summary, unit_name)
            if rebound is not None:
                return rebound, False
    out: List[LoopResult] = []
    degraded = False
    for nest_key, nest in _nests(summary):
        rows = None if nest_key is None or metered() else _NEST_DECISIONS.get(nest_key)
        if rows is not None:
            # the key holds the nest's text, so the rows fit its loops
            out.extend(_rebind_rows(rows, [ls.loop for ls in nest], unit_name, nest))
            continue
        start = len(out)
        nest_degraded = False
        for loop_summary in nest:
            result, loop_degraded = _decide_one(
                loop_summary, screen, symtab, opts, unit_name
            )
            nest_degraded = nest_degraded or loop_degraded
            out.append(result)
        if nest_degraded:
            degraded = True
        elif nest_key is not None:
            _NEST_DECISIONS.data[nest_key] = _decision_rows(out[start:])
    if cacheable and not degraded:
        cache.store(key, "decisions", _decision_rows(out))
    return out, degraded


def _nests(summary) -> List[Tuple[Optional[tuple], List[LoopSummary]]]:
    """The unit's loop summaries cut into top-level nests, in order,
    each with its memo key (``None``: not memoizable).  Summaries are in
    walk post-order, so a nest ends at its outermost loop."""
    out = []
    nest: List[LoopSummary] = []
    for loop, loop_summary in summary.loops.items():
        nest.append(loop_summary)
        if loop_summary.info.region.loop_depth() == 0:
            out.append((summary.nest_keys.get(loop), nest))
            nest = []
    return out


def _decide_one(
    loop_summary: LoopSummary, screen, symtab, opts, unit_name: str
) -> Tuple[LoopResult, bool]:
    """One loop's decision, and whether a budget trip degraded it."""
    loop = loop_summary.loop
    row = None if screen is None else screen(loop.label)
    if row is not None:
        screened = _screened_result(row, loop_summary, symtab, unit_name)
        if screened is not None:
            perf.bump("screen.agree")
            return screened, False
        perf.bump("screen.disagree")
    try:
        with perf.analysis_context(loop_summary.label):
            return decide_loop(loop_summary, symtab, opts), False
    except BudgetExceeded:
        perf.bump("budget.degraded_loop")
        return (
            LoopResult(
                label=loop.label,
                unit=unit_name,
                loop=loop,
                status="serial",
                reason="budget exhausted: not proven parallel",
                depth=loop_summary.info.region.loop_depth(),
            ),
            True,
        )


def decide_loop(summary: LoopSummary, symtab, opts: AnalysisOptions) -> LoopResult:
    """The parallelization decision for one loop (pure)."""
    loop = summary.loop
    info = summary.info
    base = LoopResult(
        label=loop.label,
        unit=summary.unit_name,
        loop=loop,
        status="serial",
        depth=summary.info.region.loop_depth(),
    )
    if not info.is_candidate:
        base.status = "not_candidate"
        base.reason = (
            "io" if info.has_io
            else "return" if info.has_return
            else "bounds" if not info.bounds_invariant
            else "step"
        )
        return base

    verdict = test_loop(summary, symtab, opts)
    base.verdict = verdict
    base.private_scalars = sorted(verdict.private_scalars)
    base.reduction_scalars = sorted(verdict.reduction_scalars)

    if verdict.scalar_obstacles:
        base.status = "serial"
        base.reason = "scalar dependence: " + ", ".join(
            sorted(verdict.scalar_obstacles)
        )
        return base

    cond = verdict.parallel_condition
    # the loop runs only where its path predicate holds: a residual
    # condition implied by the path needs no run-time test
    if (
        opts.predicates
        and not cond.is_true()
        and not cond.is_false()
        and not summary.path_pred.is_true()
    ):
        from repro.predicates.simplify import implies

        if implies(summary.path_pred, cond):
            cond = TRUE
    base.condition = cond
    base.private_arrays = verdict.private_arrays

    if cond.is_true():
        base.status = (
            "parallel_private"
            if base.private_arrays or base.reduction_scalars
            else "parallel"
        )
        return base
    if cond.is_false():
        base.status = "serial"
        base.reason = "array dependence"
        return base

    # residual predicate: candidate run-time test
    clobbered = (
        frozenset([loop.var])
        | summary.body_value.scalar_writes
        | frozenset(summary.body_value.w.arrays())
    )
    if opts.runtime_tests and is_runtime_evaluable(cond, clobbered):
        base.status = "runtime"
        base.runtime_test = render_predicate(cond)
        base.runtime_cost = test_cost(cond)
        return base
    base.status = "serial"
    base.reason = "unprovable predicate: " + str(cond)
    return base


def _screened_result(
    row, loop_summary: LoopSummary, symtab, unit_name: str
) -> Optional[LoopResult]:
    """Bind a screen-made ``parallel`` row to the loop's real summary.

    The cross-check re-derives from the *actual* body value everything
    the screen predicted from syntax — the written-array set and the
    scalar classification — and refuses the row (``None``) on any
    difference, so a screened decision can never diverge from what
    :func:`decide_loop` would compute.
    """
    info = loop_summary.info
    body = loop_summary.body_value
    if not info.is_candidate:
        return None
    verdicts, _obstacles, _reductions, privates = row["verdict"]
    if sorted(body.w.arrays()) != sorted(verdicts):
        return None
    obstacles, reductions, private_scalars = classify_scalars(
        info, body.scalar_writes | info.scalar_writes, symtab
    )
    if obstacles or reductions or private_scalars != set(privates):
        return None
    return _rebind_rows([row], [loop_summary.loop], unit_name, [loop_summary])[0]


def mark_enclosed(result: ProgramResult) -> None:
    """Flag every loop nested inside a parallelized loop."""
    enclosed_ids = set()
    for l in result.loops:
        if l.is_parallelized:
            for s in walk_stmts(l.loop.body):
                if isinstance(s, DoLoop):
                    enclosed_ids.add(id(s))
    for l in result.loops:
        if id(l.loop) in enclosed_ids:
            l.enclosed = True


def _decision_rows(results: List[LoopResult]) -> list:
    """The cacheable projection of one unit's loop decisions.

    AST references (``loop``) and the verdict's loop summary stay out;
    everything else is either plain data or interned symbolic values.
    """
    rows = []
    for r in results:
        verdict_data = None
        if r.verdict is not None:
            v = r.verdict
            verdict_data = (
                v.array_verdicts,
                v.scalar_obstacles,
                v.reduction_scalars,
                v.private_scalars,
            )
        rows.append(
            {
                "label": r.label,
                "status": r.status,
                "condition": r.condition,
                "runtime_test": r.runtime_test,
                "runtime_cost": r.runtime_cost,
                "private_arrays": r.private_arrays,
                "private_scalars": r.private_scalars,
                "reduction_scalars": r.reduction_scalars,
                "reason": r.reason,
                "depth": r.depth,
                "verdict": verdict_data,
            }
        )
    return rows


def _rebind_rows(
    rows, loops: List[Optional[DoLoop]], unit_name: str, summaries=None
) -> Optional[List[LoopResult]]:
    """Reattach decision rows to the current parse's *loops*, matched by
    position.

    *summaries* supplies the :class:`LoopSummary` of each loop where
    available (the per-unit and nest paths); without it verdicts carry
    no summary.  Returns ``None`` — treated as a miss — on any shape
    mismatch.
    """
    if not isinstance(rows, list) or len(rows) != len(loops):
        return None
    out: List[LoopResult] = []
    try:
        for k, (row, loop) in enumerate(zip(rows, loops)):
            if loop is None:
                return None
            verdict = None
            if row["verdict"] is not None:
                verdicts, obstacles, reductions, privates = row["verdict"]
                verdict = LoopVerdict(
                    summary=summaries[k] if summaries is not None else None,
                    array_verdicts=dict(verdicts),
                    scalar_obstacles=obstacles,
                    reduction_scalars=reductions,
                    private_scalars=privates,
                )
            out.append(
                LoopResult(
                    label=loop.label,
                    unit=unit_name,
                    loop=loop,
                    status=row["status"],
                    condition=row["condition"],
                    runtime_test=row["runtime_test"],
                    runtime_cost=row["runtime_cost"],
                    private_arrays=list(row["private_arrays"]),
                    private_scalars=list(row["private_scalars"]),
                    reduction_scalars=list(row["reduction_scalars"]),
                    reason=row["reason"],
                    depth=row["depth"],
                    verdict=verdict,
                )
            )
    except (KeyError, TypeError, ValueError):
        return None
    return out


def _rebind_rows_by_label(
    rows, loops_by_label: Dict[str, DoLoop], unit_name: str, summaries_by_label=None
) -> Optional[List[LoopResult]]:
    """:func:`_rebind_rows` for rows found by their labels (the disk
    cache and batch results)."""
    if not isinstance(rows, list) or len(rows) != len(loops_by_label):
        return None
    try:
        labels = [row["label"] for row in rows]
    except (KeyError, TypeError):
        return None
    summaries = None
    if summaries_by_label is not None:
        summaries = [summaries_by_label.get(label) for label in labels]
    return _rebind_rows(
        rows, [loops_by_label.get(label) for label in labels], unit_name, summaries
    )


def _rebind_decisions(
    rows, summary, unit_name: str
) -> Optional[List[LoopResult]]:
    """Per-unit rebind: match against the unit's (rebound) summaries."""
    summaries_by_label = {ls.label: ls for ls in summary.loops.values()}
    loops_by_label = {l: ls.loop for l, ls in summaries_by_label.items()}
    return _rebind_rows_by_label(rows, loops_by_label, unit_name, summaries_by_label)


def analyze_program(
    program: Program,
    opts: Optional[AnalysisOptions] = None,
    cache: Optional[SummaryCache] = None,
) -> ProgramResult:
    """Run the compile flow (:func:`repro.pipeline.run_pipeline`) for
    *program* and return its per-loop decisions."""
    from repro.pipeline import run_pipeline

    return run_pipeline(program, opts, cache=cache).get("result")
