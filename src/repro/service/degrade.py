"""Conservative fallbacks for budget-exhausted analyses.

When a :class:`~repro.service.budgets.Budget` trips mid-procedure, the
analysis cannot finish its precise summary — but it can always fall back
to the coarsest *sound* one:

* every array the procedure (or loop body) can see **may be read and
  written anywhere** (whole-array regions);
* **nothing is definitely written** (empty must-write — fabricating
  coverage would be unsound);
* every read **may be exposed** (exposed = may-read);
* every scalar the unit mentions may be written.

Fed to the dependence tests, such a summary can only produce
conflicts, so every decision downstream of a demotion moves toward
"not proven parallel" — decisions never flip *toward* parallel, which
is why degraded results remain ELPD-consistent (a loop reported
``serial`` is trivially safe to run serially).

These builders run with budget enforcement :func:`suspended
<repro.service.budgets.suspended>` — they are invoked precisely when a
budget is exhausted, and the small, bounded amount of substrate work
they do (region construction runs emptiness checks) must not re-trip
it.
"""

from __future__ import annotations

from typing import List

from repro.arraydf.values import AccessValue, GuardedSummary
from repro.ir.regiongraph import LoopRegion, ProcRegion, Region
from repro.ir.symboltable import SymbolTable
from repro.lang.astnodes import Assign, ReadStmt, VarRef, walk_stmts
from repro.predicates.formula import TRUE
from repro.regions.region import ArrayRegion
from repro.regions.summary import SummarySet
from repro.service.budgets import suspended


def conservative_value(
    symtab: SymbolTable, arrays: List[str], scalar_writes
) -> AccessValue:
    """Whole-array may-read/may-write, no must-write, all reads exposed."""
    with suspended():
        regions = [
            ArrayRegion.whole(a, symtab.rank(a), symtab.affine_extents(a))
            for a in sorted(arrays)
        ]
        may = SummarySet.of(*regions)
        return AccessValue(
            r=may,
            w=may,
            m=(GuardedSummary(TRUE, SummarySet.empty()),),
            e=(GuardedSummary(TRUE, may),),
            scalar_writes=frozenset(scalar_writes),
        )


def _assigned_scalars(stmts) -> frozenset:
    names = set()
    for s in walk_stmts(stmts):
        if isinstance(s, Assign) and isinstance(s.target, VarRef):
            names.add(s.target.name)
        elif isinstance(s, ReadStmt):
            names.update(s.names)
    return frozenset(names)


def conservative_unit_summary(unit, symtab: SymbolTable, opts, tree):
    """A whole-unit fallback :class:`UnitSummary`.

    Every loop gets a conservative body/loop value (so the driver's
    dependence tests — if they run at all under an exhausted budget —
    can only fail to prove parallelism), and the procedure summary
    exposes whole-array accesses of the formals to callers.  Loops are
    recorded in the same post-order the precise walker uses so report
    ordering stays stable.  *tree* is the unit's ``(region tree, loop
    info)`` pair (:meth:`~repro.arraydf.analysis.ArrayDataflow.region_tree`).
    """
    # local import: analysis imports this module lazily, and importing
    # analysis at module load would be circular
    from repro.arraydf.analysis import LoopSummary, UnitSummary

    proc, info = tree
    arrays = symtab.declared_arrays()
    summary = UnitSummary(unit.name, None, {}, info)

    def visit(region: Region) -> None:
        for child in region.children():
            visit(child)
        if isinstance(region, LoopRegion):
            loop = region.stmt
            loop_info = info[loop]
            value = conservative_value(
                symtab,
                arrays,
                _assigned_scalars(loop.body) | frozenset([loop.var]),
            )
            summary.loops[loop] = LoopSummary(
                loop=loop,
                info=loop_info,
                body_value=value,
                opts=opts,
                unit_name=unit.name,
                path_pred=TRUE,
                projected=value,
            )

    visit(proc)

    if not unit.is_main:
        visible = [a for a in arrays if symtab.is_formal(a)]
        summary.proc_value = conservative_value(
            symtab, visible, _assigned_scalars(unit.body)
        )
    return summary
