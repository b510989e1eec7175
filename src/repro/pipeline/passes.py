"""The concrete passes of the parallelization compile flow.

Each stage of the compile flow sits behind the declared-I/O
:class:`~repro.pipeline.base.Pass` contract so the
:class:`~repro.pipeline.manager.PassManager` can schedule it.  The flow:

.. code-block:: text

    source_program
        │ scalarprop            (program)
        ▼
    program ──── frontend       (program: parse-side tables)
        ▼
    engine ──┬── screen         (unit, tier-0 dependence screen)
             └── summarize      (unit, bottom-up over callees, cacheable)
        ▼
    screen,
    summary ──── decide         (unit, cacheable)
        ▼
    decisions ── enclose        (program: deterministic merge)
        ▼
    result ───── plan           (program)
        ▼
    plan ─────── twoversion     (program)
        ▼
    transformed

The engine builds each unit's region tree and loop info once
(:meth:`~repro.arraydf.analysis.ArrayDataflow.region_tree`); the screen,
the walk and a cache rebind share them.  A loop's projected value is
computed when first read, so an outermost main-program loop is
projected in ``decide``, and only for a privatized array's copy-in
region.

Budget boundaries: ``summarize`` checkpoints on entry and degrades a
tripped unit to the conservative whole-array summary (tainting it out of
the cache); ``decide`` demotes each tripped loop to ``serial``, a trip
in a projection it reads included.  The manager never checkpoints
itself, so a budget trip can only ever *weaken* answers, never abort a
run.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arraydf.analysis import ArrayDataflow
from repro.pipeline.base import PROGRAM_SCOPE, UNIT_SCOPE, Pass
from repro.pipeline.context import ProgramContext


class ScalarPropPass(Pass):
    """Interprocedural scalar propagation (identity when disabled)."""

    name = "scalarprop"
    scope = PROGRAM_SCOPE
    inputs = ("source_program",)
    outputs = ("program",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        program = ctx.source_program
        if ctx.opts.scalar_propagation:
            from repro.ir.scalarprop import propagate_scalars

            program = propagate_scalars(program)
        ctx.put("program", program)


class FrontendPass(Pass):
    """Build the analysis engine: callgraph, symbol tables, caches."""

    name = "frontend"
    scope = PROGRAM_SCOPE
    inputs = ("program",)
    outputs = ("engine",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        engine = ArrayDataflow(
            ctx.get("program"),
            ctx.opts,
            cache=ctx.cache,
            propagated=True,
        )
        ctx.put("engine", engine)


class ScreenPass(Pass):
    """Tier-0 graph-based dependence screen of one unit.

    Pure syntax over the scalar-propagated unit (no callee inputs, no
    budgets): a lookup from a loop's label to its ready-made
    ``parallel`` row, or ``None`` when the screen does not prove it
    independent (:func:`repro.arraydf.screen.unit_lookup`).  The lookup
    screens a loop only when ``decide`` asks for it, so the loops that
    ``decide`` binds from its caches are never screened.  Cheap enough
    to recompute, so it is never cached.
    """

    name = "screen"
    scope = UNIT_SCOPE
    inputs = ("engine",)
    outputs = ("screen",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        from repro.arraydf import screen

        engine = ctx.engine
        lookup = screen.unit_lookup(engine.symtabs[unit], engine.region_tree(unit))
        ctx.put("screen", lookup, unit)


class SummarizePass(Pass):
    """The array data-flow walk of one unit.

    Bottom-up: a unit's walk splices in its callees' summaries, declared
    by the ``summary@callees`` input; the manager runs the pass over
    ``engine.callgraph.bottom_up_order()``, callees first, so every
    such input exists.  With a cache attached the engine
    loads/stores the summary under its content key; a budget trip
    degrades the unit soundly (and taints it out of the cache).
    """

    name = "summarize"
    scope = UNIT_SCOPE
    inputs = ("engine", "summary@callees")
    outputs = ("summary",)
    cacheable = True

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        ctx.put("summary", ctx.engine.run_unit(unit), unit)


class DecidePass(Pass):
    """Per-loop parallelization decisions for one unit.

    Pure in the unit's summary key, so decisions share it in the cache.
    Budget-tripped loops demote to ``serial`` and mark the unit
    degraded; degraded decisions are never stored.  The unit's screen
    lookup goes to :func:`~repro.partests.driver.decide_unit`, which
    fast-paths the screen-independent loops after a per-loop
    cross-check.
    """

    name = "decide"
    scope = UNIT_SCOPE
    inputs = ("engine", "screen", "summary")
    outputs = ("decisions", "decisions_degraded")
    cacheable = True

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        from repro.partests.driver import decide_unit

        engine = ctx.engine
        rows, degraded = decide_unit(
            engine,
            unit,
            ctx.get("summary", unit),
            engine.symtabs[unit],
            ctx.opts,
            ctx.cache,
            screen=ctx.get("screen", unit),
        )
        ctx.put("decisions", rows, unit)
        ctx.put("decisions_degraded", degraded, unit)


class EnclosePass(Pass):
    """Assemble the :class:`~repro.partests.driver.ProgramResult`.

    The deterministic merge point: per-unit decisions are concatenated
    in program (parse) order, not in the bottom-up order the units ran
    in.  Loops nested inside a parallelized loop are flagged
    ``enclosed`` here because the marking needs every unit's decisions
    at once.
    """

    name = "enclose"
    scope = PROGRAM_SCOPE
    inputs = ("source_program", "decisions", "decisions_degraded")
    outputs = ("result", "degraded")

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.partests.driver import ProgramResult, mark_enclosed

        result = ProgramResult(ctx.source_program, ctx.opts)
        degraded = False
        for name in ctx.unit_names():
            result.loops.extend(ctx.get("decisions", name))
            degraded = degraded or ctx.get("decisions_degraded", name)
        mark_enclosed(result)
        ctx.put("result", result)
        ctx.put("degraded", degraded)


class PlanPass(Pass):
    """Lower loop decisions into a :class:`ParallelPlan`."""

    name = "plan"
    scope = PROGRAM_SCOPE
    inputs = ("result",)
    outputs = ("plan",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.codegen.plan import build_plan

        ctx.put("plan", build_plan(ctx.get("result")))


class TwoVersionPass(Pass):
    """Source-to-source two-version transformation of the program."""

    name = "twoversion"
    scope = PROGRAM_SCOPE
    inputs = ("plan", "source_program")
    outputs = ("transformed",)

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.codegen.twoversion import transform_program

        ctx.put(
            "transformed",
            transform_program(ctx.source_program, ctx.get("plan")),
        )


def analysis_passes() -> Tuple[Pass, ...]:
    """The full compile flow, in pipeline order."""
    return (
        ScalarPropPass(),
        FrontendPass(),
        ScreenPass(),
        SummarizePass(),
        DecidePass(),
        EnclosePass(),
        PlanPass(),
        TwoVersionPass(),
    )
