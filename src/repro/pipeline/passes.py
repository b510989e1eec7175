"""The concrete passes of the parallelization compile flow.

:func:`repro.pipeline.run_pipeline` runs them in this one fixed order:
each program-scope pass once, each unit-scope pass over every unit
bottom-up (``engine.callgraph.bottom_up_order()``, callees first), so
consecutive unit passes run pass-major.  ``plan`` and ``twoversion``
run only for a goal that names ``plan`` or ``transformed``.

.. code-block:: text

    source_program
        │ scalarprop            (program)
        ▼
    program ──── frontend       (program: parse-side tables)
        ▼
    engine ──┬── screen         (unit, tier-0 dependence screen)
             └── summarize      (unit, bottom-up over callees, cached)
        ▼
    screen,
    summary ──── decide         (unit, cached)
        ▼
    decisions ── enclose        (program: deterministic merge)
        ▼
    result ───── plan           (program)
        ▼
    plan ─────── twoversion     (program)
        ▼
    transformed

Passes talk only through the
:class:`~repro.pipeline.context.ProgramContext` store, and each writes
its artifacts once per run.  A unit-scope pass's artifact is a pure
function of the unit's content key (its source, its callees' keys and
the options), so the content-addressed summary cache cannot change a
result.

The engine builds each unit's region tree and loop info once
(:meth:`~repro.arraydf.analysis.ArrayDataflow.region_tree`); the screen,
the walk and a cache rebind share them.  A loop's projected value is
computed when first read, so an outermost main-program loop is
projected in ``decide``, and only for a privatized array's copy-in
region.

Budget boundaries: ``summarize`` checkpoints on entry and degrades a
tripped unit to the conservative whole-array summary (tainting it out of
the cache); ``decide`` demotes each tripped loop to ``serial``, a trip
in a projection it reads included, and flags the unit degraded so
nothing downstream is cached.  The flow never checkpoints between
passes, so a budget trip can only ever *weaken* answers, never abort a
run.
"""

from __future__ import annotations

from typing import Optional

from repro.arraydf.analysis import ArrayDataflow
from repro.pipeline.context import ProgramContext

PROGRAM_SCOPE = "program"
UNIT_SCOPE = "unit"


class Pass:
    """One stage of the compile flow (see the module docstring)."""

    #: unique pass name; also the perf phase key (``pass.<name>``)
    name: str = "?"
    #: "program" (run once) or "unit" (run once per compilation unit)
    scope: str = PROGRAM_SCOPE

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        raise NotImplementedError


class ScalarPropPass(Pass):
    """Interprocedural scalar propagation (identity when disabled)."""

    name = "scalarprop"
    scope = PROGRAM_SCOPE

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

    Pure syntax over the scalar-propagated unit (reads no callee and
    checks no budget): a lookup from a loop's label to its ready-made
    ``parallel`` row, or ``None`` when the screen does not prove it
    independent (:func:`repro.arraydf.screen.unit_lookup`).  The lookup
    screens a loop only when ``decide`` asks for it, so the loops that
    ``decide`` binds from its caches are never screened.  Cheap enough
    to recompute, so it is never cached.
    """

    name = "screen"
    scope = UNIT_SCOPE

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        assert unit is not None
        from repro.arraydf import screen

        engine = ctx.engine
        lookup = screen.unit_lookup(engine.symtabs[unit], engine.region_tree(unit))
        ctx.put("screen", lookup, unit)


class SummarizePass(Pass):
    """The array data-flow walk of one unit.

    Bottom-up: a unit's walk splices in its callees' summaries, and the
    flow runs the pass over ``engine.callgraph.bottom_up_order()``,
    callees first, so every one of them exists.  With a cache attached
    the engine loads/stores the summary under its content key; a budget
    trip degrades the unit soundly (and taints it out of the cache).
    """

    name = "summarize"
    scope = UNIT_SCOPE

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

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.codegen.plan import build_plan

        ctx.put("plan", build_plan(ctx.get("result")))


class TwoVersionPass(Pass):
    """Source-to-source two-version transformation of the program."""

    name = "twoversion"
    scope = PROGRAM_SCOPE

    def run(self, ctx: ProgramContext, unit: Optional[str] = None) -> None:
        from repro.codegen.twoversion import transform_program

        ctx.put(
            "transformed",
            transform_program(ctx.source_program, ctx.get("plan")),
        )

