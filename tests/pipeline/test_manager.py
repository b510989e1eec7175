"""PassManager scheduling: wiring, pruning, dependence order."""

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.pipeline import (
    PassManager,
    PipelineWiringError,
    ProgramContext,
    analysis_passes,
    run_pipeline,
    run_pipeline_batch,
)
from repro.pipeline.base import PROGRAM_SCOPE, UNIT_SCOPE, Pass
from repro.pipeline.passes import DecidePass, ScreenPass, SummarizePass

# main calls left and right; left calls leaf — two independent subtrees
# below main ({left, leaf} and {right})
SRC = """
program main
  integer n
  real a(100), b(100)
  read n
  call left(a, n)
  call right(b, n)
end
subroutine left(x, m)
  integer m
  real x(100)
  call leaf(x, m)
end
subroutine leaf(x, m)
  integer m
  real x(100)
  do j = 1, m
    x(j) = 0.0
  enddo
end
subroutine right(y, m)
  integer m
  real y(100)
  do k = 1, m
    y(k) = 1.0
  enddo
end
"""


class _Record(Pass):
    """A test pass that logs its (name, unit) executions."""

    def __init__(self, name, scope, inputs, outputs, log):
        self.name = name
        self.scope = scope
        self.inputs = inputs
        self.outputs = outputs
        self.log = log

    def run(self, ctx, unit=None):
        self.log.append((self.name, unit))
        for out in self.outputs:
            ctx.put(out, f"{out}:{unit}", unit)


class _Boom(Pass):
    """A unit pass that fails on leaf and on right; leaf comes first in
    the bottom-up order."""

    name = "boom"
    scope = UNIT_SCOPE
    inputs = ("engine",)
    outputs = ("junk",)

    def __init__(self):
        self.ran = []

    def run(self, ctx, unit=None):
        self.ran.append(unit)
        if unit in ("leaf", "right"):
            raise RuntimeError(f"boom:{unit}")
        ctx.put("junk", unit, unit)


def _ctx(src=SRC, **kw):
    return ProgramContext(
        parse_program(src), AnalysisOptions.predicated(), **kw
    )


class TestWiring:
    def test_missing_input_raises(self):
        log = []
        bad = _Record("bad", PROGRAM_SCOPE, ("nonexistent",), ("out",), log)
        with pytest.raises(PipelineWiringError):
            PassManager([bad]).run(_ctx())

    def test_missing_goal_raises(self):
        with pytest.raises(PipelineWiringError):
            PassManager(list(analysis_passes())).run(
                _ctx(), goals=("no_such_artifact",)
            )

    def test_callee_input_on_program_scope_raises(self):
        log = []
        bad = _Record("bad", PROGRAM_SCOPE, ("x@callees",), ("x",), log)
        with pytest.raises(PipelineWiringError):
            PassManager([bad]).run(_ctx())

    def test_goal_pruning_skips_downstream_passes(self):
        ctx = run_pipeline(
            parse_program(SRC), AnalysisOptions.predicated(), goals=("result",)
        )
        assert ctx.has("result")
        assert not ctx.has("plan")
        assert not ctx.has("transformed")

    def test_preloaded_goal_schedules_nothing(self):
        ctx = _ctx()
        ctx.put("result", "sentinel")
        PassManager(list(analysis_passes())).run(ctx, goals=("result",))
        assert ctx.get("result") == "sentinel"
        assert not ctx.has("engine")  # nothing upstream ran


class TestRegionSchedule:
    """Unit-scope passes run pass-major, units bottom-up."""

    CALLEES = {"main": ("left", "right"), "left": ("leaf",)}

    def _order(self):
        ctx = run_pipeline(
            parse_program(SRC), AnalysisOptions.predicated(), explain=True
        )
        return [
            (r["pass"], r["unit"])
            for r in ctx.explain["schedule"]
            if r["unit"] is not None
        ]

    def test_screen_tasks_are_dependence_free(self):
        # per-unit syntax: no input from another unit-scope pass, no
        # callee input, so every unit's screen runs first
        assert ScreenPass.inputs == ("engine",)
        order = self._order()
        assert [p for p, _u in order[:4]] == ["screen"] * 4

    def test_summarize_waits_for_screen_and_callees_only(self):
        # summarize reads no screen; pass-major order still runs every
        # unit's screen first
        assert SummarizePass.inputs == ("engine", "summary@callees")
        order = self._order()
        for unit in ("main", "left", "leaf", "right"):
            at = order.index(("summarize", unit))
            assert order.index(("screen", unit)) < at
            for callee in self.CALLEES.get(unit, ()):
                assert order.index(("summarize", callee)) < at

    def test_decide_depends_on_own_screen_and_summary_only(self):
        assert DecidePass.inputs == ("engine", "screen", "summary")
        order = self._order()
        for unit in ("main", "left", "leaf", "right"):
            at = order.index(("decide", unit))
            assert order.index(("screen", unit)) < at
            assert order.index(("summarize", unit)) < at

    def test_serial_task_order_is_pass_major_bottom_up(self):
        bottom_up = ["leaf", "left", "right", "main"]
        assert self._order() == [
            (p, u) for p in ("screen", "summarize", "decide") for u in bottom_up
        ]


class TestParallelExecution:
    def test_pass_failure_propagates_deterministically(self):
        """The failure first in schedule order is raised: within one
        program, the first unit in bottom-up order, after which nothing
        runs; across a batch, the first failing program in input order,
        serially and on the pool."""
        boom = _Boom()
        passes = list(analysis_passes())[:2] + [boom]
        with pytest.raises(RuntimeError, match="boom:leaf"):
            PassManager(passes).run(_ctx())
        assert boom.ran == ["leaf"]

        def batch():
            programs = [parse_program(SRC) for _ in range(4)]
            del programs[1].units["leaf"]  # left calls the missing leaf
            del programs[3].units["right"]  # main calls the missing right
            return programs

        for jobs in (1, 2):
            perf.reset_counters()
            with pytest.raises(KeyError, match="leaf"):
                run_pipeline_batch(batch(), jobs=jobs, chunk=1)
            shipped = perf.counter("pipeline.executor.tasks")
            assert (shipped > 0) == (jobs > 1)


class TestExplain:
    def test_explain_structure(self):
        ctx = run_pipeline(
            parse_program(SRC),
            AnalysisOptions.predicated(),
            goals=("transformed",),
            explain=True,
        )
        ex = ctx.explain
        assert set(ex) == {
            "units",
            "callgraph",
            "passes",
            "schedule",
            "pass_seconds",
        }
        assert ex["units"] == ["main", "left", "leaf", "right"]
        assert ["left", "leaf"] in [
            sorted(e, reverse=True) for e in ex["callgraph"]
        ]
        names = [p["name"] for p in ex["passes"]]
        assert names == [
            "scalarprop",
            "frontend",
            "screen",
            "summarize",
            "decide",
            "enclose",
            "plan",
            "twoversion",
        ]
        for r in ex["schedule"]:
            assert set(r) == {"pass", "unit", "start", "seconds"}
        assert ex["pass_seconds"].keys() == set(names)
        # one task per program-scope pass, one per unit for unit scope
        assert len(ex["schedule"]) == 5 + 3 * 4

    def test_explain_off_by_default(self):
        ctx = run_pipeline(parse_program(SRC), AnalysisOptions.predicated())
        assert ctx.explain is None
