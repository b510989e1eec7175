"""PassManager scheduling: wiring, pruning, dependence order, parallelism."""

import threading
import time

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
)
from repro.pipeline.base import PROGRAM_SCOPE, UNIT_SCOPE, Pass
from repro.pipeline.manager import _build_region_schedule

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
        self.log.append((self.name, unit, threading.current_thread().name))
        for out in self.outputs:
            ctx.put(out, f"{out}:{unit}", unit)


class _Boom(Pass):
    """A unit pass that fails on leaf and on right, with the pool
    protocol so ``jobs > 1`` ships it.  leaf comes first in schedule
    order but fails last in time."""

    name = "boom"
    scope = UNIT_SCOPE
    inputs = ("engine",)
    outputs = ("junk",)
    distributable = True

    @staticmethod
    def _work(unit):
        if unit == "leaf":
            time.sleep(0.2)
            raise RuntimeError("boom:leaf")
        if unit == "right":
            raise RuntimeError("boom:right")
        return unit

    def run(self, ctx, unit=None):
        ctx.put("junk", unit, self._work(unit))

    def export_task(self, ctx, unit):
        return {}

    def run_remote(self, engine, unit, task):
        return self._work(unit)

    def merge_remote(self, ctx, unit, payload):
        ctx.put("junk", unit, payload)


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
    PASSES = analysis_passes()

    def _schedule(self):
        ctx = _ctx()
        units = ("main", "left", "leaf", "right")
        edges = (("left", "leaf"), ("main", "left"), ("main", "right"))
        region = tuple(p for p in self.PASSES if p.scope == UNIT_SCOPE)
        return _build_region_schedule(units, edges, region)

    def test_screen_tasks_are_dependence_free(self):
        sched = self._schedule()
        # region pass 0 = screen: per-unit syntax, no callee coupling
        deps = sched["deps"]
        for unit in ("main", "left", "leaf", "right"):
            assert deps[(0, unit)] == ()

    def test_summarize_waits_for_screen_and_callees_only(self):
        sched = self._schedule()
        # region pass 1 = summarize
        deps = sched["deps"]
        assert deps[(1, "leaf")] == ((0, "leaf"),)
        assert deps[(1, "right")] == ((0, "right"),)
        assert set(deps[(1, "left")]) == {(0, "left"), (1, "leaf")}
        assert set(deps[(1, "main")]) == {
            (0, "main"),
            (1, "left"),
            (1, "right"),
        }

    def test_decide_depends_on_own_screen_and_summary_only(self):
        sched = self._schedule()
        # region pass 2 = decide
        for unit in ("main", "left", "leaf", "right"):
            assert sched["deps"][(2, unit)] == ((0, unit), (1, unit))

    def test_waves_expose_parallelism(self):
        sched = self._schedule()
        wave = sched["wave"]
        # every screen fires immediately
        assert all(wave[(0, u)] == 0 for u in ("main", "left", "leaf", "right"))
        # leaf and right are independent roots: same summarize wave
        assert wave[(1, "leaf")] == wave[(1, "right")] == 1
        assert wave[(1, "left")] == 2
        assert wave[(1, "main")] == 3
        # decide rides one wave behind its summarize
        assert wave[(2, "right")] == 2

    def test_serial_task_order_is_pass_major_bottom_up(self):
        sched = self._schedule()
        tasks = sched["tasks"]
        summarize_units = [u for i, u in tasks if i == 1]
        # bottom-up: leaf before left before main
        assert summarize_units.index("leaf") < summarize_units.index("left")
        assert summarize_units.index("left") < summarize_units.index("main")
        # pass-major: all screen before any summarize before any decide
        assert tasks.index((1, "leaf")) > tasks.index((0, "main"))
        assert tasks.index((2, "leaf")) > tasks.index((1, "main"))

    def test_schedule_is_memoized(self):
        perf.reset_all_caches()
        from repro.pipeline.manager import _schedule_memo

        run_pipeline(parse_program(SRC), AnalysisOptions.predicated())
        misses = _schedule_memo.misses
        run_pipeline(parse_program(SRC), AnalysisOptions.predicated())
        assert _schedule_memo.misses == misses  # second run hits
        assert _schedule_memo.hits > 0


class TestParallelExecution:
    def test_parallel_respects_dependences(self):
        """Under many workers, every callee summary still lands before
        its caller's walk starts (run repeatedly to shake races)."""
        for _ in range(5):
            ctx = run_pipeline(
                parse_program(SRC), AnalysisOptions.predicated(), jobs=4
            )
            assert sorted(l.label for l in ctx.get("result").loops) == [
                "leaf:L1",
                "right:L1",
            ]

    def test_parallel_uses_worker_processes(self):
        ctx = run_pipeline(
            parse_program(SRC),
            AnalysisOptions.predicated(),
            jobs=4,
            explain=True,
        )
        workers = {
            r["worker"]
            for r in ctx.explain["schedule"]
            if r.get("unit") is not None
        }
        assert workers and all(w.startswith("proc-") for w in workers)

    def test_pass_failure_propagates_deterministically(self):
        """The failure first in schedule order is raised, serially and
        on the pool, where right fails before leaf does."""
        passes = list(analysis_passes())[:2] + [_Boom()]
        for jobs in (1, 4):
            perf.reset_counters()
            with pytest.raises(RuntimeError, match="boom:leaf"):
                PassManager(passes).run(_ctx(), jobs=jobs)
            shipped = perf.counter("pipeline.executor.tasks")
            assert (shipped > 0) == (jobs > 1)


class TestExplain:
    def test_explain_structure(self):
        ctx = run_pipeline(
            parse_program(SRC),
            AnalysisOptions.predicated(),
            jobs=2,
            goals=("transformed",),
            explain=True,
        )
        ex = ctx.explain
        assert ex["jobs"] == 2
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
        assert all("seconds" in r for r in ex["schedule"] if not r.get("skipped"))
        assert ex["pass_seconds"].keys() == set(names)
        # first wave holds every unit's screen (all dependence-free)
        first_wave = {tuple(t) for t in ex["waves"][0]}
        assert ("screen", "leaf") in first_wave
        assert ("screen", "right") in first_wave
        # the independent subtree roots summarize in the next wave
        second_wave = {tuple(t) for t in ex["waves"][1]}
        assert ("summarize", "leaf") in second_wave
        assert ("summarize", "right") in second_wave

    def test_explain_off_by_default(self):
        ctx = run_pipeline(parse_program(SRC), AnalysisOptions.predicated())
        assert ctx.explain is None
