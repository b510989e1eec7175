"""The fixed compile flow: goals, cache fast path, pass-major bottom-up order."""

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.pipeline import run_pipeline, run_pipeline_batch
from repro.pipeline.passes import ScreenPass
from repro.service.cache import SummaryCache

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


class TestWiring:
    def test_goal_pruning_skips_downstream_passes(self):
        ctx = run_pipeline(
            parse_program(SRC), AnalysisOptions.predicated(), goals=("result",)
        )
        assert ctx.has("result")
        assert not ctx.has("plan")
        assert not ctx.has("transformed")

    def test_preloaded_goal_schedules_nothing(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        opts = AnalysisOptions.predicated()
        cold = run_pipeline(parse_program(SRC), opts, cache=cache, explain=True)
        assert cold.explain["schedule"]
        ctx = run_pipeline(parse_program(SRC), opts, cache=cache, explain=True)
        # the program-level cache answered: no pass ran, no engine built
        assert ctx.explain["schedule"] == []
        assert ctx.explain["passes"] == []
        assert not ctx.has("engine")
        assert [(l.label, l.status) for l in ctx.get("result").loops] == [
            (l.label, l.status) for l in cold.get("result").loops
        ]
        # with the transformed goal, a hit runs code generation only
        ctx = run_pipeline(
            parse_program(SRC),
            opts,
            cache=cache,
            goals=("result", "transformed"),
            explain=True,
        )
        assert [r["pass"] for r in ctx.explain["schedule"]] == ["plan", "twoversion"]
        assert ctx.has("transformed") and not ctx.has("engine")


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
        # per-unit syntax: reads no other unit-scope artifact and no
        # callee, so every unit's screen runs first
        order = self._order()
        assert [p for p, _u in order[:4]] == ["screen"] * 4

    def test_summarize_waits_for_screen_and_callees_only(self):
        # summarize reads no screen; pass-major order still runs every
        # unit's screen first
        order = self._order()
        for unit in ("main", "left", "leaf", "right"):
            at = order.index(("summarize", unit))
            assert order.index(("screen", unit)) < at
            for callee in self.CALLEES.get(unit, ()):
                assert order.index(("summarize", callee)) < at

    def test_decide_depends_on_own_screen_and_summary_only(self):
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
    def test_pass_failure_propagates_deterministically(self, monkeypatch):
        """The failure first in schedule order is raised: within one
        program, the first unit in bottom-up order, after which nothing
        runs; across a batch, the first failing program in input order,
        serially and on the pool."""
        ran = []

        def boom(self, ctx, unit=None):
            # fails on leaf and on right; leaf comes first bottom-up
            ran.append(unit)
            if unit in ("leaf", "right"):
                raise RuntimeError(f"boom:{unit}")

        with monkeypatch.context() as m:
            m.setattr(ScreenPass, "run", boom)
            with pytest.raises(RuntimeError, match="boom:leaf"):
                run_pipeline(parse_program(SRC), AnalysisOptions.predicated())
        assert ran == ["leaf"]

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
