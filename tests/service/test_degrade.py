"""Fault injection: budget exhaustion mid-analysis degrades soundly.

The invariant under test is the one the experiment tables rely on:
whatever the budget does, a decision may only move *toward* "not proven
parallel" — never from serial to parallel — so a degraded answer stays
consistent with the ELPD dynamic oracle (a loop run serially is always
safe), and the pipeline never surfaces the exhaustion as an exception.
"""

import warnings

import pytest

from repro import perf
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program
from repro.service import Budget, budget_scope
from repro.service.cache import SummaryCache
from repro.suites.registry import all_programs

WIN = ("parallel", "parallel_private", "runtime")


def _statuses(result):
    return {l.label: l.status for l in result.loops}


def _degraded_analysis(program, budget, cache=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with budget_scope(budget):
            return analyze_program(program, cache=cache)


class TestFmExhaustion:
    def test_whole_suite_never_raises_and_only_demotes(self):
        perf.reset_all_caches()  # force real FM work so the budget bites
        before = perf.counter("budget.degraded_unit") + perf.counter(
            "budget.degraded_loop"
        )
        degraded = {}
        for bench in all_programs():
            result = _degraded_analysis(
                bench.fresh_program(), Budget(max_fm_constraints=50)
            )
            degraded[bench.name] = _statuses(result)
        after = perf.counter("budget.degraded_unit") + perf.counter(
            "budget.degraded_loop"
        )
        assert after > before, "budget never tripped — test is vacuous"

        for bench in all_programs():
            precise = _statuses(analyze_program(bench.fresh_program()))
            got = degraded[bench.name]
            assert got.keys() == precise.keys()
            for label, status in precise.items():
                if got[label] == status:
                    continue
                # a flip must demote a decided loop to serial; candidacy
                # is syntactic and must never shift
                assert got[label] == "serial", (label, status, got[label])
                assert status != "not_candidate"

    def test_degraded_unit_counter(self):
        perf.reset_all_caches()
        bench = all_programs()[0]
        base = perf.counter("budget.degraded_unit")
        result = _degraded_analysis(
            bench.fresh_program(), Budget(max_fm_constraints=1)
        )
        assert perf.counter("budget.degraded_unit") > base
        precise = _statuses(analyze_program(bench.fresh_program()))
        for label, status in _statuses(result).items():
            if status != precise[label]:
                assert status == "serial"

    def test_degraded_results_never_cached(self, tmp_path):
        perf.reset_all_caches()
        cache = SummaryCache(tmp_path / "c")
        bench = all_programs()[0]
        _degraded_analysis(
            bench.fresh_program(), Budget(max_fm_constraints=1), cache=cache
        )
        # the degraded analysis stores nothing
        def degradable():
            return list(cache.root.glob("*/*.pkl"))

        assert degradable() == []

        # ... so a later unbudgeted run computes (and caches) the
        # precise result rather than resurrecting a degraded one
        precise = analyze_program(bench.fresh_program(), cache=cache)
        assert degradable()
        assert _statuses(precise) == _statuses(
            analyze_program(bench.fresh_program())
        )


class TestWallAndOps:
    def test_zero_ops_budget_degrades(self):
        perf.reset_all_caches()
        bench = all_programs()[0]
        base = perf.counter("budget.degraded_unit")
        result = _degraded_analysis(bench.fresh_program(), Budget(max_ops=0))
        assert perf.counter("budget.degraded_unit") > base
        precise = _statuses(analyze_program(bench.fresh_program()))
        for label, status in _statuses(result).items():
            if status != precise[label]:
                assert status == "serial"

    def test_unlimited_budget_is_transparent(self):
        bench = all_programs()[0]
        with budget_scope(Budget.unlimited()):
            a = _statuses(analyze_program(bench.fresh_program()))
        b = _statuses(analyze_program(bench.fresh_program()))
        assert a == b


class TestConservativeSummary:
    def test_fallback_shape(self):
        from repro.arraydf.options import AnalysisOptions
        from repro.ir.loopinfo import collect_loop_info
        from repro.ir.regiongraph import build_region_tree
        from repro.ir.symboltable import SymbolTable
        from repro.service.degrade import conservative_unit_summary

        program = parse_program(
            "program p\n"
            "  integer n\n"
            "  real a(10)\n"
            "  read n\n"
            "  do i = 1, n\n"
            "    a(i) = 0.0\n"
            "  enddo\n"
            "end\n"
        )
        unit = program.units["p"]
        proc = build_region_tree(unit)
        summary = conservative_unit_summary(
            unit,
            SymbolTable(unit),
            AnalysisOptions.predicated(),
            (proc, collect_loop_info(proc)),
        )
        assert len(summary.loops) == 1
        (loop_summary,) = summary.loops.values()
        # whole-array may read/write, nothing definitely written
        assert "a" in loop_summary.body_value.r.arrays()
        assert "a" in loop_summary.body_value.w.arrays()
        assert loop_summary.body_value.must_default().is_empty()
        assert "i" in loop_summary.body_value.scalar_writes
