"""Micro-benchmarks of the tier-0 dependence screen.

Three questions, matching the PR's optimization claims:

* what does the screen itself cost (pure syntax, no analysis)?
* what does a screened whole-program analysis cost against the
  unscreened analysis on the same program (``test_whole_program_analysis``
  in ``test_core_micro.py`` is the screened default; the ``_unscreened``
  variant here runs the reference of ``tests/pipeline/reference.py``)?
* does the suite skip dependence tests on the screen's word?

Compare runs against the recorded baselines with
``benchmarks/check_regression.py``.
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.screen import screen_unit
from repro.ir.symboltable import SymbolTable
from repro.partests.driver import analyze_program
from repro.suites import all_programs, get_program

from tests.pipeline.reference import unscreened


def test_screen_unit_syntax_only(benchmark):
    """The raw screen walk over the biggest suite unit: no analysis."""
    bench_prog = get_program("hydro2d")

    def probe():
        program = bench_prog.fresh_program()
        unit = program.units[program.main]
        return screen_unit(unit, SymbolTable(unit))

    rows = benchmark(probe)
    assert rows  # the screen finds work to skip


def _analyze_suite():
    total = 0
    for bench_prog in all_programs():
        result = analyze_program(
            bench_prog.fresh_program(), AnalysisOptions.predicated()
        )
        total += result.total_loops
    return total


def test_whole_suite_screened(benchmark):
    """All 30 programs, screen on (the shipping default)."""
    assert benchmark(_analyze_suite) > 0


def test_whole_suite_unscreened(benchmark):
    """The same sweep without the screen, for the ratio."""
    with unscreened():
        assert benchmark(_analyze_suite) > 0


def test_whole_program_analysis_unscreened(benchmark):
    """hydro2d without the screen — the pre-screen baseline of
    ``test_whole_program_analysis``."""
    bench_prog = get_program("hydro2d")

    def probe():
        return analyze_program(
            bench_prog.fresh_program(), AnalysisOptions.predicated()
        )

    with unscreened():
        result = benchmark(probe)
    assert result.total_loops > 0


def test_screen_saves_dependence_tests():
    """Not a timing: on the suite, screened loops must take their
    pre-made rows after the cross-check (``screen.agree``) instead of
    the full dependence test."""
    perf.reset_all_caches()
    perf.reset_counters()
    _analyze_suite()
    counters = perf.snapshot()["counters"]
    perf.reset_all_caches()
    assert counters["screen.agree"] > 0
    assert counters["screen.independent"] > 0
    assert counters["screen.disagree"] == 0
