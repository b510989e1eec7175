"""Pipeline benchmark: one program through the whole pass pipeline.

Times the full pass pipeline (cold caches each round) on the largest
multi-procedure program in the suite.  One program always runs
serially, in one fixed order (pass-major, units bottom-up), so this is
the cost of the analysis plus the flow's per-task bookkeeping.
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline
from repro.suites import get_program

#: largest multi-procedure program in the suite (by statement count)
PROGRAM = "applu"


def _pipeline_run():
    perf.reset_all_caches()
    ctx = run_pipeline(
        get_program(PROGRAM).fresh_program(), AnalysisOptions.predicated()
    )
    return ctx.get("result")


def test_pipeline_serial(benchmark):
    result = benchmark(_pipeline_run)
    assert result.total_loops > 0
    perf.reset_all_caches()
    perf.reset_counters()
    _pipeline_run()
    benchmark.extra_info["total_ops"] = perf.total_ops()
