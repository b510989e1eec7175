"""Pipeline scheduling benchmarks: serial vs intra-program parallel.

Times the full pass pipeline (cold caches each round) on the largest
multi-procedure program in the suite, once with the serial pass-major
schedule (``jobs=1``) and once with the dependency-driven thread
schedule (``jobs=4``).  Results are byte-identical by construction (the
integration suite pins that); these benchmarks time the *cost* of the
scheduler instead.  ``test_pipeline_parallel`` bounds scheduling
overhead — on a single-core runner threads cannot win, so ``make
perfgate`` checks the parallel mean stays within a constant factor of
the serial one (``--max-ratio``) rather than demanding a speedup.
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline
from repro.suites import get_program

#: largest multi-procedure program in the suite (by statement count)
PROGRAM = "applu"


def _pipeline_run(jobs):
    perf.reset_all_caches()
    ctx = run_pipeline(
        get_program(PROGRAM).fresh_program(),
        AnalysisOptions.predicated(),
        jobs=jobs,
    )
    return ctx.get("result")


def test_pipeline_serial(benchmark):
    result = benchmark(_pipeline_run, 1)
    assert result.total_loops > 0
    perf.reset_all_caches()
    perf.reset_counters()
    _pipeline_run(1)
    benchmark.extra_info["total_ops[jobs=1]"] = perf.total_ops()


def test_pipeline_parallel(benchmark):
    result = benchmark(_pipeline_run, 4)
    assert result.total_loops > 0
