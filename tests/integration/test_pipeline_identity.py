"""Byte-identity of the pass pipeline across job counts.

A pooled batch (``jobs > 1``: whole programs on worker processes) must
match a serial run byte for byte — wall-clock timing lines excluded,
everything else pinned.  The experiment tables themselves are pinned
against a committed expected file by
``tests/experiments/test_golden_tables.py``.

Budget exhaustion inside any pass must degrade soundly: decisions only
ever demote to serial and nothing degraded is cached.
"""

import re
import warnings

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.plan import build_plan
from repro.codegen.report import format_report
from repro.codegen.twoversion import transform_program
from repro.lang.prettyprint import pretty
from repro.pipeline import run_pipeline, run_pipeline_batch
from repro.service import Budget, budget_scope
from repro.service.cache import SummaryCache
from repro.suites import all_programs, get_program

_TIMING = re.compile(r"analysis: [0-9.]+ ms")


def _report(result):
    return _TIMING.sub("analysis: - ms", format_report(result, title="t"))


def _serial(benches):
    """Report and two-version source of each program, run in process."""
    out = []
    for bench in benches:
        ctx = run_pipeline(
            bench.fresh_program(),
            AnalysisOptions.predicated(),
            goals=("result", "transformed"),
        )
        out.append((_report(ctx.get("result")), pretty(ctx.get("transformed"))))
    return out


def _batch(benches, jobs):
    """The same, from a batch: the two-version source is built from each
    rebound result as the plan and twoversion passes would."""
    programs = [b.fresh_program() for b in benches]
    results = run_pipeline_batch(
        programs, AnalysisOptions.predicated(), jobs=jobs
    )
    return [
        (_report(r), pretty(transform_program(p, build_plan(r))))
        for p, r in zip(programs, results)
    ]


class TestParallelVsSerial:
    def test_every_suite_program_identical_any_job_count(self):
        benches = all_programs()
        for bench, expected, got in zip(
            benches, _serial(benches), _batch(benches, jobs=4)
        ):
            assert got == expected, bench.name


class TestProcessExecutorIdentity:
    """The pool is invisible in every artifact.

    ``run_pipeline_batch`` ships whole programs to pool workers in
    chunks; the parent rebinds their decision rows onto its own parses
    in input order, so the report and the transformed source must match
    a serial run byte for byte.
    """

    def test_every_suite_program_identical_under_process_pool(self):
        benches = all_programs()
        for bench, expected, got in zip(
            benches, _serial(benches), _batch(benches, jobs=2)
        ):
            assert got == expected, bench.name

    def test_multi_unit_programs_identical_at_any_job_count(self):
        benches = [get_program(name) for name in ("applu", "turb3d")]
        expected = _serial(benches)
        for jobs in (2, 4):
            perf.reset_counters()
            got = _batch(benches, jobs=jobs)
            assert perf.counter("pipeline.executor.tasks") > 0
            assert got == expected, jobs

    def test_batch_matches_serial_loop(self):
        benches = all_programs()[:8]
        programs = [b.fresh_program() for b in benches]
        serial = run_pipeline_batch(programs, jobs=1)

        def rows(results):
            return [
                [
                    (l.label, l.status, str(l.condition), l.enclosed)
                    for l in r.loops
                ]
                for r in results
            ]

        base = rows(serial)
        for jobs in (2, 4):
            got = run_pipeline_batch(
                [b.fresh_program() for b in benches], jobs=jobs
            )
            assert rows(got) == base, jobs


class TestBudgetDegradationThroughPipeline:
    def _statuses(self, result):
        return {l.label: l.status for l in result.loops}

    def _run(self, program, budget=None, cache=None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with budget_scope(budget):
                ctx = run_pipeline(
                    program, AnalysisOptions.predicated(), cache=cache
                )
        return ctx

    def test_exhaustion_demotes_soundly_and_marks_context(self):
        perf.reset_all_caches()
        bench = all_programs()[0]
        before = perf.counter("budget.degraded_unit") + perf.counter(
            "budget.degraded_loop"
        )
        ctx = self._run(bench.fresh_program(), Budget(max_fm_constraints=1))
        tripped = (
            perf.counter("budget.degraded_unit")
            + perf.counter("budget.degraded_loop")
        ) - before
        assert tripped > 0, "budget never tripped — test is vacuous"
        assert ctx.degraded or ctx.engine.tainted_units
        degraded = self._statuses(ctx.get("result"))
        precise = self._statuses(
            self._run(bench.fresh_program()).get("result")
        )
        assert degraded.keys() == precise.keys()
        for label, status in precise.items():
            if degraded[label] != status:
                assert degraded[label] == "serial"
                assert status != "not_candidate"

    def test_degraded_pass_results_never_cached(self, tmp_path):
        perf.reset_all_caches()
        cache = SummaryCache(tmp_path / "c")
        bench = all_programs()[0]
        # on pool workers (two chunks) as in process
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with budget_scope(Budget(max_fm_constraints=1)) as scope:
                run_pipeline_batch(
                    [bench.fresh_program(), bench.fresh_program()],
                    AnalysisOptions.predicated(),
                    cache=cache,
                    jobs=2,
                    chunk=1,
                )
        assert scope.degraded, "budget never tripped — test is vacuous"
        self._run(
            bench.fresh_program(), Budget(max_fm_constraints=1), cache=cache
        )
        # the degraded analysis stores nothing
        assert list(cache.root.glob("*/*.pkl")) == []
        # an unbudgeted run then stores the precise artifacts
        ctx = self._run(bench.fresh_program(), cache=cache)
        assert list(cache.root.glob("*/*.pkl"))
        assert not ctx.degraded


class TestProgramCacheFastPath:
    def test_warm_pipeline_run_rebinds_whole_program(self, tmp_path):
        perf.reset_all_caches()
        cache = SummaryCache(tmp_path / "c")
        bench = get_program("turb3d")
        cold = run_pipeline(
            bench.fresh_program(), AnalysisOptions.predicated(), cache=cache
        )
        hits = perf.counter("cache.program_hit")
        warm = run_pipeline(
            bench.fresh_program(), AnalysisOptions.predicated(), cache=cache
        )
        assert perf.counter("cache.program_hit") > hits
        assert not warm.has("engine")  # nothing upstream was scheduled
        cold_rows = [
            (l.label, l.status, str(l.condition), l.enclosed)
            for l in cold.get("result").loops
        ]
        warm_rows = [
            (l.label, l.status, str(l.condition), l.enclosed)
            for l in warm.get("result").loops
        ]
        assert cold_rows == warm_rows
