"""The executor layer: job-count selection, process pool, invisibility.

``jobs`` alone picks where a batch runs: 1 in-process, more on the
shared process pool.  The pool must be *invisible*: for any suite
program, the job count may change where a program is analyzed but never
what comes out — including how budget exhaustion degrades the answer
and what the caller's budget scope records.
"""

import random
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.linalg.fourier_motzkin import (
    _note_fallback,
    capture_fallback_warnings,
    replay_fallback_warnings,
)
from repro.pipeline import run_pipeline, run_pipeline_batch
from repro.pipeline import executor as pexec
from repro.service.budgets import Budget, budget_scope
from repro.suites import all_programs, get_program

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "experiments"


class TestSelection:
    def test_environment_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert pexec.resolve_jobs(None) == 1  # serial, in-process
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert pexec.resolve_jobs(None) == 4

    def test_invalid_environment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "four")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            pexec.resolve_jobs(None)

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert pexec.resolve_jobs(3) == 3  # an explicit count wins
        assert pexec.resolve_jobs(0) == 1  # clamped


def _rows_of(result):
    return [
        (l.label, l.status, str(l.condition), l.enclosed, l.runtime_test)
        for l in result.loops
    ]


class TestPool:
    def test_threads_with_different_job_counts_take_turns(self):
        """A second fleet-style thread sizing the one pool differently
        must wait for the first, not cancel its tasks by resizing."""
        benches = all_programs()
        expected = [
            _rows_of(run_pipeline(b.fresh_program()).get("result"))
            for b in benches
        ]
        perf.reset_all_caches()
        got = {}

        def batch(jobs):
            try:
                results = run_pipeline_batch(
                    [b.fresh_program() for b in benches], jobs=jobs, chunk=1
                )
                got[jobs] = [_rows_of(r) for r in results]
            except Exception as exc:  # reported by the assert below
                got[jobs] = exc

        first = threading.Thread(target=batch, args=(2,))
        first.start()
        while pexec._pool is None and first.is_alive():
            time.sleep(0.001)  # the first thread now owns a 2-worker pool
        second = threading.Thread(target=batch, args=(3,))
        second.start()
        first.join(120)
        second.join(120)
        assert not first.is_alive() and not second.is_alive()
        assert got == {2: expected, 3: expected}

    def test_cache_reset_defers_to_another_threads_session(self):
        """FIGO at jobs=1 resets every cache per measurement; a reset in
        one thread must not cancel an experiment another thread is
        running on the pool (TAB2 at jobs=2)."""
        from repro.experiments import fig_overhead, table2_programs

        golden = (GOLDEN_DIR / "experiments_all.txt").read_text()
        perf.reset_all_caches()
        got = {}

        def run(name, module, jobs):
            try:
                got[name] = module.run(jobs=jobs).format()
            except Exception as exc:  # reported by the assert below
                got[name] = exc

        tab2 = threading.Thread(target=run, args=("tab2", table2_programs, 2))
        tab2.start()
        while pexec._pool is None and tab2.is_alive():
            time.sleep(0.001)  # tab2 now holds the pool session
        figo = threading.Thread(target=run, args=("figo", fig_overhead, 1))
        figo.start()
        tab2.join(120)
        figo.join(120)
        assert not tab2.is_alive() and not figo.is_alive()
        assert isinstance(got["tab2"], str), got["tab2"]
        assert isinstance(got["figo"], str), got["figo"]
        assert got["tab2"] in golden
        # FIGO-a's op counts take in whatever runs beside it (the perf
        # counters are process-wide); its FIGO-b table does not
        assert got["figo"][got["figo"].index("FIGO-b"):] in golden


class TestWarningPlumbing:
    def test_capture_collects_instead_of_warning(self):
        perf.reset_all_caches()
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            with capture_fallback_warnings() as records:
                with perf.analysis_context("proc-a"):
                    _note_fallback("x", 3)
        assert emitted == []
        assert len(records) == 1
        assert records[0][0] == "proc-a"

    def test_replay_warns_once_per_context_across_workers(self):
        """Records from several workers that tripped the same context
        replay as ONE warning (the per-worker repetition bug)."""
        perf.reset_all_caches()
        records = [
            ("proc-a", "dropped in proc-a"),
            ("proc-a", "dropped in proc-a"),  # a second worker
            ("proc-b", "dropped in proc-b"),
        ]
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            replay_fallback_warnings(records)
            replay_fallback_warnings(records)  # a third completion wave
        assert sorted(str(w.message) for w in emitted) == [
            "dropped in proc-a",
            "dropped in proc-b",
        ]


class TestExecutorInvisibility:
    """Seeded property sweep: the job count changes nothing visible."""

    #: serial, and the process pool at two sizes
    JOBS = (1, 2, 4)

    def _outcome(self, benches, jobs, budget=None):
        """Everything visible about a batch: per-loop decisions, and
        whether the caller's budget scope degraded and which kinds of
        trip it recorded."""
        perf.reset_all_caches()  # identical memo warmth for every run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with budget_scope(budget) as scope:
                results = run_pipeline_batch(
                    [b.fresh_program() for b in benches],
                    AnalysisOptions.predicated(),
                    jobs=jobs,
                    chunk=1,
                )
        return (
            [_rows_of(r) for r in results],
            scope is not None and scope.degraded,
            sorted(scope.trips) if scope is not None else [],
        )

    def test_unbudgeted_results_identical_across_combos(self):
        rng = random.Random(20260808)
        benches = rng.sample(all_programs(), 4)
        serial = self._outcome(benches, 1)
        for jobs in self.JOBS[1:]:
            assert self._outcome(benches, jobs) == serial, jobs

    def test_budget_degradation_identical_across_combos(self):
        """Exhaustion under a tight op budget degrades the same loops
        to the same statuses no matter where the programs ran, and the
        trips of pool workers reach the caller's scope, so a pooled
        batch reports itself degraded as a serial one does."""
        benches = [all_programs()[0], get_program("applu")]
        budget = Budget(max_ops=1)
        serial = self._outcome(benches, 1, budget)
        assert serial[1], "budget never tripped — test is vacuous"
        for jobs in self.JOBS[1:]:
            assert self._outcome(benches, jobs, budget) == serial, jobs
