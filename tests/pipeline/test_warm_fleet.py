"""The warm fleet: epoch invalidation and batch chunking.

Pool workers keep their memo and intern tables alive across batch
chunks within a *fleet epoch* (``docs/EXECUTION.md`` §7).  The
contract under test:

* every cache reset bumps the epoch, and a worker seeing a newer epoch
  drops *all* warm state before touching the task;
* a degraded (budget-tripped) run never leaves anything behind that a
  later run could serve as clean;
* none of which may change any analysis answer, for any job count,
  chunking, or budget.
"""

import hashlib
import warnings

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import resolve_batch_chunk, run_pipeline_batch
from repro.pipeline import executor as pexec
from repro.service.budgets import Budget, budget_scope
from repro.suites import all_programs, get_program


@pytest.fixture(autouse=True)
def _restore_state():
    yield
    pexec._worker_epoch = None


def _bench(i=0):
    return all_programs()[i]


def _opts():
    return AnalysisOptions.predicated()


# ----------------------------------------------------------------------
# the epoch counter
# ----------------------------------------------------------------------
class TestEpochBumps:
    def test_reset_all_caches_bumps_epoch_and_counter(self):
        e0 = perf.epoch()
        c0 = perf.counter("perf.epoch_bumps")
        perf.reset_all_caches()
        assert perf.epoch() == e0 + 1
        # the bump itself lands before the counter tables reset, so the
        # running total restarts from the reset — only monotonicity of
        # the epoch matters; the counter must at least exist
        assert perf.counter("perf.epoch_bumps") >= 0
        assert c0 >= 0


# ----------------------------------------------------------------------
# worker-side epoch sync (called in-process: the worker entry points are
# plain functions, so this is deterministic where a live pool's task
# routing is not)
# ----------------------------------------------------------------------
class TestWorkerEpochSync:
    def _warm(self):
        run_pipeline_batch([_bench().fresh_program()], _opts(), jobs=1)
        assert perf.memo_table("fm.eliminate").data

    def test_epoch_sync_drops_warm_state(self):
        epoch = perf.epoch()  # as shipped with a task
        pexec._sync_epoch(epoch)
        self._warm()
        s0 = perf.counter("pipeline.executor.epoch_syncs")
        pexec._sync_epoch(epoch + 1)
        assert perf.counter("pipeline.executor.epoch_syncs") == s0 + 1
        assert not perf.memo_table("fm.eliminate").data

    def test_same_epoch_sync_is_a_noop(self):
        epoch = perf.epoch()
        pexec._sync_epoch(epoch)
        self._warm()
        s0 = perf.counter("pipeline.executor.epoch_syncs")
        pexec._sync_epoch(epoch)
        assert perf.counter("pipeline.executor.epoch_syncs") == s0
        assert perf.memo_table("fm.eliminate").data  # warm state untouched


# ----------------------------------------------------------------------
# end-to-end: invalidation and taint must never change an answer
# ----------------------------------------------------------------------
#: serial, and the process pool at two sizes
JOBS = (1, 2, 4)


def _result_hash(bench, jobs, budget=None):
    """Rows and budget state of a two-program batch of *bench*, so
    ``jobs > 1`` ships one chunk to each of two pool workers."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with budget_scope(budget) as scope:
            results = run_pipeline_batch(
                [bench.fresh_program(), bench.fresh_program()],
                AnalysisOptions.predicated(),
                jobs=jobs,
                chunk=1,
            )
    rows = [
        (l.label, l.status, str(l.condition), l.enclosed, l.runtime_test)
        for r in results
        for l in r.loops
    ]
    degraded = scope is not None and scope.degraded
    return hashlib.sha256(repr((rows, degraded)).encode()).hexdigest()


class TestEpochInvalidationProperty:
    """For every job count: warmth, epoch bumps and budget taint may
    change *where* and *how much* work happens — never what comes out."""

    def test_warm_rerun_and_epoch_bump_preserve_results(self):
        bench = get_program("applu")  # two units
        for jobs in JOBS:
            perf.reset_all_caches()
            fresh = _result_hash(bench, jobs)
            # same epoch, warm state: reuse path
            assert _result_hash(bench, jobs) == fresh, jobs
            # an epoch bump without a pool restart: rebuild path
            perf.bump_epoch()
            assert _result_hash(bench, jobs) == fresh, jobs

    def test_invalidation_restores_cold_behavior_under_budget(self):
        """``reset_all_caches`` (an epoch bump + parent reset) must make
        the next tightly-budgeted run behave exactly like the first cold
        one — if workers ignored the epoch and kept warm memos, the ops
        meter would trip elsewhere and degrade different loops."""
        bench = get_program("turb3d")  # two units
        for jobs in JOBS:
            perf.reset_all_caches()
            cold1 = _result_hash(bench, jobs, budget=Budget(max_ops=1))
            _result_hash(bench, jobs)  # warm everything up
            perf.reset_all_caches()
            cold2 = _result_hash(bench, jobs, budget=Budget(max_ops=1))
            assert cold1 == cold2, jobs

    def test_degraded_run_never_poisons_the_next(self):
        """A budget-tripped run leaves warm workers behind; the next
        *unbudgeted* run in the same epoch must still produce the clean
        answer (degraded results are never memoized or cached)."""
        bench = get_program("applu")
        for jobs in JOBS:
            perf.reset_all_caches()
            clean = _result_hash(bench, jobs)
            perf.reset_all_caches()
            _result_hash(bench, jobs, budget=Budget(max_ops=1))
            # warm, same epoch, right after a degraded run:
            assert _result_hash(bench, jobs) == clean, jobs


# ----------------------------------------------------------------------
# batch chunking
# ----------------------------------------------------------------------
class TestBatchChunking:
    def test_resolve_batch_chunk_precedence(self):
        assert resolve_batch_chunk(5, 100, 4) == 5  # explicit wins
        assert resolve_batch_chunk(0, 100, 4) == 1  # clamped

    def test_resolve_batch_chunk_auto_shape(self):
        # ~4 chunks per worker, never above 32, never below 1
        assert resolve_batch_chunk(None, 64, 4) == 4
        assert resolve_batch_chunk(None, 3, 4) == 1
        assert resolve_batch_chunk(None, 10_000, 4) == 32

    def test_chunking_is_invisible(self):
        """serial loop == pooled batch at every chunk size, program
        for program, in input order."""
        benches = all_programs()[:5]
        programs = [b.fresh_program() for b in benches] + [
            b.fresh_program() for b in benches[:3]
        ]

        def rows(results):
            return [
                [(l.label, l.status, str(l.condition)) for l in r.loops]
                for r in results
            ]

        def run(jobs, chunk=None):
            perf.reset_all_caches()
            return rows(
                run_pipeline_batch(
                    [b for b in programs], _opts(), jobs=jobs, chunk=chunk
                )
            )

        serial = run(1)
        assert len(serial) == len(programs)
        assert run(2) == serial  # auto chunk size
        assert run(2, chunk=1) == serial  # unchunked shape
        assert run(2, chunk=3) == serial
        assert run(2, chunk=len(programs)) == serial

    def test_chunk_counters(self):
        programs = [all_programs()[0].fresh_program() for _ in range(6)]
        perf.reset_all_caches()
        c0 = perf.counter("pipeline.executor.chunks")
        p0 = perf.counter("pipeline.executor.batch_programs")
        run_pipeline_batch(programs, _opts(), jobs=2, chunk=2)
        assert perf.counter("pipeline.executor.chunks") == c0 + 3
        assert perf.counter("pipeline.executor.batch_programs") == p0 + 6
