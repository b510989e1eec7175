"""The shared process pool behind ``jobs > 1``.

One program always runs serially, in process
(:func:`repro.pipeline.run_pipeline`).  The job count picks
where *many* independent pieces of work run: ``jobs=1`` runs them
in-process, one by one; ``jobs > 1`` ships the chunks of
:func:`repro.pipeline.run_pipeline_batch` and the calls of
:func:`repro.experiments.common.parallel_map` to one persistent,
fork-preferred :class:`~concurrent.futures.ProcessPoolExecutor`.  A
caller passing ``jobs=None`` gets ``REPRO_JOBS``, else 1.

Workers keep their memo and intern tables alive across tasks within a
*fleet epoch*; a task from a newer epoch (the parent reset its caches)
drops all of that first (:func:`_sync_epoch`).

Observability: every worker result carries the worker's
:func:`repro.perf.snapshot`; the parent folds per-PID deltas into its
own tables (:func:`absorb_worker`) so ``--profile`` reports substrate
work done in the pool.  Captured Fourier–Motzkin fallback warnings ride
along and are replayed parent-side with the usual once-per-context
dedup (:func:`repro.linalg.fourier_motzkin.replay_fallback_warnings`),
so a warning is never repeated once per worker.

The pool is shared process-wide and torn down by
:func:`repro.perf.reset_all_caches` (cold-path benchmarking must not
reuse warm workers) and at interpreter exit — at the end of the
running session when another thread holds one (:func:`shutdown_pool`).
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro import perf
from repro.service.budgets import Budget, active_budget

#: tasks shipped to pool workers: batch chunks and experiment-map calls
perf.declare("pipeline.executor.tasks")
#: a worker dropped its warm state because a task arrived from a newer
#: fleet epoch (a cache reset in the parent)
perf.declare("pipeline.executor.epoch_syncs")
#: a batch program's shipped rows failed to rebind and the parent
#: recomputed it locally
perf.declare("pipeline.executor.fallback")
#: whole programs fanned out by run_pipeline_batch
perf.declare("pipeline.executor.batch_programs")
#: coalesced batch chunks shipped to the pool (one pickle/queue round
#: trip each; see run_remote_chunk)
perf.declare("pipeline.executor.chunks")


# ----------------------------------------------------------------------
# job count
# ----------------------------------------------------------------------

def resolve_jobs(jobs: Optional[int]) -> int:
    """An explicit job count, else ``REPRO_JOBS``, else 1."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"REPRO_JOBS={raw!r} is not an integer") from None
    return 1


# ----------------------------------------------------------------------
# the shared process pool
# ----------------------------------------------------------------------

_pool = None
_pool_jobs = 0
#: held for a whole :func:`pool_session`: fleet threads may run
#: experiment jobs with different job counts at once, and resizing or
#: tearing down the pool under another thread's tasks would cancel
#: them.  Re-entrant: a session tears the pool down itself when a task
#: fails
_pool_lock = threading.RLock()
#: a teardown was asked for while another thread held a session; the
#: end of that session, or the next one to open, performs it
_pool_stale = False
#: per-PID maximum of shipped worker snapshots (worker counters only
#: grow, so the max is the latest state already folded into the parent)
_pool_absorbed: Dict[int, Dict] = {}
#: worker-side: this process's snapshot at fork, so shipped snapshots
#: are deltas of the worker's own work only.  Captured in the worker's
#: initializer — not guessed parent-side at pool creation — because
#: under fork the workers spawn lazily during the submit loop, *after*
#: the parent has already bumped per-task counters for the work it is
#: submitting; a parent-side base would double count those bumps
_worker_snap_base: Optional[Dict] = None


def _worker_init() -> None:
    """Per-worker startup: drop state fork-inherited from the parent.

    A forked worker inherits the parent's *active* budget (possibly
    already exhausted) — left in place it would trip inside the pool's
    call-queue unpickling, before any task's ``budget_scope`` starts,
    killing the worker.  Tasks carry their own shipped remaining budget
    instead.

    The worker also disowns the parent's pool handle and pool lock: a
    later worker-side ``perf.reset_all_caches()`` (epoch sync) runs the
    ``shutdown_pool`` reset hook, which must neither tear down the
    *parent's* fork-inherited executor object from inside a worker nor
    find the lock held by the thread that forked it.  And it adopts
    the inherited :func:`perf.epoch` as the epoch its warm state is
    current for — under fork that state is a faithful copy of the parent
    at pool creation; under spawn both start at zero and cold.
    """
    global _pool, _pool_jobs, _pool_lock, _pool_stale
    global _worker_epoch, _worker_snap_base
    from repro.service import budgets

    budgets.clear_thread_budget()
    _pool = None
    _pool_jobs = 0
    _pool_lock = threading.RLock()
    _pool_stale = False
    _pool_absorbed.clear()
    _worker_epoch = perf.epoch()
    _worker_snap_base = perf.snapshot()


def process_pool(jobs: int):
    """The shared fork-preferred pool, (re)sized to *jobs* workers."""
    global _pool, _pool_jobs
    if _pool_stale or (_pool is not None and _pool_jobs != jobs):
        _discard_pool()
    if _pool is None:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else None)
        _pool = ProcessPoolExecutor(
            max_workers=jobs, mp_context=ctx, initializer=_worker_init
        )
        _pool_jobs = jobs
        _pool_absorbed.clear()
    return _pool


@contextmanager
def pool_session(jobs: int) -> Iterator[Any]:
    """The shared pool, sized to *jobs*, for the calling thread alone.

    Every ``jobs > 1`` user (batch chunks, experiment maps) submits
    inside a session, so two threads never resize the pool under each
    other; they take turns instead.
    """
    with _pool_lock:
        try:
            yield process_pool(jobs)
        finally:
            if _pool_stale:
                _discard_pool()


def shutdown_pool() -> None:
    """Tear the pool down (cache reset hook, error recovery, exit).

    Never waits on, and never cancels, another thread's session: a
    cache reset in one fleet thread while an experiment job runs on the
    pool in another defers the teardown to the end of that session.
    """
    global _pool_stale
    if not _pool_lock.acquire(blocking=False):
        _pool_stale = True
        return
    try:
        _discard_pool()
    finally:
        _pool_lock.release()


def _discard_pool() -> None:
    global _pool, _pool_jobs, _pool_stale
    pool = _pool
    _pool = None
    _pool_jobs = 0
    _pool_stale = False
    _pool_absorbed.clear()
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


perf.on_reset(shutdown_pool)
atexit.register(shutdown_pool)


def absorb_worker(pid: int, snap: Dict) -> None:
    """Fold one worker's shipped snapshot into the parent's perf tables.

    Workers ship deltas from their own fork-time base (*snap* contains
    the worker's work only — see :func:`worker_snapshot`).  Incremental
    per PID: only the delta beyond what this worker already shipped is
    absorbed, so task results may be processed in any completion order
    without double counting.
    """
    prev = _pool_absorbed.get(pid) or {}
    perf.absorb_snapshot(perf.snapshot_delta(snap, prev))
    _pool_absorbed[pid] = perf.snapshot_max(prev, snap) if prev else snap


def remaining_budget() -> Optional[Budget]:
    """The active budget's *remaining* allowance, as a picklable Budget.

    Taken at task-submit time and shipped with the task; the worker
    activates it for the task's dynamic extent.  Each task therefore
    charges its own ops/FM meters against the whole request's remaining
    allowance at submit — the same global bound as the serial path, with
    per-task (rather than shared-meter) accounting; exhaustion degrades
    identically (conservative summaries, loops demoted to serial) and
    degraded results are never cached or merged as clean.
    """
    active = active_budget()
    if active is None:
        return None
    b = active.budget
    wall = None
    if b.max_wall_s is not None:
        wall = max(0.0, b.max_wall_s - (time.perf_counter() - active.started))
    ops = None
    if b.max_ops is not None:
        ops = max(0, b.max_ops - (perf.total_ops() - active.ops_base))
    fm = None
    if b.max_fm_constraints is not None:
        fm = max(0, b.max_fm_constraints - active.fm_spent)
    return Budget(max_wall_s=wall, max_ops=ops, max_fm_constraints=fm)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: the fleet epoch this worker's warm state (memo/intern tables) is
#: current for; ``None`` only before the initializer ran
_worker_epoch: Optional[int] = None


def _sync_epoch(epoch: int) -> None:
    """Drop all warm state when a task arrives from a newer fleet epoch.

    The parent bumps :func:`repro.perf.epoch` on every cache reset;
    shipping the epoch with each task lets a long-lived worker notice
    and invalidate *everything* — the full memo/intern substrate —
    before touching the task.  Within one epoch nothing is ever
    invalidated, which is the whole warm-fleet bargain.
    """
    global _worker_epoch
    if _worker_epoch == epoch:
        return
    perf.reset_all_caches()
    _worker_epoch = epoch
    perf.bump("pipeline.executor.epoch_syncs")


def worker_snapshot() -> Dict:
    """The perf snapshot a worker ships with a result: its own work only.

    Deltas against the fork-time base captured by :func:`_worker_init`,
    so fork-inherited parent counters never ride back and get absorbed
    twice.  (After a worker-side epoch sync the memo hit/miss statistics
    restart from zero and clamp away in the delta — cache *statistics*
    under-report across a sync; counters are never reset and stay exact.)
    """
    return perf.snapshot_delta(perf.snapshot(), _worker_snap_base or {})


def load_result(blob: bytes) -> Dict:
    """Parent-side unpickling of a worker result, budget-suspended.

    Workers ship results as opaque pickle bytes rather than live
    objects: unpickling interned symbolic values re-runs interning (and
    its feasibility checks), which must happen neither on the pool's
    internal result-reader thread nor under the request's (possibly
    exhausted) budget — merging *completed* results may never re-trip
    it, mirroring :func:`repro.service.budgets.suspended` on the
    degradation paths.
    """
    from repro.service.budgets import suspended

    with suspended():
        return pickle.loads(blob)


def run_remote_chunk(
    chunk_blob: bytes,
    opts,
    cache_root: Optional[str],
    budget: Optional[Budget],
    epoch: int = 0,
) -> bytes:
    """Worker-side entry point for one batch *chunk* of whole programs.

    ``run_pipeline_batch`` coalesces many small programs into one pool
    task: *chunk_blob* unpickles to a list of programs, so a
    fuzz-farm-shaped stream of tiny jobs pays one pickle/queue round
    trip per chunk instead of per program.  Each program runs its full
    pipeline serially inside the worker — under its own scope of the
    shipped remaining *budget*, exactly as an unchunked submit would —
    on the worker's warm substrate (memo tables persist across programs
    and chunks within the fleet epoch).  Ships one per-program payload
    list back: decision rows in input order, each the same shape the
    program-level cache stores, which the parent rebinds onto its own
    parses, and the budget trips the program's scope recorded, which
    the parent counts against its own scope.
    """
    from repro.linalg.fourier_motzkin import capture_fallback_warnings
    from repro.partests.driver import program_rows
    from repro.pipeline import run_pipeline
    from repro.service.budgets import budget_scope
    from repro.service.cache import SummaryCache

    _sync_epoch(epoch)
    programs = pickle.loads(chunk_blob)
    cache = SummaryCache(cache_root) if cache_root else None
    outs = []
    with capture_fallback_warnings() as fm_warnings:
        for program in programs:
            start = time.perf_counter()
            with budget_scope(budget) as scope:
                ctx = run_pipeline(program, opts, cache=cache)
            outs.append(
                {
                    "payload": program_rows(ctx.get("result")),
                    "trips": dict(scope.trips) if scope is not None else {},
                    "seconds": time.perf_counter() - start,
                }
            )
    perf.enforce_memo_caps()
    return pickle.dumps(
        {
            "pid": os.getpid(),
            "programs": outs,
            "warnings": fm_warnings,
            "snapshot": worker_snapshot(),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
