"""The worker fleet: threads draining the job queue through the pipeline.

A :class:`WorkerFleet` owns N daemon threads.  Each thread loops: claim
the next job from the :class:`~repro.service.queue.JobQueue` (the
atomic claim link arbitrates, so several fleets — even in different
processes — may share one queue), execute it through
:func:`repro.service.jobs.execute_job`, and record the receipt + result
via :meth:`~repro.service.queue.JobQueue.finish`.

Worker threads are where the thread-local budget design pays off: every
job activates *its own* budget scope in its worker's thread, so a fleet
runs many budgeted jobs concurrently without one job's spend metering
another's.  Each job's pipeline runs in its worker thread.
All workers share the process-wide summary cache — a long-lived fleet
warms it monotonically.

Shutdown is **graceful drain** (the SIGTERM contract): workers stop
*claiming* immediately but finish the jobs they are running, so no job
is ever abandoned mid-flight by an orderly shutdown.  A crash (kill -9)
leaves an orphaned claim instead, which the queue's recovery re-enqueues
on restart — exactly once, never lost.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro import perf
from repro.service.jobs import execute_job
from repro.service.queue import JobQueue

perf.declare("worker.jobs")
perf.declare("worker.idle_waits")


class WorkerFleet:
    """N worker threads draining one job queue."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 1,
        idle_wait_s: float = 0.5,
        claim_chunk_limit: int = 8,
    ) -> None:
        self.queue = queue
        self.workers = max(1, int(workers))
        self.idle_wait_s = idle_wait_s
        self.claim_chunk_limit = max(1, int(claim_chunk_limit))
        self._threads: list = []
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._busy: Dict[str, Optional[str]] = {}  # worker name -> job id
        self._completed = 0
        self._busy_s = 0.0
        self._started_at: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> "WorkerFleet":
        if self._threads:
            raise RuntimeError("fleet already started")
        self._started_at = time.monotonic()
        for i in range(self.workers):
            name = f"worker-{i}"
            self._busy[name] = None
            t = threading.Thread(
                target=self._run, name=name, args=(name,), daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()

    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Stop claiming new jobs; running jobs keep going (SIGTERM)."""
        self._draining.set()
        self.queue.kick()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop claiming, wait for running jobs.

        Returns ``True`` when every worker exited within *timeout*.
        """
        self.request_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            t.join(remaining)
        return not any(t.is_alive() for t in self._threads)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # ------------------------------------------------------------------
    def _claim_limit(self) -> int:
        """Jobs to claim in one go: chunky under a backlog, polite when
        the queue is shallow.

        Dividing the visible depth across the fleet keeps a deep
        batch-submitted backlog from being claimed whole by whichever
        worker scans first (the claimed = running contract means claimed
        jobs ride out a drain), while a fuzz-farm-shaped stream still
        amortizes claim/journal overhead across up to
        ``claim_chunk_limit`` jobs per scan.
        """
        if self.claim_chunk_limit <= 1:
            return 1
        depth = self.queue.depth()
        return max(1, min(self.claim_chunk_limit, depth // self.workers))

    def _run(self, name: str) -> None:
        gen = None
        while not self._draining.is_set():
            if gen is None:
                gen = self.queue.submit_generation()
            jobs = self.queue.claim_chunk(owner=name, limit=self._claim_limit())
            if not jobs:
                perf.bump("worker.idle_waits")
                # gen was read before the empty scan: a submit that
                # raced the scan returns the park immediately
                gen = self.queue.wait_for_submit(self.idle_wait_s, gen)
                continue
            gen = None
            # every claimed job runs, even if a drain begins mid-chunk:
            # claimed means running, and an orderly shutdown never
            # abandons a running job
            for job in jobs:
                started = time.monotonic()
                with self._lock:
                    self._busy[name] = job.id
                try:
                    response, receipt = execute_job(job, worker=name)
                except BaseException:
                    # execute_job never raises by contract; if the
                    # impossible happens, release the claim for recovery
                    # rather than wedging the job as running-forever
                    with self._lock:
                        self._busy[name] = None
                    raise
                self.queue.finish(job.id, response, receipt)
                perf.bump("worker.jobs")
                with self._lock:
                    self._busy[name] = None
                    self._completed += 1
                    self._busy_s += time.monotonic() - started

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Fleet-shape snapshot for ``GET /v1/stats``.

        ``utilization`` is cumulative busy-seconds over cumulative
        fleet-seconds — the long-run fraction of worker capacity spent
        executing jobs.
        """
        with self._lock:
            busy = {k: v for k, v in self._busy.items() if v is not None}
            completed = self._completed
            busy_s = self._busy_s
        elapsed = (
            (time.monotonic() - self._started_at)
            if self._started_at is not None
            else 0.0
        )
        capacity_s = elapsed * self.workers
        return {
            "workers": self.workers,
            "busy": len(busy),
            "running": sorted(busy.values()),
            "completed": completed,
            "draining": self.draining,
            "utilization": round(busy_s / capacity_s, 4) if capacity_s else 0.0,
        }
