"""Serve-path latency benchmarks: what the job system costs per job.

The job-system refactor put a persistent queue, a worker fleet and a
receipt writer between a request and its analysis.  That machinery buys
crash-safety and concurrency, but it must stay *cheap*: submitting a
job through the full stack may not cost more than a bounded factor over
calling the pipeline directly.

* ``test_serve_job_direct`` — every suite program through
  ``run_analyze`` (the exact execution core the workers call), one
  request at a time, cold caches each round.  The reference cost.
* ``test_serve_job_fleet`` — the same requests submitted closed-loop
  (submit, wait for the result, then the next) to a persistent
  ``JobQueue`` drained by a 4-worker ``WorkerFleet``, cold caches each
  round.  End-to-end latency includes the job record, claim, receipt
  and result filesystem round-trips.

Both tests record the p50 of their per-request latencies across all
rounds in ``extra_info["p50_ms"]`` (``_ms`` keys are informational —
the extra-info parity gate skips them).  The perf gate enforces
``fleet <= 1.3 * direct`` live on every ``make check``
(``check_regression.py --serve``, which runs ``main()`` below: direct
and fleet requests timed in interleaved cold pairs, so runner drift
cancels out of the p50 ratio instead of landing on whichever side ran
during the bad stretch).
"""

import json
import statistics
import tempfile
import time

from repro import perf
from repro.service.jobs import run_analyze
from repro.service.queue import JobQueue
from repro.service.workers import WorkerFleet
from repro.suites import all_programs

WORKERS = 4
ROUNDS = 5


def _requests():
    return [
        {"id": i, "source": bench.source}
        for i, bench in enumerate(all_programs())
    ]


def _decisions(responses):
    return [
        [(l["label"], l["status"], l["condition"]) for l in r["loops"]]
        for r in responses
    ]


def _run_direct(latencies=None):
    perf.reset_all_caches()
    responses = []
    for req in _requests():
        start = time.perf_counter()
        responses.append(run_analyze(dict(req))[0])
        if latencies is not None:
            latencies.append(time.perf_counter() - start)
    return responses


def _run_fleet(latencies):
    perf.reset_all_caches()
    responses = []
    with tempfile.TemporaryDirectory() as tmp:
        queue = JobQueue(tmp, capacity=64)
        with WorkerFleet(queue, workers=WORKERS):
            for req in _requests():
                start = time.perf_counter()
                job_id = queue.submit("analyze", dict(req))
                resp = queue.wait(job_id, timeout=300.0)
                latencies.append(time.perf_counter() - start)
                assert resp is not None, job_id
                responses.append(resp)
    return responses


def test_serve_job_direct(benchmark):
    latencies = []
    responses = benchmark.pedantic(
        lambda: _run_direct(latencies),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(responses) == len(all_programs())
    assert all(r["ok"] for r in responses)
    benchmark.extra_info["programs"] = len(responses)
    benchmark.extra_info["p50_ms"] = round(
        statistics.median(latencies) * 1e3, 3
    )


def test_serve_job_fleet(benchmark):
    latencies = []
    responses = benchmark.pedantic(
        lambda: _run_fleet(latencies),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    # the fleet answers exactly what the direct core answers
    assert _decisions(responses) == _decisions(_run_direct())
    benchmark.extra_info["programs"] = len(responses)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["p50_ms"] = round(
        statistics.median(latencies) * 1e3, 3
    )


def main() -> None:
    """Request-interleaved gate driver for ``check_regression.py --serve``.

    Times the two sides *request by request*: for every suite program,
    one cold direct ``run_analyze`` and one cold submit→wait through
    the queue + fleet, back to back (order alternating by round).
    Machine drift — frequency scaling, a noisy neighbour on a shared
    runner — moves on a much coarser timescale than one ~10ms request,
    so it hits both sides of each pair equally and cancels out of the
    ratio; block-at-a-time timing puts all of it into whichever side
    ran during the bad stretch.  Caches are reset before *every*
    request (not once per round) so neither side inherits warmth from
    the other's identical program a few milliseconds earlier.  Prints
    one JSON line with the pooled per-request p50s.
    """
    direct_lat: list = []
    fleet_lat: list = []

    def _direct_one(req) -> None:
        perf.reset_all_caches()
        start = time.perf_counter()
        run_analyze(dict(req))
        direct_lat.append(time.perf_counter() - start)

    def _fleet_one(queue, req) -> None:
        perf.reset_all_caches()
        start = time.perf_counter()
        job_id = queue.submit("analyze", dict(req))
        resp = queue.wait(job_id, timeout=300.0)
        fleet_lat.append(time.perf_counter() - start)
        assert resp is not None, job_id

    _run_direct()  # warmup (imports, bytecode compiles)
    _run_fleet([])
    with tempfile.TemporaryDirectory() as tmp:
        queue = JobQueue(tmp, capacity=64)
        with WorkerFleet(queue, workers=WORKERS):
            for rnd in range(ROUNDS):
                for req in _requests():
                    if rnd % 2:
                        _fleet_one(queue, req)
                        _direct_one(req)
                    else:
                        _direct_one(req)
                        _fleet_one(queue, req)
    print(
        json.dumps(
            {
                "rounds": ROUNDS,
                "programs": len(_requests()),
                "workers": WORKERS,
                "direct_p50_ms": round(
                    statistics.median(direct_lat) * 1e3, 3
                ),
                "fleet_p50_ms": round(
                    statistics.median(fleet_lat) * 1e3, 3
                ),
            }
        )
    )


if __name__ == "__main__":
    main()
