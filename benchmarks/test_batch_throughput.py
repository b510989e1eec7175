"""Warm-fleet throughput: programs/sec through the batched job path.

The ROADMAP's fuzz-farm north star is throughput-bound: thousands of
*small* programs, each too cheap to amortize a per-(worker, run)
substrate rebuild, cold oracle/FM memos, or a per-program pickle/queue
round trip.  PR 10 makes the warm fleet the fast path: content-keyed
engines and memo tables survive across runs within a fleet epoch, and
``run_pipeline_batch`` coalesces programs into chunked pool tasks
(`docs/PERF.md` §9.3, `docs/EXECUTION.md` §7).

The stream here is the suite's single-unit programs, repeated — the
fuzz-farm shape: many tiny independent jobs.

* ``test_batch_cold`` — every round resets all caches first, so it
  pays pool teardown/refork, per-worker substrate builds and cold
  memos: the pre-warm-fleet cost of a stream of one-shot runs.
* ``test_batch_warm`` — identical workload, caches and pool left warm
  between rounds: the steady-state fleet.  Byte-identical decision
  rows against the cold path and a serial loop are asserted in the
  body.
* ``test_batch_fleet`` — the same stream pushed through the *service*
  batch path: one ``submit_batch`` into a persistent queue, a warm
  worker fleet draining it with chunked claims, per-job receipts.

``check_regression.py --throughput`` compares the warm and cold
recordings live (warm ≥ 2× cold at 4+ cores, ≥ 1.2× at 2–3,
skip-with-notice on single-core runners).
"""

import os

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline_batch
from repro.suites import all_programs

JOBS = 4
#: repeats of the single-unit sub-suite per round — a stream long
#: enough that chunking matters, short enough to benchmark honestly
REPEATS = 3


def _stream():
    singles = [
        b for b in all_programs() if len(b.fresh_program().units) == 1
    ]
    return [b.fresh_program() for _ in range(REPEATS) for b in singles]


def _rows(results):
    return [
        [(l.label, l.status, str(l.condition)) for l in r.loops]
        for r in results
    ]


def _run_batch():
    return run_pipeline_batch(_stream(), AnalysisOptions.predicated(), jobs=JOBS)


def _run_cold():
    perf.reset_all_caches()  # also tears the pool down: truly cold
    return _run_batch()


def test_batch_cold(benchmark):
    results = benchmark(_run_cold)
    assert len(results) == len(_stream())
    benchmark.extra_info["programs"] = len(results)
    benchmark.extra_info["cpus"] = os.cpu_count()


def test_batch_warm(benchmark):
    perf.reset_all_caches()
    _run_batch()  # warm the fleet once; every measured round reuses it
    results = benchmark(_run_batch)
    # byte-identity: warm vs cold vs a serial local loop
    warm = _rows(results)
    assert warm == _rows(_run_cold())
    perf.reset_all_caches()
    assert warm == _rows(
        run_pipeline_batch(_stream(), AnalysisOptions.predicated(), jobs=1)
    )
    benchmark.extra_info["programs"] = len(results)
    benchmark.extra_info["cpus"] = os.cpu_count()


def test_batch_fleet(benchmark, tmp_path_factory):
    from repro.service.queue import JobQueue
    from repro.service.workers import WorkerFleet

    from repro.lang.prettyprint import pretty

    sources = [pretty(p) for p in _stream()]
    bodies = [{"source": s} for s in sources]

    perf.reset_all_caches()
    state = {"n": 0}

    def drain_batch():
        state["n"] += 1
        root = tmp_path_factory.mktemp(f"fleetq{state['n']}")
        queue = JobQueue(root, capacity=len(bodies) + 8)
        with WorkerFleet(queue, workers=JOBS) as fleet:
            ids = queue.submit_batch("analyze", bodies)
            responses = [queue.wait(jid, timeout=120.0) for jid in ids]
        assert all(r is not None and r.get("ok") for r in responses)
        return responses

    responses = benchmark(drain_batch)
    assert len(responses) == len(bodies)
    benchmark.extra_info["programs"] = len(responses)
    benchmark.extra_info["cpus"] = os.cpu_count()
