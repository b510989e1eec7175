"""Multicore benchmarks: whole-suite analysis, serial vs process pool.

The schedulable grain inside one program is the call-graph subtree, and
most suite programs have a single procedure — so true multicore pays
off at the *batch* grain: :func:`repro.pipeline.run_pipeline_batch`
fans independent programs over a pool of forked worker processes and
rebinds their decision payloads in input order (`docs/PERF.md` §9).

* ``test_suite_serial`` — the whole suite analyzed one program at a
  time, cold caches each round.  The reference cost; runs everywhere.
* ``test_suite_process_pool`` — the same suite through
  ``run_pipeline_batch(jobs=4)``, cold caches each
  round, with byte-identical per-loop decisions asserted in the body.
  On a single-core runner this measures pool overhead only, so the
  live speedup gate (``check_regression.py --multicore``) skips there
  with a notice instead of comparing these recordings.
"""

import os

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline_batch
from repro.suites import all_programs

JOBS = 4


def _programs():
    return [b.fresh_program() for b in all_programs()]


def _rows(results):
    return [
        [(l.label, l.status, str(l.condition)) for l in r.loops]
        for r in results
    ]


def _run(jobs):
    perf.reset_all_caches()
    return run_pipeline_batch(_programs(), AnalysisOptions.predicated(), jobs=jobs)


def test_suite_serial(benchmark):
    results = benchmark(_run, 1)
    assert len(results) == len(all_programs())
    benchmark.extra_info["programs"] = len(results)


def test_suite_process_pool(benchmark):
    results = benchmark(_run, JOBS)
    assert _rows(results) == _rows(_run(1))
    benchmark.extra_info["programs"] = len(results)
    benchmark.extra_info["cpus"] = os.cpu_count()
