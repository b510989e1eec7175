"""Job execution core: one queued job in, one response + receipt out.

This is the single code path every front end funnels through — the
JSON-lines loop (``serve --stdio``), the HTTP front door (``serve
--http``) and the worker fleet all call :func:`execute_job`.  Two job
kinds exist:

``analyze``
    The body is exactly today's JSON-lines request object (``source`` /
    ``file``, ``options``, ``budget``, ``report``, echoed ``id``); the
    response is byte-identical to the pre-queue server's.  The analysis
    runs under the job's budget in the *calling thread's* budget scope
    (budgets are thread-local, so a fleet runs many budgeted jobs
    concurrently without cross-metering), degrades soundly on
    exhaustion, and shares the process-wide summary cache.

``experiment``
    The body names a paper table/figure (``which`` ∈ fig1 / tab1 / tab2
    / tab3 / figs / figo) plus an optional per-job ``jobs`` fan-out,
    clamped to ``1..os.cpu_count()``; the response carries the formatted
    text the CLI would print.

:func:`execute_job` never raises: a bad request becomes an ``"ok":
false`` response (and a *failed* receipt) — one poisoned job never
takes down a worker.  Every execution produces a receipt
(:mod:`repro.service.receipts`) recording inputs, knobs, budgets,
degradation and cost.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple

# The whole analysis stack loads with this module, in the thread that
# imports it, before any fleet starts worker threads: two workers first
# importing one package at once can each get it partially initialized.
# The first three are modules the analysis imports lazily, inside calls.
import repro.arraydf.screen  # noqa: F401
import repro.ir.scalarprop  # noqa: F401
import repro.service.degrade  # noqa: F401
from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.report import format_report
from repro.lang.parser import parse_program
from repro.pipeline import run_pipeline
from repro.service import receipts
from repro.service.budgets import Budget, budget_scope
from repro.service.cache import default_cache

for _name in (
    "job.analyze",
    "job.experiment",
    "job.done",
    "job.failed",
    "job.degraded",
    "job.receipt",
    "job.trim_failed",
):
    perf.declare(_name)

#: experiment ids an ``experiment`` job may name (module resolved lazily)
EXPERIMENTS = ("fig1", "tab1", "tab2", "tab3", "figs", "figo")

#: experiments load on first use (eagerly they would add ~280 ms to
#: every server start), one worker thread at a time
_experiments_lock = threading.Lock()


def _options_named(name: str):
    if name == "base":
        return AnalysisOptions.base()
    if name == "predicated":
        return AnalysisOptions.predicated()
    raise ValueError(f"unknown options {name!r} (use 'predicated' or 'base')")


def _experiment_module(which: str):
    with _experiments_lock:
        from repro.experiments import (
            fig1_examples,
            fig_overhead,
            fig_speedups,
            table1_loops,
            table2_programs,
            table3_categories,
        )

        # and the modules their runs import lazily
        import repro.runtime.bytecode  # noqa: F401
        from repro.suites import extra, nas, perfect, specfp  # noqa: F401

    return {
        "fig1": fig1_examples,
        "tab1": table1_loops,
        "tab2": table2_programs,
        "tab3": table3_categories,
        "figs": fig_speedups,
        "figo": fig_overhead,
    }[which]


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def run_analyze(body: Dict) -> Tuple[Dict, Dict]:
    """Run one analysis request; returns ``(response, extras)``.

    The response dict is the pinned JSON-lines wire format (see
    :mod:`repro.service.server`); *extras* carries what the receipt
    needs beyond the response (parsed program, options, budget, trips).
    The pipeline runs in the calling worker thread.
    """
    rid = body.get("id")
    extras: Dict = {
        "options_name": None,
        "opts": None,
        "program": None,
        "budget": None,
        "trips": {},
        "degraded": False,
    }
    try:
        source = body.get("source")
        if source is None:
            path = body.get("file")
            if path is None:
                raise ValueError("request needs 'source' or 'file'")
            with open(path) as f:
                source = f.read()
        options_name = body.get("options", "predicated")
        opts = _options_named(options_name)
        extras["options_name"], extras["opts"] = options_name, opts
        budget = Budget.from_dict(body.get("budget"))
        extras["budget"] = budget

        program = parse_program(source)
        extras["program"] = program
        with budget_scope(budget) as scope:
            ctx = run_pipeline(program, opts, cache=default_cache())
        result = ctx.get("result")
        if scope is not None:
            extras["trips"] = dict(scope.trips)
        extras["degraded"] = ctx.degraded

        loops = [
            {
                "label": l.label,
                "unit": l.unit,
                "status": l.status,
                "condition": (
                    None
                    if l.condition is None or l.condition.is_true()
                    else str(l.condition)
                ),
                "runtime_test": l.runtime_test,
                "reason": l.reason,
                "enclosed": l.enclosed,
            }
            for l in result.loops
        ]
        resp: Dict = {
            "id": rid,
            "ok": True,
            "program": program.main,
            "degraded": extras["degraded"],
            "loops": loops,
        }
        if body.get("report"):
            resp["report"] = format_report(result)
        return resp, extras
    except Exception as exc:  # one bad request must not kill the worker
        return (
            {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"},
            extras,
        )


# ----------------------------------------------------------------------
# experiment
# ----------------------------------------------------------------------
def run_experiment(body: Dict) -> Tuple[Dict, Dict]:
    """Run one experiment request; returns ``(response, extras)``."""
    rid = body.get("id")
    extras: Dict = {"which": None, "budget": None, "trips": {}, "degraded": False}
    try:
        which = body.get("which")
        if which not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {which!r} "
                f"(use one of {', '.join(EXPERIMENTS)})"
            )
        extras["which"] = which
        # the pool forks all its workers at the first submit: never more
        # than the host has cores, whatever the request asks for
        jobs = min(max(1, int(body.get("jobs", 1))), os.cpu_count() or 1)
        budget = Budget.from_dict(body.get("budget"))
        extras["budget"] = budget
        with budget_scope(budget) as scope:
            output = _experiment_module(which).run(jobs=jobs).format()
        if scope is not None:
            extras["trips"] = dict(scope.trips)
            extras["degraded"] = scope.degraded
        return (
            {"id": rid, "ok": True, "which": which, "output": output},
            extras,
        )
    except Exception as exc:
        return (
            {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"},
            extras,
        )


# ----------------------------------------------------------------------
# the one entry point
# ----------------------------------------------------------------------
def execute_job(job, worker: str = "") -> Tuple[Dict, Dict]:
    """Execute one queued :class:`~repro.service.queue.Job`.

    Returns ``(response, receipt)`` and never raises.  *worker* names
    the fleet thread that ran it (recorded under ``timings``).
    """
    started = time.perf_counter()
    base = perf.snapshot()
    if job.kind == "experiment":
        perf.bump("job.experiment")
        resp, extras = run_experiment(job.body)
        inputs = receipts.experiment_inputs(extras.get("which"))
    else:
        perf.bump("job.analyze")
        resp, extras = run_analyze(job.body)
        program, opts = extras.get("program"), extras.get("opts")
        if program is not None and opts is not None:
            inputs = receipts.analyze_inputs(program, opts)
        else:
            inputs = receipts.empty_inputs()
    run_s = time.perf_counter() - started

    perf.bump("job.done" if resp.get("ok") else "job.failed")
    degraded = bool(extras.get("degraded"))
    if degraded:
        perf.bump("job.degraded")

    budget: Optional[Budget] = extras.get("budget")
    granted = {
        key: getattr(budget, key) if budget is not None else None
        for key in Budget.KEYS
    }
    result_summary: Dict = {
        "state": "done" if resp.get("ok") else "failed",
        "ok": bool(resp.get("ok")),
    }
    if resp.get("ok") and job.kind == "analyze":
        loops = resp.get("loops", [])
        result_summary["loops"] = len(loops)
        result_summary["parallel"] = sum(
            1 for l in loops if l["status"] in ("parallel", "runtime")
        )
    if not resp.get("ok"):
        result_summary["error"] = resp.get("error")

    queued_s = None
    if job.submitted_at is not None:
        queued_s = max(0.0, round(time.time() - run_s - job.submitted_at, 6))
    timings = {
        "wall_s": {"queued": queued_s, "run": round(run_s, 6)},
        "perf": perf.snapshot_delta(perf.snapshot(), base),
        "worker": worker,
        "finished_at": round(time.time(), 3),
    }

    receipt = receipts.build_receipt(
        job_id=job.id,
        kind=job.kind,
        priority=job.priority,
        inputs=inputs,
        knobs=receipts.knobs_in_effect(
            extras.get("options_name"), extras.get("opts")
        ),
        budget_granted=granted,
        degraded=degraded,
        trips=extras.get("trips", {}),
        result_summary=result_summary,
        timings=timings,
    )
    perf.bump("job.receipt")
    # job boundary: a long-lived fleet keeps memo tables warm across
    # jobs; trim the capped ones so that warmth stays bounded.  The job
    # is complete by now, so a failing trim must neither fail it nor
    # kill the worker that ran it.
    try:
        perf.enforce_memo_caps()
    except Exception:
        perf.bump("job.trim_failed")
    return resp, receipt
