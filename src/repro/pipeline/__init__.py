"""The unified pass pipeline.

One explicit compile flow: :func:`run_pipeline` builds a
:class:`~repro.pipeline.context.ProgramContext`, runs the passes of
:mod:`repro.pipeline.passes` over it in one fixed order and returns the
context.  One program runs serially; :func:`run_pipeline_batch` fans
many programs over the process pool, byte-identical to a serial loop.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import executor as _executor_mod
from repro.pipeline.context import MissingArtifact, ProgramContext
from repro.pipeline.executor import resolve_jobs
from repro.pipeline.passes import (
    PROGRAM_SCOPE,
    UNIT_SCOPE,
    DecidePass,
    EnclosePass,
    FrontendPass,
    Pass,
    PlanPass,
    ScalarPropPass,
    ScreenPass,
    SummarizePass,
    TwoVersionPass,
)

__all__ = [
    "PROGRAM_SCOPE",
    "UNIT_SCOPE",
    "DecidePass",
    "EnclosePass",
    "FrontendPass",
    "MissingArtifact",
    "Pass",
    "PlanPass",
    "ProgramContext",
    "ScalarPropPass",
    "ScreenPass",
    "SummarizePass",
    "TwoVersionPass",
    "resolve_batch_chunk",
    "resolve_jobs",
    "run_pipeline",
    "run_pipeline_batch",
]

#: the analysis, in order, through the merged result
ANALYSIS: Tuple[Pass, ...] = (
    ScalarPropPass(),
    FrontendPass(),
    ScreenPass(),
    SummarizePass(),
    DecidePass(),
    EnclosePass(),
)
#: code generation, run only for a goal that names ``plan`` or ``transformed``
CODEGEN: Tuple[Pass, ...] = (PlanPass(), TwoVersionPass())


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_pipeline(
    program,
    opts: Optional[AnalysisOptions] = None,
    cache=None,
    goals: Sequence[str] = ("result",),
    explain: bool = False,
) -> ProgramContext:
    """Run the compile flow for *program*.

    Returns the :class:`ProgramContext`; read artifacts off it
    (``ctx.get("result")``, ``ctx.get("transformed")``, …).  The
    analysis always runs through ``enclose``, so every analysis artifact
    is there whatever *goals* name; ``plan`` and ``twoversion`` run only
    when a goal names ``plan`` or ``transformed``.  With a cache
    attached and ``result`` among the goals, the program-level fast
    path is honored first: an unchanged program loads its whole result
    in one rebind and runs no analysis pass; a fresh, undegraded run
    stores the program payload back.  The passes run serially in the
    calling thread.
    """
    from repro.partests.driver import program_rows, rebind_program
    from repro.service.cache import program_key

    start = time.perf_counter()
    opts = opts or AnalysisOptions.predicated()
    ctx = ProgramContext(program, opts, cache=cache)
    goals = tuple(goals)

    pkey = None
    if cache is not None and "result" in goals:
        pkey = program_key(program, opts)
        payload = cache.load(pkey, "program")
        if payload is not None:
            with perf.phase("driver.rebind"):
                rebound = rebind_program(program, opts, payload)
            if rebound is not None:
                ctx.put("result", rebound)
                ctx.put("degraded", False)

    fresh = not ctx.has("result")
    passes: Tuple[Pass, ...] = ANALYSIS if fresh else ()
    if "plan" in goals or "transformed" in goals:
        passes += CODEGEN
    records = _run_passes(ctx, passes)
    if explain:
        ctx.explain = _explain(ctx, passes, records)

    result = ctx.get("result")
    result.analysis_seconds = time.perf_counter() - start
    if fresh and pkey is not None and not ctx.degraded:
        cache.store(pkey, "program", program_rows(result))
    return ctx


def _run_passes(ctx: ProgramContext, passes: Sequence[Pass]) -> List[dict]:
    """Run *passes* in order: a program-scope pass once, a unit-scope
    pass over every unit bottom-up (callees first, which is what a
    unit's walk needs), so consecutive unit passes run pass-major.
    Returns one schedule record per task."""
    records: List[dict] = []
    t0 = time.perf_counter()
    order: Optional[List[str]] = None
    for p in passes:
        units: Sequence[Optional[str]] = (None,)
        if p.scope == UNIT_SCOPE:
            if order is None:
                order = ctx.engine.callgraph.bottom_up_order()
            units = order
        for unit in units:
            begin = time.perf_counter()
            with perf.phase(f"pass.{p.name}"):
                p.run(ctx, unit=unit)
            records.append(
                {
                    "pass": p.name,
                    "unit": unit,
                    "start": round(begin - t0, 6),
                    "seconds": round(time.perf_counter() - begin, 6),
                }
            )
    return records


def _explain(
    ctx: ProgramContext, passes: Sequence[Pass], records: List[dict]
) -> dict:
    """The ``--explain-pipeline`` record of one run."""
    per_pass: Dict[str, float] = {}
    for r in records:
        per_pass[r["pass"]] = round(per_pass.get(r["pass"], 0.0) + r["seconds"], 6)
    callgraph: List[List[str]] = []
    if ctx.has("engine"):
        callgraph = [list(e) for e in ctx.engine.callgraph.edge_list()]
    return {
        "units": list(ctx.unit_names()),
        "callgraph": callgraph,
        "passes": [{"name": p.name, "scope": p.scope} for p in passes],
        "schedule": records,
        "pass_seconds": per_pass,
    }


# ----------------------------------------------------------------------
# whole-suite fan-out
# ----------------------------------------------------------------------
def resolve_batch_chunk(
    chunk: Optional[int], n_programs: int, jobs: int
) -> int:
    """Programs per pool task: explicit *chunk*, else sized so each
    worker sees ~4 chunks (load balance) without any chunk growing past
    32 programs (latency to first merged result)."""
    if chunk is None:
        chunk = min(32, -(-n_programs // (jobs * 4)))
    return max(1, int(chunk))


def run_pipeline_batch(
    programs: Sequence,
    opts: Optional[AnalysisOptions] = None,
    cache=None,
    jobs: Optional[int] = None,
    chunk: Optional[int] = None,
) -> List:
    """Analyze many independent programs, returning their
    :class:`~repro.partests.driver.ProgramResult` objects **in input
    order**.

    Distinct programs share no artifacts, so whole programs are the
    grain the process pool schedules.  Under ``jobs > 1`` the batch is
    coalesced into *chunks* of consecutive programs (*chunk* per pool
    task, or an auto size — see :func:`resolve_batch_chunk`), so a
    stream of tiny programs pays one pickle/queue round trip per chunk
    instead of per program.  Each chunk runs its programs' full
    pipelines serially inside a pool worker — on the worker's warm
    substrate, when the fleet is warm —
    and ships back per-program decision rows (the exact payload shape
    the program-level cache stores); the parent rebinds them onto its
    own parses in input order, so results are byte-identical to a
    serial loop *and* to any other chunking.  A degraded
    (budget-tripped) worker result is rebound as-is — conservative and,
    as always, never written to any cache — and its trips count against
    the calling thread's budget scope, as a local run's would.
    ``jobs=1`` analyzes the programs locally, one by one.
    """
    from repro.partests.driver import rebind_program

    opts = opts or AnalysisOptions.predicated()
    jobs = resolve_jobs(jobs)
    programs = list(programs)

    def local(program):
        return run_pipeline(program, opts, cache=cache).get("result")

    if jobs <= 1 or len(programs) <= 1:
        return [local(p) for p in programs]

    from repro.linalg.fourier_motzkin import replay_fallback_warnings
    from repro.service.budgets import record_trips, suspended

    chunk = resolve_batch_chunk(chunk, len(programs), jobs)
    chunks = [
        programs[i : i + chunk] for i in range(0, len(programs), chunk)
    ]
    cache_root = str(cache.root) if cache is not None else None
    epoch = perf.epoch()
    with _executor_mod.pool_session(jobs) as pool:
        futures = []
        for group in chunks:
            perf.bump("pipeline.executor.batch_programs", len(group))
            perf.bump("pipeline.executor.chunks")
            perf.bump("pipeline.executor.tasks")
            blob = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
            futures.append(
                pool.submit(
                    _executor_mod.run_remote_chunk,
                    blob,
                    opts,
                    cache_root,
                    _executor_mod.remaining_budget(),
                    epoch,
                )
            )
        results = []
        try:
            for group, fut in zip(chunks, futures):
                out = _executor_mod.load_result(fut.result())
                _executor_mod.absorb_worker(out["pid"], out["snapshot"])
                replay_fallback_warnings(out["warnings"])
                for program, prog_out in zip(group, out["programs"]):
                    record_trips(prog_out["trips"])
                    # rebinding a completed worker result may not re-trip
                    # the (possibly exhausted) request budget
                    with suspended(), perf.phase("driver.rebind"):
                        result = rebind_program(
                            program, opts, prog_out["payload"]
                        )
                    if result is None:
                        # same parse on both sides, so this cannot fail in
                        # practice; recompute locally (pure → identical)
                        perf.bump("pipeline.executor.fallback")
                        result = local(program)
                    result.analysis_seconds = prog_out["seconds"]
                    results.append(result)
        except BaseException:
            _executor_mod.shutdown_pool()
            raise
    return results
