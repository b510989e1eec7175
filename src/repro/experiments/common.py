"""Shared plumbing for the experiment harnesses."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List, Sequence, TypeVar

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.partests.driver import ProgramResult, analyze_program
from repro.service.budgets import active_budget, budget_scope, record_trips

WIN_STATUSES = ("parallel", "parallel_private", "runtime")


@lru_cache(maxsize=None)
def analyzed(name: str, config: str) -> ProgramResult:
    """Memoized driver run for one (program, configuration).

    When a default summary cache is configured (``--cache DIR`` or the
    ``REPRO_CACHE_DIR`` environment variable, which worker processes
    inherit) the driver reuses on-disk procedure summaries; the tables
    built from the results are byte-identical either way.
    """
    from repro.service import default_cache
    from repro.suites import get_program

    options = {
        "base": AnalysisOptions.base(),
        "predicated": AnalysisOptions.predicated(),
        "compile_time_only": AnalysisOptions.compile_time_only(),
        "no_embedding": AnalysisOptions.predicated().without(embedding=False),
        "no_extraction": AnalysisOptions.predicated().without(extraction=False),
        "no_interproc": AnalysisOptions.predicated().without(
            interprocedural=False
        ),
    }[config]
    return analyze_program(
        get_program(name).fresh_program(), options, cache=default_cache()
    )


def _analyzed_stats():
    info = analyzed.cache_info()
    total = info.hits + info.misses
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "hit_rate": (info.hits / total) if total else 0.0,
    }


perf.register_cache(
    "experiments.analyzed", _analyzed_stats, analyzed.cache_clear, obj=analyzed
)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Fixed-width text table (the paper-style row rendering)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def percent(num: int, den: int) -> str:
    return f"{100 * num / den:.0f}%" if den else "-"


_T = TypeVar("_T")
_R = TypeVar("_R")


def _forget_degraded() -> None:
    """Drop :func:`analyzed` results if the active budget tripped.

    A tripped budget stays exhausted, so anything memoized under it may
    be degraded; kept, it would serve a later, unbudgeted experiment.
    """
    scope = active_budget()
    if scope is not None and scope.degraded:
        analyzed.cache_clear()


def _instrumented(fn: Callable[[_T], _R], budget, item: _T):
    """Worker-side wrapper: run *fn* under the request's shipped remaining
    *budget*; ship the result, the budget trips and this worker's own
    perf work."""
    import os

    from repro.pipeline.executor import worker_snapshot

    with budget_scope(budget) as scope:
        result = fn(item)
        _forget_degraded()
    trips = dict(scope.trips) if scope is not None else {}
    return os.getpid(), result, trips, worker_snapshot()


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], jobs: int = 1
) -> List[_R]:
    """Map *fn* over *items*, on the shared process pool when ``jobs > 1``.

    Results are merged back **in input order**, so the output — and hence
    every table built from it — is byte-identical for any job count.
    *fn* must be a module-level (picklable) function and every item and
    result must pickle; the experiment workers return small dataclass
    payloads rather than full analysis objects to keep that cheap.

    The calls run in a :func:`repro.pipeline.executor.pool_session`, on
    the pool batch chunks use; each counts as one
    ``pipeline.executor.tasks``.  Each call runs under the
    remaining budget of the calling thread's request, taken at submit,
    and its trips count against that request.  Each result carries the
    perf work its worker did since it forked; the parent folds it in
    with :func:`~repro.pipeline.executor.absorb_worker`, so
    ``--profile`` sees cache/counter activity under any job count.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results = [fn(it) for it in items]
        _forget_degraded()
        return results
    from functools import partial

    from repro.pipeline import executor as pexec

    task = partial(_instrumented, fn, pexec.remaining_budget())
    results = []
    perf.bump("pipeline.executor.tasks", len(items))
    with pexec.pool_session(jobs) as pool:
        try:
            for pid, result, trips, snap in pool.map(task, items):
                pexec.absorb_worker(pid, snap)
                record_trips(trips)
                results.append(result)
        except BaseException:
            pexec.shutdown_pool()  # a broken pool poisons every later submit
            raise
    return results
