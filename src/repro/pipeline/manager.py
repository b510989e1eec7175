"""Dependency-aware scheduling of passes over compilation units.

The :class:`PassManager` owns *when* pass bodies run; the passes own
*what* they compute.  Scheduling is derived entirely from the declared
artifact wiring:

* **program-scope passes are barriers** — one task, run alone;
* **consecutive unit-scope passes form a region** — one task per
  (pass, unit), ordered only by real data dependences: a task depends on
  the earlier region pass producing each of its inputs for its own unit,
  and — for inputs declared ``<artifact>@callees`` — on the producing
  task of every callee.  That second rule is exactly the bottom-up
  callgraph order, so independent subtrees of the (acyclic) callgraph
  have no path between them and run concurrently under ``jobs > 1``.

Determinism: tasks only write unit-keyed artifacts into the
:class:`~repro.pipeline.context.ProgramContext`; every merge across
units happens in a later barrier pass that reads them in program (parse)
order.  Results are therefore byte-identical for any job count — the
integration suite pins this.

``jobs=1`` runs a region in-process, pass-major with units bottom-up.
``jobs > 1`` runs a multi-unit region on the shared process pool of
:mod:`repro.pipeline.executor`, which ships picklable task payloads out
and merges the hydrated results back in the parent (see
``docs/EXECUTION.md`` for the end-to-end model).  A region holding a
pass that is not distributable runs serially.

The dependence structure of a region is a pure function of
``(units, callgraph edges, region passes)`` and is memoized in the
registered ``pipeline.schedule`` table, so repeated analyses of the same
program (the serving loop) skip rebuilding it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.pipeline import executor as pexec
from repro.service.budgets import suspended
from repro.pipeline.base import (
    PROGRAM_SCOPE,
    ROOT_ARTIFACT,
    UNIT_SCOPE,
    Pass,
    base_artifact,
    is_callee_input,
)
from repro.pipeline.context import ProgramContext

#: a region task: (index of the pass within its region, unit name)
Task = Tuple[int, str]


class PipelineWiringError(Exception):
    """A pass reads an artifact nothing earlier produces (wiring bug)."""


#: memoized region dependence structures (see module docstring)
_schedule_memo = perf.memo_table("pipeline.schedule", cap=64)


def _build_region_schedule(
    units: Tuple[str, ...],
    edges: Tuple[Tuple[str, str], ...],
    region: Tuple[Pass, ...],
) -> Dict:
    """The task graph of one unit-scope region (deterministic)."""
    unit_set = set(units)
    callee_map: Dict[str, List[str]] = {u: [] for u in units}
    for caller, callee in edges:
        if caller in unit_set and callee in unit_set and caller != callee:
            callee_map[caller].append(callee)
    for u in callee_map:
        callee_map[u] = sorted(set(callee_map[u]))

    # bottom-up rank (callees before callers), the serial unit order
    order: List[str] = []
    seen: Set[str] = set()

    def visit(u: str) -> None:
        if u in seen:
            return
        seen.add(u)
        for v in callee_map[u]:
            visit(v)
        order.append(u)

    for u in sorted(units):
        visit(u)
    rank = {u: i for i, u in enumerate(order)}

    producer: Dict[str, int] = {}
    for j, p in enumerate(region):
        for out in p.outputs:
            producer[out] = j

    def task_key(t: Task) -> Tuple[int, int]:
        return (t[0], rank[t[1]])

    tasks: List[Task] = sorted(
        ((i, u) for i in range(len(region)) for u in units), key=task_key
    )
    deps: Dict[Task, Tuple[Task, ...]] = {}
    for i, u in tasks:
        need: Set[Task] = set()
        for inp in region[i].inputs:
            j = producer.get(base_artifact(inp))
            if j is None:
                continue  # produced before the region: a barrier artifact
            if is_callee_input(inp):
                need.update((j, c) for c in callee_map[u])
            elif j < i:
                need.add((j, u))
        deps[(i, u)] = tuple(sorted(need, key=task_key))

    # wave = longest dependence depth (the explain view of parallelism)
    wave: Dict[Task, int] = {}

    def depth(t: Task) -> int:
        if t not in wave:
            ds = deps[t]
            wave[t] = 1 + max((depth(d) for d in ds)) if ds else 0
        return wave[t]

    for t in tasks:
        depth(t)

    # independent subtrees: weakly-connected callgraph components
    parent = {u: u for u in units}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for caller, callees in callee_map.items():
        for callee in callees:
            ra, rb = find(caller), find(callee)
            if ra != rb:
                parent[rb] = ra
    components: Dict[str, List[str]] = {}
    for u in units:
        components.setdefault(find(u), []).append(u)
    groups = sorted(
        (sorted(members) for members in components.values()),
        key=lambda g: min(rank[u] for u in g),
    )
    group_of = {u: gi for gi, g in enumerate(groups) for u in g}

    return {
        "tasks": tasks,
        "deps": deps,
        "wave": wave,
        "rank": rank,
        "groups": groups,
        "group_of": group_of,
        "task_key": task_key,
    }


class PassManager:
    """Runs a pass sequence over one :class:`ProgramContext`."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: Tuple[Pass, ...] = tuple(passes)

    # ------------------------------------------------------------------
    # selection and validation
    # ------------------------------------------------------------------
    def _select(self, ctx: ProgramContext, goals) -> List[Pass]:
        """The passes needed to produce *goals*, in pipeline order.

        A requirement already present in the context (the program-level
        cache fast path preloads ``result``) stops the backward chain,
        so a warm run schedules nothing upstream of the preload.
        """
        if goals is None:
            return list(self.passes)
        producers: Dict[str, Pass] = {}
        for p in self.passes:
            for out in p.outputs:
                producers[out] = p
        needed: Set[int] = set()

        def require(artifact: str, whom: str) -> None:
            if artifact == ROOT_ARTIFACT or ctx.has(artifact):
                return
            p = producers.get(artifact)
            if p is None:
                raise PipelineWiringError(
                    f"no pass produces artifact {artifact!r}"
                    f" (required by {whom})"
                )
            if id(p) in needed:
                return
            needed.add(id(p))
            for inp in p.inputs:
                base = base_artifact(inp)
                if base not in p.outputs:  # self-edge: summary@callees
                    require(base, p.name)

        for g in goals:
            require(g, "goals")
        return [p for p in self.passes if id(p) in needed]

    def _validate(self, ctx: ProgramContext, selected: List[Pass]) -> None:
        """Every selected pass's inputs must be produced earlier (or be
        preloaded); raises :class:`PipelineWiringError` otherwise."""
        available: Set[str] = {ROOT_ARTIFACT}
        available.update(ctx.available_artifacts())
        for p in selected:
            for inp in p.inputs:
                base = base_artifact(inp)
                if is_callee_input(inp) and p.scope != UNIT_SCOPE:
                    raise PipelineWiringError(
                        f"pass {p.name!r} is program-scope but declares"
                        f" callee input {inp!r}"
                    )
                if base in available or base in p.outputs:
                    continue
                raise PipelineWiringError(
                    f"pass {p.name!r} reads {base!r}, which no earlier"
                    " pass produces and the context does not preload"
                )
            available.update(p.outputs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        ctx: ProgramContext,
        jobs: Optional[int] = 1,
        goals=None,
        explain: bool = False,
    ) -> ProgramContext:
        jobs = pexec.resolve_jobs(jobs)
        selected = self._select(ctx, goals)
        self._validate(ctx, selected)
        records: List[dict] = []
        region_groups: List[List[List[str]]] = []
        t0 = time.perf_counter()
        idx = 0
        while idx < len(selected):
            p = selected[idx]
            if p.scope == PROGRAM_SCOPE:
                if all(ctx.has(out) for out in p.outputs):
                    records.append({"pass": p.name, "unit": None, "skipped": True})
                else:
                    self._run_task(ctx, p, None, records, t0)
                idx += 1
            else:
                region: List[Pass] = []
                while idx < len(selected) and selected[idx].scope == UNIT_SCOPE:
                    region.append(selected[idx])
                    idx += 1
                sched = self._run_region(ctx, tuple(region), jobs, records, t0)
                region_groups.append(sched["groups"])
        if explain:
            ctx.explain = self._explain(
                ctx, selected, records, region_groups, jobs
            )
        return ctx

    def _run_task(
        self,
        ctx: ProgramContext,
        p: Pass,
        unit: Optional[str],
        records: List[dict],
        t0: float,
        wave: Optional[int] = None,
        group: Optional[int] = None,
    ) -> None:
        start = time.perf_counter()
        with perf.phase(f"pass.{p.name}"):
            p.run(ctx, unit=unit)
        record = {
            "pass": p.name,
            "unit": unit,
            "start": round(start - t0, 6),
            "seconds": round(time.perf_counter() - start, 6),
            "worker": threading.current_thread().name,
        }
        if wave is not None:
            record["wave"] = wave
        if group is not None:
            record["group"] = group
        records.append(record)

    def _schedule(
        self,
        units: Tuple[str, ...],
        edges: Tuple[Tuple[str, str], ...],
        region: Tuple[Pass, ...],
    ) -> Dict:
        key = (units, edges, tuple(p.name for p in region))
        sched = _schedule_memo.get(key)
        if sched is None:
            sched = _build_region_schedule(units, edges, region)
            _schedule_memo.data[key] = sched
        return sched

    def _run_region(
        self,
        ctx: ProgramContext,
        region: Tuple[Pass, ...],
        jobs: int,
        records: List[dict],
        t0: float,
    ) -> Dict:
        engine = ctx.engine
        units = ctx.unit_names()
        edges = tuple(engine.callgraph.edge_list())
        sched = self._schedule(units, edges, region)
        if jobs > 1 and len(units) > 1:
            if all(p.distributable for p in region):
                with pexec.pool_session(jobs) as pool:
                    self._run_region_process(ctx, region, pool, records, t0, sched)
                return sched
            # a pass without the pool protocol: run the region serially
            perf.bump("pipeline.executor.fallback")
        for i, u in sched["tasks"]:
            self._run_task(
                ctx,
                region[i],
                u,
                records,
                t0,
                wave=sched["wave"][(i, u)],
                group=sched["group_of"][u],
            )
        return sched

    def _run_region_process(
        self,
        ctx: ProgramContext,
        region: Tuple[Pass, ...],
        pool,
        records: List[dict],
        t0: float,
        sched: Dict,
    ) -> None:
        """The ``jobs > 1`` schedule of one unit-scope region.

        Dependence-driven: each task whose inputs are complete is
        exported to a picklable form and shipped to *pool*, the shared
        process pool; completed payloads are merged (hydrated) in the parent as
        they arrive.  Artifacts are unit-keyed and merges rebind pure
        payloads, so the final store contents — and hence the downstream
        barrier passes — are byte-identical to the serial schedule.
        Worker perf snapshots and captured FM fallback warnings are
        folded in per completion.
        """
        from repro.linalg.fourier_motzkin import replay_fallback_warnings

        tasks: List[Task] = sched["tasks"]
        deps: Dict[Task, Tuple[Task, ...]] = sched["deps"]
        header = pexec.make_header(ctx.get("program"), ctx.opts, ctx.cache)

        remaining: Dict[Task, Set[Task]] = {t: set(deps[t]) for t in tasks}
        dependents: Dict[Task, List[Task]] = {}
        for t, ds in deps.items():
            for d in ds:
                dependents.setdefault(d, []).append(t)
        errors: List[Tuple[Task, BaseException]] = []
        pending: Dict = {}

        def submit(t: Task) -> None:
            i, u = t
            # export + pickle under suspended(): projecting completed
            # upstream results into a shippable blob is bookkeeping and
            # may not charge (or trip) the request budget
            with suspended():
                task_blob = pexec.dump_task(region[i].export_task(ctx, u))
            perf.bump("pipeline.executor.tasks")
            fut = pool.submit(
                pexec.run_remote_task,
                header,
                pexec.remaining_budget(),
                region[i],
                u,
                task_blob,
            )
            pending[fut] = (t, time.perf_counter())

        for t in tasks:
            if not remaining[t]:
                submit(t)
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            ready: List[Task] = []
            for fut in done:
                t, submitted = pending.pop(fut)
                try:
                    out = pexec.load_result(fut.result())
                except BaseException as exc:
                    errors.append((t, exc))
                    continue
                pexec.absorb_worker(out["pid"], out["snapshot"])
                replay_fallback_warnings(out["warnings"])
                i, u = t
                # merging a completed result may not re-trip the (possibly
                # exhausted) request budget; degradation travels in the
                # payload's taint/degraded flags instead
                with suspended():
                    region[i].merge_remote(ctx, u, out["payload"])
                records.append(
                    {
                        "pass": region[i].name,
                        "unit": u,
                        "start": round(submitted - t0, 6),
                        "seconds": round(out["seconds"], 6),
                        "worker": f"proc-{out['pid']}",
                        "wave": sched["wave"][t],
                        "group": sched["group_of"][u],
                    }
                )
                for d in dependents.get(t, ()):
                    waiting = remaining[d]
                    waiting.discard(t)
                    if not waiting:
                        ready.append(d)
            if errors:
                continue  # drain in-flight work, submit nothing new
            for t in sorted(ready, key=sched["task_key"]):
                submit(t)
        if errors:
            # a broken pool poisons every later submit; rebuild it lazily
            pexec.shutdown_pool()
            errors.sort(key=lambda e: sched["task_key"](e[0]))
            raise errors[0][1]

    # ------------------------------------------------------------------
    # explain (--explain-pipeline)
    # ------------------------------------------------------------------
    def _explain(
        self,
        ctx: ProgramContext,
        selected: List[Pass],
        records: List[dict],
        region_groups: List[List[List[str]]],
        jobs: int,
    ) -> dict:
        ran = [r for r in records if not r.get("skipped")]
        per_pass: Dict[str, float] = {}
        for r in ran:
            per_pass[r["pass"]] = round(
                per_pass.get(r["pass"], 0.0) + r["seconds"], 6
            )
        callgraph: List[List[str]] = []
        if ctx.has("engine"):
            callgraph = [list(e) for e in ctx.engine.callgraph.edge_list()]
        workers = sorted({r["worker"] for r in ran})
        parallel_groups = [
            groups for groups in region_groups if len(groups) > 1
        ]
        waves: Dict[int, List[List[Optional[str]]]] = {}
        for r in ran:
            if "wave" in r:
                waves.setdefault(r["wave"], []).append([r["pass"], r["unit"]])
        return {
            "jobs": jobs,
            "units": list(ctx.unit_names()),
            "callgraph": callgraph,
            "passes": [
                dict(
                    p.describe(),
                    skipped=any(
                        r.get("skipped") and r["pass"] == p.name
                        for r in records
                    ),
                )
                for p in selected
            ],
            # independent callgraph subtrees, per unit-scope region;
            # under jobs > 1 distinct groups share no dependence path
            # and run concurrently
            "groups": region_groups,
            "parallel_subtrees": parallel_groups,
            # tasks sharing a wave have no dependence path between them:
            # any two may run concurrently under jobs > 1
            "waves": [waves[w] for w in sorted(waves)],
            "workers": workers,
            "schedule": records,
            "pass_seconds": per_pass,
        }
