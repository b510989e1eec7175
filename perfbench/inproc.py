"""The in-process workloads: ``analyze_cold`` and ``check_campaign``.

One caller, closed loop, in this process.  ``run.py`` starts this file
as a child process and sends a JSON spec on stdin; the child prints one
JSON line on stdout.  Modes:

``setup``   imports and warm-up ops only, then report the set-up time;
``run``     set up, then run ops for ``seconds``; with ``trace`` the time
            is split between an untraced reference segment and a traced
            segment over the same ops;
``counts``  exact work counts of the first ops from a cold start, for
            the cross-process self-check.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer, by_op, now_ns, ratio, self_split  # noqa: E402

PARALLEL = ("parallel", "parallel_private")

#: counters of the exact-count self-check
EXACT = (
    "fm.eliminate",
    "feasibility.ground",
    "pred.oracle.tier0",
    "pred.oracle.tier1",
    "pred.oracle.tier2",
)

#: analysis passes, as span names
ANALYSIS_PASSES = ("scalarprop", "frontend", "screen", "summarize", "decide", "enclose")
CODEGEN_PASSES = ("plan", "twoversion")


def _pass_targets(names):
    from repro.pipeline import passes

    classes = {
        cls.name: cls
        for cls in vars(passes).values()
        if isinstance(cls, type) and issubclass(cls, passes.Pass) and cls is not passes.Pass
    }
    return [(classes[n], "run", n, None) for n in names]


def targets(workload):
    """What the traced run wraps, and which layer each span counts to."""
    import repro.linalg.feasibility as feas
    import repro.linalg.fourier_motzkin as fm
    import repro.pipeline as pipeline
    import repro.predicates.oracle as oracle
    import repro.runtime.elpd as elpd
    import repro.runtime.interp as interp
    from repro.lang import parser

    common = [
        (parser, "parse_program", "parse", None),
        (pipeline, "run_pipeline", "pipeline", None),
    ]
    if workload == "analyze_cold":
        wrap = common + _pass_targets(ANALYSIS_PASSES) + [
            (fm, "eliminate", "fm", None),
            (fm, "eliminate_all", "fm", None),
            (feas, "is_feasible", "fm", None),
            (oracle, "is_unsat", "oracle", None),
            (oracle, "implies", "oracle", None),
            (oracle, "equivalent", "oracle", None),
        ]
        layer_of = {name: f"{name}.self_ms" for _o, _a, name, _f in wrap}
        return wrap, layer_of
    wrap = common + _pass_targets(ANALYSIS_PASSES + CODEGEN_PASSES) + [
        (interp, "run_program", "run_program", None),
        (elpd, "run_oracle", "run_oracle", None),
    ]
    layer_of = {"parse": "analyze.self_ms", "pipeline": "analyze.self_ms"}
    layer_of.update({n: "analyze.self_ms" for n in ANALYSIS_PASSES})
    layer_of.update({n: "codegen.self_ms" for n in CODEGEN_PASSES})
    layer_of.update({"run_program": "runtime.exec_ms", "run_oracle": "runtime.elpd_ms"})
    return wrap, layer_of


# ----------------------------------------------------------------------
# one op, and its check
# ----------------------------------------------------------------------
def op_cold(op):
    """Cold compile: empty memo tables, parse, analyze to the result."""
    import repro.pipeline as pipeline
    from repro import perf
    from repro.lang import parser

    perf.reset_all_caches()
    program = parser.parse_program(op["source"])
    return pipeline.run_pipeline(program, goals=("result",))


def op_check(op):
    """One fuzz-campaign check on warm memo tables: analyze and
    transform, run both versions, run the ELPD oracle."""
    import repro.pipeline as pipeline
    import repro.runtime.elpd as elpd
    import repro.runtime.interp as interp
    from repro import perf
    from repro.lang import parser

    program = parser.parse_program(op["source"])
    ctx = pipeline.run_pipeline(program, goals=("result", "transformed"))
    ref = interp.run_program(program, op["inputs"])
    two = interp.run_program(ctx.get("transformed"), op["inputs"])
    report = elpd.run_oracle(program, op["inputs"])
    perf.enforce_memo_caps()
    return ctx, ref, two, report


def check_cold(op, ctx):
    statuses = {l.label: l.status for l in ctx.get("result").loops}
    return [
        f"{op['name']} {label}: verdict {statuses.get(label)}, expected {pred}"
        for label, (pred, _elpd) in op["expect"].items()
        if statuses.get(label) != pred
    ]


def check_check(op, out):
    ctx, ref, two, report = out
    errors = check_cold(op, ctx)
    statuses = {l.label: l.status for l in ctx.get("result").loops}
    for label, (_pred, elpd) in op["expect"].items():
        obs = report.observations.get(label)
        got = obs.classification if obs is not None else None
        if got != elpd:
            errors.append(f"{op['name']} {label}: ELPD {got}, expected {elpd}")
        if statuses.get(label) in PARALLEL and got == "dependent":
            errors.append(f"{op['name']} {label}: proven parallel, ELPD dependent")
    if two.outputs != ref.outputs or two.main_arrays != ref.main_arrays:
        errors.append(f"{op['name']}: two-version run differs from the original")
    return errors


OPS = {"analyze_cold": (op_cold, check_cold), "check_campaign": (op_check, check_check)}


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def warm_up(workload, ops):
    run_op, _check = OPS[workload]
    for op in ops:
        run_op(op)


def timed(workload, ops, seconds):
    """Closed loop over *ops* (cycling) for *seconds*.

    Returns latencies (ns), wall and check time (ns) and failures.  The
    check runs outside the op's latency and is subtracted from the wall
    time that throughput divides by.
    """
    run_op, check = OPS[workload]
    lat, failures = [], []
    failed = 0
    check_ns = 0
    start = now_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while now_ns() < deadline:
        op = ops[i % len(ops)]
        i += 1
        try:
            t = now_ns()
            out = run_op(op)
            lat.append(now_ns() - t)
        except Exception as exc:  # a failed op is counted, not fatal
            failures.append(f"{op['name']}: {type(exc).__name__}: {exc}")
            failed += 1
            lat.append(None)
            continue
        c = now_ns()
        errors = check(op, out)
        check_ns += now_ns() - c
        failures.extend(errors)
        failed += bool(errors)
    return {
        "lat": lat,
        "wall_ns": now_ns() - start,
        "check_ns": check_ns,
        "failed": failed,
        "failures": failures,
    }


def paired(workload, ops, seconds, tracer, counts):
    """The traced loop: each op runs twice in a row, traced and with the
    wrappers disabled, alternating which goes first.  Host drift and
    memo warmth then fall on both sides alike, so the pairs measure the
    tracing overhead; the traced runs that went first give the split.
    """
    run_op, check = OPS[workload]
    pairs, failures = [], []
    failed = 0
    check_ns = 0
    start = now_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while now_ns() < deadline:
        op = ops[i % len(ops)]
        traced_first = i % 2 == 0
        lat = {}
        try:
            for traced in (traced_first, not traced_first):
                tracer.enabled = traced
                if traced:
                    before = counts.start() if traced_first else None
                    with tracer.span("op", op=i) as frame:
                        out = run_op(op)
                    lat[True] = frame[4] - frame[3]
                    if traced_first:
                        counts.stop(before, out)
                else:
                    t = now_ns()
                    run_op(op)
                    lat[False] = now_ns() - t
        except Exception as exc:  # a failed op is counted, not fatal
            failures.append(f"{op['name']}: {type(exc).__name__}: {exc}")
            failed += 1
            i += 1
            continue
        c = now_ns()
        errors = check(op, out)
        check_ns += now_ns() - c
        failures.extend(errors)
        failed += bool(errors)
        pairs.append((i, lat[False], lat[True], traced_first))
        i += 1
    tracer.enabled = False
    return {
        "pairs": pairs,
        "lat": [p[2] for p in pairs] + [None] * (i - len(pairs)),
        "wall_ns": now_ns() - start,
        "check_ns": check_ns,
        "failed": failed,
        "failures": failures,
    }


def exact_counts(workload, ops):
    """Work counts of *ops* from a cold start (deterministic)."""
    from repro import perf

    perf.reset_all_caches()
    before = perf.snapshot()
    steps = 0
    for op in ops:
        out = OPS[workload][0](op)
        if workload == "check_campaign":
            steps += out[1].steps + out[2].steps + out[3].steps
    after = perf.snapshot()
    counts = {
        name: after["counters"].get(name, 0) - before["counters"].get(name, 0)
        for name in EXACT
    }
    counts["ops.total"] = after["total_ops"] - before["total_ops"]
    if workload == "check_campaign":
        counts["runtime.steps"] = steps
    return counts


class OpCounts:
    """Per-op deltas of ``perf.snapshot()`` in the traced segment."""

    def __init__(self, workload):
        from repro import perf

        self.perf = perf
        self.workload = workload
        self.rows = []

    def start(self):
        return self.perf.snapshot()

    def stop(self, before, out):
        snap = self.perf.snapshot()
        c0, c1 = before["counters"], snap["counters"]
        row = {k: c1.get(k, 0) - c0.get(k, 0) for k in c1}
        row["ops.total"] = snap["total_ops"] - before["total_ops"]
        if self.workload == "check_campaign":
            row["runtime.steps"] = out[1].steps + out[2].steps + out[3].steps
        fm0 = before["caches"].get("fm.eliminate_all", {})
        fm1 = snap["caches"].get("fm.eliminate_all", {})
        for k in ("hits", "misses"):
            # the cold workload resets the table inside the op
            row[f"fm_all.{k}"] = fm1.get(k, 0) - (
                0 if self.workload == "analyze_cold" else fm0.get(k, 0)
            )
        self.rows.append(row)


def traced_metrics(workload, ops, seconds, spans_path):
    """The per-layer metrics of a traced run (see :func:`paired`)."""
    wrap, layer_of = targets(workload)
    tracer = Tracer()
    counts = OpCounts(workload)
    tracer.install(wrap)
    try:
        run = paired(workload, ops, seconds, tracer, counts)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)

    grouped = by_op(tracer.spans)
    firsts = [p[0] for p in run["pairs"] if p[3]]
    totals = {name: 0 for name in set(layer_of.values()) | {"unattributed"}}
    for i in firsts:
        _latency, split = self_split(grouped[i], layer_of)
        for layer, ns in split.items():
            totals[layer] += ns
    n = len(firsts)
    metrics = {
        layer if layer.endswith("_ms") else f"{layer}_ms": ns / n / 1e6
        for layer, ns in totals.items()
    }
    # median traced/untraced ratio for each order; their geometric mean
    # cancels what running second gains (warmer memo tables)
    ratios = [
        statistics.median(p[2] / p[1] for p in run["pairs"] if p[3] is first)
        for first in (True, False)
    ]
    metrics["trace.overhead_pct"] = 100 * (math.sqrt(ratios[0] * ratios[1]) - 1)

    rows = counts.rows
    total = lambda key: sum(r.get(key, 0) for r in rows)  # noqa: E731
    metrics["memo.fm_hit_rate"] = ratio(
        total("fm_all.hits"), total("fm_all.hits") + total("fm_all.misses")
    )
    if workload == "analyze_cold":
        for key in ("ops.total", "fm.eliminate", "feasibility.ground", "screen.saved_units"):
            metrics[key] = total(key) / n
        fast = total("pred.oracle.tier0") + total("pred.oracle.tier1")
        metrics["oracle.fast_share"] = ratio(fast, fast + total("pred.oracle.tier2"))
    else:
        metrics["check.self_ms"] = run["check_ns"] / len(run["pairs"]) / 1e6
        vec = total("rt.vec_loop")
        metrics["runtime.vec_share"] = ratio(vec, vec + total("rt.vec_fallback"))
        metrics["runtime.steps"] = total("runtime.steps") / n
    return run, metrics


def main() -> int:
    t_read = now_ns()
    spec = json.loads(sys.stdin.read())
    read_ns = now_ns() - t_read
    workload, mode = spec["workload"], spec["mode"]
    if mode == "counts":
        print(json.dumps(exact_counts(workload, spec["ops"])))
        return 0

    warm_up(workload, spec["warmup"])
    setup_s = (now_ns() - spec["spawned_ns"] - read_ns) / 1e9
    out = {"setup_s": setup_s}
    if mode == "run":
        ops, seconds = spec["ops"], spec["seconds"]
        if spec["trace"]:
            run, metrics = traced_metrics(workload, ops, seconds, spec["spans_path"])
            out["per_layer"] = metrics
        else:
            run = timed(workload, ops, seconds)
        out.update(run)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
