"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The metric names and units come from
``BENCHMARK.json``.  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it has the
per-layer metrics (metrics of layers the workload does not exercise
read 0).  Human-readable lines, a ``perfbench-detail`` JSON line (sample
counts, host steal time, failures) and any failures (on stderr, with
their program) come before it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import now_ns  # noqa: E402

WORKLOADS = ("analyze_cold", "check_campaign", "service_http")
#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: ops of the cross-process exact-count self-check
COUNT_OPS = 6
#: distinct generated programs per run second (never exhausted)
OPS_PER_SECOND = {"analyze_cold": 40, "check_campaign": 40, "service_http": 60}
WARMUP_OPS = {"analyze_cold": 3, "check_campaign": 30, "service_http": 6}


def host_steal_s() -> float:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def build_ops(workload: str, seed: int, seconds: float):
    import gen

    g = gen.Generator(seed)
    ops = g.programs(max(60, int(OPS_PER_SECOND[workload] * seconds)))
    if workload == "analyze_cold":
        ops = gen.suite_ops() + ops
    g.rng.seed(seed + 1_000_003)
    warmup = g.programs(WARMUP_OPS[workload], tag="w")
    return ops, warmup


def _spawn_inproc(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spec = dict(spec, spawned_ns=now_ns())
    proc = subprocess.run(
        [sys.executable, str(HERE / "inproc.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=170,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"inproc.py {spec['mode']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_inproc(workload, ops, warmup, seconds, trace, work: Path) -> dict:
    spec = {"workload": workload, "warmup": warmup, "mode": "setup"}
    setups = []
    if not trace:
        setups = [_spawn_inproc(spec)["setup_s"] for _ in range(SETUPS - 1)]
    spec.update(
        mode="run",
        ops=ops,
        seconds=seconds,
        trace=trace,
        spans_path=str(work.parent / f"spans-{workload}.json"),
    )
    out = _spawn_inproc(spec)
    out["setup_s_all"] = setups + [out["setup_s"]]
    return out


def exact_count_check(workload: str, ops) -> dict:
    """The first ops' work counts, from two processes: must be equal."""
    mode = "analyze_cold" if workload == "service_http" else workload
    spec = {"workload": mode, "mode": "counts", "ops": ops[:COUNT_OPS]}
    with ThreadPoolExecutor(2) as pool:
        a, b = pool.map(_spawn_inproc, [spec, spec])
    if a != b:
        raise RuntimeError(f"exact counts differ between two runs: {a} != {b}")
    return a


def end_to_end(out: dict) -> dict:
    lat = [x for x in out["lat"] if x is not None]
    q = statistics.quantiles(lat, n=100, method="inclusive")
    busy_s = (out["wall_ns"] - out["check_ns"]) / 1e9
    return {
        "throughput_per_s": len(lat) / busy_s,
        "latency_p50_ms": q[49] / 1e6,
        "latency_p95_ms": q[94] / 1e6,
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_share": 1 - out["failed"] / len(out["lat"]),
        "setup_s": statistics.median(out["setup_s_all"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]

    steal0 = host_steal_s()
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops, warmup = build_ops(args.workload, args.seed, args.seconds)
        if args.workload == "service_http":
            import gen
            import service

            workers = os.cpu_count() or 1
            out = service.run(
                ROOT,
                work,
                {
                    "workers": workers,
                    "warmup": gen.service_requests(warmup, args.seed),
                    "requests": gen.service_requests(ops, args.seed),
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "setups": SETUPS,
                },
            )
        else:
            out = run_inproc(
                args.workload, ops, warmup, args.seconds, args.trace, work
            )
        counts = exact_count_check(args.workload, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = out["per_layer"] if args.trace else end_to_end(out)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in names
    }
    samples = sum(1 for x in out["lat"] if x is not None)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "beyond_p95": samples - int(0.95 * samples),
        "setups": out["setup_s_all"],
        "steal_s": host_steal_s() - steal0,
        "exact_counts": counts,
        "failures": out["failures"],
    }
    for failure in out["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']:6s}  n={samples}")
    print(f"  set-ups n={len(out['setup_s_all'])}, ops attempted {len(out['lat'])}, "
          f"{detail['beyond_p95']} samples beyond p95, host steal {detail['steal_s']:.2f}s")
    print("perfbench-detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": len(out["lat"]),
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
