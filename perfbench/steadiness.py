"""Steadiness check: two interleaved sets of runs of one workload.

    python3 perfbench/steadiness.py --workload NAME [--runs 5] [--seconds S]
                                    [--seed0 1] [--trace 0]

Runs ``run.py`` 2 x ``--runs`` times, alternating set A and set B (A, B,
A, B, ...), every run with its own seed (A: seed0, seed0+2, ...; B:
seed0+1, seed0+3, ...).  For each run it prints the host steal time
(from ``/proc/stat``, over the run) and the sample count behind the
percentiles, so a noisy host interval can be told apart from a noisy
metric.  For each metric it prints each set's median and quartiles, the
set-to-set ratio of medians, and the spread (interquartile range over
median) of all runs together, against the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import host_steal_s  # noqa: E402


def one_run(workload, seed, seconds, trace):
    steal0 = host_steal_s()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed for seed {seed} (exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return {"seed": seed, "steal_s": host_steal_s() - steal0, "detail": detail,
            "result": result, "values": values}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = {"A": [], "B": []}
    for k in range(args.runs):
        for j, name in enumerate("AB"):
            r = one_run(args.workload, args.seed0 + 2 * k + j, args.seconds, args.trace)
            runs[name].append(r)
            vals = " ".join(f"{m['name']}={r['values'][m['name']]:.4g}" for m in metrics)
            print(f"{name} seed={r['seed']:<4d} steal={r['steal_s']:5.2f}s "
                  f"samples={r['detail']['samples']} beyond_p95={r['detail']['beyond_p95']} "
                  f"failed={r['result']['failed']} {vals}", flush=True)
            for failure in r["detail"]["failures"]:
                print(f"  FAILED {failure}", flush=True)

    print(f"\n{'metric':22s} {'A q1/med/q3':>28s} {'B q1/med/q3':>28s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}")
    for m in metrics:
        name = m["name"]
        a = [r["values"][name] for r in runs["A"]]
        b = [r["values"][name] for r in runs["B"]]
        qa, qb = quartiles(a), quartiles(b)
        q1, med, q3 = quartiles(a + b)
        spread = (q3 - q1) / med if med else 0.0
        ratio = qb[1] / qa[1] if qa[1] else 1.0
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            # setup_s has no spread limit, only the set-to-set one
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            steady = name == "setup_s" or spread <= bound / 3
            flag = " ok" if steady and worse <= bound else " WIDE"
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
        print(f"{name:22s} {fmt(qa):>28s} {fmt(qb):>28s} {ratio:7.3f} "
              f"{spread:7.3f} {bound if bound is not None else '-':>6}{flag}")
    steal = [r["steal_s"] for s in runs.values() for r in s]
    print(f"\nhost steal per run: min {min(steal):.2f}s median "
          f"{statistics.median(steal):.2f}s max {max(steal):.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
