"""Print one hash per program of everything the analysis and the runtime
observably do.

    python scripts/digest.py [--seeds 7 8] [--count 1000] [--cold]

The programs are the 30 suite programs, then
``Generator(seed).programs(count)`` from ``perfbench/gen.py`` for each
seed.  Each output line is ``<program name> <hash>``.  The hash covers:

* the analysis under predicated and under base options: each loop's
  decision row (label, status, condition, reason, enclosed, run-time
  test, private arrays, private and reduction scalars), the
  ``format_report`` text without its timing (copy-in regions included)
  and the pretty-printed two-version program;
* the ``run_program`` result: outputs, steps, the final main scalars
  and arrays (floats as IEEE-754 bit patterns) and the loop events;
* the ``run_oracle`` report: each loop's classification, instances,
  iterations and conflict and flow arrays, the report's steps, and the
  run's ``elpd.shadow.elements`` delta;
* for each of those two runs, its ``rt.vec_loop``, ``rt.vec_nest`` and
  ``rt.vec_fallback`` deltas, so equal hashes also mean that the same
  loops took the vector path.

A step that raises hashes the exception's type and message instead.
Run it from the repository root at two commits and diff the output: a
change that keeps behaviour identical prints the same lines.

``--cold`` calls ``perf.reset_all_caches()`` before each program, so
every program runs on empty memo tables.  Diffing the default output
against ``--cold`` output at one commit checks that warm state (memo
tables filled by the programs before) changes no byte of any decision
row, two-version program or runtime fact.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

#: the report's one run-dependent field
_TIMING = re.compile(r"analysis: [0-9.]+ ms")


#: the runtime's vector-path counters
_VEC = ("rt.vec_loop", "rt.vec_nest", "rt.vec_fallback")


def _counted(names, run):
    """``run()``, and the deltas of the counters *names* over it."""
    from repro import perf

    before = [perf.counter(name) for name in names]
    out = run()
    return out, [perf.counter(name) - b for name, b in zip(names, before)]


def _bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value).hex())
    return ("i", value)


def analysis_facts(program, _inputs):
    from repro.arraydf.options import AnalysisOptions
    from repro.codegen.report import format_report
    from repro.lang.prettyprint import pretty
    from repro.pipeline import run_pipeline

    facts = []
    for opts in (AnalysisOptions.predicated(), AnalysisOptions.base()):
        ctx = run_pipeline(program, opts, goals=("result", "transformed"))
        result = ctx.get("result")
        facts.append(
            (
                [
                    (
                        l.label,
                        l.status,
                        str(l.condition),
                        l.reason,
                        l.enclosed,
                        str(l.runtime_test),
                        l.private_arrays,
                        l.private_scalars,
                        l.reduction_scalars,
                    )
                    for l in result.loops
                ],
                _TIMING.sub("", format_report(result)),
                pretty(ctx.get("transformed")),
            )
        )
    return facts


def run_facts(program, inputs):
    from repro.runtime.interp import run_program

    result, vec = _counted(_VEC, lambda: run_program(program, inputs))
    return (
        vec,
        result.outputs,
        result.steps,
        sorted((n, _bits(v)) for n, v in result.main_scalars.items()),
        sorted(
            (name, sorted((off, _bits(v)) for off, v in cells.items()))
            for name, cells in result.main_arrays.items()
        ),
        [
            (e.label, e.nid, e.iterations, e.ran_parallel_version)
            for e in result.loop_events
        ],
    )


def oracle_facts(program, inputs):
    from repro.runtime.elpd import run_oracle

    report, (shadow, *vec) = _counted(
        ("elpd.shadow.elements", *_VEC), lambda: run_oracle(program, inputs)
    )
    return (
        vec,
        sorted(
            (
                label,
                obs.classification,
                obs.instances,
                obs.total_iterations,
                sorted(obs.conflict_arrays),
                sorted(obs.flow_arrays),
            )
            for label, obs in report.observations.items()
        ),
        report.steps,
        shadow,
    )


def digest(source, inputs, cold=False) -> str:
    from repro import perf
    from repro.lang.parser import parse_program

    if cold:
        perf.reset_all_caches()
    facts = []
    for observe in (analysis_facts, run_facts, oracle_facts):
        try:
            facts.append(observe(parse_program(source), inputs))
        except Exception as exc:  # a fault is part of the behaviour
            facts.append((type(exc).__name__, str(exc)))
    perf.enforce_memo_caps()
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[7, 8])
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument(
        "--cold",
        action="store_true",
        help="reset every memo table before each program",
    )
    args = parser.parse_args(argv)

    import gen

    programs = [(op["name"], op["source"], op["inputs"]) for op in gen.suite_ops()]
    for seed in args.seeds:
        ops = gen.Generator(seed).programs(args.count)
        programs += [
            (f"s{seed}/{op['name']}", op["source"], op["inputs"]) for op in ops
        ]
    for name, source, inputs in programs:
        print(name, digest(source, inputs, args.cold), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
