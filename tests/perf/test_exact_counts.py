"""Exact work counts of the suite, pinned.

Each of the 30 suite programs runs from a cold start
(``perf.reset_all_caches()``) through
``run_pipeline(..., goals=("result", "transformed"))``, under predicated
and base options.  Each program's deltas of the substrate-work counters
below must equal the committed ``exact_counts.json``.  Under predicated
options the record also holds ``runtime.steps``: the steps of the
original run, the two-version run and ``run_oracle``, summed as
perfbench's ``check_campaign`` sums them.  The counts do not depend on
the machine, the load or the hash seed, so, unlike a timing gate, this
one means the same on any host.

A change that moves a count on purpose regenerates the record and
states the delta::

    PYTHONPATH=src python tests/perf/test_exact_counts.py \\
        > tests/perf/exact_counts.json
"""

import json
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.pipeline import run_pipeline
from repro.runtime.elpd import run_oracle
from repro.runtime.interp import run_program
from repro.suites import all_programs

RECORD = Path(__file__).with_name("exact_counts.json")

#: the counters perfbench's exact-count self-check reads
COUNTERS = (
    "fm.eliminate",
    "feasibility.ground",
    "pred.oracle.tier0",
    "pred.oracle.tier1",
    "pred.oracle.tier2",
)

OPTIONS = {
    "predicated": AnalysisOptions.predicated,
    "base": AnalysisOptions.base,
}


def suite_counts(which: str) -> dict:
    """``program -> {counter: delta}`` under the options named *which*."""
    opts = OPTIONS[which]()
    out = {}
    try:
        for bench in all_programs():
            perf.reset_all_caches()
            before = perf.snapshot()
            program = bench.fresh_program()
            ctx = run_pipeline(program, opts, goals=("result", "transformed"))
            steps = None
            if which == "predicated":
                steps = (
                    run_program(program, bench.inputs).steps
                    + run_program(ctx.get("transformed"), bench.inputs).steps
                    + run_oracle(program, bench.inputs).steps
                )
            after = perf.snapshot()
            row = {
                name: after["counters"].get(name, 0)
                - before["counters"].get(name, 0)
                for name in COUNTERS
            }
            row["ops.total"] = after["total_ops"] - before["total_ops"]
            if steps is not None:
                row["runtime.steps"] = steps
            out[bench.name] = row
    finally:
        perf.reset_all_caches()
    return out


@pytest.mark.parametrize("which", list(OPTIONS))
def test_suite_exact_counts(which):
    want = json.loads(RECORD.read_text())[which]
    got = suite_counts(which)
    assert sorted(got) == sorted(want)
    moved = [
        f"{name} {key}: {want[name].get(key)} -> {got[name].get(key)}"
        for name in sorted(got)
        for key in sorted(set(got[name]) | set(want[name]))
        if got[name].get(key) != want[name].get(key)
    ]
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    json.dump(
        {which: suite_counts(which) for which in OPTIONS},
        sys.stdout,
        indent=1,
        sort_keys=True,
    )
    sys.stdout.write("\n")
