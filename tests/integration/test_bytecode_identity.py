"""Bit-identity of every suite program against the reference runtime.

The bytecode engine and the packed ELPD shadow are pure cost
optimizations: for each of the suite programs (the paper's benchmark
set) the full ``ExecutionResult`` — printed output, step count, final
scalar and array state down to the IEEE-754 bit pattern, and the
loop-event stream including two-version dispatch outcomes under a real
``ParallelPlan`` — must match the test-only tree walker
(``tests/runtime/reference.py``) exactly, and the ELPD / combined-oracle
reports (the dynamic ground truth the paper's tables compare against)
must match its per-element shadow too.  Any divergence here would mean
the experiment figures depend on an implementation detail.
"""

import struct

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.plan import build_plan
from repro.partests.driver import analyze_program
from repro.runtime import elpd
from repro.runtime.interp import Interpreter
from repro.suites import all_programs
from tests.runtime import reference

PROGRAMS = [b.name for b in all_programs()]


def _bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return ("i", value)


def _facts(result):
    return {
        "outputs": result.outputs,
        "steps": result.steps,
        "scalars": {n: _bits(v) for n, v in result.main_scalars.items()},
        "scalar_order": list(result.main_scalars),
        "arrays": {
            name: sorted((off, _bits(v)) for off, v in cells.items())
            for name, cells in result.main_arrays.items()
        },
        "loop_events": [
            (e.label, e.nid, e.iterations, e.ran_parallel_version)
            for e in result.loop_events
        ],
    }


def _run(engine, program, inputs, plan=None):
    perf.reset_all_caches()
    return _facts(engine(program, inputs, plan=plan).run())


def _oracle(fn, bench):
    perf.reset_all_caches()
    return _report_facts(fn(bench.fresh_program(), bench.inputs))


def _report_facts(report):
    return {
        "steps": report.steps,
        "observations": {
            label: (
                obs.classification,
                obs.instances,
                obs.total_iterations,
                sorted(obs.conflict_arrays),
                sorted(obs.flow_arrays),
            )
            for label, obs in report.observations.items()
        },
    }


@pytest.mark.parametrize("name", PROGRAMS)
def test_execution_identity(name):
    bench = next(b for b in all_programs() if b.name == name)
    program = bench.fresh_program()
    plan = build_plan(analyze_program(program, AnalysisOptions.predicated()))

    engines = (Interpreter, reference.TreeInterpreter)
    plain = [_run(e, program, bench.inputs) for e in engines]
    assert plain[0] == plain[1], f"{name}: plain run diverged"

    planned = [_run(e, program, bench.inputs, plan) for e in engines]
    assert planned[0] == planned[1], f"{name}: planned run diverged"


@pytest.mark.parametrize("name", PROGRAMS)
def test_oracle_identity(name):
    bench = next(b for b in all_programs() if b.name == name)
    modules = (elpd, reference)
    shadow = [_oracle(m.run_elpd, bench) for m in modules]
    assert shadow[0] == shadow[1], f"{name}: ELPD report diverged"

    oracle = [_oracle(m.run_oracle, bench) for m in modules]
    assert oracle[0] == oracle[1], f"{name}: oracle report diverged"
