"""Bit-identity of every suite program against the reference runtime.

The bytecode engine and the ELPD hook's dense shadows are pure cost
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

import os
import struct
import subprocess
import sys
from pathlib import Path

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
ROOT = Path(__file__).resolve().parents[2]


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


def suite_facts():
    """``run_program`` and ``run_oracle`` facts of every suite program."""
    from repro.runtime.interp import run_program

    facts = []
    for bench in all_programs():
        perf.reset_all_caches()
        run = _facts(run_program(bench.fresh_program(), bench.inputs))
        facts.append((bench.name, run, _oracle(elpd.run_oracle, bench)))
    return facts


#: runs :func:`suite_facts` with every ``numpy`` import failing
_NO_NUMPY = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")
        return None

sys.meta_path.insert(0, NoNumpy())
from repro.runtime import bytecode, elpd
assert bytecode._np is None and elpd._np is None
from tests.integration.test_bytecode_identity import suite_facts
print(repr(suite_facts()))
"""


def test_numpy_free_runtime_identical():
    """Without NumPy the runtime runs every loop scalar and ELPD
    classifies in plain Python: same results, same reports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == repr(suite_facts())
