"""Micro-benchmarks of the runtime: the bytecode engine and ELPD.

Each workload runs from cold caches on a deterministic program and
inputs, and records its deterministic run facts (step counts, loop-event
counts, ELPD verdict tallies) in ``extra_info``.  Both are checked
against the test-only reference runtime by the differential suites
(``tests/runtime/test_bytecode_fuzz.py``,
``tests/integration/test_bytecode_identity.py``).

The exec workload mixes a vectorizable inner loop with a recurrence the
vectorizer must reject (``b(i) = ... b(i-1)``), so both the NumPy fast
path and the scalar instruction loop are on the clock.  The ELPD
workload runs with both hooks: its vectorizable loop runs the vector
program and hands ELPD one access block, its recurrence runs scalar
through the compiled-in access hooks, and the shadow updates, the
blocks and each loop instance's classification and fold are what is
being measured.  Three more ELPD workloads cover the shadows' regimes:
a time loop around two large vector loops (NumPy block updates), a
3-deep scalar nest (per-access updates and a fold at every inner
exit) and a nest of small vector loops (the plain-Python block path).
"""

from repro import perf
from repro.lang.parser import parse_program
from repro.runtime.elpd import run_elpd
from repro.runtime.interp import run_program

EXEC_SRC = (
    "program t\n"
    "integer n\n"
    "real a(2000)\n"
    "real b(2000)\n"
    "read n\n"
    "do r = 1, 10\n"
    " do i = 1, n\n"
    "  a(i) = a(i) * 0.5 + b(i) + 1.0\n"
    " enddo\n"
    " do i = 2, n\n"
    "  b(i) = a(i) - b(i - 1) * 0.25\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
EXEC_INPUTS = [2000]

ELPD_SRC = (
    "program t\n"
    "integer n\n"
    "real a(600)\n"
    "real w(600)\n"
    "read n\n"
    "do r = 1, 3\n"
    " do i = 1, n\n"
    "  w(i) = a(i) + 1.0\n"
    "  a(i) = w(i) * 0.5\n"
    " enddo\n"
    " do i = 2, n\n"
    "  a(i) = a(i - 1) + 1.0\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
ELPD_INPUTS = [600]

TIME_SRC = (
    "program t\n"
    "integer n\n"
    "real a(3000)\n"
    "real b(3000)\n"
    "real c(3000)\n"
    "read n\n"
    "do r = 1, 30\n"
    " do i = 1, n\n"
    "  a(i) = b(i) * 0.5 + c(i)\n"
    " enddo\n"
    " do i = 1, n\n"
    "  c(i) = a(i) + 1.0\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
TIME_INPUTS = [3000]

SCALAR_SRC = (
    "program t\n"
    "integer n\n"
    "real a(30, 30)\n"
    "real b(30)\n"
    "read n\n"
    "do k = 1, n\n"
    " do j = 1, n\n"
    "  do i = 2, n\n"
    "   a(i, j) = a(i - 1, j) + b(k)\n"
    "  enddo\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
SCALAR_INPUTS = [30]

SMALL_SRC = (
    "program t\n"
    "integer n\n"
    "real a(12, 12)\n"
    "real w(12)\n"
    "read n\n"
    "do j = 1, n\n"
    " do i = 1, n\n"
    "  w(i) = a(i, j) * 2.0\n"
    " enddo\n"
    " do i = 1, n\n"
    "  a(i, j) = w(i) + 1.0\n"
    " enddo\n"
    "enddo\n"
    "end\n"
)
SMALL_INPUTS = [12]


def _exec_facts():
    """Deterministic facts of one exec run."""
    program = parse_program(EXEC_SRC)
    result = run_program(program, EXEC_INPUTS)
    return {
        "steps": result.steps,
        "loop_events": len(result.loop_events),
        "outputs": len(result.outputs),
    }


def _elpd_facts(src=ELPD_SRC, inputs=ELPD_INPUTS):
    """Deterministic facts of one ELPD run."""
    report = run_elpd(parse_program(src), inputs)
    classes = [o.classification for o in report.observations.values()]
    return {
        "elpd.steps": report.steps,
        "elpd.observed": len(report.observations),
        "elpd.dependent": sum(1 for c in classes if c == "dependent"),
        "elpd.parallel": len(report.parallelizable_labels()),
    }


def _bench(benchmark, facts_fn):
    """Time *facts_fn* from cold caches; record the facts of one run."""

    def probe():
        perf.reset_all_caches()
        return facts_fn()

    for key, value in sorted(probe().items()):
        benchmark.extra_info[key] = value
    return benchmark(probe)


def test_runtime_exec_bytecode(benchmark):
    facts = _bench(benchmark, _exec_facts)
    assert facts["steps"] > 20000


def test_runtime_elpd_bytecode(benchmark):
    facts = _bench(benchmark, _elpd_facts)
    assert facts["elpd.dependent"] >= 1


def test_runtime_elpd_time_loop(benchmark):
    facts = _bench(benchmark, lambda: _elpd_facts(TIME_SRC, TIME_INPUTS))
    assert facts["elpd.dependent"] == 1


def test_runtime_elpd_scalar_nest(benchmark):
    facts = _bench(benchmark, lambda: _elpd_facts(SCALAR_SRC, SCALAR_INPUTS))
    assert facts["elpd.dependent"] == 1


def test_runtime_elpd_small_blocks(benchmark):
    facts = _bench(benchmark, lambda: _elpd_facts(SMALL_SRC, SMALL_INPUTS))
    assert facts["elpd.dependent"] == 0
