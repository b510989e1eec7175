"""Targeted parity tests: bytecode engine vs the reference tree walker.

Every test here runs the *same* program through the shipped bytecode
engine and the test-only tree walker (``tests/runtime/reference.py``) and
asserts the observable behaviour is identical — results, step counts,
loop events, hook call sequences, and (for failing programs) the exact
exception type and message.  The broad suite-wide sweep lives in
``tests/integration/test_bytecode_identity.py``; these are the narrow
pins on the corners where the engines could legitimately diverge:
error paths, the step budget, loop-variable endpoints, integer
coercion, the two-version dispatch, and the conditions under which the
NumPy fast path must fall back to the scalar instruction loop.
"""

import gc
import weakref

import pytest

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.codegen.plan import LoopPlan, ParallelPlan, build_plan
from repro.lang.astnodes import DoLoop, walk_stmts
from repro.lang.parser import parse_program
from repro.machine.simulate import simulate
from repro.partests.driver import analyze_program
from repro.predicates import Atom, LinAtom
from repro.runtime import elpd
from repro.runtime.interp import Interpreter, run_program
from repro.runtime.values import RuntimeError_
from repro.symbolic.affine import AffineExpr
from tests.runtime import reference
from tests.runtime.reference import TreeInterpreter

ENGINES = (Interpreter, TreeInterpreter)


def _run_on(engine, src, inputs=(), plan=None, max_steps=10_000_000):
    perf.reset_all_caches()
    return engine(parse_program(src), inputs, plan=plan, max_steps=max_steps).run()


def both(src, inputs=(), max_steps=10_000_000):
    """Run on both engines; assert full ExecutionResult equality."""
    bc = _run_on(Interpreter, src, inputs, max_steps=max_steps)
    tree = _run_on(TreeInterpreter, src, inputs, max_steps=max_steps)
    assert bc.outputs == tree.outputs
    assert bc.steps == tree.steps
    assert bc.main_scalars == tree.main_scalars
    assert bc.main_arrays == tree.main_arrays
    assert bc.loop_events == tree.loop_events
    return bc


def both_raise(src, inputs=(), max_steps=10_000_000):
    """Both engines must raise the same exception type and message."""
    errs = []
    for engine in ENGINES:
        with pytest.raises((RuntimeError_, KeyError, ValueError)) as ei:
            _run_on(engine, src, inputs, max_steps=max_steps)
        errs.append((type(ei.value), str(ei.value)))
    assert errs[0] == errs[1]
    return errs[0]


class TestErrorParity:
    def test_subscript_out_of_bounds(self):
        typ, msg = both_raise(
            "program t\nreal a(5)\ndo i = 1, 6\na(i) = 1.0\nenddo\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "array a: subscript 6 out of bounds 1..5 in dimension 1"

    def test_subscript_below_one_assumed_dim(self):
        typ, msg = both_raise(
            "program t\n  real a(12)\n  call f(a)\nend\n"
            "subroutine f(v)\n  real v(*)\n  v(0) = 1.0\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "array v: subscript 0 < 1 in assumed dimension 1"

    def test_division_by_zero(self):
        typ, msg = both_raise("program t\nx = 1.0 / (2.0 - 2.0)\nend\n")
        assert typ is RuntimeError_
        assert msg == "division by zero"

    def test_mod_zero_divisor(self):
        typ, msg = both_raise("program t\ninteger k\nx = mod(5, k)\nend\n")
        assert typ is RuntimeError_
        assert msg == "mod with zero divisor"

    def test_input_exhausted(self):
        typ, msg = both_raise("program t\ninteger n, m\nread n, m\nend\n", [7])
        assert typ is RuntimeError_
        assert msg == "read m: input exhausted at position 1"

    def test_zero_step_loop(self):
        typ, msg = both_raise(
            "program t\ninteger k\ndo i = 1, 5, k\nx = 1.0\nenddo\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "loop t:L1: zero step"

    def test_formal_array_needs_whole_array_actual(self):
        typ, msg = both_raise(
            "program t\n  call f(3.0)\nend\n"
            "subroutine f(v)\n  real v(10)\n  v(1) = 1.0\nend\n"
        )
        assert typ is RuntimeError_
        assert msg == "call f: formal array 'v' needs a whole-array actual"

    def test_error_inside_vectorization_candidate(self):
        # a straight-line affine body the vectorizer would take — the
        # out-of-range write must still surface with the tree's message
        typ, msg = both_raise(
            "program t\ninteger n\nreal a(50)\nread n\n"
            "do i = 1, n\na(i + 20) = 1.0\nenddo\nend\n",
            [40],
        )
        assert typ is RuntimeError_
        assert msg == "array a: subscript 51 out of bounds 1..50 in dimension 1"


    def test_error_inside_nest_candidate(self):
        # only the last outer iteration leaves the bounds: the nest
        # program falls back, and the fault surfaces in order
        typ, msg = both_raise(
            "program t\ninteger n\nreal a(40, 4)\nread n\n"
            "do j = 1, 4\n do i = 1, n\n  a(i + 10 * j - 10, j) = 1.0\n"
            " enddo\nenddo\nend\n",
            [12],
        )
        assert typ is RuntimeError_
        assert msg == "array a: subscript 41 out of bounds 1..40 in dimension 1"


class TestStepBudget:
    SRC = (
        "program t\nreal a(100)\n"
        "do i = 1, 100\na(i) = i * 1.0\nenddo\nend\n"
    )

    def test_budget_exceeded_same_message(self):
        typ, msg = both_raise(self.SRC, max_steps=50)
        assert typ is RuntimeError_
        assert msg == "step budget exceeded (50)"

    def test_budget_boundary_exact(self):
        # exactly enough steps: 1 loop tick + 100 body ticks
        result = both(self.SRC, max_steps=101)
        assert result.steps == 101

    def test_budget_forces_scalar_fallback_mid_loop(self):
        # the vectorized path may not batch past the budget: the loop
        # would need 1 + 40 steps but only 30 are allowed, so both
        # engines must die at the same per-iteration step count
        src = (
            "program t\ninteger n\nreal a(50)\nread n\n"
            "do i = 1, n\na(i) = 1.0\nenddo\nend\n"
        )
        typ, msg = both_raise(src, [40], max_steps=30)
        assert typ is RuntimeError_
        assert msg == "step budget exceeded (30)"


    NEST = (
        "program t\nreal a(10, 10)\n"
        "do j = 1, 10\n do i = 1, 10\n  a(i, j) = i * 1.0\n enddo\nenddo\nend\n"
    )

    def test_nest_budget_boundary_exact(self):
        # 1 outer step + 10 x (1 inner step + 10 body steps)
        perf.reset_counters()
        assert both(self.NEST, max_steps=111).steps == 111
        assert perf.counter("rt.vec_nest") == 1

    def test_nest_budget_exceeded_same_message(self):
        typ, msg = both_raise(self.NEST, max_steps=110)
        assert typ is RuntimeError_
        assert msg == "step budget exceeded (110)"


class TestLoopVariableEndpoints:
    def test_past_the_end_value(self):
        result = both(
            "program t\ndo i = 1, 10, 3\nx = i * 1.0\nenddo\nend\n"
        )
        # trips = 4 (1,4,7,10); var holds lo + trips*step
        assert result.main_scalars["i"] == 13

    def test_zero_trip_var_holds_lo(self):
        result = both("program t\ndo i = 5, 2\nx = 1.0\nenddo\nend\n")
        assert result.main_scalars["i"] == 5
        assert result.loop_events[0].iterations == 0

    def test_negative_step(self):
        result = both(
            "program t\nreal a(10)\ndo i = 10, 1, -2\na(i) = i * 1.0\nenddo\nend\n"
        )
        assert result.main_scalars["i"] == 0
        assert result.loop_events[0].iterations == 5


class TestCoercionParity:
    def test_integer_array_reads_truncate(self):
        # array elements store floats; the integer coercion applies on
        # the *read* side of an integer-typed name in both engines
        result = both(
            "program t\ninteger a(5)\ndo i = 1, 5\na(i) = i * 1.5\nenddo\n"
            "print a(2), a(3)\nend\n"
        )
        assert result.outputs == ["3 4.5"]

    def test_integer_scalar_read_and_div(self):
        result = both(
            "program t\ninteger n\nread n\nx = n / 4\n"
            "y = n / 4.0\nprint x, y\nend\n",
            [7],
        )
        # int/int truncates toward zero; int/float does not
        assert result.outputs == ["1 1.75"]

    def test_unset_values_default(self):
        result = both(
            "program t\nreal a(5)\nprint x, a(3)\nend\n"
        )
        assert result.outputs == ["0 0"]


class TestTwoVersionParity:
    SRC = (
        "program t\n"
        "  integer n, k\n"
        "  real a(5000)\n"
        "  read n, k\n"
        "  do i = 1, n\n"
        "    a(i + k) = a(i) + 1.0\n"
        "  enddo\n"
        "end\n"
    )

    def _run(self, engine, inputs):
        program = parse_program(self.SRC)
        plan = build_plan(
            analyze_program(program, AnalysisOptions.predicated())
        )
        assert plan.two_version_count() >= 1
        perf.reset_all_caches()
        return engine(program, inputs, plan=plan).run()

    @pytest.mark.parametrize("inputs", [[200, 3000], [200, 3], [200, 0]])
    def test_two_version_outcome_identical(self, inputs):
        bc = self._run(Interpreter, inputs)
        tree = self._run(TreeInterpreter, inputs)
        assert bc.loop_events == tree.loop_events
        assert bc.main_arrays == tree.main_arrays
        assert bc.steps == tree.steps
        # the runtime test actually dispatched (not left undecided)
        assert bc.loop_events[0].ran_parallel_version is not None

    def test_dispatch_matches_dependence(self):
        # k >= n: disjoint ranges, test passes; 1 <= k < n: test fails
        assert self._run(Interpreter, [200, 3000]).loop_events[0].ran_parallel_version
        assert not self._run(Interpreter, [200, 3]).loop_events[0].ran_parallel_version


class TraceHook:
    """Loop and access hook writing one event stream; a vector block is
    expanded back into the per-iteration events it stands for, and a
    nest block into the inner loop instances as well."""

    def __init__(self):
        self.events = []
        self.blocks = 0
        self.nests = 0

    def enter_loop(self, stmt, frame, ran_parallel):
        # the frame handed to hooks must resolve program state
        assert stmt.label.split(":")[0] == frame.unit.name
        assert set(frame.arrays) == {
            n for n, d in frame.unit.decls.items() if d.is_array
        }
        self.events.append(("enter", stmt.label, ran_parallel))
        return len(self.events)

    def iter_start(self, token, ivalue):
        self.events.append(("iter", token, ivalue))

    def block(self, token, lo, step, trips, accesses, inner=None):
        self.blocks += 1
        self.nests += inner is not None
        for t in range(trips):
            self.iter_start(token, lo + t * step)
            if inner is None:
                for kind, storage, offsets in accesses:
                    self.access(kind, storage, int(offsets[t]))
                continue
            itoken = self.enter_loop(inner.stmt, inner.frame, inner.ran_parallel[t])
            for u in range(inner.trips):
                self.iter_start(itoken, inner.lo + u * inner.step)
                for kind, storage, offsets in accesses:
                    self.access(kind, storage, int(offsets[t, u]))
            self.exit_loop(itoken)

    def exit_loop(self, token):
        self.events.append(("exit", token))

    def access(self, kind, storage, offset):
        self.events.append((kind, storage.name, offset))


class TestHookSequenceParity:
    SRC = (
        "program t\ninteger n\nreal a(40), b(40)\nread n\n"
        "do i = 1, n\n a(i) = b(i) + 1.0\nenddo\n"
        "do i = 2, n\n b(i) = a(i) - b(i - 1)\nenddo\nend\n"
    )
    #: loops the vector programs take, each run on both engines
    BLOCK_SHAPES = {
        "inner vector loop in an outer loop": (
            "program t\ninteger n\nreal a(40, 6), b(40, 6)\nread n\n"
            "do j = 1, 6\n"
            " do i = 1, n\n  a(i, j) = b(i, j) + a(i, j) * 0.5\n enddo\n"
            " b(1, j) = a(2, j)\n"
            "enddo\nend\n"
        ),
        "vectorized callee through a reshaped view": (
            "program t\ninteger n\nreal a(8, 5)\nread n\n"
            "do j = 1, 3\n call f(a, n)\nenddo\nend\n"
            "subroutine f(v, n)\nreal v(40)\ninteger n\n"
            "do i = 1, n\n v(i) = v(i) + i * 1.0\nenddo\nend\n"
        ),
        "two read-only names viewing one buffer": (
            "program t\ninteger n\nreal a(40), c(40)\nread n\n"
            "call g(a, a, c, n)\nend\n"
            "subroutine g(u, w, c, n)\nreal u(40), w(40), c(40)\ninteger n\n"
            "do i = 1, n\n c(i) = u(i) + w(i + 1)\nenddo\nend\n"
        ),
        "invariant subscripts": (
            "program t\ninteger n\nreal a(40), b(40)\nread n\n"
            "do i = 1, n\n b(i) = a(1) + a(i) * a(1)\nenddo\nend\n"
        ),
        "trip count of exactly 8": (
            "program t\ninteger n\nreal a(40), b(40)\nread n\n"
            "do i = 1, 8\n a(i) = b(i + 1)\n b(i + 1) = a(i) * 2.0\nenddo\nend\n"
        ),
        "intrinsics reading one element twice": (
            "program t\ninteger n\nreal a(40), b(40), c(40)\nread n\n"
            "do i = 1, n\n"
            " a(i) = min(b(i), b(i)) + max(b(i), b(i) * 2.0)\n"
            " c(i) = abs(b(i) - b(i)) + mod(b(i), 3.0)\n"
            "enddo\nend\n"
        ),
        "nest: callee through a reshaped view in a repeat loop": (
            "program t\ninteger n\nreal a(200)\nread n\n"
            "do r = 1, 3\n call f(a, n, 6)\nenddo\nend\n"
            "subroutine f(x, p, q)\ninteger p, q\nreal x(p, q)\n"
            "do j = 1, q\n do i = 1, p\n  x(i, j) = i * 1.0 + j\n enddo\n"
            "enddo\nend\n"
        ),
        "nest: init2d in the main unit": (
            "program t\nreal g(12, 12)\n"
            "do j = 1, 12\n do i = 1, 12\n  g(i, j) = i * 1.0 + j\n enddo\n"
            "enddo\nend\n"
        ),
        "nest: inside another loop": (
            "program t\ninteger n\nreal a(40, 6), b(40, 6)\nread n\n"
            "do r = 1, 3\n do j = 1, 6\n  do i = 1, n\n"
            "   a(i, j) = a(i, j) * 0.5 + b(i, j) + r\n"
            "  enddo\n enddo\nenddo\nend\n"
        ),
        "nest: descending steps": (
            "program t\ninteger n\nreal a(40, 4), b(40, 4)\nread n\n"
            "do j = 4, 1, -1\n do i = n, 1, -2\n  b(i, j) = a(i, j) - j\n"
            " enddo\nenddo\nend\n"
        ),
        "nest: inner trip count below 8": (
            "program t\ninteger n\nreal c(3, 40)\nread n\n"
            "do j = 1, n\n do i = 1, 3\n  c(i, j) = i + j * 2.0\n enddo\n"
            "enddo\nend\n"
        ),
        "nest: two reads of an unwritten array": (
            "program t\ninteger n\nreal a(40, 4), b(40, 4)\nread n\n"
            "do j = 2, 4\n do i = 1, n\n"
            "  a(i, j) = b(i, j) + b(i + 1, j - 1)\n"
            " enddo\nenddo\nend\n"
        ),
        "nest: a written array read back": (
            "program t\ninteger n\nreal a(40, 6), b(40, 6)\nread n\n"
            "do j = 1, 6\n do i = 1, n\n  a(i, j) = i * 1.0 + j\n enddo\n"
            "enddo\n"
            "do j = 1, 6\n do i = 1, n\n  a(i, j) = a(i, j) * 2.0 + b(i, j)\n"
            "  b(i, j) = a(i, j) - 1.0\n enddo\nenddo\nend\n"
        ),
        "descending step down to element 1": (
            "program t\ninteger n\nreal a(40), b(40)\nread n\n"
            "do i = n, 1, -1\n a(i) = b(i) * 0.5 + i\nenddo\n"
            "do i = 39, 1, -2\n b(i) = a(i) + 1.0\nenddo\nend\n"
        ),
        "nest: min, max and mod bodies": (
            "program t\ninteger n\nreal a(40, 3), b(40, 3), c(40, 3)\nread n\n"
            "do j = 1, 3\n do i = 1, n\n  b(i, j) = i * 0.5 - j\n enddo\n"
            "enddo\n"
            "do j = 1, 3\n do i = 1, n\n"
            "  a(i, j) = min(b(i, j), 2.0 * j) + max(i * 1.0, b(i, j))\n"
            "  c(i, j) = mod(i + j, 3) * 1.0 + mod(b(i, j), 4.0)\n"
            " enddo\nenddo\nend\n"
        ),
    }
    #: nests that stay on the per-iteration path: the outer loop runs
    #: scalar and its inner loop vectorizes per iteration where it can
    FALLBACK_SHAPES = {
        "triangular inner bound": (
            "program t\ninteger n\nreal a(40, 40)\nread n\n"
            "do j = 1, n\n do i = 1, j\n  a(i, j) = i * 2.0\n enddo\n"
            "enddo\nend\n"
        ),
        "inner bound read from an array": (
            "program t\ninteger n, m(2)\nreal a(40, 4)\nread n\nm(1) = n\n"
            "do j = 1, 4\n do i = 1, m(1)\n  a(i, j) = i * 1.0\n enddo\n"
            "enddo\nend\n"
        ),
        "write not injective over the grid": (
            "program t\ninteger n\nreal a(60), b(40)\nread n\n"
            "do j = 1, 4\n do i = 1, n\n  a(i + j) = b(i) + 1.0\n enddo\n"
            "enddo\nend\n"
        ),
        "write without the outer variable": (
            "program t\ninteger n\nreal a(40), b(40, 4)\nread n\n"
            "do j = 1, 4\n do i = 1, n\n  a(i) = b(i, j) + 1.0\n enddo\n"
            "enddo\nend\n"
        ),
        "second statement in the outer body": (
            "program t\ninteger n\nreal a(40, 4), b(40, 4)\nread n\n"
            "do j = 1, 4\n do i = 1, n\n  a(i, j) = i * 1.0\n enddo\n"
            " b(1, j) = 2.0\nenddo\nend\n"
        ),
        "zero-trip inner loop": (
            "program t\ninteger n\nreal a(40, 4)\nread n\n"
            "do j = 1, 4\n do i = 1, n - 20\n  a(i, j) = i * 1.0\n enddo\n"
            "enddo\nend\n"
        ),
        "zero-trip outer loop": (
            "program t\ninteger n\nreal a(40, 4)\nread n\n"
            "do j = 5, 1\n do i = 1, n\n  a(i, j) = i * 1.0\n enddo\n"
            "enddo\nend\n"
        ),
    }

    def _trace(self, engine, src):
        hook = TraceHook()
        perf.reset_all_caches()
        perf.reset_counters()
        result = engine(
            parse_program(src), [20], access_hook=hook.access, loop_hook=hook
        ).run()
        return result, hook

    def _same_run(self, src):
        bc_result, bc_hook = self._trace(Interpreter, src)
        nests = perf.counter("rt.vec_nest")
        tr_result, tr_hook = self._trace(TreeInterpreter, src)
        assert bc_hook.events == tr_hook.events, src
        assert bc_result.steps == tr_result.steps
        assert bc_result.main_arrays == tr_result.main_arrays
        assert bc_result.main_scalars == tr_result.main_scalars
        assert bc_result.loop_events == tr_result.loop_events
        assert bc_hook.nests == nests
        return bc_hook

    def test_identical_hook_streams(self):
        self._same_run(self.SRC)
        for name, src in self.BLOCK_SHAPES.items():
            hook = self._same_run(src)
            assert hook.blocks > 0, name
            assert (hook.nests > 0) == name.startswith("nest:"), name
        # reads precede the write within each first-loop iteration
        _result, hook = self._trace(Interpreter, self.SRC)
        first = [e for e in hook.events if e[1] in ("a", "b")][:2]
        assert first == [("r", "b", 0), ("w", "a", 0)]

    def test_fallback_nests_keep_the_per_iteration_path(self):
        for name, src in self.FALLBACK_SHAPES.items():
            hook = self._same_run(src)
            assert hook.nests == 0, name
            # the inner loop vectorized one outer iteration at a time
            assert (hook.blocks > 0) != name.startswith("zero-trip"), name

    def test_nest_sets_counters(self):
        # rt.vec_nest counts nest programs; rt.vec_loop counts the inner
        # instances they ran, as the per-iteration path would
        perf.reset_all_caches()
        perf.reset_counters()
        run_program(parse_program(self.BLOCK_SHAPES["nest: init2d in the main unit"]))
        assert perf.counter("rt.vec_nest") == 1
        assert perf.counter("rt.vec_loop") == 12

    @staticmethod
    def _labels(src):
        program = parse_program(src)
        return [
            s.label
            for unit in program.units.values()
            for s in walk_stmts(unit.body)
            if isinstance(s, DoLoop)
        ]

    def test_elpd_verdicts_match_reference_on_block_shapes(self):
        shapes = {**self.BLOCK_SHAPES, **self.FALLBACK_SHAPES}
        for name, src in shapes.items():
            # every loop instrumented, then each loop alone: a nest's
            # inner or outer level without the other
            for targets in [None, *([label] for label in self._labels(src))]:
                got = []
                for module in (elpd, reference):
                    perf.reset_all_caches()
                    perf.reset_counters()
                    report = module.run_elpd(parse_program(src), [20], targets)
                    got.append((
                        {
                            label: (
                                obs.classification,
                                obs.instances,
                                obs.total_iterations,
                                obs.conflict_arrays,
                                obs.flow_arrays,
                            )
                            for label, obs in report.observations.items()
                        },
                        report.steps,
                        perf.counter("elpd.shadow.elements"),
                    ))
                assert got[0] == got[1], (name, targets)


class TestNestCostModel:
    """``simulate()`` on nest programs equals the reference interpreter
    driving the same cost hook, whatever the plan says of the inner
    loop."""

    SRC = TestHookSequenceParity.BLOCK_SHAPES["nest: inside another loop"]

    @staticmethod
    def _plan(program, **modes):
        """A hand-made plan: ``L<k>=(mode, test, enclosed)`` per loop."""
        loops = {}
        for unit in program.units.values():
            for s in walk_stmts(unit.body):
                spec = isinstance(s, DoLoop) and modes.get(s.label.split(":")[1])
                if spec:
                    mode, pred, enclosed = spec
                    loops[s.nid] = LoopPlan(
                        s.label, s.nid, mode, pred, 2 if pred else 0,
                        enclosed=enclosed,
                    )
        return ParallelPlan(program, loops)

    @staticmethod
    def _test(lhs, rhs):
        return Atom(LinAtom.le(lhs, rhs))

    def plans(self, program):
        n, j = AffineExpr.var("n"), AffineExpr.var("j")
        passing = self._test(n, AffineExpr.const(100))
        failing = self._test(AffineExpr.const(100), n)
        outer_var = self._test(j, AffineExpr.const(2))
        return {
            "inner parallel": self._plan(program, L3=("parallel", None, False)),
            "inner enclosed": self._plan(
                program,
                L2=("parallel", None, False),
                L3=("parallel", None, True),
            ),
            "inner test passes": self._plan(
                program, L3=("two_version", passing, False)
            ),
            "inner test fails": self._plan(
                program, L3=("two_version", failing, False)
            ),
            "inner test reads the outer variable": self._plan(
                program,
                L1=("two_version", passing, False),
                L3=("two_version", outer_var, False),
            ),
        }

    def _both(self, program, plan):
        perf.reset_all_caches()
        perf.reset_counters()
        got = simulate(program, plan, [20])
        assert perf.counter("rt.vec_nest") == 3  # one nest per r iteration
        return got, reference.simulate(program, plan, [20])

    def test_machine_results_match_reference(self):
        program = parse_program(self.SRC)
        for name, plan in self.plans(program).items():
            got, want = self._both(program, plan)
            assert got == want, name
            events = [
                _run_on(engine, self.SRC, [20], plan=plan).loop_events
                for engine in ENGINES
            ]
            assert events[0] == events[1], name

    def test_outer_variable_test_decides_each_instance(self):
        program = parse_program(self.SRC)
        plan = self.plans(program)["inner test reads the outer variable"]
        got, _want = self._both(program, plan)
        inner = [i for i in got.instances if i.label == "t:L3"]
        # j = 1, 2 pass and j = 3..6 fail, in each of 3 r iterations
        assert len(inner) == 6
        assert all(i.iterations == 20 and i.serial_work == 20.0 for i in inner)
        assert got.failed_test_atoms == 12 * 2

    def test_callee_nest_under_the_analysis_plan(self):
        src = TestHookSequenceParity.BLOCK_SHAPES[
            "nest: callee through a reshaped view in a repeat loop"
        ]
        program = parse_program(src)
        plan = build_plan(analyze_program(program, AnalysisOptions.predicated()))
        perf.reset_counters()
        got = simulate(program, plan, [20])
        assert perf.counter("rt.vec_nest") == 3
        assert got == reference.simulate(program, plan, [20])


class TestVectorizedPath:
    VEC_SRC = (
        "program t\ninteger n\nreal a(200), b(200)\nread n\n"
        "do i = 1, n\na(i) = b(i) * 0.5 + 1.0\nenddo\nend\n"
    )

    def _vec_count(self, src, inputs):
        """Run on the bytecode engine; return the rt.vec_loop delta."""
        perf.reset_all_caches()
        perf.reset_counters()
        run_program(parse_program(src), inputs)
        return perf.counter("rt.vec_loop")

    def test_affine_body_vectorizes(self):
        assert self._vec_count(self.VEC_SRC, [200]) == 1
        both(self.VEC_SRC, [200])

    def test_small_trip_counts_stay_scalar(self):
        # below _VEC_MIN_TRIPS the batch setup is not worth it
        assert self._vec_count(self.VEC_SRC, [4]) == 0
        both(self.VEC_SRC, [4])

    def test_recurrence_falls_back(self):
        src = (
            "program t\ninteger n\nreal a(200)\nread n\n"
            "do i = 2, n\na(i) = a(i - 1) + 1.0\nenddo\nend\n"
        )
        assert self._vec_count(src, [200]) == 0
        result = both(src, [200])
        assert result.main_arrays["a"][199] == 199.0

    def test_aliased_actuals_fall_back(self):
        # both formals are views of the same buffer: the per-statement
        # gather/scatter ordering is only safe without cross-name
        # aliasing, so the callee loop must run scalar
        src = (
            "program t\n  integer n\n  real a(200)\n  read n\n"
            "  call f(a, a, n)\nend\n"
            "subroutine f(u, v, n)\n  real u(200)\n  real v(200)\n"
            "  integer n\n  do i = 2, n\n    u(i) = v(i - 1) + 1.0\n"
            "  enddo\nend\n"
        )
        assert self._vec_count(src, [200]) == 0
        result = both(src, [200])
        # sequential semantics: each write feeds the next read
        assert result.main_arrays["a"][199] == 199.0

    def test_access_hook_alone_stays_scalar(self):
        # an access hook without a loop hook observes every element
        # access in order, so the vector programs stay out of its runs
        perf.reset_all_caches()
        perf.reset_counters()
        seen = []
        Interpreter(
            parse_program(self.VEC_SRC),
            [200],
            access_hook=lambda k, s, o: seen.append((k, s.name, o)),
        ).run()
        assert perf.counter("rt.vec_loop") == 0
        assert len(seen) == 400  # one read + one write per iteration

    def test_loop_hooked_runs_vectorize_in_blocks(self):
        # with a loop hook, the vector program runs and the hook gets
        # one block call carrying what the scalar loop would report
        perf.reset_all_caches()
        perf.reset_counters()
        hook = TraceHook()
        Interpreter(
            parse_program(self.VEC_SRC),
            [200],
            access_hook=hook.access,
            loop_hook=hook,
        ).run()
        assert perf.counter("rt.vec_loop") == 1
        assert hook.blocks == 1
        kinds = [e[0] for e in hook.events]
        assert kinds.count("iter") == 200
        assert kinds.count("r") == kinds.count("w") == 200

    def test_min_max_first_on_ties(self):
        # min/max pick the first argument on ties in the tree walker;
        # the vectorized np.where must preserve that
        src = (
            "program t\ninteger n\nreal a(100), b(100)\nread n\n"
            "do i = 1, n\nb(i) = 2.0\nenddo\n"
            "do i = 1, n\na(i) = max(b(i), 2.0) + min(1.0 * i, b(i))\nenddo\n"
            "end\n"
        )
        both(src, [100])

    def test_mod_intrinsic_vectorizes(self):
        src = (
            "program t\ninteger n, a(100)\nread n\n"
            "do i = 1, n\na(i) = mod(i * 7, 5)\nenddo\nend\n"
        )
        assert self._vec_count(src, [100]) == 1
        result = both(src, [100])
        assert result.main_arrays["a"][0] == 2  # mod(7, 5)


class TestStorageModel:
    """The dense buffer and written-element mask (``runtime/values.py``)
    against the tree walker: a write past an actual's end grows the
    shared buffer, a vector site past the buffer runs the scalar loop,
    and a snapshot lists the written offsets only."""

    @staticmethod
    def _run(src, inputs=()):
        """The result on both engines (asserted equal) and the bytecode
        run's vector-path counters."""
        perf.reset_counters()
        result = both(src, inputs)
        return result, {
            name: perf.counter(f"rt.{name}")
            for name in ("vec_loop", "vec_nest", "vec_fallback")
        }

    def test_write_past_an_assumed_size_actual(self):
        src = (
            "program t\nreal a(10)\ncall f(a)\ncall g(a)\nend\n"
            "subroutine f(v)\nreal v(*)\nv(15) = 2.5\nv(3) = v(15) + v(20)\nend\n"
            "subroutine g(w)\nreal w(*)\nprint w(15), w(3), w(12)\nend\n"
        )
        result, _vec = self._run(src)
        # the main snapshot lists the element past a's end, a later
        # call reads it, and an element past it never written reads 0
        assert result.main_arrays["a"] == {14: 2.5, 2: 2.5}
        assert result.outputs == ["2.5 2.5 0"]

    def test_write_through_a_formal_larger_than_its_actual(self):
        src = (
            "program t\ninteger n\nreal a(10)\nread n\n"
            "call f(a, n)\ncall f(a, n)\nend\n"
            "subroutine f(v, n)\ninteger n\nreal v(30)\n"
            "do i = 1, n\n v(i) = v(i) + i\nenddo\nprint v(25)\nend\n"
        )
        result, vec = self._run(src, [30])
        # the first call's site reaches past a's buffer and runs
        # scalar, which grows it; the second call's fits and vectorizes
        assert vec == {"vec_loop": 1, "vec_nest": 0, "vec_fallback": 1}
        assert result.main_arrays["a"] == {k: 2.0 * (k + 1) for k in range(30)}
        assert result.outputs == ["25", "50"]

    def test_read_site_past_the_buffer_runs_scalar(self):
        src = (
            "program t\ninteger n\nreal a(10), b(40)\nread n\n"
            "do i = 1, 10\n a(i) = i * 1.0\nenddo\n"
            "call f(a, b, n)\nend\n"
            "subroutine f(v, b, n)\ninteger n\nreal v(*), b(40)\n"
            "do i = 1, n\n b(i) = v(i) * 2.0\nenddo\nend\n"
        )
        result, vec = self._run(src, [20])
        assert vec == {"vec_loop": 1, "vec_nest": 0, "vec_fallback": 1}
        # elements past a's end read 0.0, and written zeros are listed
        assert result.main_arrays["b"] == {
            k: 2.0 * (k + 1) if k < 10 else 0.0 for k in range(20)
        }

    def test_partly_written_main_array(self):
        src = (
            "program t\ninteger n\nreal a(100)\nread n\n"
            "do i = 1, n\n a(2 * i) = i * 1.0 - 3.0\nenddo\n"
            "a(99) = 0.0\nend\n"
        )
        result, vec = self._run(src, [20])
        assert vec["vec_loop"] == 1
        assert result.main_arrays["a"] == {
            **{2 * i - 1: i - 3.0 for i in range(1, 21)}, 98: 0.0
        }

    @pytest.mark.parametrize(
        "name", ["descending step down to element 1", "nest: a written array read back"]
    )
    def test_vector_shapes_without_hooks(self, name):
        result, vec = self._run(TestHookSequenceParity.BLOCK_SHAPES[name], [20])
        assert vec["vec_fallback"] == 0
        assert vec["vec_nest" if name.startswith("nest:") else "vec_loop"] == 2
        assert len(result.main_arrays["b"]) == (120 if vec["vec_nest"] else 20)


class TestCompileCache:
    def test_callee_compiles_once_per_run(self):
        # two call sites, one compiled callee: units compile on first
        # use and stay for the rest of the run
        program = parse_program(
            "program t\nreal a(10)\ncall f(a)\ncall f(a)\nend\n"
            "subroutine f(v)\nreal v(10)\nv(1) = v(1) + 1.0\nend\n"
        )
        perf.reset_counters()
        result = Interpreter(program).run()
        assert result.main_arrays["a"] == {0: 2.0}
        assert perf.counter("rt.compile_unit") == 2  # t and f
        Interpreter(program).run()
        assert perf.counter("rt.compile_unit") == 4  # nothing kept

    def test_finished_run_keeps_no_program_alive(self):
        # compiled code refers to its program: a cache that outlived
        # the run would keep every finished program in memory
        program = parse_program(
            "program t\nreal a(10)\ncall f(a)\nend\n"
            "subroutine f(v)\nreal v(10)\n"
            "do i = 1, 10\nv(i) = 1.0\nenddo\nend\n"
        )
        Interpreter(program).run()
        ref = weakref.ref(program)
        del program
        gc.collect()
        assert ref() is None

    def test_finished_runs_leave_no_code_cycles(self):
        # a unit's op closures hold its _Ctx and _Ctx.code holds the
        # ops; the run breaks that cycle, so reference counting alone
        # frees each run's compiled code
        from repro.runtime.bytecode import _CompiledUnit, _Ctx
        from repro.suites import all_programs

        benches = all_programs()[:10]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for bench in benches:
                run_program(bench.fresh_program(), bench.inputs)
                elpd.run_oracle(bench.fresh_program(), bench.inputs)
            gc.collect()
            leaked = [
                type(o).__name__
                for o in gc.garbage
                if isinstance(o, (_CompiledUnit, _Ctx))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert leaked == []
