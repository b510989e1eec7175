"""Unit and integration tests for forward scalar propagation."""

import pytest

from repro.arraydf.options import AnalysisOptions
from repro.ir.scalarprop import propagate_scalars
from repro.lang.astnodes import Assign, DoLoop, walk_stmts
from repro.lang.parser import parse_program
from repro.lang.prettyprint import expr_str, pretty
from repro.partests.driver import analyze_program
from repro.runtime.interp import run_program


def prop(src):
    return propagate_scalars(parse_program(src))


class TestPropagation:
    def test_simple_chain(self):
        p = prop(
            "program t\nreal a(50)\nread n\nm = n + 1\nq = m * 2\n"
            "do i = 1, q\na(i) = 1.0\nenddo\nend\n"
        )
        loop = next(
            s for s in walk_stmts(p.main_unit.body) if isinstance(s, DoLoop)
        )
        # q propagated through m down to n: hi = 2n + 2
        assert expr_str(loop.hi) == "2 * n + 2"

    def test_reassigned_scalar_not_propagated(self):
        p = prop(
            "program t\nreal a(50)\nread n\nm = n + 1\nm = m + 1\n"
            "do i = 1, m\na(i) = 1.0\nenddo\nend\n"
        )
        loop = next(
            s for s in walk_stmts(p.main_unit.body) if isinstance(s, DoLoop)
        )
        assert expr_str(loop.hi) == "m"

    def test_definition_after_prefix_not_propagated(self):
        p = prop(
            "program t\nreal a(50)\nread n, x\n"
            "if (x > 0) then\ny = 1\nendif\n"
            "m = n + 1\n"
            "do i = 1, m\na(i) = 1.0\nenddo\nend\n"
        )
        loop = next(
            s for s in walk_stmts(p.main_unit.body) if isinstance(s, DoLoop)
        )
        assert expr_str(loop.hi) == "m"

    def test_nonaffine_definition_not_propagated(self):
        p = prop(
            "program t\nreal a(50)\nread n\nm = n * n\n"
            "do i = 1, m\na(i) = 1.0\nenddo\nend\n"
        )
        loop = next(
            s for s in walk_stmts(p.main_unit.body) if isinstance(s, DoLoop)
        )
        assert expr_str(loop.hi) == "m"

    def test_structure_preserved(self):
        src = (
            "program t\nreal a(50)\nread n\nm = n + 1\n"
            "do i = 1, m\na(i) = 1.0\nenddo\nprint a(1)\nend\n"
        )
        original = parse_program(src)
        p = prop(src)
        orig_kinds = [type(s).__name__ for s in walk_stmts(original.main_unit.body)]
        new_kinds = [type(s).__name__ for s in walk_stmts(p.main_unit.body)]
        assert orig_kinds == new_kinds
        orig_nids = [s.nid for s in walk_stmts(original.main_unit.body)]
        new_nids = [s.nid for s in walk_stmts(p.main_unit.body)]
        assert orig_nids == new_nids

    def test_semantics_preserved(self):
        src = (
            "program t\nreal a(50)\nread n\nm = n + 1\nq = m * 2\n"
            "do i = 1, q\na(i) = i * 1.0\nenddo\nprint a(q)\nend\n"
        )
        ref = run_program(parse_program(src), [4])
        got = run_program(prop(src), [4])
        assert got.outputs == ref.outputs
        assert got.main_arrays == ref.main_arrays

    def test_negative_coefficients_render(self):
        p = prop(
            "program t\nreal a(50)\nread n\nm = 10 - n\n"
            "do i = 1, m\na(i) = 1.0\nenddo\nend\n"
        )
        text = pretty(p)
        reparsed = parse_program(text)
        assert reparsed is not None


# a definition reaching a join along one arm only: the else arm
# redefines m, so m is not stable and nothing is propagated
JOIN_SRC = (
    "program p\n"
    "  integer n, m, k\n"
    "  real a(100)\n"
    "  read n\n"
    "  m = n + 1\n"
    "  if (n > 3) then\n"
    "    k = m\n"
    "  else\n"
    "    m = n + 2\n"
    "    k = m\n"
    "  endif\n"
    "  do i = 1, m\n"
    "    a(i) = 0.0\n"
    "  enddo\n"
    "end\n"
)

# a loop-carried redefinition must not propagate into the loop
LOOP_CARRIED_SRC = (
    "program p\n"
    "  integer n, m\n"
    "  real a(100)\n"
    "  read n\n"
    "  m = 2\n"
    "  do i = 1, n\n"
    "    a(m) = 1.0\n"
    "    m = m + 1\n"
    "  enddo\n"
    "end\n"
)

# dead code after a return is still rewritten, deterministically
POST_RETURN_SRC = (
    "subroutine f(x, n)\n"
    "  integer n, m\n"
    "  real x(*)\n"
    "  m = n + 1\n"
    "  return\n"
    "  x(m) = 0.0\n"
    "end\n"
    "program p\n"
    "  integer n\n"
    "  real a(100)\n"
    "  read n\n"
    "  call f(a, n)\n"
    "end\n"
)


class TestControlFlow:
    def test_redefinition_in_one_arm_blocks_propagation(self):
        p = prop(JOIN_SRC)
        assert pretty(p) == pretty(parse_program(JOIN_SRC))
        loop = next(
            s for s in walk_stmts(p.main_unit.body) if isinstance(s, DoLoop)
        )
        assert expr_str(loop.hi) == "m"

    def test_loop_carried_redefinition_not_propagated(self):
        p = prop(LOOP_CARRIED_SRC)
        assert pretty(p) == pretty(parse_program(LOOP_CARRIED_SRC))

    def test_statement_after_return_is_rewritten(self):
        text = pretty(prop(POST_RETURN_SRC))
        assert "x(n + 1) = 0.0" in text
        assert "m = n + 1" in text  # the definition itself stays

    def test_propagation_is_idempotent(self):
        for src in (JOIN_SRC, LOOP_CARRIED_SRC, POST_RETURN_SRC):
            once = propagate_scalars(parse_program(src))
            assert pretty(propagate_scalars(once)) == pretty(once)


class TestAnalysisPrecision:
    """The win scalar propagation buys: relating derived bounds."""

    SRC = """
program t
  integer n, m
  real a(200)
  read n
  m = n + 50
  do i = 1, n
    a(i + m) = a(i) + 1.0
  enddo
end
"""

    def test_with_propagation_parallel(self):
        # m = n + 50 >= n: accesses are disjoint, provable statically
        res = analyze_program(
            parse_program(self.SRC), AnalysisOptions.predicated()
        )
        status = {l.label: l.status for l in res.loops}
        assert status["t:L1"] in ("parallel", "parallel_private")

    def test_without_propagation_needs_runtime_test(self):
        res = analyze_program(
            parse_program(self.SRC),
            AnalysisOptions.predicated().without(scalar_propagation=False),
        )
        status = {l.label: l.status for l in res.loops}
        assert status["t:L1"] == "runtime"
