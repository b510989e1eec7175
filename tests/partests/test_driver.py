"""End-to-end tests of the parallelization driver on canonical loops."""

import pytest

from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program

OPTS = AnalysisOptions.predicated()
BASE = AnalysisOptions.base()


def statuses(src, opts=OPTS):
    res = analyze_program(parse_program(src), opts)
    return {l.label: l for l in res.loops}


class TestBasicOutcomes:
    def test_independent_loop(self):
        ls = statuses(
            "program t\ninteger n\nreal a(100)\nread n\n"
            "do i = 1, n\n a(i) = 1.0\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "parallel"

    def test_carried_dependence_serial(self):
        ls = statuses(
            "program t\ninteger n\nreal a(100)\nread n\n"
            "do i = 2, n\n a(i) = a(i - 1)\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "serial"

    def test_io_not_candidate(self):
        ls = statuses(
            "program t\ninteger n\nread n\n"
            "do i = 1, n\n print i\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "not_candidate"
        assert ls["t:L1"].reason == "io"

    def test_nonconstant_step_not_candidate(self):
        ls = statuses(
            "program t\ninteger n, k\nreal a(100)\nread n, k\n"
            "do i = 1, n, k\n a(i) = 1.0\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "not_candidate"
        assert ls["t:L1"].reason == "step"

    def test_variant_bounds_not_candidate(self):
        ls = statuses(
            "program t\ninteger n\nreal a(100)\nread n\n"
            "do i = 1, n\n n = n - 1\n a(i) = 1.0\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "not_candidate"
        assert ls["t:L1"].reason == "bounds"

    def test_reduction_allowed(self):
        ls = statuses(
            "program t\ninteger n\nreal a(100)\nread n\ns = 0.0\n"
            "do i = 1, n\n s = s + a(i)\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "parallel_private"
        assert ls["t:L1"].reduction_scalars == ["s"]

    def test_scalar_dependence_serial(self):
        # s carries a genuine recurrence (not a recognized reduction)
        ls = statuses(
            "program t\ninteger n\nreal a(100)\nread n\ns = 1.0\n"
            "do i = 1, n\n s = s * 2.0 + a(i)\n a(i) = s\nenddo\nend\n"
        )
        assert ls["t:L1"].status == "serial"
        assert "scalar" in ls["t:L1"].reason

    def test_private_scalar_ok(self):
        ls = statuses(
            "program t\ninteger n\nreal a(100)\nread n\n"
            "do i = 1, n\n t = a(i) * 2.0\n a(i) = t\nenddo\nend\n"
        )
        assert ls["t:L1"].status in ("parallel", "parallel_private")
        assert "t" in ls["t:L1"].private_scalars


class TestPrivatization:
    SRC = """
program t
  integer n
  real a(100, 100), w(100)
  read n
  do j = 1, n
    do i = 1, n
      w(i) = a(i, j) * 2.0
    enddo
    do i = 1, n
      a(i, j) = w(i) + 1.0
    enddo
  enddo
end
"""

    def test_work_array_privatized(self):
        ls = statuses(self.SRC)
        assert ls["t:L1"].status == "parallel_private"
        assert ls["t:L1"].private_arrays == ["w"]

    def test_inner_loops_parallel_and_enclosed(self):
        ls = statuses(self.SRC)
        assert ls["t:L2"].status == "parallel"
        assert ls["t:L2"].enclosed
        assert not ls["t:L1"].enclosed


class TestPredicatedWins:
    # Figure 1(a)-style: conditional def + use under the same condition
    FIG1A = """
program t
  integer n, x
  real help(100), b(100, 100)
  read n, x
  do i = 1, n
    if (x > 5) then
      do j = 1, n
        help(j) = b(j, i)
      enddo
    endif
    if (x > 5) then
      do j = 1, n
        b(j, i) = help(j) + 1.0
      enddo
    endif
  enddo
end
"""

    def test_fig1a_predicated_parallel(self):
        ls = statuses(self.FIG1A)
        assert ls["t:L1"].status in ("parallel", "parallel_private")

    def test_fig1a_base_serial(self):
        ls = statuses(self.FIG1A, BASE)
        assert ls["t:L1"].status == "serial"

    # symbolic offset: the classic run-time independence test
    OFFSET = """
program t
  integer n, k
  real a(200)
  read n, k
  do i = 1, n
    a(i + k) = a(i) + 1.0
  enddo
end
"""

    def test_offset_runtime_test(self):
        ls = statuses(self.OFFSET)
        assert ls["t:L1"].status == "runtime"
        assert ls["t:L1"].runtime_test is not None
        assert "k" in ls["t:L1"].runtime_test

    def test_offset_base_serial(self):
        ls = statuses(self.OFFSET, BASE)
        assert ls["t:L1"].status == "serial"

    def test_offset_no_runtime_tests_serial(self):
        ls = statuses(self.OFFSET, AnalysisOptions.compile_time_only())
        assert ls["t:L1"].status == "serial"

    # index-dependent guard: embedding makes the must-write exact
    EMBED = """
program t
  integer n
  real a(100), b(100)
  read n
  do j = 1, n
    do i = 1, n
      if (i > 1) then
        a(i) = b(i)
      endif
      b(i) = a(i) * 2.0
    enddo
  enddo
end
"""

    def test_embedding_case_analyzed(self):
        ls = statuses(self.EMBED)
        assert ls["t:L2"].status in ("parallel", "parallel_private")


class TestInterproceduralDriver:
    SRC = """
program t
  integer n
  real a(100, 100)
  read n
  do j = 1, n
    call zrow(a, j, n)
  enddo
end
subroutine zrow(x, j, n)
  real x(100, 100)
  integer j, n
  do i = 1, n
    x(i, j) = 0.0
  enddo
end
"""

    def test_caller_loop_parallel_with_summaries(self):
        ls = statuses(self.SRC)
        assert ls["t:L1"].status == "parallel"

    def test_caller_loop_serial_without_summaries(self):
        ls = statuses(self.SRC, OPTS.without(interprocedural=False))
        assert ls["t:L1"].status == "serial"

    def test_callee_loop_parallel_either_way(self):
        for opts in (OPTS, OPTS.without(interprocedural=False)):
            ls = statuses(self.SRC, opts)
            assert ls["zrow:L1"].status == "parallel"


class TestResultCounters:
    def test_counts(self):
        src = (
            "program t\ninteger n\nreal a(100)\nread n\n"
            "do i = 1, n\n a(i) = 1.0\nenddo\n"
            "do i = 2, n\n a(i) = a(i - 1)\nenddo\n"
            "do i = 1, n\n print i\nenddo\nend\n"
        )
        res = analyze_program(parse_program(src))
        assert res.total_loops == 3
        assert res.candidate_loops == 2
        assert res.parallelized == 1
        assert res.count("serial") == 1
        assert res.count("not_candidate") == 1


class TestScreenCrossCheck:
    """A screen row that mispredicts the real summary is refused: the
    loop gets :func:`decide_loop`'s row and ``screen.disagree`` counts
    it."""

    SRC = (
        "program p\ninteger n, m\nreal a(100), b(100)\nread n\n"
        "do i = 1, n\n m = i * 2\n a(i) = m * 1.0\nenddo\n"
        "do i = 1, n\n b(i) = a(i)\nenddo\nend\n"
    )

    @staticmethod
    def _facts(results):
        return [
            (
                r.label,
                r.status,
                str(r.condition),
                r.reason,
                r.private_scalars,
                r.reduction_scalars,
                r.private_arrays,
                sorted(r.verdict.array_verdicts),
                sorted(r.verdict.private_scalars),
            )
            for r in results
        ]

    def _decide(self, corrupt):
        """(decide_unit's facts with each screen row passed through
        *corrupt*, decide_loop's facts, screen.agree and
        screen.disagree deltas)."""
        from repro import perf
        from repro.partests.driver import decide_loop, decide_unit
        from repro.pipeline import run_pipeline

        ctx = run_pipeline(
            parse_program(self.SRC), OPTS, goals=("summary", "screen")
        )
        engine, summary = ctx.engine, ctx.get("summary", "p")
        symtab = engine.symtabs["p"]
        lookup = ctx.get("screen", "p")
        rows = {label: lookup(label) for label in ("p:L1", "p:L2")}
        assert all(rows.values())  # the screen proves both independent
        # an empty nest memo: every loop reaches the cross-check
        perf.reset_all_caches()
        agree = perf.counter("screen.agree")
        disagree = perf.counter("screen.disagree")
        try:
            got, _degraded = decide_unit(
                engine,
                "p",
                summary,
                symtab,
                OPTS,
                screen={label: corrupt(dict(row)) for label, row in rows.items()}.get,
            )
        finally:
            perf.reset_all_caches()
        want = [decide_loop(ls, symtab, OPTS) for ls in summary.loops.values()]
        return (
            self._facts(got),
            self._facts(want),
            perf.counter("screen.agree") - agree,
            perf.counter("screen.disagree") - disagree,
        )

    def test_faithful_rows_are_adopted(self):
        got, want, agree, disagree = self._decide(lambda row: row)
        assert got == want
        assert (agree, disagree) == (2, 0)

    def test_wrong_written_array_set_is_refused(self):
        from repro.partests.dependence import ArrayVerdict
        from repro.predicates.formula import FALSE, TRUE

        def corrupt(row):
            verdicts, obstacles, reductions, privates = row["verdict"]
            verdicts = dict(verdicts, zz=ArrayVerdict("zz", TRUE, FALSE))
            row["verdict"] = (verdicts, obstacles, reductions, privates)
            return row

        got, want, agree, disagree = self._decide(corrupt)
        assert got == want
        assert (agree, disagree) == (0, 2)

    def test_wrong_private_scalars_are_refused(self):
        def corrupt(row):
            # L1 privatizes m and L2 nothing: swap the predictions
            verdicts, obstacles, reductions, privates = row["verdict"]
            privates = frozenset() if privates else frozenset({"m"})
            row["verdict"] = (verdicts, obstacles, reductions, privates)
            row["private_scalars"] = sorted(privates)
            return row

        got, want, agree, disagree = self._decide(corrupt)
        assert got == want
        assert (agree, disagree) == (0, 2)
