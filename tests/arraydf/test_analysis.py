"""Integration tests for the array data-flow walker on whole programs."""

import pytest

from repro.arraydf.analysis import ArrayDataflow
from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program

OPTS = AnalysisOptions.predicated()
BASE = AnalysisOptions.base()


def analyze(src, opts=OPTS):
    return ArrayDataflow(parse_program(src), opts).run()


def loop_by_label(df, label):
    for s in df.all_loop_summaries():
        if s.label == label:
            return s
    raise KeyError(label)


def pts(summary, array, env, rng=range(0, 30)):
    out = set()
    for r in summary.regions(array):
        out |= {d for d in rng if r.contains_point((d,), env)}
    return out


class TestLeafToLoop:
    SRC = """
program t
  integer n
  real a(100), b(100)
  read n
  do i = 1, n
    a(i) = b(i) + 1.0
  enddo
end
"""

    def test_loop_summaries_recorded(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        assert s.unit_name == "t"

    def test_body_value_per_iteration(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        assert pts(s.body_value.w, "a", {"i": 4}) == {4}
        assert pts(s.body_value.r, "b", {"i": 4}) == {4}

    def test_loop_value_projected(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        assert pts(s.loop_value.w, "a", {"n": 6}) == {1, 2, 3, 4, 5, 6}
        assert pts(s.loop_value.must_default(), "a", {"n": 6}) == {1, 2, 3, 4, 5, 6}

    def test_loop_exposed_reads(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        assert pts(s.loop_value.exposed_default(), "b", {"n": 4}) == {1, 2, 3, 4}


class TestKillWithinIteration:
    SRC = """
program t
  integer n
  real a(100), t1(100)
  read n
  do i = 1, n
    t1(i) = a(i)
    a(i) = t1(i) * 2.0
  enddo
end
"""

    def test_t1_read_not_exposed(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        exposed = s.body_value.exposed_default()
        assert pts(exposed, "t1", {"i": 3}) == set()
        assert pts(exposed, "a", {"i": 3}) == {3}


class TestConditionalValues:
    SRC = """
program t
  integer n, x
  real a(100)
  read n, x
  do i = 1, n
    if (x > 5) then
      a(i) = 1.0
    endif
  enddo
end
"""

    def test_conditional_write_not_must_by_default(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        assert s.body_value.must_default().is_empty()

    def test_guarded_must_present_with_predicates(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        guarded = [g for g in s.body_value.m if not g.is_default()]
        assert guarded and not guarded[0].summary.is_empty()

    def test_base_has_no_guards(self):
        df = analyze(self.SRC, BASE)
        s = loop_by_label(df, "t:L1")
        assert all(g.is_default() for g in s.body_value.m)


class TestIndexGuardEmbedding:
    SRC = """
program t
  integer n
  real a(100)
  read n
  do i = 1, n
    if (i > 5) then
      a(i) = 1.0
    endif
  enddo
end
"""

    def test_embedded_must_write(self):
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        # the loop-level must-write covers exactly [6, n]
        must = s.loop_value.must_default()
        assert pts(must, "a", {"n": 10}) == {6, 7, 8, 9, 10}

    def test_without_embedding_must_is_empty(self):
        df = analyze(self.SRC, OPTS.without(embedding=False))
        s = loop_by_label(df, "t:L1")
        assert pts(s.loop_value.must_default(), "a", {"n": 10}) == set()


class TestPriorIterationSubtraction:
    SRC = """
program t
  integer n
  real a(100)
  read n
  a(1) = 0.0
  do i = 2, n
    a(i) = a(i - 1) + 1.0
  enddo
end
"""

    def test_exposed_is_first_read_only(self):
        # iteration i reads a(i-1); all but a(1) were written by prior
        # iterations, so only a(1) is exposed at loop level
        df = analyze(self.SRC)
        s = loop_by_label(df, "t:L1")
        exposed = s.loop_value.exposed_default()
        assert pts(exposed, "a", {"n": 9}) == {1}


class TestInterprocedural:
    # `driver` takes the array as a formal so its proc summary keeps it
    SRC = """
program t
  integer n
  real a(100)
  read n
  call driver(a, n)
end
subroutine driver(a, n)
  real a(*)
  integer n
  call fill(a, n)
  do i = 1, n
    a(i) = a(i) + 1.0
  enddo
end
subroutine fill(x, n)
  real x(*)
  integer n
  do i = 1, n
    x(i) = 0.0
  enddo
end
"""

    def test_callee_summary_translated(self):
        df = analyze(self.SRC)
        drv = df.units["driver"]
        # driver's exposed reads are empty: fill writes a(1..n) first
        assert pts(drv.proc_value.exposed_default(), "a", {"n": 8}) == set()

    def test_no_interproc_is_conservative(self):
        df = analyze(self.SRC, OPTS.without(interprocedural=False))
        drv = df.units["driver"]
        exposed = drv.proc_value.exposed_default()
        assert pts(exposed, "a", {"n": 8}) != set()

    def test_main_program_has_no_proc_value(self):
        # no unit can call the main program, so its top level is not
        # folded; its loops are still summarized
        df = analyze(self.SRC)
        assert df.units["t"].proc_value is None
        assert df.units["driver"].proc_value is not None
        src = self.SRC.replace(
            "  call driver(a, n)\n",
            "  call driver(a, n)\n  do i = 1, n\n    a(i) = 2.0\n  enddo\n",
        )
        df = analyze(src)
        assert df.units["t"].proc_value is None
        (ls,) = df.units["t"].loops.values()
        assert pts(ls.loop_value.w, "a", {"n": 3}) == {1, 2, 3}

    def test_local_arrays_hidden(self):
        src = """
program t
  real a(10)
  call work(a)
  a(1) = 0.0
end
subroutine work(x)
  real x(*), scratch(10)
  do i = 1, 10
    scratch(i) = 1.0
    x(i) = scratch(i)
  enddo
end
"""
        df = analyze(src)
        callee = df.units["work"]
        assert "scratch" not in callee.proc_value.w.arrays()
        assert "x" in callee.proc_value.w.arrays()


class TestPredicatedDegeneratesToBase:
    """With no conditionals, both analyses must agree exactly."""

    SRC = """
program t
  integer n
  real a(100), b(100)
  read n
  do i = 1, n
    b(i) = a(i)
  enddo
  do i = 1, n
    a(i) = b(i) * 2.0
  enddo
end
"""

    def test_same_defaults(self):
        dfp = analyze(self.SRC, OPTS)
        dfb = analyze(self.SRC, BASE)
        for label in ("t:L1", "t:L2"):
            sp = loop_by_label(dfp, label)
            sb = loop_by_label(dfb, label)
            assert sp.loop_value.w == sb.loop_value.w
            assert sp.loop_value.r == sb.loop_value.r
            assert sp.loop_value.must_default() == sb.loop_value.must_default()
            assert (
                sp.loop_value.exposed_default()
                == sb.loop_value.exposed_default()
            )
