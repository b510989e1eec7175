"""Unit tests for the ELPD dynamic parallelization oracle."""

import pytest

from repro import perf
from repro.lang.parser import parse_program
from repro.runtime import elpd as shipped
from repro.runtime.elpd import run_elpd
from tests.runtime import reference


def elpd(src, inputs=(), targets=None):
    return run_elpd(parse_program(src), inputs, target_labels=targets)


class TestClassification:
    def test_independent(self):
        rep = elpd(
            "program t\nreal a(20)\ndo i = 1, 10\na(i) = i * 1.0\nenddo\nend\n"
        )
        assert rep.observations["t:L1"].classification == "independent"

    def test_dependent_flow(self):
        rep = elpd(
            "program t\nreal a(20)\na(1) = 1.0\n"
            "do i = 2, 10\na(i) = a(i - 1)\nenddo\nend\n"
        )
        obs = rep.observations["t:L1"]
        assert obs.classification == "dependent"
        assert obs.flow_arrays == {"a"}

    def test_privatizable(self):
        rep = elpd(
            "program t\nreal w(10), b(10, 10)\n"
            "do j = 1, 10\n"
            " do i = 1, 10\n  w(i) = b(i, j) + 1.0\n enddo\n"
            " do i = 1, 10\n  b(i, j) = w(i)\n enddo\n"
            "enddo\nend\n"
        )
        obs = rep.observations["t:L1"]
        assert obs.classification == "privatizable"
        assert obs.conflict_arrays == {"w"}

    def test_read_only_shared_is_independent(self):
        rep = elpd(
            "program t\nreal a(10), b(10)\nx = 0.0\n"
            "do i = 1, 10\nb(i) = a(1) + a(2)\nenddo\nend\n"
        )
        assert rep.observations["t:L1"].classification == "independent"

    def test_output_dependence_privatizable(self):
        # all iterations write a(1); no iteration reads it first
        rep = elpd(
            "program t\nreal a(10)\ndo i = 1, 10\na(1) = i * 1.0\nenddo\nend\n"
        )
        assert rep.observations["t:L1"].classification == "privatizable"

    def test_write_then_read_same_iteration_ok(self):
        rep = elpd(
            "program t\nreal a(10)\ndo i = 1, 10\na(1) = i * 1.0\n"
            "x = a(1)\nenddo\nend\n"
        )
        assert rep.observations["t:L1"].classification == "privatizable"

    def test_exposed_read_of_preloop_value_ok(self):
        # every iteration reads a(11): written before the loop only
        rep = elpd(
            "program t\nreal a(20), b(20)\na(11) = 3.0\n"
            "do i = 1, 10\nb(i) = a(11)\nenddo\nend\n"
        )
        assert rep.observations["t:L1"].classification == "independent"


class TestDynamicity:
    def test_input_dependent_verdict(self):
        # a(i+k) = a(i): dependent iff 1 <= k < n
        src = (
            "program t\ninteger n, k\nreal a(100)\nread n, k\n"
            "do i = 1, n\na(i + k) = a(i) + 1.0\nenddo\nend\n"
        )
        dep = elpd(src, [10, 1])
        assert dep.observations["t:L1"].classification == "dependent"
        ok = elpd(src, [10, 50])
        assert ok.observations["t:L1"].classification == "independent"
        zero = elpd(src, [10, 0])
        # k == 0: each iteration reads and writes only its own element
        assert zero.observations["t:L1"].classification == "independent"

    def test_aggregation_worst_case(self):
        # inner loop is independent on the first outer iteration (j = 20,
        # reads land outside the write range) and dependent on the second
        # (j = 1): the aggregate verdict must be the worst case
        src = (
            "program t\ninteger n, j\nreal a(100)\nread n\n"
            "j = 20\n"
            "do r = 1, 2\n"
            " do i = 21, n\n  a(i) = a(i - j) + 1.0\n enddo\n"
            " j = 1\n"
            "enddo\nend\n"
        )
        rep = elpd(src, [40])
        assert rep.observations["t:L2"].classification == "dependent"

    def test_multiple_instances_counted(self):
        src = (
            "program t\nreal a(10)\n"
            "do j = 1, 3\n do i = 1, 5\n  a(i) = i * 1.0\n enddo\nenddo\nend\n"
        )
        rep = elpd(src)
        assert rep.observations["t:L2"].instances == 3
        assert rep.observations["t:L2"].total_iterations == 15


class TestTargeting:
    SRC = (
        "program t\nreal a(10)\n"
        "do i = 1, 5\n a(i) = 1.0\nenddo\n"
        "do i = 2, 5\n a(i) = a(i - 1)\nenddo\nend\n"
    )

    def test_target_subset(self):
        rep = elpd(self.SRC, targets=["t:L2"])
        assert "t:L1" not in rep.observations
        assert rep.observations["t:L2"].classification == "dependent"

    def test_unexecuted_target_reported(self):
        rep = elpd(self.SRC, targets=["t:L2", "nope:L9"])
        assert rep.observations["nope:L9"].classification == "not_executed"

    def test_parallelizable_labels(self):
        rep = elpd(self.SRC)
        assert rep.parallelizable_labels() == ["t:L1"]
        assert rep.dependent_labels() == ["t:L2"]


class TestReshapeAliasing:
    def test_write_then_read_through_view_is_privatizable(self):
        # each iteration writes a(1,1) through a flat view, then reads it:
        # cross-iteration conflicts but no exposed-read flow
        src = """
program t
  real a(3, 4)
  do i = 1, 3
    call poke(a, i)
    x = a(1, 1)
  enddo
end
subroutine poke(v, i)
  real v(12)
  integer i
  v(1) = i * 1.0
end
"""
        rep = run_elpd(parse_program(src))
        assert rep.observations["t:L1"].classification == "privatizable"

    def test_cross_view_flow_detected(self):
        # the callee accumulates into v(1) (read before write through the
        # flat view): iteration i reads the value iteration i-1 wrote
        src = """
program t
  real a(3, 4)
  a(1, 1) = 1.0
  do i = 1, 3
    call accum(a, i)
  enddo
end
subroutine accum(v, i)
  real v(12)
  integer i
  v(1) = v(1) * 2.0 + i
end
"""
        rep = run_elpd(parse_program(src))
        assert rep.observations["t:L1"].classification == "dependent"
        assert "v" in rep.observations["t:L1"].flow_arrays


class TestBufferIdentity:
    """A subroutine's local array is a new buffer on every call, even
    when the allocator hands it the previous call's freed address."""

    CASE_A = """
program t
  real a(10)
  do i = 1, 10
    call f(a, i)
  enddo
end
subroutine f(a, i)
  real a(10), w(4)
  integer i
  a(i) = w(1)
  w(1) = i * 1.0
end
"""
    CASE_B = """
program t
  real a(10)
  do i = 1, 10
    if (mod(i, 2) == 0) then
      call f(a, i)
    else
      call g(a, i)
    endif
  enddo
end
subroutine f(a, i)
  real a(10), w(4)
  integer i
  a(i) = w(1)
  w(1) = i * 1.0
end
subroutine g(a, i)
  real a(10), v(4), u(4)
  integer i
  v(1) = a(1)
  u(1) = v(1) + u(1)
  a(i) = u(1)
end
"""

    @staticmethod
    def _both(src):
        out = []
        for module in (reference, shipped):
            obs = module.run_elpd(parse_program(src)).observations["t:L1"]
            out.append((obs.classification, obs.conflict_arrays, obs.flow_arrays))
        return out

    def test_fresh_locals_carry_nothing_between_iterations(self):
        # each call reads its own fresh w(1) (0.0), then writes it
        for got in self._both(self.CASE_A):
            assert got == ("independent", set(), set())

    def test_locals_of_different_callees_never_conflict(self):
        # only a(1) carries a value: g writes it at i = 1, reads it later
        for got in self._both(self.CASE_B):
            assert got == ("dependent", set(), {"a"})


class TestMemoryBound:
    def test_log_folds_instead_of_growing(self):
        # 1,000 x 250 x 9 = 2.25M accesses over 500 elements: the outer
        # instance's log would hold all of them (18 MB as int64 alone);
        # folding keeps the peak near one log's worth.  (Offsets below
        # 256 and a read-heavy body keep the vector program's own Python
        # allocations, which tracemalloc slows down, few.)
        import tracemalloc

        src = (
            "program t\nreal a(250), b(250)\n"
            "do r = 1, 1000\n do i = 1, 250\n"
            "  a(i) = b(i) + b(i) * b(i) + b(i) * b(i) + b(i) * b(i) + b(i)\n"
            " enddo\nenddo\nend\n"
        )
        program = parse_program(src)
        tracemalloc.start()
        try:
            report = run_elpd(program)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.observations["t:L1"].classification == "privatizable"
        assert report.observations["t:L2"].instances == 1000
        assert report.steps == 1 + 1000 * 251
        assert peak < 16 * 2**20


class TestAliasedNames:
    """One buffer under two names: each verdict reports the buffer under
    the name its latest fresh element was first touched through, on the
    plain-Python and the NumPy classification paths and across a fold."""

    @staticmethod
    def source(n, reps):
        return f"""
program t
  real a({2 * n})
  do r = 1, {reps}
    call f(a, a)
  enddo
end
subroutine f(u, w)
  real u({2 * n}), w({2 * n})
  do i = 1, {n}
    u(i) = w(i + {n}) + 1.0
  enddo
  do i = {n + 1}, {2 * n}
    w(i) = u(i - {n}) * 2.0
  enddo
end
"""

    @pytest.mark.parametrize(
        "n, reps", [(20, 3), (300, 3), (300, 60)], ids=["python", "numpy", "fold"]
    )
    def test_matches_reference(self, n, reps):
        reports = [
            {
                label: (
                    obs.classification,
                    obs.instances,
                    obs.total_iterations,
                    obs.conflict_arrays,
                    obs.flow_arrays,
                )
                for label, obs in module.run_elpd(
                    parse_program(self.source(n, reps))
                ).observations.items()
            }
            for module in (reference, shipped)
        ]
        assert reports[0] == reports[1]
        assert reports[1]["t:L1"][0] == "dependent"


class TestWideViews:
    """A buffer first touched late in a long outer instance (``c``, in
    the last outer iteration only) and a flow that spans the whole
    instance (``a(900)``, written in the first outer iteration and read
    in the last), through 81 inner instances, vector blocks and scalar
    loops that fold into it."""

    SRC = """
program t
  real a(1000), b(1000), c(1000)
  do r = 1, 40
    if (r == 1) then
      a(900) = 1.0
    endif
    do i = 1, 600
      a(i) = b(i) * 0.5
    enddo
    do i = 2, 600
      b(i) = b(i - 1) + a(i)
    enddo
    if (r == 40) then
      do i = 1, 600
        c(i) = a(i) + a(900)
      enddo
    endif
  enddo
end
"""

    def test_plain_python_matches_reference(self):
        reports = [
            {
                label: (
                    obs.classification,
                    obs.instances,
                    obs.total_iterations,
                    obs.conflict_arrays,
                    obs.flow_arrays,
                )
                for label, obs in module.run_elpd(
                    parse_program(self.SRC)
                ).observations.items()
            }
            for module in (reference, shipped)
        ]
        assert reports[0] == reports[1]
        assert reports[1]["t:L1"][0] == "dependent"


class TestStaticScalarScreen:
    """``static_scalar_obstacles`` walks the loops with the analysis's
    scalar-flow pass alone; the reference reads the same facts off full
    region trees and loop info."""

    SRC = (
        "program t\ninteger n, k, m\nreal a(20), s, t\nread n\n"
        "s = 0.0\nk = 0\n"
        "do i = 1, n\n"
        " s = s + a(i)\n"  # a reduction
        " k = 3 - k\n a(i) = k * 1.0\n"  # a recurrence
        " t = 2.0\n a(i) = t\n"  # written before it is read
        "enddo\n"
        "do j = 1, n\n"
        " do i = 1, n\n  k = mod(k, 7) + 1\n enddo\n"
        " if (j > 2) then\n  m = k\n endif\n"  # written, never read
        "enddo\nend\n"
    )

    def test_screen(self):
        got = shipped.static_scalar_obstacles(parse_program(self.SRC))
        assert got == {"t:L1": {"k"}, "t:L2": {"k"}, "t:L3": {"k"}}
        assert got == reference.static_scalar_obstacles(parse_program(self.SRC))

    def test_matches_reference(self):
        from repro.suites import all_programs
        from tests.runtime.test_bytecode_fuzz import generate, generate_blocks

        sources = [b.source for b in all_programs()]
        sources += [generate(seed)[0] for seed in range(40)]
        sources += [generate_blocks(seed)[0] for seed in range(20)]
        screened = 0
        for src in sources:
            got = shipped.static_scalar_obstacles(parse_program(src))
            assert got == reference.static_scalar_obstacles(parse_program(src)), src
            screened += bool(got)
        assert screened >= 3  # not a vacuous comparison


def _facts(run, program, inputs=()):
    """*run*'s ELPD report on *program* as comparable facts, with the
    run's ``elpd.shadow.elements`` count."""
    before = perf.counter("elpd.shadow.elements")
    report = run(program, inputs)
    return (
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
        perf.counter("elpd.shadow.elements") - before,
    )


def _same_as_reference(src, inputs=()):
    program = parse_program(src)
    got = _facts(shipped.run_elpd, program, inputs)
    assert got == _facts(reference.run_elpd, program, inputs)
    return got[0]


class TestDenseShadows:
    """Edges of the per-(depth, buffer) shadows: offsets past the
    buffer, a buffer that grows, names, and both sides of the NumPy
    threshold."""

    def test_far_read_past_shorter_actual(self):
        # reads ~10^7 elements past a 10-element actual: the offsets go
        # to the shadow's dict, not into a dense part (80 MB as int64)
        import tracemalloc

        src = """
program t
  real a(10)
  integer k
  read k
  do r = 1, 3
    call f(a, k)
  enddo
end
subroutine f(x, k)
  real x(*)
  integer k
  do i = 1, 4
    x(i) = x(k + i) + 1.0
  enddo
end
"""
        program = parse_program(src)
        tracemalloc.start()
        try:
            got = _facts(shipped.run_elpd, program, [10**7])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert got == _facts(reference.run_elpd, program, [10**7])
        assert got[0]["t:L1"][:1] == ("privatizable",)

    def test_block_over_a_grown_region(self):
        # the scalar write x(300) grows the 10-element buffer; the vector
        # loop then covers the grown region, and both shadow depths grow
        src = """
program t
  real a(10)
  do r = 1, 2
    call g(a)
  enddo
end
subroutine g(x)
  real x(*)
  x(300) = 1.0
  do i = 1, 300
    x(i) = x(i) + 1.0
  enddo
end
"""
        obs = _same_as_reference(src)
        assert obs["t:L1"][0] == "dependent"

    @pytest.mark.parametrize("n", [40, 400])
    @pytest.mark.parametrize(
        "expr", ["v(i + 1) + u(i)", "u(i) + v(i + 1)"], ids=["v_first", "u_first"]
    )
    def test_read_only_second_name_in_a_block(self, n, expr):
        # u and v view one buffer, read in one block: in scalar order the
        # latest fresh element is first touched through v (site by site
        # the first expression would give u; the block's first name is u
        # in the second), and a(5)'s conflict across r reports the buffer
        # under that name
        src = f"""
program t
  real a({n}), b({n})
  do r = 1, 3
    a(5) = r * 1.0
    call h(a, a, b)
  enddo
end
subroutine h(u, v, w)
  real u({n}), v({n}), w({n})
  do i = 1, {n - 1}
    w(i) = {expr}
  enddo
end
"""
        obs = _same_as_reference(src)
        assert obs["t:L1"][3] == {"v", "w"}

    def test_block_sites_in_scalar_order(self):
        # overlapping read sites, a site read then written, a site
        # written then read: the enclosing instance takes them site by
        # site, which must equal scalar order
        src = """
program t
  real a(600), b(600), c(600), d(600)
  do r = 1, 4
    do i = 1, 500
      a(i) = a(i) + b(i) + b(i + 1)
      c(i) = a(i) * 2.0
      d(i) = c(i) + b(i + 2)
    enddo
    b(r) = d(r + 1)
  enddo
end
"""
        obs = _same_as_reference(src)
        assert obs["t:L1"][0] == "dependent"

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_sizes_around_the_numpy_threshold(self, delta):
        # each j instance's block sites and fold runs hold n elements
        n = shipped._BULK_MIN + delta
        src = f"""
program t
  real a({n}), b({n})
  do r = 1, 3
    do j = 1, 2
      do i = 1, {n}
        a(i) = b(i) + 1.0
      enddo
      do i = 2, {n}
        b(i) = b(i - 1) * 0.5 + a(i)
      enddo
    enddo
  enddo
end
"""
        obs = _same_as_reference(src)
        assert obs["t:L2"][0] == "dependent"

    def test_three_deep_scalar_nest(self):
        src = """
program t
  real a(12, 12), b(12)
  do k = 2, 12
    do j = 1, 12
      do i = 2, 12
        a(i, j) = a(i - 1, j) + b(k - 1)
      enddo
    enddo
    b(k) = a(12, k)
  enddo
end
"""
        obs = _same_as_reference(src)
        assert obs["t:L1"][0] == "dependent"

    def test_time_loop_over_large_blocks(self):
        src = """
program t
  real a(3000), b(3000), c(3000)
  do r = 1, 30
    do i = 1, 3000
      a(i) = b(i) * 0.5 + c(i)
    enddo
    do i = 1, 3000
      c(i) = a(i) + 1.0
    enddo
  enddo
end
"""
        obs = _same_as_reference(src)
        assert obs["t:L1"] == ("dependent", 1, 30, {"a"}, {"c"})


class TestCheckMixParity:
    """``run_oracle`` equals the reference on perfbench's generated
    programs, the check campaign's mix."""

    def test_generated_programs_match_reference(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
        import gen

        for op in gen.Generator(17).programs(120):
            program = parse_program(op["source"])
            got = _facts(shipped.run_oracle, program, op["inputs"])
            want = _facts(reference.run_oracle, program, op["inputs"])
            assert got == want, op["name"]
