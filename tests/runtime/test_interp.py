"""Unit tests for the interpreter."""

import pytest

from repro.lang.parser import parse_program
from repro.runtime.interp import Interpreter, run_program
from repro.runtime.values import ArrayStorage, RuntimeError_


def run(src, inputs=()):
    return run_program(parse_program(src), inputs)


class TestArrayStorage:
    def test_offset_1d(self):
        a = ArrayStorage("a", (10,))
        assert a.offset((1,)) == 0
        assert a.offset((10,)) == 9

    def test_offset_column_major(self):
        a = ArrayStorage("a", (3, 4))
        assert a.offset((1, 1)) == 0
        assert a.offset((2, 1)) == 1
        assert a.offset((1, 2)) == 3
        assert a.offset((3, 4)) == 11

    def test_bounds_check(self):
        a = ArrayStorage("a", (3,))
        with pytest.raises(RuntimeError_):
            a.offset((0,))
        with pytest.raises(RuntimeError_):
            a.offset((4,))

    def test_assumed_size_unchecked_above(self):
        a = ArrayStorage("a", (3, None))
        assert a.offset((2, 100)) == 1 + 3 * 99
        with pytest.raises(RuntimeError_):
            a.offset((2, 0))

    def test_view_aliases(self):
        a = ArrayStorage("a", (3, 4))
        v = a.view("x", (12,))
        a.store((2, 1), 7.5)
        assert v.load((2,)) == 7.5

    def test_unset_reads_zero(self):
        a = ArrayStorage("a", (5,))
        assert a.load((3,)) == 0.0

    def test_write_past_the_end_grows_every_view(self):
        a = ArrayStorage("a", (4,))
        v = a.view("x", (None,))
        assert v.load((9,)) == 0.0  # a read past the end grows nothing
        assert len(a.buf) == len(a.mask) == 4
        v.store((9,), 1.5)
        assert len(a.buf) == len(a.mask) == 9
        assert a.snapshot() == v.snapshot() == {8: 1.5}

    def test_snapshot_lists_written_offsets_only(self):
        a = ArrayStorage("a", (3, 4))
        a.store((3, 4), 0.0)
        a.store((1, 2), -2.0)
        assert a.snapshot() == {3: -2.0, 11: 0.0}


class TestBasicExecution:
    def test_arithmetic_and_print(self):
        r = run("program t\nx = 2 + 3 * 4\nprint x\nend\n")
        assert r.outputs == ["14"]

    def test_integer_division_truncates(self):
        r = run("program t\ni = 7 / 2\nj = -7 / 2\nprint i, j\nend\n")
        assert r.outputs == ["3 -3"]

    def test_mod(self):
        r = run("program t\ni = mod(7, 3)\nj = mod(-7, 3)\nprint i, j\nend\n")
        assert r.outputs == ["1 -1"]

    def test_min_max_abs(self):
        r = run("program t\nprint min(3, 1), max(3, 1), abs(-4)\nend\n")
        assert r.outputs == ["1 3 4"]

    def test_power(self):
        r = run("program t\nprint 2 ** 10\nend\n")
        assert r.outputs == ["1024"]

    def test_read_inputs(self):
        r = run("program t\nread n, m\nprint n + m\nend\n", [3, 4])
        assert r.outputs == ["7"]

    def test_read_exhausted(self):
        with pytest.raises(RuntimeError_):
            run("program t\nread n\nend\n", [])

    def test_integer_scalar_coercion(self):
        r = run("program t\ninteger i\ni = 7 / 2\nprint i\nend\n")
        assert r.outputs == ["3"]


class TestControlFlow:
    def test_if_else(self):
        src = "program t\nread x\nif (x > 0) then\nprint 1\nelse\nprint 2\nendif\nend\n"
        assert run(src, [5]).outputs == ["1"]
        assert run(src, [-5]).outputs == ["2"]

    def test_loop_basic(self):
        r = run("program t\ns = 0\ndo i = 1, 5\ns = s + i\nenddo\nprint s\nend\n")
        assert r.outputs == ["15"]

    def test_loop_step(self):
        r = run("program t\ns = 0\ndo i = 1, 10, 3\ns = s + 1\nenddo\nprint s\nend\n")
        assert r.outputs == ["4"]

    def test_loop_negative_step(self):
        r = run("program t\ns = 0\ndo i = 5, 1, -1\ns = s * 10 + i\nenddo\nprint s\nend\n")
        assert r.outputs == ["54321"]

    def test_zero_trip_loop(self):
        r = run("program t\ns = 99\ndo i = 5, 1\ns = 0\nenddo\nprint s\nend\n")
        assert r.outputs == ["99"]

    def test_index_after_loop(self):
        r = run("program t\ndo i = 1, 3\nx = i\nenddo\nprint i\nend\n")
        assert r.outputs == ["4"]

    def test_loop_events_recorded(self):
        r = run("program t\ndo i = 1, 3\nx = i\nenddo\nend\n")
        assert len(r.loop_events) == 1
        assert r.loop_events[0].iterations == 3

    def test_step_budget(self):
        with pytest.raises(RuntimeError_):
            Interpreter(
                parse_program(
                    "program t\ndo i = 1, 100000\nx = i\nenddo\nend\n"
                ),
                max_steps=100,
            ).run()


class TestArraysAndCalls:
    def test_array_roundtrip(self):
        r = run(
            "program t\nreal a(10)\ndo i = 1, 10\na(i) = i * 2.0\nenddo\n"
            "print a(7)\nend\n"
        )
        assert r.outputs == ["14"]

    def test_2d_array(self):
        r = run(
            "program t\nreal b(3, 3)\ndo j = 1, 3\ndo i = 1, 3\n"
            "b(i, j) = i * 10.0 + j\nenddo\nenddo\nprint b(2, 3)\nend\n"
        )
        assert r.outputs == ["23"]

    def test_call_by_reference_arrays(self):
        src = """
program t
  real a(5)
  call fill(a, 5)
  print a(3)
end
subroutine fill(x, n)
  real x(*)
  integer n
  do i = 1, n
    x(i) = i * 1.0
  enddo
end
"""
        assert run(src).outputs == ["3"]

    def test_scalars_by_value(self):
        src = """
program t
  n = 5
  call bump(n)
  print n
end
subroutine bump(k)
  k = k + 1
end
"""
        assert run(src).outputs == ["5"]

    def test_sequence_association_reshape(self):
        # callee sees the 3x4 array as a flat 12-vector
        src = """
program t
  real a(3, 4)
  call flat(a)
  print a(2, 1), a(1, 2)
end
subroutine flat(x)
  real x(12)
  x(2) = 5.0
  x(4) = 7.0
end
"""
        assert run(src).outputs == ["5 7"]

    def test_return_statement(self):
        src = """
program t
  call f(1)
  print 9
end
subroutine f(k)
  if (k > 0) then
    return
  endif
  x = 1 / 0
end
"""
        assert run(src).outputs == ["9"]

    def test_bad_call_arg(self):
        src = """
program t
  real a(5)
  call f(a(1))
  a(1) = 0.0
end
subroutine f(x)
  real x(*)
  x(1) = 1.0
end
"""
        with pytest.raises(RuntimeError_):
            run(src)
