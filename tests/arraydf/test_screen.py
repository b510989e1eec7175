"""Unit tests for the tier-0 dependence screen's classification rules."""

import pytest

from repro.arraydf.screen import MAX_ACCESSES, screen_unit
from repro.ir.symboltable import SymbolTable
from repro.lang.parser import parse_program


def _screen(src, unit=None):
    program = parse_program(src)
    u = program.units[unit] if unit else program.main_unit
    return screen_unit(u, SymbolTable(u))


def _wrap(body, decls="  integer n, m\n  real a(100), b(10, 10)\n"):
    return (
        "program p\n" + decls + "  read n, m\n" + body + "end\n"
    )


class TestVerdicts:
    def test_disjoint_writes_are_independent(self):
        s = _screen(_wrap("  do i = 1, n\n    a(i) = 0.0\n  enddo\n"))
        assert list(s) == ["p:L1"]
        assert s["p:L1"]["status"] == "parallel"

    def test_offset_read_conflicts_are_unknown(self):
        s = _screen(
            _wrap("  do i = 1, n\n    a(i) = a(i + 1)\n  enddo\n")
        )
        assert s == {}

    def test_witness_in_second_dimension(self):
        s = _screen(
            _wrap("  do i = 1, n\n    b(1, i) = b(2, i)\n  enddo\n")
        )
        assert list(s) == ["p:L1"]

    def test_loop_variant_subscript_var_is_unknown(self):
        # m moves inside the loop: a(m)'s witness argument breaks even
        # though each subscript is affine
        s = _screen(
            _wrap(
                "  do i = 1, n\n"
                "    m = i + 1\n"
                "    a(i + m) = 0.0\n"
                "  enddo\n"
            )
        )
        assert s == {}

    def test_calls_are_unknown(self):
        s = _screen(
            "program p\n"
            "  integer n\n"
            "  real a(100)\n"
            "  read n\n"
            "  do i = 1, n\n"
            "    call f(a, i)\n"
            "  enddo\n"
            "end\n"
            "subroutine f(x, j)\n"
            "  integer j\n"
            "  real x(*)\n"
            "  x(j) = 0.0\n"
            "end\n"
        )
        assert s == {}

    def test_io_loop_is_not_candidate_with_row(self):
        # decide_loop classifies a non-candidate loop itself: the
        # screen hands it no row
        s = _screen(
            _wrap("  do i = 1, n\n    print a(i)\n  enddo\n")
        )
        assert s == {}

    def test_access_cap_defers_to_the_analysis(self):
        reads = " + ".join(f"a(i + {k})" for k in range(MAX_ACCESSES))
        # every subscript shares the same witness shape except the
        # count: past the cap the screen must refuse to reason
        body = (
            "  do i = 1, n\n"
            + "".join(f"    a(i) = a(i)\n" for _ in range(MAX_ACCESSES + 1))
            + "  enddo\n"
        )
        s = _screen(_wrap(body))
        assert s == {}

    def test_empty_constant_inner_loop_is_unknown(self):
        # the inner loop never runs: the analysis never sees b's write,
        # so the screen must not predict a verdict for this nest
        s = _screen(
            _wrap(
                "  do i = 1, n\n"
                "    a(i) = 0.0\n"
                "    do j = 5, 2\n"
                "      b(j, i) = 0.0\n"
                "    enddo\n"
                "  enddo\n"
            )
        )
        assert "p:L1" not in s

    def test_private_scalar_survives_screening(self):
        s = _screen(
            _wrap(
                "  do i = 1, n\n"
                "    m = i * 2\n"
                "    a(i) = m * 1.0\n"
                "  enddo\n",
            )
        )
        assert s["p:L1"]["private_scalars"] == ["m"]

    def test_exposed_scalar_read_is_unknown(self):
        # m is read before written each iteration: a loop-carried
        # scalar obstacle the screen refuses
        s = _screen(
            _wrap(
                "  do i = 1, n\n"
                "    a(i) = m * 1.0\n"
                "    m = i\n"
                "  enddo\n"
            )
        )
        assert s == {}
