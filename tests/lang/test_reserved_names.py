"""The analysis's ``__`` prefix is reserved in source programs.

Region dimension variables are ``__d<k>`` and generated names
``__t…``.  A program scalar named ``__d0`` used to read as the region's
own dimension variable: the loop below was reported ``PARALLEL``
although ELPD finds a flow dependence at ``__d0 = 3``.  The front end
now rejects every such identifier; the same program with the scalar
renamed gets its run-time test.  The dependence test's iteration copies
of the loop index are generated names too, so a legal program name such
as ``i__it1`` can no longer stand for one.
"""

import pytest

from repro.lang.errors import ParseError
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program
from repro.runtime.elpd import run_oracle

SOURCE = """\
program p
real a(10)
read __d0
do i = 1, 9
a(i) = a(__d0 + 1) + 1.0
enddo
print a(9)
end
"""


def test_the_regression_program_is_rejected():
    with pytest.raises(ParseError, match="'__d0'"):
        parse_program(SOURCE)


@pytest.mark.parametrize("name", ["__d0", "__t3", "__tprior_i", "__x", "__"])
def test_every_reserved_identifier_is_rejected(name):
    with pytest.raises(ParseError, match=f"'{name}'"):
        parse_program(f"program p\nreal {name}\n{name} = 1.0\nend\n")


def test_single_and_inner_underscores_stay_legal():
    program = parse_program("program p\nreal _a, b__c\n_a = 1.0\nb__c = _a\nend\n")
    assert set(program.main_unit.decls) == {"_a", "b__c"}


def test_renamed_copy_keeps_its_runtime_test():
    program = parse_program(SOURCE.replace("__d0", "kk"))
    (loop,) = analyze_program(program).loops
    assert loop.status == "runtime"
    assert loop.runtime_test == "(-kk + 8 <= 0) or (kk + 1 <= 0)"
    # the test fails where the loop really carries a flow dependence
    report = run_oracle(program, [3])
    assert report.observations["p:L1"].classification == "dependent"


def test_iteration_copies_cannot_collide_with_a_program_name():
    # the dependence test renames the loop index to two iteration
    # copies; a program scalar spelled like a copy used to read as the
    # copy itself, and this loop was reported PARALLEL (privatized)
    program = parse_program(
        SOURCE.replace("__d0", "i__it1").replace("real a(10)", "real a(100)")
    )
    (loop,) = analyze_program(program).loops
    assert loop.status == "runtime"
    assert loop.runtime_test == "(-i__it1 + 8 <= 0) or (i__it1 + 1 <= 0)"
    report = run_oracle(program, [3])
    assert report.observations["p:L1"].classification == "dependent"
