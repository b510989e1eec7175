"""Fresh generated names never reach a reported result.

The walker draws ``__t<n>_…`` names from a per-unit
:class:`~repro.symbolic.terms.FreshNameSource` when it translates a
callee's summary at a call site.  Where the counter starts must not
matter: the nest memo relies on it (a memo hit consumes no names, so
the walk that follows draws different ones than a cold walk would).
This test starts every walker's source at an offset and compares decision
rows, rendered run-time tests, reports and two-version programs on the
30 suite programs under both option sets.  No suite call site needs a
fresh name, so :data:`CALLS` adds one program whose call sites do: a
non-affine actual and a callee-local bound, inside a loop (the main
program's top level is not folded, so a call site there is not
translated).
"""

import itertools
import re

import pytest

from repro import perf
from repro.arraydf import analysis
from repro.arraydf.options import AnalysisOptions
from repro.codegen.report import format_report
from repro.lang.parser import parse_program
from repro.lang.prettyprint import pretty
from repro.pipeline import run_pipeline
from repro.suites import all_programs
from repro.symbolic.terms import FreshNameSource

_TIMING = re.compile(r"analysis: [0-9.]+ ms")
OFFSET = 1000

CALLS = """\
program calls
  integer n
  real a(100), b(100)
  read n
  do t = 1, 2
    call fill(a, n * n)
    call grab(b)
  enddo
  do i = 1, 10
    a(i + 1) = a(i) + b(i)
  enddo
  print a(1)
end
subroutine fill(x, m)
  integer m
  real x(100)
  do j = 1, m
    x(j) = 0.0
  enddo
end
subroutine grab(y)
  real y(100)
  integer k
  read k
  do j = 1, k
    y(j + k) = 1.0
  enddo
end
"""


class _OffsetSource(FreshNameSource):
    """A source whose counter starts at :data:`OFFSET`."""

    handed_out = 0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._counter = itertools.count(OFFSET)

    def fresh(self, hint: str = "") -> str:
        _OffsetSource.handed_out += 1
        return super().fresh(hint)


def _facts(opts):
    programs = [(b.name, b.source) for b in all_programs()]
    out = []
    for name, source in programs + [("calls", CALLS)]:
        perf.reset_all_caches()
        ctx = run_pipeline(
            parse_program(source), opts, goals=("result", "transformed")
        )
        result = ctx.get("result")
        rows = [
            (
                l.label,
                l.status,
                str(l.condition),
                l.reason,
                l.enclosed,
                l.runtime_test,
                l.private_arrays,
                l.private_scalars,
                l.reduction_scalars,
            )
            for l in result.loops
        ]
        report = _TIMING.sub("", format_report(result))
        out.append((name, rows, report, pretty(ctx.get("transformed"))))
    return out


@pytest.mark.parametrize(
    "opts",
    [AnalysisOptions.predicated(), AnalysisOptions.base()],
    ids=["predicated", "base"],
)
def test_fresh_name_offset_changes_no_result(opts, monkeypatch):
    plain = _facts(opts)
    _OffsetSource.handed_out = 0
    monkeypatch.setattr(analysis, "FreshNameSource", _OffsetSource)
    try:
        shifted = _facts(opts)
    finally:
        perf.reset_all_caches()
    # the offset source really served the call sites' names
    assert _OffsetSource.handed_out > 0
    assert shifted == plain
