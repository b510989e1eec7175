"""The cross-program nest memo: ``nest.summary`` and ``nest.decisions``.

A warm process remembers the walk rows and the decision rows of every
call-free top-level loop nest under the nest's key (canonical text,
options, path predicate, declarations).  A hit must answer exactly as a
cold walk would, bound to the current program's own loops.  A row holds
``None`` for a loop value nothing had read yet; a binding projects it
on its own first read.
"""

import re

import pytest

from repro import perf
from repro.arraydf import analysis
from repro.arraydf.options import AnalysisOptions
from repro.codegen.report import format_report
from repro.lang.astnodes import DoLoop, walk_stmts
from repro.lang.parser import parse_program
from repro.lang.prettyprint import pretty
from repro.partests import driver
from repro.pipeline import run_pipeline
from repro.suites import all_programs
from repro.suites import patterns as P
from repro.suites.compose import compose

_TIMING = re.compile(r"analysis: [0-9.]+ ms")

OPTION_SETS = [AnalysisOptions.predicated(), AnalysisOptions.base()]
OPTION_IDS = ["predicated", "base"]

#: pattern makers for the generated slice (``n`` sizes them)
_MAKERS = (
    P.stencil,
    P.triangular,
    P.cond_cover,
    P.guard_zero_trip,
    P.index_guard,
    P.offset_runtime,
    P.outer_offset,
    P.work_array,
    P.call_row,
    P.init2d,
    P.wavefront,
)


def _slice(count=24):
    """A fixed generated slice: three instances per program, drawn so
    that later programs repeat nests of earlier ones."""
    sources = []
    for k in range(count):
        instances = [
            _MAKERS[(k + 4 * j) % len(_MAKERS)](f"u{j}", n=8 + (k + j) % 3)
            for j in range(3)
        ]
        sources.append(compose(f"slice{k}", "test", instances).source)
    return sources


def _sources():
    return [b.source for b in all_programs()] + _slice()


def _facts(source, opts):
    ctx = run_pipeline(parse_program(source), opts, goals=("result", "transformed"))
    result = ctx.get("result")
    rows = [
        (
            l.label,
            l.unit,
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
    return rows, _TIMING.sub("", format_report(result)), pretty(ctx.get("transformed"))


def _stats(table):
    return table.hits, table.misses


@pytest.fixture(autouse=True)
def _cold():
    perf.reset_all_caches()
    yield
    perf.reset_all_caches()


class TestWarmReuse:
    @pytest.mark.parametrize("opts", OPTION_SETS, ids=OPTION_IDS)
    def test_second_pass_hits_every_nest_and_matches_cold(self, opts):
        sources = _sources()
        cold = []
        for source in sources:
            perf.reset_all_caches()
            cold.append(_facts(source, opts))
        perf.reset_all_caches()

        first = [_facts(s, opts) for s in sources]
        hits1, misses1 = _stats(analysis._NEST_SUMMARIES)
        dhits1, dmisses1 = _stats(driver._NEST_DECISIONS)
        second = [_facts(s, opts) for s in sources]
        hits2, misses2 = _stats(analysis._NEST_SUMMARIES)
        dhits2, dmisses2 = _stats(driver._NEST_DECISIONS)

        # the slice repeats nests, so the first pass already reuses some
        assert misses1 > 0 and hits1 > 0
        # the second pass finds every nest it looks up
        assert misses2 == misses1
        assert hits2 - hits1 == hits1 + misses1
        assert dmisses2 == dmisses1
        assert dhits2 - dhits1 == dhits1 + dmisses1
        assert first == cold
        assert second == cold

    def test_nests_with_calls_are_excluded(self):
        source = """\
program p
  real a(10)
  do i = 1, 10
    call f(a, i)
  enddo
  do i = 1, 10
    a(i) = 1.0
  enddo
  print a(1)
end
subroutine f(x, k)
  integer k
  real x(10)
  x(k) = 0.0
end
"""
        before = perf.counter("nest.excluded")
        run_pipeline(parse_program(source))
        assert perf.counter("nest.excluded") - before == 1
        stored = [key[0] for key in analysis._NEST_SUMMARIES.data]
        assert all("call" not in text for text in stored)


FIRST = """\
program first
  integer k
  real a(100), b(100, 10)
  read k
  do i = 1, 10
    b(i, 1) = 0.0
  enddo
  do j = 1, 10
    do i = 1, 50
      a(i) = a(i + k) + 1.0
    enddo
    b(j, 2) = a(j)
  enddo
  print a(1), b(1, 1)
end
"""

SECOND = """\
program second
  integer k
  real a(100), b(100, 10)
  read k
  do j = 1, 10
    do i = 1, 50
      a(i) = a(i + k) + 1.0
    enddo
    b(j, 2) = a(j)
  enddo
  print a(2)
end
"""


class TestRebinding:
    def _loops(self, program):
        return {
            s.label: s
            for s in walk_stmts(program.main_unit.body)
            if isinstance(s, DoLoop)
        }

    def test_same_nest_binds_to_each_programs_own_loops(self):
        cold = {}
        for source in (FIRST, SECOND):
            perf.reset_all_caches()
            cold[source] = _facts(source, AnalysisOptions.predicated())
        perf.reset_all_caches()

        first = parse_program(FIRST)
        run_pipeline(first)
        hits = analysis._NEST_SUMMARIES.hits
        dhits = driver._NEST_DECISIONS.hits
        second = parse_program(SECOND)
        ctx = run_pipeline(second)
        # the shared nest is the second's only nest, found in the memo
        assert analysis._NEST_SUMMARIES.hits == hits + 1
        assert driver._NEST_DECISIONS.hits == dhits + 1

        # the walk and the decisions see the scalar-propagated copy
        loops = self._loops(ctx.get("program"))
        result = ctx.get("result")
        assert [l.label for l in result.loops] == ["second:L2", "second:L1"]
        for l in result.loops:
            assert l.unit == "second"
            assert l.loop is loops[l.label]
            if l.verdict is not None:
                assert l.verdict.summary.loop is loops[l.label]
        summary = ctx.get("summary", "second")
        assert [ls.loop for ls in summary.loops.values()] == [
            loops["second:L2"],
            loops["second:L1"],
        ]
        assert all(ls.unit_name == "second" for ls in summary.loops.values())
        # the inner loop carries the run-time test, rebound by position
        inner = result.by_label()["second:L2"]
        assert inner.status == "runtime"
        assert _facts(SECOND, AnalysisOptions.predicated()) == cold[SECOND]
        assert _facts(FIRST, AnalysisOptions.predicated()) == cold[FIRST]


GUARDED = """\
program guarded
  integer k
  real a(200)
  read k
  if (k >= 60) then
    do i = 1, 50
      a(i) = a(i + k) + 1.0
    enddo
  endif
  print a(1)
end
"""

UNGUARDED = GUARDED.replace("  if (k >= 60) then\n", "").replace("  endif\n", "")


#: a screened nest and an unscreened one at the main program's top level
MAIN_NEST = """\
program mainnest
  real x(10), y(10)
  do i = 1, 10
    x(i) = 0.0
  enddo
  do i = 1, 9
    y(i + 1) = y(i)
  enddo
  print x(1), y(10)
end
"""

#: the same nest at the main program's top level and in a subroutine
#: whose proc value the main program's ``j`` loop reads
BOTH = """\
program both
  real x(10), c(10, 10)
  do i = 1, 10
    x(i) = 0.0
  enddo
  do j = 1, 10
    call f(x)
    do k = 1, 10
      c(k, j) = x(k)
    enddo
  enddo
  print c(1, 1)
end
subroutine f(x)
  real x(10)
  do i = 1, 10
    x(i) = 0.0
  enddo
end
"""


class TestKey:
    """The same nest text must not share rows where the walk or the
    decisions may read something else that differs."""

    def test_path_predicate_is_part_of_the_key(self):
        # inside the branch the path predicate implies the run-time
        # test, so the same nest text is parallel outright there
        opts = AnalysisOptions.predicated()
        cold = []
        for source in (GUARDED, UNGUARDED):
            perf.reset_all_caches()
            cold.append(_facts(source, opts))
        assert [r[2] for r in cold[0][0]] == ["parallel"]
        assert [r[2] for r in cold[1][0]] == ["runtime"]
        perf.reset_all_caches()
        warm = [_facts(source, opts) for source in (GUARDED, UNGUARDED)]
        assert warm == cold

    def test_declarations_are_part_of_the_key(self):
        run_pipeline(parse_program(UNGUARDED))
        misses = analysis._NEST_SUMMARIES.misses
        run_pipeline(parse_program(UNGUARDED.replace("a(200)", "a(300)")))
        assert analysis._NEST_SUMMARIES.misses == misses + 1
        run_pipeline(parse_program(UNGUARDED.replace("integer k", "real k")))
        assert analysis._NEST_SUMMARIES.misses == misses + 2

    def test_options_are_part_of_the_key(self):
        run_pipeline(parse_program(UNGUARDED), AnalysisOptions.predicated())
        misses = analysis._NEST_SUMMARIES.misses
        run_pipeline(parse_program(UNGUARDED), AnalysisOptions.base())
        assert analysis._NEST_SUMMARIES.misses == misses + 1

    def test_main_and_subroutine_copies_share_one_entry(self):
        # the main program's copy is stored unprojected (nothing reads
        # it); the subroutine's copy binds the same entry, projects the
        # value its caller reads through the proc value and stores new
        # rows that carry it, which the caller's own copy then binds
        opts = AnalysisOptions.predicated()
        goals = ("result", "summary")
        cold_facts = _facts(BOTH, opts)
        assert {r[0]: r[2] for r in cold_facts[0]}["both:L2"] == "parallel_private"
        perf.reset_all_caches()
        cold = run_pipeline(parse_program(BOTH), opts, goals=goals)
        perf.reset_all_caches()

        run_pipeline(parse_program(MAIN_NEST), opts)
        stored = dict(analysis._NEST_SUMMARIES.data)
        (key,) = [k for k in stored if "x(i) = 0.0" in k[0]]
        rows = stored[key]
        assert rows[-1][2] is None
        hits = analysis._NEST_SUMMARIES.hits
        warm = run_pipeline(parse_program(BOTH), opts, goals=goals)
        # both copies bound the one entry; its rows were replaced, not
        # written in place
        assert analysis._NEST_SUMMARIES.hits == hits + 2
        assert analysis._NEST_SUMMARIES.data.keys() == stored.keys()
        entry = analysis._NEST_SUMMARIES.data[key]
        assert rows[-1][2] is None
        # (a nest memo row's label is not read: rows bind by position)
        assert entry[:-1] == rows[:-1]
        assert (entry[-1][1], entry[-1][3]) == (rows[-1][1], rows[-1][3])
        (f_loop,) = cold.get("summary", "f").loops.values()
        assert entry[-1][2] == f_loop.loop_value

        def values(ctx, unit):
            summary = ctx.get("summary", unit)
            return summary.proc_value, [
                (ls.label, ls.body_value, ls.loop_value)
                for ls in summary.loops.values()
            ]

        assert values(warm, "f") == values(cold, "f")
        assert values(warm, "both") == values(cold, "both")
        assert _facts(BOTH, opts) == cold_facts


PRIVATE = """\
program private
  integer n
  real a(100), t(10)
  read n
  do i = 1, n
    t(1) = a(i)
    a(i) = t(1) * 2.0
  enddo
  print a(1)
end
"""


class TestBudgets:
    def test_tripped_work_is_never_stored(self):
        # the first FM combination trips the budget inside the walk (the
        # inner loop's projection): the unit and every decision degrade,
        # and the memo keeps none of it, so the unbudgeted run that
        # follows answers as a cold one
        from repro.service import Budget, budget_scope

        opts = AnalysisOptions.predicated()
        cold = _facts(SECOND, opts)
        perf.reset_all_caches()
        before = perf.counter("budget.degraded_unit")
        with budget_scope(Budget(max_fm_constraints=1)):
            ctx = run_pipeline(parse_program(SECOND), opts)
        assert ctx.degraded
        assert perf.counter("budget.degraded_unit") == before + 1
        assert analysis._NEST_SUMMARIES.data == {}
        assert driver._NEST_DECISIONS.data == {}
        assert _facts(SECOND, opts) == cold

    def test_trip_in_a_lazy_projection_demotes_the_loop(self, monkeypatch, tmp_path):
        # the walk leaves the main program's loop unprojected; deciding
        # it reads the projection for t's copy-in region, and a trip
        # there demotes that loop alone and stores no decisions
        from repro.service.budgets import BudgetExceeded
        from repro.service.cache import SummaryCache

        opts = AnalysisOptions.predicated()
        cold = _facts(PRIVATE, opts)
        assert [(r[2], r[7]) for r in cold[0]] == [("parallel_private", ["t"])]
        perf.reset_all_caches()

        def tripped(*_args, **_kwargs):
            raise BudgetExceeded("fm")

        monkeypatch.setattr(analysis, "_project_loop", tripped)
        units = perf.counter("budget.degraded_unit")
        loops = perf.counter("budget.degraded_loop")
        cache = SummaryCache(tmp_path / "c")
        ctx = run_pipeline(parse_program(PRIVATE), opts, cache=cache)
        (row,) = ctx.get("result").loops
        assert row.status == "serial"
        assert row.reason == "budget exhausted: not proven parallel"
        assert ctx.degraded
        assert perf.counter("budget.degraded_unit") == units
        assert perf.counter("budget.degraded_loop") == loops + 1
        # the walk's rows are kept, no decision is
        assert len(analysis._NEST_SUMMARIES.data) == 1
        assert driver._NEST_DECISIONS.data == {}
        kinds = {p.name.split(".")[-2] for p in cache.root.glob("*/*.pkl")}
        assert "summary" in kinds
        assert not kinds & {"decisions", "program"}
        monkeypatch.undo()
        assert _facts(PRIVATE, opts) == cold

    def test_degraded_decisions_are_never_stored(self, monkeypatch):
        # a trip while deciding (the walk finished and is kept) leaves
        # the nest's decisions out of the memo
        from repro.service.budgets import BudgetExceeded

        opts = AnalysisOptions.predicated()
        cold = _facts(UNGUARDED, opts)
        perf.reset_all_caches()

        def tripped(*_args, **_kwargs):
            raise BudgetExceeded("fm")

        monkeypatch.setattr(driver, "decide_loop", tripped)
        ctx = run_pipeline(parse_program(UNGUARDED), opts)
        assert ctx.degraded
        assert len(analysis._NEST_SUMMARIES.data) == 1
        assert driver._NEST_DECISIONS.data == {}
        monkeypatch.undo()
        assert _facts(UNGUARDED, opts) == cold
