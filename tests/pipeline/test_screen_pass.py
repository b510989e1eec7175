"""The screen pass in the pipeline: elision, cache, executors.

Two integration properties beyond the unit-level classification tests:

* an outermost loop of the main program is projected only when its
  value is read — for a privatized array's copy-in region — so the
  projection of a screened-independent one is elided; a read gets
  exactly what the unscreened walk's eager projection produces, also
  from the nest memo and from the summary cache;
* the screen is invisible in the results — screened and unscreened
  (``tests/pipeline/reference.py``), cold and warm cache, serial runs
  and pooled batches all agree.
"""

from contextlib import nullcontext

from repro import perf
from repro.arraydf.analysis import ArrayDataflow
from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.pipeline import run_pipeline, run_pipeline_batch
from repro.service.cache import SummaryCache
from repro.suites import all_programs, get_program

from tests.pipeline.reference import eager_loop_values, unscreened

#: every loop screens independent, main's included
SKIP_SRC = """program main
  integer n
  real a(100), b(100)
  read n
  call initone(a, n)
  call inittwo(b, n)
  do i = 1, n
    a(i) = a(i) + b(i)
  enddo
  print a(n)
end
subroutine initone(x, m)
  integer m
  real x(100)
  do i = 1, m
    x(i) = 0.0
  enddo
end
subroutine inittwo(y, m)
  integer m
  real y(100)
  do i = 1, m
    y(i) = 1.0
  enddo
end
"""

OPTS = AnalysisOptions.predicated()


def _result_rows(result):
    return [
        (l.label, l.status, str(l.condition), l.reason, l.enclosed)
        for l in result.loops
    ]


def _rows(ctx):
    return _result_rows(ctx.get("result"))


def _run(program, screen_on, **kw):
    with nullcontext() if screen_on else unscreened():
        perf.reset_all_caches()
        try:
            return run_pipeline(program, OPTS, **kw)
        finally:
            perf.reset_all_caches()


class TestWholeUnitSkip:
    """A caller-free unit whose every loop screens independent decides
    exactly as the unscreened analysis does."""

    def test_skipped_unit_decisions_match_screen_off(self):
        on = _rows(_run(parse_program(SKIP_SRC), True, goals=("result",)))
        off = _rows(_run(parse_program(SKIP_SRC), False, goals=("result",)))
        assert on == off


class TestElision:
    def test_outermost_screened_loops_skip_projection(self):
        ctx = _run(
            get_program("hydro2d").fresh_program(),
            True,
            goals=("result", "summary", "screen"),
        )
        summary = ctx.get("summary", "hydro2d")
        screened = ctx.get("screen", "hydro2d")
        rows = ctx.get("result").by_label()
        unread = [ls for ls in summary.loops.values() if ls.projected is None]
        assert any(
            screened(ls.label) is not None and not rows[ls.label].private_arrays
            for ls in unread
        ), "every loop was projected — the lazy path is dead"
        for ls in summary.loops.values():
            # an inner loop's value feeds its outer loop's body, and a
            # privatized array's copy-in reads the loop's own value
            if ls.info.region.loop_depth() > 0 or rows[ls.label].private_arrays:
                assert ls.projected is not None, ls.label

    def test_reprojection_recovers_the_screen_off_value(self):
        # the suite in one warm process, so later programs bind nest
        # memo rows that earlier ones stored
        sources = [b.source for b in all_programs()]
        checked = 0
        for opts in (OPTS, AnalysisOptions.base()):
            reference = [eager_loop_values(parse_program(s), opts) for s in sources]
            perf.reset_all_caches()
            try:
                for source, ref in zip(sources, reference):
                    ctx = run_pipeline(
                        parse_program(source), opts, goals=("result", "summary")
                    )
                    values = {
                        ls.label: (ls.body_value, ls.loop_value)
                        for name in ctx.unit_names()
                        for ls in ctx.get("summary", name).loops.values()
                    }
                    assert values == {label: ref[label] for label in values}
                    checked += len(values)
            finally:
                perf.reset_all_caches()
        assert checked > 0

    def test_elided_summaries_rebind_from_the_cache(self, tmp_path):
        # the stored main-program summary holds no proc value and an
        # unprojected row per unread outermost loop; the rebound rows
        # project to the cold walk's values when read
        cache = SummaryCache(tmp_path / "c")

        def walk(cache=None):
            program = get_program("hydro2d").fresh_program()
            return ArrayDataflow(program, OPTS, cache=cache).run()

        cold = {ls.label: ls.loop_value for ls in walk().units["hydro2d"].loops.values()}
        stored = walk(cache)
        proc_value, rows = cache.load(stored.unit_keys["hydro2d"], "summary")
        assert proc_value is None
        unprojected = {row[0] for row in rows if row[2] is None}
        assert unprojected
        hits = perf.counter("cache.summary_hit")
        warm = walk(cache).units["hydro2d"]
        assert perf.counter("cache.summary_hit") == hits + 1
        loops = {ls.label: ls for ls in warm.loops.values()}
        assert loops.keys() == cold.keys()
        assert {l for l, ls in loops.items() if ls.projected is None} == unprojected
        assert {l: ls.loop_value for l, ls in loops.items()} == cold


class TestWarmAndExecutors:
    def test_warm_screen_cache_is_identical(self, tmp_path):
        # a whole-program warm run short-circuits at the program-level
        # cache, so edit one unit: the program key misses, the
        # *untouched* initone serves its summary from disk, and the
        # screen recomputes its rows (it has no cache entry)
        cache = SummaryCache(tmp_path / "c")
        edited = SKIP_SRC.replace("y(i) = 1.0", "y(i) = 2.0")
        _run(parse_program(SKIP_SRC), True, cache=cache, goals=("result",))
        hits = perf.counter("cache.summary_hit")
        warm = _rows(
            _run(parse_program(edited), True, cache=cache, goals=("result",))
        )
        assert perf.counter("cache.summary_hit") == hits + 1
        assert not list(cache.root.glob("*/*.screen.pkl"))
        cold = _rows(_run(parse_program(edited), True, goals=("result",)))
        assert warm == cold

    def test_pool_agrees_with_serial(self):
        """Pool workers screen exactly as the parent does."""
        serial = _rows(_run(parse_program(SKIP_SRC), True, goals=("result",)))
        for jobs in (2, 4):
            perf.reset_all_caches()
            pooled = run_pipeline_batch(
                [parse_program(SKIP_SRC), parse_program(SKIP_SRC)],
                OPTS,
                jobs=jobs,
                chunk=1,
            )
            assert [_result_rows(r) for r in pooled] == [serial, serial], jobs
