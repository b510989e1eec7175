"""The screen pass in the pipeline: skip, elision, cache, executors.

Three integration properties beyond the unit-level classification
tests:

* a caller-free, fully-covered unit skips summarization outright — its
  "summary" is the :class:`~repro.arraydf.screen.ScreenedUnit` sentinel
  and its decisions come straight from the screen's pre-made rows;
* an outermost screened-independent loop of a caller-free unit skips
  its loop projection (``elided=True``); :func:`reproject_loop` can
  recompute the projected value on demand and gets exactly what the
  unscreened walk produces;
* both paths are invisible in the results — screened and unscreened
  (``tests/pipeline/reference.py``), cold and warm cache, serial runs
  and pooled batches all agree.
"""

from contextlib import nullcontext

from repro import perf
from repro.arraydf.analysis import reproject_loop
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.screen import ScreenedUnit
from repro.lang.parser import parse_program
from repro.pipeline import run_pipeline, run_pipeline_batch
from repro.service.cache import SummaryCache
from repro.suites import get_program

from tests.pipeline.reference import unscreened

#: main is caller-free and every loop screens (independent): the
#: whole-unit skip fires for it, while the subroutines keep the full walk
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
    def test_screened_unit_sentinel_replaces_the_summary(self):
        ctx = _run(
            parse_program(SKIP_SRC), True, goals=("result", "summary")
        )
        assert isinstance(ctx.get("summary", "main"), ScreenedUnit)
        # called units keep their real summaries (their proc values feed
        # the callers)
        assert not isinstance(ctx.get("summary", "initone"), ScreenedUnit)

    def test_skip_counts_saved_units(self):
        perf.reset_counters()
        _run(parse_program(SKIP_SRC), True, goals=("result",))
        assert perf.counter("screen.saved_units") > 0

    def test_skipped_unit_decisions_match_screen_off(self):
        on = _rows(_run(parse_program(SKIP_SRC), True, goals=("result",)))
        off = _rows(_run(parse_program(SKIP_SRC), False, goals=("result",)))
        assert on == off

    def test_screen_off_runs_the_full_walk(self):
        ctx = _run(
            parse_program(SKIP_SRC), False, goals=("result", "summary")
        )
        assert not isinstance(ctx.get("summary", "main"), ScreenedUnit)


class TestElision:
    def test_outermost_screened_loops_skip_projection(self):
        ctx = _run(
            get_program("hydro2d").fresh_program(),
            True,
            goals=("result", "summary"),
        )
        summary = ctx.get("summary", "hydro2d")
        elided = {l.label for l, s in summary.loops.items() if s.elided}
        assert elided, "no loop was elided — the fast path is dead"
        from repro.arraydf.values import AccessValue

        for l, s in summary.loops.items():
            if s.elided:
                assert s.loop_value == AccessValue.empty()

    def test_reprojection_recovers_the_screen_off_value(self):
        on = _run(
            get_program("hydro2d").fresh_program(),
            True,
            goals=("summary",),
        ).get("summary", "hydro2d")
        off = _run(
            get_program("hydro2d").fresh_program(),
            False,
            goals=("summary",),
        ).get("summary", "hydro2d")
        off_by_label = {l.label: s for l, s in off.loops.items()}
        checked = 0
        for l, s in on.loops.items():
            if not s.elided:
                continue
            recovered = reproject_loop(s, OPTS)
            assert recovered == off_by_label[l.label].loop_value, l.label
            checked += 1
        assert checked > 0

    def test_elided_summaries_stay_out_of_the_cache(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        _run(
            get_program("hydro2d").fresh_program(),
            True,
            cache=cache,
            goals=("result",),
        )
        # screen rows are cached; the unit summary (whose loop rows
        # would hold placeholder values) must not be
        kinds = {p.name.split(".")[-2] for p in cache.root.glob("*/*.pkl")}
        assert "screen" in kinds
        assert "summary" not in kinds


class TestWarmAndExecutors:
    def test_warm_screen_cache_is_identical(self, tmp_path):
        # a whole-program warm run short-circuits at the program-level
        # cache, so edit one unit: the program key misses, while the
        # screen entries of the *untouched* units (keyed on their own
        # content only) serve from disk
        cache = SummaryCache(tmp_path / "c")
        edited = SKIP_SRC.replace("y(i) = 1.0", "y(i) = 2.0")
        _run(parse_program(SKIP_SRC), True, cache=cache, goals=("result",))
        hits = perf.counter("cache.screen_hit")
        warm = _rows(
            _run(parse_program(edited), True, cache=cache, goals=("result",))
        )
        assert perf.counter("cache.screen_hit") > hits
        cold = _rows(_run(parse_program(edited), True, goals=("result",)))
        assert warm == cold

    def test_pool_agrees_with_serial(self):
        """Pool workers screen (and skip) exactly as the parent does."""
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
