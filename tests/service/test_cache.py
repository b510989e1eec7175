"""Tests for the content-addressed procedure-summary cache.

The heavyweight test here is the cross-process one: analyze a
multi-procedure program through the CLI, mutate one procedure, and
re-analyze — only the dirty subtree of the call graph (the edited
procedure and its transitive callers) recomputes, the rest is served
from disk, and the reports are byte-identical modulo the timing line.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.arraydf.options import AnalysisOptions
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program
from repro.service.cache import (
    SummaryCache,
    options_fingerprint,
    program_key,
    unit_key,
)

SRC = """program main
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

#: the same program with only ``inittwo`` edited
SRC_EDITED = SRC.replace("y(i) = 1.0", "y(i) = 2.0")


class TestKeys:
    def test_unit_key_deterministic(self):
        opts = AnalysisOptions.predicated()
        k1 = unit_key("src", [("f", "abc")], opts)
        k2 = unit_key("src", [("f", "abc")], opts)
        assert k1 == k2

    def test_unit_key_sensitive_to_everything(self):
        opts = AnalysisOptions.predicated()
        base = unit_key("src", [("f", "abc")], opts)
        assert unit_key("src2", [("f", "abc")], opts) != base
        assert unit_key("src", [("f", "xyz")], opts) != base
        assert unit_key("src", [("g", "abc")], opts) != base
        assert unit_key("src", [], opts) != base
        assert unit_key("src", [("f", "abc")], AnalysisOptions.base()) != base

    def test_callee_order_irrelevant(self):
        opts = AnalysisOptions.predicated()
        pairs = [("f", "1"), ("g", "2")]
        assert unit_key("s", pairs, opts) == unit_key("s", pairs[::-1], opts)

    def test_options_fingerprint_distinguishes_configs(self):
        fps = {
            options_fingerprint(o)
            for o in (
                AnalysisOptions.base(),
                AnalysisOptions.predicated(),
                AnalysisOptions.predicated().without(embedding=False),
            )
        }
        assert len(fps) == 3

    def test_program_key_sensitive_to_any_unit(self):
        opts = AnalysisOptions.predicated()
        assert program_key(parse_program(SRC), opts) != program_key(
            parse_program(SRC_EDITED), opts
        )
        assert program_key(parse_program(SRC), opts) == program_key(
            parse_program(SRC), opts
        )


class TestStore:
    def test_roundtrip(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        cache.store("ab" + "0" * 62, "summary", {"x": 1})
        assert cache.load("ab" + "0" * 62, "summary") == {"x": 1}
        assert cache.entry_count() == 1

    def test_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        assert cache.load("cd" + "0" * 62, "summary") is None

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        key = "ef" + "0" * 62
        cache.store(key, "summary", [1, 2, 3])
        path = cache._path(key, "summary")
        path.write_bytes(b"not a pickle")
        assert cache.load(key, "summary") is None
        assert not path.exists()

    def test_distinct_kinds_coexist(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        key = "01" + "0" * 62
        cache.store(key, "summary", "s")
        cache.store(key, "decisions", "d")
        assert cache.load(key, "summary") == "s"
        assert cache.load(key, "decisions") == "d"


class TestWarmRun:
    def test_warm_results_match_cold(self, tmp_path):
        cache = SummaryCache(tmp_path / "c")
        cold = analyze_program(parse_program(SRC), cache=cache)
        warm = analyze_program(parse_program(SRC), cache=cache)
        nocache = analyze_program(parse_program(SRC))
        for a in (warm, nocache):
            assert [
                (l.label, l.status, str(l.condition), l.reason) for l in a.loops
            ] == [
                (l.label, l.status, str(l.condition), l.reason)
                for l in cold.loops
            ]

    def test_warm_run_skips_reanalysis(self, tmp_path):
        from repro import perf

        cache = SummaryCache(tmp_path / "c")
        analyze_program(parse_program(SRC), cache=cache)
        base = perf.counter("cache.program_hit")
        analyze_program(parse_program(SRC), cache=cache)
        assert perf.counter("cache.program_hit") == base + 1


def _run_analyze(tmp_path, source_name, cache_dir):
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "analyze",
            str(tmp_path / source_name),
            "--cache",
            str(cache_dir),
            "--profile",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    text = proc.stdout
    split = text.index("{\n")
    report = re.sub(r"analysis: \S+ ms", "analysis: - ms", text[:split])
    counters = json.loads(text[split:])["counters"]
    return report, {
        k: v for k, v in counters.items() if k.startswith("cache.")
    }


def _report_rows(result):
    """Decision rows and the ``format_report`` text, timing stripped."""
    from repro.codegen.report import format_report

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
    return rows, re.sub(r"analysis: \S+ ms", "", format_report(result))


class TestSuiteUnitRebind:
    """Per-unit summary and decision hits rebind to the right result on
    every multi-unit suite program."""

    HITS = ("cache.program_hit", "cache.summary_hit", "cache.decisions_hit")

    @pytest.mark.parametrize(
        "opts",
        [AnalysisOptions.predicated(), AnalysisOptions.base()],
        ids=["predicated", "base"],
    )
    def test_edited_main_rebinds_every_subroutine(self, tmp_path, opts):
        from repro import perf
        from repro.suites import all_programs

        checked = 0
        for bench in all_programs():
            if len(bench.fresh_program().units) == 1:
                continue
            # one more print in main: no loop moves, the program key
            # misses, and every subroutine's unit key is unchanged
            head, end, tail = bench.source.partition("\nend\n")
            assert end, bench.name
            edited = head + "\n  print 0" + end + tail
            cache = SummaryCache(tmp_path / bench.name)
            perf.reset_all_caches()
            try:
                analyze_program(parse_program(bench.source), opts, cache=cache)
                perf.reset_all_caches()
                before = {k: perf.counter(k) for k in self.HITS}
                warm = analyze_program(parse_program(edited), opts, cache=cache)
                hits = {k: perf.counter(k) - before[k] for k in self.HITS}
                perf.reset_all_caches()
                cold = analyze_program(parse_program(edited), opts)
            finally:
                perf.reset_all_caches()
            subroutines = len(warm.program.units) - 1
            assert hits == {
                "cache.program_hit": 0,
                "cache.summary_hit": subroutines,
                "cache.decisions_hit": subroutines,
            }, bench.name
            assert _report_rows(warm) == _report_rows(cold), bench.name
            assert not list(cache.root.glob("*/*.screen.pkl")), bench.name
            checked += 1
        assert checked == 8


@pytest.mark.slow
class TestCrossProcess:
    def test_dirty_subtree_only(self, tmp_path):
        """Mutate one procedure: its callers recompute, the rest hits."""
        cache_dir = tmp_path / "cache"
        (tmp_path / "v.f").write_text(SRC)

        cold_report, cold = _run_analyze(tmp_path, "v.f", cache_dir)
        warm_report, warm = _run_analyze(tmp_path, "v.f", cache_dir)

        # warm process: one program-level hit, nothing recomputed
        assert warm["cache.program_hit"] == 1
        assert warm["cache.summary_miss"] == 0
        assert warm["cache.store"] == 0
        assert warm_report == cold_report

        # edit inittwo only: initone's summary + decisions are reused and
        # the dirty subtree recomputes: inittwo and main, which calls it
        (tmp_path / "v.f").write_text(SRC_EDITED)
        edited_report, edited = _run_analyze(tmp_path, "v.f", cache_dir)
        assert edited["cache.program_hit"] == 0
        assert edited["cache.summary_hit"] == 1  # initone
        assert edited["cache.summary_miss"] == 2  # inittwo, main
        assert edited["cache.decisions_hit"] == 1

        # and the second run of the edited program is fully warm again,
        # byte-identical to the first
        rewarm_report, rewarm = _run_analyze(tmp_path, "v.f", cache_dir)
        assert rewarm["cache.program_hit"] == 1
        assert rewarm["cache.summary_miss"] == 0
        assert rewarm_report == edited_report
