"""Summary rebinding and the conservative call value.

``ArrayDataflow._rebind_summary`` reattaches a cached per-unit payload
to the current parse; the conservative call value is the sound fallback
for call sites without a usable callee summary.  Both paths feed the
parallelization decisions, so these tests pin them structurally,
through the pass pipeline.
"""

import pytest

from repro import perf
from repro.arraydf.analysis import ArrayDataflow, _UnitWalker, _summary_payload
from repro.arraydf.options import AnalysisOptions
from repro.ir.regiongraph import CallRegion, build_region_tree
from repro.lang.astnodes import walk_stmts
from repro.lang.parser import parse_program
from repro.partests.driver import analyze_program
from repro.service.cache import SummaryCache

SRC = """
program main
  integer n
  real a(100), b(100)
  read n
  call fill(a, n)
  call fill(b, n)
  do i = 1, n
    a(i) = a(i) + b(i)
  enddo
  print a(n)
end
subroutine fill(x, m)
  integer m
  real x(100)
  do j = 1, m
    x(j) = 0.0
  enddo
end
"""


@pytest.fixture(autouse=True)
def _cold():
    perf.reset_all_caches()
    yield
    perf.reset_all_caches()


def _loops_by_label(summary):
    return {ls.label: ls for ls in summary.loops.values()}


class TestRebindSummary:
    def test_roundtrip_is_structurally_identical(self):
        """payload → rebind on a fresh parse == a fresh walk."""
        opts = AnalysisOptions.predicated()
        fresh = ArrayDataflow(parse_program(SRC), opts).run()
        other = ArrayDataflow(parse_program(SRC), opts)
        for name in other.callgraph.bottom_up_order():
            payload = _summary_payload(fresh.units[name])
            rebound = other._rebind_summary(
                payload, other.program.units[name]
            )
            assert rebound is not None
            other.units[name] = rebound  # callees for later units
            reference = fresh.units[name]
            assert rebound.unit_name == reference.unit_name
            assert rebound.proc_value == reference.proc_value
            ref_loops = _loops_by_label(reference)
            reb_loops = _loops_by_label(rebound)
            assert reb_loops.keys() == ref_loops.keys()
            for label, ls in reb_loops.items():
                ref = ref_loops[label]
                assert ls.body_value == ref.body_value
                assert ls.loop_value == ref.loop_value
                assert ls.path_pred == ref.path_pred
                # the rebind must point at *this* parse's AST, not the
                # one the payload came from
                assert ls.loop is not ref.loop

    def test_rejects_malformed_payload(self):
        df = ArrayDataflow(parse_program(SRC), AnalysisOptions.predicated())
        unit = df.program.units["fill"]
        assert df._rebind_summary(None, unit) is None
        assert df._rebind_summary(42, unit) is None
        assert df._rebind_summary((None,), unit) is None

    def test_rejects_unknown_loop_label(self):
        opts = AnalysisOptions.predicated()
        fresh = ArrayDataflow(parse_program(SRC), opts).run()
        proc_value, loop_rows = _summary_payload(fresh.units["fill"])
        bad_rows = [("fill:L99", *row[1:]) for row in loop_rows]
        df = ArrayDataflow(parse_program(SRC), opts)
        assert (
            df._rebind_summary(
                (proc_value, bad_rows), df.program.units["fill"]
            )
            is None
        )

    def test_cache_hit_goes_through_rebind(self, tmp_path):
        """A warm cache run must equal the cold run structurally."""
        opts = AnalysisOptions.predicated()
        cache = SummaryCache(tmp_path)
        cold = ArrayDataflow(parse_program(SRC), opts, cache=cache).run()
        hits_before = perf.counter("cache.summary_hit")
        warm = ArrayDataflow(parse_program(SRC), opts, cache=cache).run()
        assert perf.counter("cache.summary_hit") > hits_before
        for name in cold.program.units:
            assert (
                _loops_by_label(warm.units[name]).keys()
                == _loops_by_label(cold.units[name]).keys()
            )
            assert warm.units[name].proc_value == cold.units[name].proc_value


class TestConservativeCallValue:
    def _call_region(self, df, unit_name):
        proc = build_region_tree(df.program.units[unit_name])
        calls = [
            r for r in _walk_regions(proc) if isinstance(r, CallRegion)
        ]
        assert calls
        return calls[0]

    def test_whole_array_may_access_nothing_must(self):
        opts = AnalysisOptions.predicated().without(interprocedural=False)
        df = ArrayDataflow(parse_program(SRC), opts)
        walker = _UnitWalker(df)
        region = self._call_region(df, "main")
        value = walker._conservative_call_value(
            region.stmt, df.symtabs["main"], []
        )
        # the passed array may be read and written anywhere...
        from repro.regions.region import ArrayRegion

        symtab = df.symtabs["main"]
        (r_reg,) = value.r.regions("a")
        assert r_reg == ArrayRegion.whole(
            "a", symtab.rank("a"), symtab.affine_extents("a")
        )
        assert value.r == value.w
        # ...but nothing is definitely written, everything may be exposed
        assert len(value.m) == 1 and value.m[0].summary.is_empty()
        assert len(value.e) == 1 and value.e[0].summary == value.r
        assert value.scalar_writes == frozenset()

    def test_no_interproc_decisions_are_conservative(self):
        """With summaries unusable, the caller loop over filled arrays
        must not be proven parallel from callee facts."""
        opts = AnalysisOptions.predicated().without(interprocedural=False)
        conservative = analyze_program(parse_program(SRC), opts)
        precise = analyze_program(parse_program(SRC), AnalysisOptions.predicated())
        by_label_cons = conservative.by_label()
        by_label_prec = precise.by_label()
        assert by_label_cons.keys() == by_label_prec.keys()
        # the callee's own loop is independent either way
        assert by_label_prec["fill:L1"].is_parallelized
        assert by_label_cons["fill:L1"].is_parallelized


def _walk_regions(region):
    yield region
    for child in region.children():
        yield from _walk_regions(child)
