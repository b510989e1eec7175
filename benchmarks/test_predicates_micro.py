"""Micro-benchmarks of the predicate oracle hot paths.

Three workloads mirror how the analysis exercises the oracle —
unsatisfiability of extracted guard conjunctions, implication chains
between guards, and semantic guarded-list compaction — plus one
whole-pipeline probe that analyzes a predicated (tab2) configuration
and records the deterministic op counts of the tiered oracle and of the
ground path (``tests/predicates/reference.py``) in ``extra_info``,
asserting the tiered path does strictly less ground feasibility work.

Compare runs against the committed recordings with
``benchmarks/check_regression.py`` (which runs this file alongside
``test_core_micro.py``).
"""

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.arraydf.values import GuardedSummary, _dedup_guarded
from repro.linalg.constraint import Constraint
from repro.linalg.system import LinearSystem
from repro.predicates import oracle
from repro.predicates.atoms import LinAtom, OpaqueAtom
from repro.predicates.formula import p_and, p_atom, p_not, p_or
from repro.regions.region import ArrayRegion
from repro.regions.summary import SummarySet
from repro.symbolic.affine import AffineExpr

from tests.predicates.reference import ground_oracle

C = AffineExpr.const
N = AffineExpr.var("n")
D = AffineExpr.var("d")
X = AffineExpr.var("x")
D0 = AffineExpr.var("__d0")


def _guard_family():
    """Predicates shaped like extracted guards: affine bounds over a few
    scalars, opaque flags, and their boolean combinations."""
    lin = [
        p_atom(LinAtom.ge(N, C(k))) for k in range(0, 8)
    ] + [
        p_atom(LinAtom.le(D, C(k))) for k in range(0, 4)
    ] + [
        p_atom(LinAtom.eq(X, C(k))) for k in range(0, 3)
    ]
    flags = [p_atom(OpaqueAtom(f"t{k}", ())) for k in range(3)]
    preds = []
    for i, a in enumerate(lin):
        preds.append(a)
        b = lin[(i * 5 + 3) % len(lin)]
        f = flags[i % len(flags)]
        preds.append(p_and(a, b))
        preds.append(p_or(p_and(a, f), p_and(b, p_not(f))))
        preds.append(p_and(a, p_not(b)))
    return preds


def test_oracle_unsat_throughput(benchmark):
    preds = _guard_family()
    perf.reset_all_caches()

    def probe():
        return sum(1 for p in preds if oracle.is_unsat(p))

    unsat = benchmark(probe)
    assert 0 <= unsat < len(preds)


def test_oracle_implies_chain(benchmark):
    """Pairwise implication over the guard family (steady state)."""
    preds = _guard_family()[:24]
    perf.reset_all_caches()

    def probe():
        return sum(
            1 for p in preds for q in preds if oracle.implies(p, q)
        )

    proven = benchmark(probe)
    assert proven >= len(preds)  # reflexive implications at minimum


def _interval_summary(lo, hi):
    return SummarySet.of(
        ArrayRegion(
            "a",
            1,
            LinearSystem(
                [Constraint.ge(D0, C(lo)), Constraint.le(D0, C(hi))]
            ),
        )
    )


def test_dedup_guarded_semantic(benchmark):
    """Semantic compaction of an inflated guarded list (cross-product
    shaped: duplicated, equivalent and dominated guards)."""
    ge = [p_atom(LinAtom.ge(N, C(k))) for k in range(6)]
    items = []
    for i in range(6):
        for j in range(6):
            pred = p_and(ge[i], ge[j])  # implies-chains: n>=max(i,j)
            items.append(GuardedSummary(pred, _interval_summary(0, 10 + i)))
            items.append(GuardedSummary(pred, _interval_summary(0, 10 + j)))
    perf.reset_all_caches()

    def probe():
        return _dedup_guarded(items, 6, keep="min")

    out = benchmark(probe)
    assert 0 < len(out) <= 6


def test_predicated_analysis_ops(benchmark):
    """Whole predicated (tab2-config) analysis of a branchy program.

    Times the tiered-oracle run and records the deterministic op
    counters of it and of the ground path in ``extra_info`` — the tiered
    path must do strictly less ground feasibility work while producing
    the same decisions (byte-identity is asserted by the integration
    suite).
    """
    from repro.partests.driver import analyze_program
    from repro.suites import get_program

    prog = get_program("hydro2d")

    def measure():
        perf.reset_all_caches()
        perf.reset_counters()
        analyze_program(prog.fresh_program(), AnalysisOptions.predicated())
        snap = perf.snapshot()
        return (
            snap["counters"].get("feasibility.ground", 0),
            snap["total_ops"],
        )

    ground_on, ops_on = measure()
    with ground_oracle():
        ground_off, ops_off = measure()

    assert ground_on < ground_off, (
        f"oracle must reduce ground feasibility work: "
        f"{ground_on} !< {ground_off}"
    )
    assert ops_on < ops_off
    benchmark.extra_info["feasibility.ground[oracle=on]"] = ground_on
    benchmark.extra_info["feasibility.ground[oracle=off]"] = ground_off
    benchmark.extra_info["total_ops[oracle=on]"] = ops_on
    benchmark.extra_info["total_ops[oracle=off]"] = ops_off

    def analyze():
        return analyze_program(
            prog.fresh_program(), AnalysisOptions.predicated()
        )

    result = benchmark(analyze)
    assert result.total_loops > 0
