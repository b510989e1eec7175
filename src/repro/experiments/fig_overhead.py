"""FIGO — analysis cost and run-time-test overhead.

Two of the paper's quantified claims:

* the predicated analysis costs more compile time than the base
  analysis, but the blowup stays modest (per-suite cost ratio);
* the derived run-time tests are **low-cost** — a handful of scalar
  predicate atoms, versus an inspector/executor whose overhead is "on
  the order of the aggregate size of the arrays" involved.  We measure
  both quantities for every run-time-tested loop.

Analysis cost is measured in **deterministic substrate operations**
(:func:`repro.perf.total_ops`: affine/constraint/system constructions,
FM eliminations and pair combinations, ground feasibility runs) rather
than wall-clock seconds.  Each measured analysis starts from cold caches
(:func:`repro.perf.reset_all_caches`), so the counts are a pure function
of the program and options — identical across machines, runs, and
``--jobs`` fan-out — while still tracking the work ratio the paper's
wall-clock figure reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import perf
from repro.arraydf.options import AnalysisOptions
from repro.experiments.common import format_table, parallel_map
from repro.partests.driver import analyze_program
from repro.suites import SUITE_NAMES, all_programs, get_program


@dataclass
class SuiteCost:
    suite: str
    base_ops: int = 0
    predicated_ops: int = 0

    @property
    def ratio(self) -> float:
        return (
            self.predicated_ops / self.base_ops
            if self.base_ops
            else float("inf")
        )


@dataclass
class TestCostRow:
    program: str
    label: str
    test_atoms: int  # cost of the derived scalar test
    inspector_cost: int  # aggregate array elements an inspector touches


@dataclass
class ProgramCost:
    """Per-program worker payload (picklable)."""

    program: str
    suite: str
    base_ops: int = 0
    predicated_ops: int = 0
    test_costs: List[TestCostRow] = field(default_factory=list)


@dataclass
class FigOverhead:
    suite_costs: List[SuiteCost] = field(default_factory=list)
    test_costs: List[TestCostRow] = field(default_factory=list)

    def format(self) -> str:
        body = [
            [
                c.suite,
                f"{c.base_ops} ops",
                f"{c.predicated_ops} ops",
                f"{c.ratio:.2f}x",
            ]
            for c in self.suite_costs
        ]
        out = format_table(
            ["suite", "base analysis", "predicated analysis", "ratio"],
            body,
            title="FIGO-a: compile-time analysis cost (substrate ops)",
        )
        body2 = [
            [
                r.program,
                r.label,
                r.test_atoms,
                r.inspector_cost,
                f"{r.inspector_cost / max(r.test_atoms, 1):.0f}x",
            ]
            for r in self.test_costs
        ]
        out += "\n\n" + format_table(
            [
                "program",
                "loop",
                "test atoms",
                "inspector elements",
                "advantage",
            ],
            body2,
            title="FIGO-b: run-time test cost vs inspector/executor",
        )
        return out


def _inspector_cost(bench, label: str) -> int:
    """Elements an inspector would shadow: the dynamic access count of
    the loop's arrays (measured with the ELPD instrumentation itself)."""
    from repro.runtime.elpd import run_elpd

    rep = run_elpd(bench.fresh_program(), bench.inputs, target_labels=[label])
    obs = rep.observations.get(label)
    if obs is None:
        return 0
    return obs.total_iterations  # per-iteration at least one access


def _measured_ops(bench, opts: AnalysisOptions):
    """(result, substrate op count) of one cold-cache analysis."""
    perf.reset_all_caches()
    perf.reset_counters()
    result = analyze_program(bench.fresh_program(), opts)
    return result, perf.total_ops()


def _program_cost(name: str) -> ProgramCost:
    """Self-contained per-program worker (picklable; runs in a pool)."""
    bench = get_program(name)
    _, base_ops = _measured_ops(bench, AnalysisOptions.base())
    pred, pred_ops = _measured_ops(bench, AnalysisOptions.predicated())
    cost = ProgramCost(bench.name, bench.suite, base_ops, pred_ops)
    for l in pred.loops:
        if l.status == "runtime":
            cost.test_costs.append(
                TestCostRow(
                    bench.name,
                    l.label,
                    l.runtime_cost,
                    _inspector_cost(bench, l.label),
                )
            )
    return cost


def run(jobs: int = 1) -> FigOverhead:
    out = FigOverhead()
    per_suite: Dict[str, SuiteCost] = {
        s: SuiteCost(s) for s in SUITE_NAMES
    }
    names = [b.name for b in all_programs()]
    for cost in parallel_map(_program_cost, names, jobs):
        per_suite[cost.suite].base_ops += cost.base_ops
        per_suite[cost.suite].predicated_ops += cost.predicated_ops
        out.test_costs.extend(cost.test_costs)
    out.suite_costs = [per_suite[s] for s in SUITE_NAMES]
    return out


def main() -> None:
    print(run().format())


if __name__ == "__main__":
    main()
