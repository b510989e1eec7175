"""Byte-identity of experiment outputs with the tiered oracle vs. the
ground path.

The tiered oracle is a pure cost optimization: every `is_unsat` /
`implies` / `equivalent` answer must equal the ground path's
(``tests/predicates/reference.py``), so the formatted experiment outputs
— the paper's tables — must match byte for byte between the two.  (Cost
figures like the fig_overhead op counts legitimately differ; identity is
asserted on the result tables.)
"""

from repro import perf
from repro.experiments import fig1_examples, table2_programs

from tests.predicates.reference import ground_oracle


def _formatted():
    perf.reset_all_caches()
    perf.reset_counters()
    return (
        table2_programs.run().format(),
        fig1_examples.run().format(),
    )


def test_experiment_outputs_identical_both_modes():
    with_oracle = _formatted()
    with ground_oracle():
        ground = _formatted()
    assert with_oracle[0] == ground[0]  # Table 2 (predicated)
    assert with_oracle[1] == ground[1]  # Figure 1 examples
