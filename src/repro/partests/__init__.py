"""Dependence and privatization testing, run-time test derivation.

Consumes the per-loop :class:`~repro.arraydf.analysis.LoopSummary`
values and decides, per candidate loop:

* **parallel** — independent as-is;
* **parallel after privatization** — cross-iteration conflicts vanish
  when listed arrays (and scalars) get per-iteration private copies;
* **run-time test** — parallel under a derived predicate evaluable
  before the loop (the paper's headline mechanism);
* **serial** — no strategy proved safe.
"""

from repro.partests.dependence import (
    ArrayVerdict,
    LoopVerdict,
    test_loop,
)
from repro.partests.driver import ProgramResult, analyze_program
from repro.partests.runtime_tests import is_runtime_evaluable, render_predicate

__all__ = [
    "ArrayVerdict",
    "LoopVerdict",
    "test_loop",
    "ProgramResult",
    "analyze_program",
    "is_runtime_evaluable",
    "render_predicate",
]
