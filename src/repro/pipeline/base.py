"""The typed pass contract.

A :class:`Pass` is one stage of the compile flow with *declared* data
dependencies: it names the artifacts it reads (``inputs``) and the
artifacts it writes (``outputs``).  Artifacts live in a
:class:`~repro.pipeline.context.ProgramContext`, keyed per compilation
unit for unit-scoped passes and per program for program-scoped ones.
The :class:`~repro.pipeline.manager.PassManager` uses the declarations
— never the pass bodies — to schedule work, so the dependence structure
of the analysis itself is explicit.

The contract every pass must honor:

* **declared I/O only** — ``run`` may read exactly its declared inputs
  (for unit scope: its own unit's artifacts, plus its callees' for
  inputs suffixed ``@callees``) and must write every declared output;
* **purity per key** — a unit-scoped pass result is a pure function of
  its declared inputs, so the content-addressed cache cannot change
  results;
* **budget behavior** — a pass that can exhaust the active
  :class:`~repro.service.budgets.Budget` must degrade *soundly* (answers
  only move toward "not parallel") and mark the context degraded so
  nothing downstream is cached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.context import ProgramContext

#: suffix marking a unit-scope input that is read from the unit's
#: callees rather than the unit itself (the bottom-up callgraph edge)
CALLEES_SUFFIX = "@callees"

#: the one artifact every pipeline starts from (preloaded by the context)
ROOT_ARTIFACT = "source_program"

PROGRAM_SCOPE = "program"
UNIT_SCOPE = "unit"


def base_artifact(name: str) -> str:
    """Strip the ``@callees`` marker off an input declaration."""
    if name.endswith(CALLEES_SUFFIX):
        return name[: -len(CALLEES_SUFFIX)]
    return name


def is_callee_input(name: str) -> bool:
    return name.endswith(CALLEES_SUFFIX)


class Pass:
    """Base class for pipeline passes (see the module docstring)."""

    #: unique pass name; also the perf phase key (``pass.<name>``)
    name: str = "?"
    #: "program" (one task) or "unit" (one task per compilation unit)
    scope: str = PROGRAM_SCOPE
    #: artifacts read; unit scope may mark inputs ``<artifact>@callees``
    inputs: Tuple[str, ...] = ()
    #: artifacts written (unit scope: for the task's own unit)
    outputs: Tuple[str, ...] = ()
    #: participates in the content-addressed summary cache
    cacheable: bool = False

    def run(self, ctx: "ProgramContext", unit: Optional[str] = None) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-able declaration record (``--explain-pipeline``)."""
        return {
            "name": self.name,
            "scope": self.scope,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "cacheable": self.cacheable,
        }

    def __repr__(self) -> str:
        return (
            f"<Pass {self.name} {self.scope} "
            f"{list(self.inputs)} -> {list(self.outputs)}>"
        )
