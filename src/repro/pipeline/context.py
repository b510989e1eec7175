"""The per-compilation result store shared by all passes.

A :class:`ProgramContext` owns every artifact one compile flow produces:
program-scoped artifacts under ``(name, None)`` and unit-scoped ones
under ``(name, unit)``.  Passes communicate *only* through the store.
Each key is written once per run, so the final store contents are a
pure function of the inputs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.arraydf.options import AnalysisOptions


class MissingArtifact(KeyError):
    """A pass read an artifact nothing produced (wiring bug)."""

    def __init__(self, artifact: str, unit: Optional[str]) -> None:
        self.artifact = artifact
        self.unit = unit
        where = f" for unit {unit!r}" if unit is not None else ""
        super().__init__(f"artifact {artifact!r}{where} has not been produced")


class ProgramContext:
    """All analysis artifacts of one program's compile flow."""

    def __init__(
        self,
        source_program,
        opts: Optional[AnalysisOptions] = None,
        cache=None,
    ) -> None:
        #: the program exactly as parsed (pre scalar propagation)
        self.source_program = source_program
        self.opts = opts or AnalysisOptions.predicated()
        #: optional :class:`~repro.service.cache.SummaryCache`
        self.cache = cache
        self._store: Dict[Tuple[str, Optional[str]], Any] = {
            ("source_program", None): source_program
        }
        #: filled by ``run_pipeline(..., explain=True)``
        self.explain: Optional[dict] = None

    # ------------------------------------------------------------------
    # artifact store
    # ------------------------------------------------------------------
    def put(self, artifact: str, value: Any, unit: Optional[str] = None) -> None:
        """Store *value* under ``(artifact, unit)``.

        Re-writing a key is allowed only with the same value semantics;
        passes themselves write each key once.
        """
        self._store[(artifact, unit)] = value

    def get(self, artifact: str, unit: Optional[str] = None) -> Any:
        try:
            return self._store[(artifact, unit)]
        except KeyError:
            raise MissingArtifact(artifact, unit) from None

    def has(self, artifact: str, unit: Optional[str] = None) -> bool:
        return (artifact, unit) in self._store

    # ------------------------------------------------------------------
    # common views
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The :class:`~repro.arraydf.analysis.ArrayDataflow` engine."""
        return self.get("engine")

    @property
    def degraded(self) -> bool:
        """Did any pass degrade under a budget?

        Covers both granularities — budget-demoted loop decisions and
        budget-demoted (tainted) unit summaries.  Deterministic for a
        given cache state, unlike a delta over the process-global
        ``budget.*`` counters, which concurrent service jobs would
        cross-contaminate.
        """
        if self.has("degraded") and self.get("degraded"):
            return True
        return bool(self.has("engine") and self.engine.tainted_units)

    def unit_names(self) -> Tuple[str, ...]:
        """Compilation units in program (parse) order."""
        return tuple(self.source_program.units)

    def __repr__(self) -> str:
        return (
            f"ProgramContext({self.source_program.main!r}, "
            f"{len(self._store)} artifacts)"
        )
