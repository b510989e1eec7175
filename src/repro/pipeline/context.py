"""The per-compilation result store shared by all passes.

A :class:`ProgramContext` owns every artifact one compile flow produces:
program-scoped artifacts under ``(name, None)`` and unit-scoped ones
under ``(name, unit)``.  Passes communicate *only* through the store, so
the :class:`~repro.pipeline.manager.PassManager` can schedule any two
tasks whose declared artifact keys do not depend on each other — in
particular, unit tasks over independent subtrees of the callgraph —
concurrently.  Keys are written exactly once (per run), always by the
scheduling thread (pool results are merged there), which makes the
parallel merge deterministic: the final store contents are a pure
function of the inputs, never of scheduling order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

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
        #: raw shipped payloads from process-executor tasks, kept beside
        #: the hydrated artifacts (see :meth:`stash_payload`)
        self._payloads: Dict[Tuple[str, Optional[str]], Any] = {}
        #: filled by ``PassManager.run(..., explain=True)``
        self.explain: Optional[dict] = None

    # ------------------------------------------------------------------
    # artifact store
    # ------------------------------------------------------------------
    def put(self, artifact: str, value: Any, unit: Optional[str] = None) -> None:
        """Store *value* under ``(artifact, unit)``.

        Re-writing a key is allowed only with the same value semantics
        (e.g. a shim preloading a cached result before the manager
        runs); passes themselves write each key once.
        """
        self._store[(artifact, unit)] = value

    def get(self, artifact: str, unit: Optional[str] = None) -> Any:
        try:
            return self._store[(artifact, unit)]
        except KeyError:
            raise MissingArtifact(artifact, unit) from None

    def has(self, artifact: str, unit: Optional[str] = None) -> bool:
        return (artifact, unit) in self._store

    def get_all(self, artifact: str, units: Iterable[str]) -> Dict[str, Any]:
        """The artifact for every unit of *units* (program-scope reads)."""
        return {u: self.get(artifact, u) for u in units}

    def stash_payload(
        self, artifact: str, unit: Optional[str], payload: Any
    ) -> None:
        """Keep the raw (picklable) payload a worker shipped for
        ``(artifact, unit)``.

        When the parent merges a process-executor result it *hydrates*
        the payload into interned values for the store (so local passes
        read normal artifacts), but later remote tasks that declare the
        artifact as an input can be fed the already-serialized payload
        verbatim instead of re-projecting the hydrated value.
        """
        self._payloads[(artifact, unit)] = payload

    def payload(self, artifact: str, unit: Optional[str] = None) -> Any:
        """The stashed shipped payload for ``(artifact, unit)``, or
        ``None`` when the artifact was produced locally."""
        return self._payloads.get((artifact, unit))

    def available_artifacts(self) -> Tuple[str, ...]:
        """The distinct artifact names currently present (for wiring
        validation against preloaded contexts)."""
        return tuple(sorted({name for name, _unit in self._store}))

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
        budget-demoted (tainted) unit summaries — including degradation
        inside pool workers, whose taint flags travel back in the merged
        payloads.  Deterministic for a given cache state, unlike a delta
        over the process-global ``budget.*`` counters, which concurrent
        service jobs would cross-contaminate.
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
