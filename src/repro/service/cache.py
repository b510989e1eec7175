"""Content-addressed, on-disk procedure-summary cache.

The analysis pipeline is bottom-up over the call graph, which makes it
naturally incremental: a procedure's analysis result is a pure function
of

* the canonical source text of the procedure (``unit_str`` of its AST,
  after scalar propagation — exactly what the walker sees),
* the cache keys of its callees (transitively capturing their content),
* the :class:`~repro.arraydf.options.AnalysisOptions` in force, and
* the cache format/analysis version.

:func:`unit_key` hashes those into one hex digest.  Editing one
procedure changes its key and (through the callee-key chaining) the keys
of its transitive callers — the *dirty subtree* — while every other
procedure's key, and therefore its cached summary and cached loop
decisions, stays valid.

Entries are pickles of interned analysis values; the hash-consing
substrate defines ``__reduce__`` on every interned class, so loading an
entry re-interns its parts and warm results are structurally (and
therefore textually) identical to a cold analysis.

The cache degrades, never fails: unreadable or corrupt entries count as
misses (``cache.load_error``) and are deleted best-effort; write
failures are swallowed (``cache.store_error``).  Degraded
(budget-demoted) results are **never stored** — the cache only holds
full-fidelity analyses, so a warm hit can never resurrect a degraded
answer.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro import perf
from repro.service.budgets import metered

#: bump when the analysis or the payload layout changes incompatibly
CACHE_VERSION = "2"

#: environment variable naming the default cache directory; worker
#: processes (fork or spawn) inherit it, so ``--cache DIR`` set once in
#: the driver is honored by the whole pool
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

for _name in (
    "cache.summary_hit",
    "cache.summary_miss",
    "cache.decisions_hit",
    "cache.decisions_miss",
    "cache.program_hit",
    "cache.program_miss",
    "cache.store",
    "cache.load_error",
    "cache.store_error",
):
    perf.declare(_name)


def options_fingerprint(opts) -> str:
    """A stable text fingerprint of an options dataclass."""
    parts = [
        f"{f.name}={getattr(opts, f.name)!r}" for f in fields(opts)
    ]
    return ";".join(parts)


def unit_key(
    unit_source: str,
    callee_keys: Sequence[Tuple[str, str]],
    opts,
) -> str:
    """Content key for one procedure's analysis artifacts."""
    h = hashlib.sha256()
    h.update(CACHE_VERSION.encode())
    h.update(b"\x00")
    h.update(options_fingerprint(opts).encode())
    h.update(b"\x00")
    h.update(unit_source.encode())
    for name, key in sorted(callee_keys):
        h.update(b"\x00")
        h.update(name.encode())
        h.update(b"\x01")
        h.update(key.encode())
    return h.hexdigest()


def program_key(program, opts) -> str:
    """Content key for one whole program's loop decisions.

    Hashes the canonical source of every unit (pre scalar propagation —
    propagation is deterministic and fingerprinted via *opts*), so any
    edit anywhere invalidates the program-level entry while the
    per-unit entries keep serving the untouched subtree.
    """
    from repro.lang.prettyprint import unit_str

    h = hashlib.sha256()
    h.update(CACHE_VERSION.encode())
    h.update(b"\x00")
    h.update(options_fingerprint(opts).encode())
    h.update(b"\x00")
    h.update(program.main.encode())
    for name in sorted(program.units):
        h.update(b"\x00")
        h.update(name.encode())
        h.update(b"\x01")
        h.update(unit_str(program.units[name]).encode())
    return h.hexdigest()


class SummaryCache:
    """On-disk store of per-procedure analysis artifacts.

    Three kinds of artifact are stored: ``"summary"`` (the
    :class:`~repro.arraydf.analysis.UnitSummary`) and ``"decisions"``
    (the driver's per-loop :class:`~repro.partests.driver.LoopResult`
    list) share one unit key; ``"program"`` (every unit's decision rows)
    sits under the whole-program key.  Writes are atomic (temp file +
    ``os.replace``), so concurrent analyzers — the ``--jobs`` pool,
    several ``serve`` workers, or independent processes — may share a
    directory safely: at worst two processes compute the same entry and
    the last write wins with identical content.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str, kind: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.{kind}.pkl"

    def load(self, key: str, kind: str):
        """The stored payload, or ``None`` on miss/corruption and under
        a budget that meters work (:func:`~repro.service.budgets.metered`)."""
        if metered():
            return None
        path = self._path(key, kind)
        try:
            with open(path, "rb") as f:
                payload = pickle.load(f)
        except FileNotFoundError:
            perf.bump(f"cache.{kind}_miss")
            return None
        except Exception:
            # unreadable/corrupt entry: treat as a miss, drop the file
            perf.bump(f"cache.{kind}_miss")
            perf.bump("cache.load_error")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        perf.bump(f"cache.{kind}_hit")
        return payload

    def store(self, key: str, kind: str, payload) -> None:
        """Atomically persist *payload*; failures degrade to no-ops."""
        path = self._path(key, kind)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            perf.bump("cache.store_error")
            return
        perf.bump("cache.store")

    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))


_default: Optional[SummaryCache] = None
_default_dir: Optional[str] = None


def set_default_cache_dir(path: Optional[str]) -> None:
    """Set (or clear) the process-wide default cache directory.

    The directory is exported via :data:`CACHE_DIR_ENV` so worker
    processes — forked or spawned — resolve the same default.
    """
    global _default, _default_dir
    _default = None
    _default_dir = path
    if path is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = str(path)


def default_cache() -> Optional[SummaryCache]:
    """The default :class:`SummaryCache`, or ``None`` when disabled.

    Resolution order: :func:`set_default_cache_dir`, then the
    :data:`CACHE_DIR_ENV` environment variable.
    """
    global _default, _default_dir
    path = _default_dir or os.environ.get(CACHE_DIR_ENV)
    if not path:
        return None
    if _default is None or str(_default.root) != str(path):
        _default = SummaryCache(path)
    return _default
