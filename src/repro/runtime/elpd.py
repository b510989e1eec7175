"""The Extended Lazy Privatizing Doall (ELPD) test.

ELPD instruments every candidate loop the compiler left unparallelized
and classifies each loop's *dynamic* behaviour on a concrete input:

* **independent** — no element is touched by two different iterations
  with at least one write;
* **privatizable** — cross-iteration conflicts exist, but no iteration's
  *first* access to an element reads a value written by an earlier
  iteration (no cross-iteration flow into an exposed read), so
  per-iteration private copies with copy-in/copy-out are safe;
* **dependent** — a cross-iteration flow was observed.

Loops reported independent or privatizable are the "remaining inherently
parallel" loops of the paper's tables — parallelization guaranteed only
for the tested input, which is exactly ELPD's contract.

The implementation keeps dense shadow arrays, laid out like the
runtime's buffers: one ``array('q')`` per (nesting depth, buffer
serial), indexed by flat offset (so reshaped views alias correctly).
An entry is ``iteration stamp << 4 | flags``.  The stamp counts the
run's instrumented iterations, so a shadow is never cleared: an entry
older than an instance's first iteration is untouched for it.  Each
access updates only the nearest instrumented loop instance; at loop
exit an instance classifies the elements it touched and folds their
summary (first touch a read? written?) into the next instrumented
instance out.  Vectorized loops and nests hand their accesses over as
one block.  See ``docs/ALGORITHMS.md`` §6 and ``docs/PERF.md`` §4.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import perf
from repro.lang.astnodes import Program
from repro.runtime.bytecode import execute, grid_injective
from repro.runtime.interp import Interpreter
from repro.runtime.values import ArrayStorage

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

Number = Union[int, float]

_RANKING = {"not_executed": 0, "independent": 1, "privatizable": 2, "dependent": 3}


# ----------------------------------------------------------------------
# the shadows
# ----------------------------------------------------------------------
# A shadow entry is ``stamp << 4 | flags``: the stamp of the owning
# instance's last iteration that touched the element, and the flags
# 1 = written, 2 = touched by two or more iterations, 4 = an iteration's
# first touch read a value an earlier iteration wrote (flow), 8 = the
# instance's first touch was a read.  Flags 8 and 1 summarize the
# element for the next instance out.  Stamps are kept shifted (``cur``
# and ``first`` below are multiples of 16).

#: below this many elements a block site or a fold runs in plain Python
#: (NumPy's fixed cost per call outweighs its per-element gain)
_BULK_MIN = 256
#: an instance's storage -> part cache starts again empty at this size
#: (a loop that calls a subroutine makes a new view on every call)
_VIEWS_MAX = 1024
#: the storage -> part cache while no instance is active
_NO_VIEWS: Dict[ArrayStorage, "_Part"] = {}

perf.declare("elpd.shadow.elements")


class _Part:
    """One instance's share of one buffer's shadow at its depth.

    ``dense`` covers the buffer's offsets (it grows with the buffer) and
    ``far`` maps offsets read past the buffer's end (an assumed-size
    formal over a shorter actual may reach any offset); both belong to
    the shadow, which every instance at that depth reuses.  The
    instance's first touches, each element once and in order, are the
    closed ``segs`` (``(offsets, name)``, the offsets a list or an int64
    array) and then the open list ``fresh``, first touched under
    ``name``: the name of the latest first touch, which is the buffer's
    name in a verdict."""

    __slots__ = ("dense", "far", "segs", "fresh", "name")

    def __init__(self, shadow: Tuple[array, dict], name: str) -> None:
        self.dense, self.far = shadow
        self.segs: list = []
        self.fresh: List[int] = []
        self.name = name

    def grow(self, size: int) -> None:
        """Extend the dense part to *size* offsets, moving the far
        entries below *size* into it."""
        dense, far = self.dense, self.far
        dense.frombytes(bytes(8 * (size - len(dense))))
        for off in [o for o in far if o < size]:
            dense[off] = far.pop(off)

    def rename(self, name: str) -> None:
        """Close the open list: later first touches are under *name*."""
        if self.fresh:
            self.segs.append((self.fresh, self.name))
            self.fresh = []
        self.name = name

    def add(self, offs, name: str) -> None:
        """Append the first touches *offs* (a list or an int64 array),
        all under *name*."""
        if isinstance(offs, list) and name == self.name:
            self.fresh += offs
        else:
            self.rename(name)
            self.segs.append((offs, name))

    def runs(self) -> list:
        """The first touches as ``(pieces, name)``, one per stretch
        under one name (a buffer seen under one name has one)."""
        if self.fresh:
            self.segs.append((self.fresh, self.name))
        out: list = []
        for offs, name in self.segs:
            if out and out[-1][1] == name:
                out[-1][0].append(offs)
            else:
                out.append(([offs], name))
        return out


#: the flags of an element an earlier iteration of its owner touched,
#: after a touch with summary *e*: ``_AFTER[e << 4 | flags before]``
_AFTER = [
    f | 2 | (f & 1) << 2 | e & 1 if e & 8 else f | 3
    for e in range(10)
    for f in range(16)
]
_AFTER_NP = None if _np is None else _np.array(_AFTER, _np.int64)


def _merge_py(part: _Part, offs, es, cur: int, first: int, name: str) -> None:
    """Record that the owner's current iteration (stamp *cur*) touched
    the elements at *offs*, each with the summary *e* (flag 8: its first
    touch reads; flag 1: written) and under *name*; an entry below
    *first* is untouched by the owner.  A scalar access is the summary
    1 (a write) or 8."""
    dense, far = part.dense, part.far
    n = len(dense)
    new = []
    for off, e in zip(offs, es):
        s = dense[off] if off < n else far.get(off, 0)
        if s < first:  # the owner's first touch
            s = cur | e & 9
            new.append(off)
        elif s < cur:  # this iteration's first touch
            s = cur | _AFTER[(e & 9) << 4 | s & 15]
        else:  # touched earlier in this iteration
            s |= e & 1
        if off < n:
            dense[off] = s
        else:
            far[off] = s
    if new:
        part.add(new, name)


def _merge_site(part: _Part, offs, e: int, cur: int, first: int, name: str) -> None:
    """:func:`_merge_py` of one block site: one summary *e* for every
    element, and every offset inside the shadow."""
    dense = part.dense
    w = e & 1
    e4 = e << 4
    new = []
    for off in offs:
        s = dense[off]
        if s >= cur:
            if w:
                dense[off] = s | 1
        elif s < first:
            dense[off] = cur | e
            new.append(off)
        else:
            dense[off] = cur | _AFTER[e4 | s & 15]
    if new:
        part.add(new, name)


def _merge_np(dense: array, idx, offs, e, cur: int, first: int):
    """:func:`_merge_py` over ``dense[idx]`` (a slice or int64 offsets,
    no element twice; *offs* their offsets) with one summary *e* for
    every element (an int) or one each (an int64 array).  Returns the
    offsets of the owner's first touches, or None for none."""
    sh = _np.frombuffer(dense, _np.int64)
    old = sh[idx]
    hi = int(old.max())
    if hi < first:  # every element is new to the owner
        sh[idx] = e & 9 | cur
        return offs
    lo = int(old.min())
    one = isinstance(e, int)
    if lo >= cur and one:  # every element touched earlier in this iteration
        if e & 1:
            sh[idx] = old | 1
        return None
    new = old & 15
    new |= (e if one else e & 9) << 4
    _AFTER_NP.take(new, out=new)
    new |= cur
    fresh = None
    if lo < first:  # some new to the owner
        fresh = old < first
        new[fresh] = (e if one else e[fresh]) & 9 | cur
    if hi >= cur:  # some touched earlier in this iteration
        same = old >= cur
        new[same] = old[same] | (e if one else e[same]) & 1
    sh[idx] = new
    return None if fresh is None else offs[fresh]


def _site_index(offs):
    """One block site's elements (two or more offsets), each once:
    ``(index into the shadow, their offsets)``, or None for a site that
    stays on one element.  Offsets are affine in the loop variables, so
    a 1-D site, or a nest site whose rows continue one another, steps
    evenly and indexes the shadow with a slice."""
    flat = offs.reshape(-1)
    a = flat.item(0)
    d = flat.item(1) - a
    if offs.ndim == 2 and 1 < offs.shape[1] < offs.size and (
        offs.item(1, 0) - offs.item(0, -1) != d
    ):
        if _site_distinct(offs) != offs.size:
            flat = _np.unique(flat)
            if len(flat) == 1:
                return None
        return flat, flat
    if not d:
        return None
    stop = a + len(flat) * d  # below 0 for a step down to element 0
    return slice(a, stop if stop >= 0 else None, d), flat


def _site_distinct(offs) -> int:
    """How many elements one site touches over the iteration space."""
    if offs.ndim == 1:  # affine: all equal or all different
        return 1 if offs.item(0) == offs.item(-1) else len(offs)
    n_o, n_i = offs.shape
    d_o = offs.item(1, 0) - offs.item(0, 0) if n_o > 1 else 0
    d_i = offs.item(0, 1) - offs.item(0, 0) if n_i > 1 else 0
    if not d_o:
        return n_i if d_i else 1
    if not d_i:
        return n_o
    if grid_injective([d_o, d_i], offs.shape):
        return offs.size
    return len(_np.unique(offs))


def _by_buffer(accesses) -> Dict[int, list]:
    """A block's accesses by buffer serial: ``[storage, sites, one
    name?]``, where *sites* maps each site (a site read and written
    hands over one array) to ``[offsets, summary, name]``, in scalar
    order; the summary has flag 8 if the site's first access reads and
    flag 1 if it writes."""
    by_buf: Dict[int, list] = {}
    for kind, storage, offs in accesses:
        buf = by_buf.get(storage.serial)
        if buf is None:
            buf = by_buf[storage.serial] = [storage, {}, True]
        elif storage.name != buf[0].name:
            buf[2] = False
        site = buf[1].get(id(offs))
        if site is None:
            buf[1][id(offs)] = [offs, 1 if kind == "w" else 8, storage.name]
        elif kind == "w":
            site[1] |= 1
    return by_buf


def _distinct(by_buf) -> int:
    """How many elements a block touches."""
    n = 0
    for _storage, sites, _one in by_buf.values():
        if len(sites) == 1:
            for site in sites.values():
                n += _site_distinct(site[0])
            continue
        offs = [site[0].ravel() for site in sites.values()]
        if sum(map(len, offs)) < _BULK_MIN:
            n += len(set().union(*(o.tolist() for o in offs)))
        else:
            n += len(_np.unique(_np.concatenate(offs)))
    return n


def _row_distinct(by_buf) -> int:
    """The distinct elements of each row of a nest block (one inner
    instance), summed over the rows."""
    n = 0
    for _storage, sites, _one in by_buf.values():
        if len(sites) == 1:
            for offs, _e, _name in sites.values():
                # a row is affine: all equal or all different
                same = offs.item(0, 0) == offs.item(0, -1)
                n += len(offs) * (1 if same else offs.shape[1])
        else:
            rows = _np.concatenate([site[0] for site in sites.values()], axis=1)
            rows.sort(axis=1)
            n += len(rows) + int(_np.count_nonzero(rows[:, 1:] != rows[:, :-1]))
    return n


class _Instance:
    """One dynamic execution of an instrumented loop.

    ``depth`` counts the instrumented instances around it, and picks
    its shadows.  ``first`` is the stamp of its first iteration and
    ``cur`` that of its current one (both shifted).  ``parts`` maps a
    buffer serial to the instance's :class:`_Part` of that buffer and
    ``views`` caches the storage -> part lookup.  A vector block's own
    instance keeps only ``count``, its distinct elements (see
    ``_ElpdHook.block``)."""

    __slots__ = ("label", "iters", "depth", "first", "cur", "parts", "views", "count")

    def __init__(self, label: str, depth: int, first: int) -> None:
        self.label = label
        self.iters = 0
        self.depth = depth
        self.first = self.cur = first
        self.parts: Dict[int, _Part] = {}
        self.views: Dict[ArrayStorage, _Part] = {}
        self.count: Optional[int] = None


@dataclass
class LoopObservation:
    """Aggregated dynamic verdict for one loop label."""

    label: str
    instances: int = 0
    classification: str = "not_executed"
    conflict_arrays: Set[str] = field(default_factory=set)
    flow_arrays: Set[str] = field(default_factory=set)
    total_iterations: int = 0

    def merge(
        self,
        cls: str,
        conflicts: Set[str],
        flows: Set[str],
        iters: int,
        instances: int = 1,
    ) -> None:
        self.instances += instances
        self.total_iterations += iters
        if _RANKING[cls] > _RANKING[self.classification]:
            self.classification = cls
        self.conflict_arrays |= conflicts
        self.flow_arrays |= flows

    @property
    def dynamically_parallel(self) -> bool:
        return self.classification in ("independent", "privatizable")


@dataclass
class ElpdReport:
    """ELPD results for one program run."""

    observations: Dict[str, LoopObservation] = field(default_factory=dict)
    steps: int = 0

    def parallelizable_labels(self) -> List[str]:
        return sorted(
            label
            for label, obs in self.observations.items()
            if obs.dynamically_parallel
        )

    def dependent_labels(self) -> List[str]:
        return sorted(
            label
            for label, obs in self.observations.items()
            if obs.classification == "dependent"
        )


class _ElpdHook:
    """Interpreter loop hook: dense stamped shadows, updated at the
    nearest instrumented instance and folded outward at loop exit."""

    __slots__ = (
        "targets", "active", "stack", "shadows", "stamp", "views", "cur", "first",
        "report",
    )

    def __init__(self, targets: Optional[Set[str]]) -> None:
        self.targets = targets
        self.active: List[Optional[_Instance]] = []  # one per loop token
        self.stack: List[_Instance] = []  # the instrumented ones, outermost first
        #: (depth, buffer serial) -> (dense shadow, far offsets)
        self.shadows: Dict[Tuple[int, int], Tuple[array, dict]] = {}
        self.stamp = 0  # the run's last iteration stamp, shifted
        # the nearest instance's views, current and first stamps
        self.views = _NO_VIEWS
        self.cur = self.first = 0
        self.report = ElpdReport()

    # -- the loop hook protocol -----------------------------------------
    def enter_loop(self, stmt, frame, ran_parallel):
        if self.targets is not None and stmt.label not in self.targets:
            self.active.append(None)  # placeholder to keep stack aligned
        else:
            inst = _Instance(stmt.label, len(self.stack), self.stamp + 16)
            self.active.append(inst)
            self.stack.append(inst)
            self.views, self.cur, self.first = inst.views, inst.cur, inst.first
        return len(self.active) - 1

    def iter_start(self, token, ivalue):
        inst = self.active[token]
        if inst is not None:  # the nearest instance: no loop inside it runs
            inst.iters += 1
            self.stamp = self.cur = inst.cur = self.stamp + 16

    def block(self, token, lo, step, trips, accesses, inner=None):
        """A vector program's whole run: one loop, or with *inner* a
        rectangular nest, whose offsets have one row per outer
        iteration.  No instance of the block's own loops needs a
        per-element pass: the vector entry checks admit only write
        offsets injective over the whole iteration space, reads of a
        written array through the write's own subscripts, and no second
        name on a written buffer, so no element is written in one
        iteration of either loop and touched in another.  Those
        instances are independent; each counts its distinct elements.
        The accesses go to the nearest instrumented instance around the
        block, all in its current iteration."""
        inst = self.active[token]
        k = len(self.stack) - (inst is not None)
        rows = inner is not None and (
            self.targets is None or inner.stmt.label in self.targets
        )
        if not (k or rows or inst):
            return
        by_buf = _by_buffer(accesses)
        if inst is not None:
            inst.iters += trips
            inst.count = _distinct(by_buf)
        if rows:
            label = inner.stmt.label
            obs = self.report.observations.get(label)
            if obs is None:
                obs = self.report.observations[label] = LoopObservation(label)
            obs.merge("independent", set(), set(), trips * inner.trips, trips)
            perf.bump("elpd.shadow.elements", _row_distinct(by_buf))
        if k:
            with perf.phase("elpd.shadow"):
                self._apply_block(self.stack[k - 1], by_buf)

    def exit_loop(self, token):
        inst = self.active.pop()
        if inst is None:
            return
        stack = self.stack
        stack.pop()
        outer = stack[-1] if stack else None
        if outer is None:
            self.views, self.cur, self.first = _NO_VIEWS, 0, 0
        else:
            self.views, self.cur, self.first = outer.views, outer.cur, outer.first
        conflicts: Set[str] = set()
        flows: Set[str] = set()
        n = 0
        if inst.count is not None:
            n = inst.count
        elif inst.parts:
            with perf.phase("elpd.shadow"):
                n = self._close(inst, outer, conflicts, flows)
        perf.bump("elpd.shadow.elements", n)
        if flows:
            cls = "dependent"
        elif conflicts:
            cls = "privatizable"
        else:
            cls = "independent"
        obs = self.report.observations.get(inst.label)
        if obs is None:
            obs = self.report.observations[inst.label] = LoopObservation(inst.label)
        obs.merge(cls, conflicts, flows, inst.iters)

    def record_access(self, kind: str, storage: ArrayStorage, offset: int) -> None:
        part = self.views.get(storage)
        if part is None:
            if self.stack:
                self._access(kind, storage, offset)
            return
        dense = part.dense
        try:
            s = dense[offset]
        except IndexError:  # past the shadow: the buffer grew, or a far read
            self._access(kind, storage, offset)
            return
        # _merge_py of one access, inline
        cur = self.cur
        if s >= cur:  # touched earlier in this iteration
            if kind == "w":
                dense[offset] = s | 1
        elif s < self.first:  # the instance's first touch
            dense[offset] = cur | 1 if kind == "w" else cur | 8
            if part.name != storage.name:
                part.rename(storage.name)
            part.fresh.append(offset)
        elif kind == "w":
            dense[offset] = cur | s & 15 | 3
        else:  # this iteration's first touch reads
            dense[offset] = cur | s & 15 | 2 | (s & 1) << 2

    # -- the shadows ------------------------------------------------------
    def _part(self, inst: _Instance, serial: int, size: int, name: str) -> _Part:
        """*inst*'s part of buffer *serial*, its shadow at least *size*
        long; a new part's first touch is under *name*."""
        part = inst.parts.get(serial)
        if part is None:
            key = (inst.depth, serial)
            shadow = self.shadows.get(key)
            if shadow is None:
                shadow = self.shadows[key] = (array("q"), {})
            part = inst.parts[serial] = _Part(shadow, name)
        if size > len(part.dense):
            part.grow(size)
        return part

    def _access(self, kind: str, storage: ArrayStorage, offset: int) -> None:
        """:meth:`record_access` off its fast path: the instance's first
        access through *storage*, an offset the shadow does not cover
        yet, or a read past the buffer."""
        inst = self.stack[-1]
        part = self._part(inst, storage.serial, len(storage.buf), storage.name)
        views = inst.views
        if len(views) >= _VIEWS_MAX:
            views.clear()
        views[storage] = part
        e = 1 if kind == "w" else 8
        _merge_py(part, (offset,), (e,), inst.cur, inst.first, storage.name)

    def _apply_block(self, target: _Instance, by_buf) -> None:
        """Record a block's accesses (:func:`_by_buffer`) in *target*'s
        current iteration.

        Site by site is scalar order: a written buffer is reached through
        one site (one subscript tuple, one name), each of whose elements
        one iteration touches with the site's accesses in order, and an
        element of any other buffer is only read, which any order
        records alike.  Only names depend on the order: a buffer read
        under two names replays its sites in scalar order."""
        cur, first = target.cur, target.first
        for serial, (storage, sites, one_name) in by_buf.items():
            name = storage.name
            part = self._part(target, serial, len(storage.buf), name)
            if not one_name:
                flat = [
                    (offs.reshape(-1).tolist(), e, s_name)
                    for offs, e, s_name in sites.values()
                ]
                for t in range(len(flat[0][0])):
                    for offs, e, s_name in flat:
                        _merge_py(part, (offs[t],), (e,), cur, first, s_name)
                continue
            for offs, e, _name in sites.values():
                if offs.size < _BULK_MIN:
                    _merge_site(part, offs.reshape(-1).tolist(), e, cur, first, name)
                    continue
                at = _site_index(offs)
                if at is None:
                    _merge_site(part, (offs.item(0),), e, cur, first, name)
                    continue
                chunk = _merge_np(part.dense, at[0], at[1], e, cur, first)
                if chunk is not None and len(chunk):
                    part.add(chunk, name)

    def _close(
        self, inst: _Instance, outer: Optional[_Instance], conflicts, flows
    ) -> int:
        """Classify *inst*'s touched elements into the names of
        *conflicts* and *flows*, and fold each element's summary into
        *outer*'s current iteration, one run of names at a time (so
        *outer* sees the first touches in order).  Returns the element
        count."""
        n = 0
        for serial, part in inst.parts.items():
            dense, far = part.dense, part.far
            size = len(dense)
            flow = conflict = False
            opart = None
            for pieces, name in part.runs():
                m = sum(map(len, pieces))
                n += m
                if outer is not None and opart is None:
                    opart = self._part(outer, serial, size, name)
                offs = None
                if m >= _BULK_MIN and _np is not None:
                    offs = _np.concatenate(
                        [_np.asarray(p, _np.int64) for p in pieces]
                    ) if len(pieces) > 1 else _np.asarray(pieces[0], _np.int64)
                    if int(offs.max()) >= size:
                        offs = None  # a read past the buffer: plain Python
                if offs is not None:
                    es = _np.frombuffer(dense, _np.int64)[offs]
                    flow = flow or bool((es & 4).any())
                    conflict = conflict or bool(((es & 7) == 3).any())
                    if opart is not None:
                        chunk = _merge_np(
                            opart.dense, offs, offs, es, outer.cur, outer.first
                        )
                        if chunk is not None and len(chunk):
                            opart.add(chunk, name)
                    continue
                if len(pieces) == 1 and isinstance(pieces[0], list):
                    offs = pieces[0]
                else:
                    offs = [
                        o
                        for p in pieces
                        for o in (p if isinstance(p, list) else p.tolist())
                    ]
                if far:
                    es = [dense[o] if o < size else far[o] for o in offs]
                else:
                    es = list(map(dense.__getitem__, offs))
                codes = set(map((7).__and__, es))
                flow = flow or any(c & 4 for c in codes)
                conflict = conflict or 3 in codes
                if opart is not None:
                    _merge_py(opart, offs, es, outer.cur, outer.first, name)
            if flow:
                flows.add(part.name)
            if conflict:
                conflicts.add(part.name)
        return n


def static_scalar_obstacles(program: Program) -> Dict[str, Set[str]]:
    """Per-loop scalars that carry a genuine cross-iteration dependence.

    ELPD instruments *array* accesses ("accesses to all arrays reported
    by the compiler as being involved in a dependence were
    instrumented"); scalar recurrences are resolved by the compiler's
    scalar analysis.  This helper reproduces that static side so the
    combined oracle (:func:`run_oracle`) matches the paper's notion of
    an inherently parallel loop: a declared scalar other than the loop's
    own and inner indices, written in an iteration and read there before
    any write, and not a recognized reduction.  It runs the analysis's
    scalar-flow pass (:func:`repro.ir.loopinfo.scalar_flow`) on each
    loop, and nothing else of the analysis.
    """
    from repro.ir.loopinfo import scalar_flow
    from repro.ir.symboltable import SymbolTable
    from repro.lang.astnodes import DoLoop, walk_stmts

    out: Dict[str, Set[str]] = {}
    for unit in program.units.values():
        symtab = SymbolTable(unit)
        for loop in walk_stmts(unit.body):
            if not isinstance(loop, DoLoop):
                continue
            writes, exposed, reductions = scalar_flow(loop)
            inner = {
                s.var for s in walk_stmts(loop.body) if isinstance(s, DoLoop)
            }
            obstacles = {
                name
                for name in writes
                if name != loop.var
                and name not in inner
                and symtab.is_scalar(name)
                and name in exposed
                and name not in reductions
            }
            if obstacles:
                out[loop.label] = obstacles
    return out


def run_oracle(
    program: Program,
    inputs: Sequence[Number] = (),
    target_labels: Optional[Sequence[str]] = None,
    max_steps: int = 10_000_000,
) -> ElpdReport:
    """ELPD array instrumentation + static scalar-recurrence screening.

    Loops whose scalars carry a cross-iteration dependence are demoted
    to ``dependent`` regardless of their array behaviour.
    """
    report = run_elpd(program, inputs, target_labels, max_steps)
    for label, names in static_scalar_obstacles(program).items():
        obs = report.observations.get(label)
        if obs is not None:
            obs.classification = "dependent"
            obs.flow_arrays |= {f"<scalar:{n}>" for n in names}
    return report


def run_elpd(
    program: Program,
    inputs: Sequence[Number] = (),
    target_labels: Optional[Sequence[str]] = None,
    max_steps: int = 10_000_000,
) -> ElpdReport:
    """Run the program with ELPD instrumentation.

    *target_labels* restricts instrumentation (the paper instruments the
    loops the compiler could not parallelize); ``None`` instruments all.
    """
    targets = set(target_labels) if target_labels is not None else None
    hook = _ElpdHook(targets)
    interp = Interpreter(
        program,
        inputs,
        access_hook=hook.record_access,
        loop_hook=hook,
        max_steps=max_steps,
    )
    hook.report.steps = execute(interp, snapshot=False).steps
    # loops named as targets but never executed
    if targets is not None:
        for label in targets:
            hook.report.observations.setdefault(
                label, LoopObservation(label)
            )
    return hook.report
