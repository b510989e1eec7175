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

The implementation logs every array access of the run once, keyed by
the underlying buffer's serial and the flat offset (so reshaped views
alias correctly).  Each dynamic loop instance keeps only its iteration
boundaries into the log and classifies its slice once, at loop exit;
vectorized loops and nests hand their accesses over as one block.  See
``docs/ALGORITHMS.md`` §6 and ``docs/PERF.md`` §4.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import perf
from repro.lang.astnodes import Program
from repro.runtime.bytecode import execute, grid_injective
from repro.runtime.interp import Interpreter
from repro.runtime.values import ArrayStorage, RuntimeError_

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

Number = Union[int, float]

_RANKING = {"not_executed": 0, "independent": 1, "privatizable": 2, "dependent": 3}


# ----------------------------------------------------------------------
# the access log
# ----------------------------------------------------------------------
#: a log entry is ``view << 41 | flat offset << 1 | is_write``; a view
#: numbers one (buffer serial, array name) pair of the run
_OFF_BITS = 40
_OFF_MASK = (1 << _OFF_BITS) - 1
_VIEW_SHIFT = _OFF_BITS + 1
#: views numbered past this no longer fit an int64 entry; the run then
#: classifies in plain Python
_NP_VIEWS = 1 << (63 - _VIEW_SHIFT)

#: below this many entries a slice classifies in plain Python (NumPy's
#: fixed cost per call outweighs its per-entry gain)
_BULK_MIN = 256
#: past this many entries the active instances fold the log into their
#: per-element state and the log starts again empty
_LOG_MAX = 1 << 16

perf.declare("elpd.shadow.elements")


class _Instance:
    """One dynamic execution of an instrumented loop.

    Its accesses are the log entries from ``start`` on; their iteration
    ordinal is ``o0`` before ``bounds[0]`` and one more at each later
    bound.  ``state`` holds the folded per-element state: a dict
    ``key -> last ordinal << 3 | flags`` (plain ints, so the garbage
    collector never tracks it) or, from NumPy, the columns ``(keys,
    last ordinals, flags)`` sorted by key.  Flags: 1 = written,
    2 = touched by more than one iteration, 4 = an iteration's first
    touch read a value an earlier iteration wrote.  ``latest`` maps a
    buffer seen under several names to the view its latest fresh
    element was first touched through.  A vector block's own instance
    keeps only ``count``, its distinct elements (see ``_ElpdHook.block``).
    """

    __slots__ = ("label", "iters", "start", "o0", "bounds", "state", "latest", "count")

    def __init__(self, label: str) -> None:
        self.label = label
        self.iters = 0
        self.start = -1  # no iteration yet
        self.o0 = -1
        self.bounds: List[int] = []
        self.state = None
        self.latest: Dict[int, int] = {}
        self.count: Optional[int] = None

    def ordinals(self, a: int, b: int):
        edges = _np.array([a, *self.bounds, b], _np.int64)
        return _np.repeat(
            _np.arange(self.o0, self.o0 + len(edges) - 1), _np.diff(edges)
        )


def _scan_py(hook, inst: _Instance, entries: list, a: int) -> dict:
    """Fold *entries* (log positions ``a..``) into the dict state."""
    state = inst.state
    if state is None:
        state = {}
    elif not isinstance(state, dict):
        keys, last, flags = (c.tolist() for c in state)
        state = {k: o << 3 | f for k, o, f in zip(keys, last, flags)}
    get = state.get
    aliased = hook.aliased
    view_buf = hook.view_buf
    latest = inst.latest
    edges = iter(inst.bounds)
    edge = next(edges, -1)
    ord_ = inst.o0
    ord3 = ord_ << 3
    for p, e in enumerate(entries, a):
        if p == edge:
            ord_ += 1
            ord3 = ord_ << 3
            edge = next(edges, -1)
        if aliased:
            buf = view_buf[e >> _VIEW_SHIFT]
            key = buf << _OFF_BITS | (e >> 1) & _OFF_MASK
        else:
            key = e >> 1
        s = get(key)
        if s is None:
            state[key] = ord3 | e & 1
            if aliased:
                latest[buf] = e >> _VIEW_SHIFT
        elif s >> 3 != ord_:
            # the element's first touch in this iteration
            if e & 1:
                state[key] = ord3 | s & 7 | 3
            elif s & 1:
                state[key] = ord3 | s & 7 | 6
            else:
                state[key] = ord3 | s & 7 | 2
        elif e & 1:
            state[key] = s | 1
    return state


def _scan_np(hook, inst: _Instance, entries, a: int) -> tuple:
    """:func:`_scan_py` as a sort-and-reduce over NumPy columns."""
    n = len(entries)
    view = entries >> _VIEW_SHIFT
    if hook.aliased:
        bufs = _np.array(hook.view_buf, _np.int64)[view]
        key = (bufs << _OFF_BITS) | ((entries >> 1) & _OFF_MASK)
    else:
        key = entries >> 1
    order = _np.argsort(key, kind="stable")  # log order within an element
    k = key[order]
    o = inst.ordinals(a, a + n)[order]
    w = (entries & 1)[order]
    head = _np.empty(n, bool)
    head[0] = True
    _np.not_equal(k[1:], k[:-1], out=head[1:])
    starts = _np.flatnonzero(head)
    counts = _np.diff(starts, append=n)
    gk = k[starts]
    # an entry is its element's first touch in its iteration ...
    first_touch = head.copy()
    _np.not_equal(o[1:], o[:-1], out=first_touch[1:], where=~head[1:])
    # ... after this many earlier writes to the element
    before = _np.cumsum(w) - w
    before -= _np.repeat(before[starts], counts)
    g_last = o[starts + counts - 1]
    state = inst.state
    hit = None
    if state is not None:
        sk, slast, sflags = state
        idx = _np.searchsorted(sk, gk)
        hit = idx < len(sk)
        hit[hit] = sk[idx[hit]] == gk[hit]
        hidx = idx[hit]
        hstart = starts[hit]
        first_touch[hstart] = o[hstart] != slast[hidx]
        sw = _np.zeros(len(gk), _np.int64)
        sw[hit] = sflags[hidx] & 1
        before += _np.repeat(sw, counts)
    flow = first_touch & (w == 0) & (before > 0)
    g_flags = (
        (_np.add.reduceat(w, starts) > 0)
        | ((g_last != o[starts]) << 1)
        | (_np.logical_or.reduceat(flow, starts) << 2)
    ).astype(_np.int64)
    fresh = starts if hit is None else starts[~hit]
    if hook.aliased and len(fresh):
        # each buffer's latest fresh element, and its view
        pos = order[fresh]
        by_buf = _np.lexsort((pos, key[pos] >> _OFF_BITS))
        b_sorted = key[pos][by_buf] >> _OFF_BITS
        last_of_buf = _np.flatnonzero(_np.append(b_sorted[1:] != b_sorted[:-1], True))
        for b, v in zip(
            b_sorted[last_of_buf].tolist(), view[pos[by_buf[last_of_buf]]].tolist()
        ):
            inst.latest[b] = v
    if state is None:
        return gk, g_last, g_flags
    g_flags[hit] |= sflags[hidx] | ((g_last[hit] != slast[hidx]) << 1)
    keep = _np.ones(len(sk), bool)
    keep[hidx] = False
    merged = [
        _np.concatenate((s_col[keep], g_col))
        for s_col, g_col in zip(state, (gk, g_last, g_flags))
    ]
    order = _np.argsort(merged[0], kind="stable")
    return tuple(col[order] for col in merged)


def _max_offset(offs) -> int:
    """The largest of one site's offsets: affine along each axis of the
    iteration space, so it sits at a corner."""
    if offs.ndim == 1:
        return max(int(offs[0]), int(offs[-1]))
    return int(max(offs[0, 0], offs[0, -1], offs[-1, 0], offs[-1, -1]))


def _site_distinct(offs) -> int:
    """How many elements one site touches over the iteration space."""
    if offs.ndim == 1:  # affine: all equal or all different
        return 1 if offs[0] == offs[-1] else len(offs)
    n_o, n_i = offs.shape
    d_o = int(offs[1, 0] - offs[0, 0]) if n_o > 1 else 0
    d_i = int(offs[0, 1] - offs[0, 0]) if n_i > 1 else 0
    if not d_o:
        return n_i if d_i else 1
    if not d_i:
        return n_o
    if grid_injective([d_o, d_i], offs.shape):
        return offs.size
    return len(_np.unique(offs))


def _by_buffer(accesses) -> list:
    """Each buffer's distinct sites' offsets (a site read and written
    hands over one array, and counts once)."""
    by_buf: Dict[int, dict] = {}
    for _k, storage, offs in accesses:
        by_buf.setdefault(storage.serial, {})[id(offs)] = offs
    return [list(sites.values()) for sites in by_buf.values()]


def _distinct(accesses) -> int:
    """How many elements a block touches."""
    n = 0
    for sites in _by_buffer(accesses):
        if len(sites) == 1:
            n += _site_distinct(sites[0])
        elif sum(o.size for o in sites) < _BULK_MIN:
            n += len(set().union(*(o.ravel().tolist() for o in sites)))
        else:
            n += len(_np.unique(_np.concatenate([o.ravel() for o in sites])))
    return n


def _row_distinct(accesses) -> int:
    """The distinct elements of each row of a nest block (one inner
    instance), summed over the rows."""
    n = 0
    for sites in _by_buffer(accesses):
        if len(sites) == 1:
            offs = sites[0]
            # a row is affine: all equal or all different
            n += len(offs) * (1 if offs[0, 0] == offs[0, -1] else offs.shape[1])
        else:
            rows = _np.sort(_np.concatenate(sites, axis=1), axis=1)
            n += len(rows) + int(_np.count_nonzero(rows[:, 1:] != rows[:, :-1]))
    return n


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
    """Interpreter loop hook: one access log for the whole run."""

    def __init__(self, targets: Optional[Set[str]]) -> None:
        self.targets = targets
        self.active: List[Optional[_Instance]] = []
        self.live = 0  # active target instances
        self.report = ElpdReport()
        self._reset_log()

    def _reset_log(self) -> None:
        self.cur: list = []  # the log's tail, where scalar entries go
        self.segs: list = [self.cur]  # lists and (vector block) arrays
        self.seg_pos = [0]  # log position of each segment's start
        self.views: Dict[ArrayStorage, int] = {}  # storage -> entry bits
        self.view_of: Dict[Tuple[int, str], int] = {}
        self.view_buf: List[int] = []  # view -> first view of its buffer
        self.view_name: List[str] = []
        self.first_view: Dict[int, int] = {}  # buffer serial -> view
        self.aliased = False  # a buffer seen under two names
        self.wide = False  # views past _NP_VIEWS: plain Python only

    def _pos(self) -> int:
        return self.seg_pos[-1] + len(self.cur)

    def _view(self, storage: ArrayStorage) -> int:
        pair = (storage.serial, storage.name)
        v = self.view_of.get(pair)
        if v is None:
            v = self.view_of[pair] = len(self.view_name)
            first = self.first_view.setdefault(storage.serial, v)
            self.aliased |= first != v
            self.wide |= v >= _NP_VIEWS
            self.view_buf.append(first)
            self.view_name.append(storage.name)
        bits = self.views[storage] = v << _VIEW_SHIFT
        return bits

    # -- the loop hook protocol -----------------------------------------
    def enter_loop(self, stmt, frame, ran_parallel):
        if self.targets is not None and stmt.label not in self.targets:
            self.active.append(None)  # placeholder to keep stack aligned
        else:
            self.active.append(_Instance(stmt.label))
            self.live += 1
        return len(self.active) - 1

    def iter_start(self, token, ivalue):
        inst = self.active[token]
        if inst is not None:
            inst.iters += 1
            pos = self.seg_pos[-1] + len(self.cur)
            if inst.start < 0:
                inst.start = pos
                inst.bounds.append(pos)
            elif not inst.bounds or inst.bounds[-1] != pos:
                # an iteration without accesses needs no ordinal
                inst.bounds.append(pos)
        if self.live and self._pos() - self.seg_pos[0] > _LOG_MAX:
            self._fold()

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
        The entries go to the log for the enclosing instances."""
        inst = self.active[token]
        rows = inner is not None and (
            self.targets is None or inner.stmt.label in self.targets
        )
        if not (self.live or rows):
            return
        for _kind, storage, offs in accesses:
            if _max_offset(offs) > _OFF_MASK:
                raise RuntimeError_(
                    f"array {storage.name}: flat offset beyond the ELPD "
                    f"shadow's 2**{_OFF_BITS}"
                )
        if inst is not None:
            inst.iters += trips
            inst.count = _distinct(accesses)
        if rows:
            label = inner.stmt.label
            obs = self.report.observations.get(label)
            if obs is None:
                obs = self.report.observations[label] = LoopObservation(label)
            obs.merge("independent", set(), set(), trips * inner.trips, trips)
            perf.bump("elpd.shadow.elements", _row_distinct(accesses))
        if self.live <= (inst is not None):
            return  # no enclosing instance reads the log
        bits = []
        for kind, storage, _offs in accesses:
            b = self.views.get(storage)
            if b is None:
                b = self._view(storage)
            bits.append(b | (kind == "w"))
        entries = self._block_entries(accesses, bits)
        if isinstance(entries, list):
            self.cur += entries
        else:
            pos = self._pos()
            if self.cur:
                self.segs.append(entries)
                self.seg_pos.append(pos)
            else:
                self.segs[-1] = entries
            self.cur = []
            self.segs.append(self.cur)
            self.seg_pos.append(pos + len(entries))
        if self._pos() - self.seg_pos[0] > _LOG_MAX:
            self._fold()

    def exit_loop(self, token):
        inst = self.active.pop()
        if inst is None:
            return
        if inst.start >= 0:
            with perf.phase("elpd.shadow"):
                self._scan(inst, max(inst.start, self.seg_pos[0]), self._pos())
        cls, conflicts, flows = self._classify(inst)
        self.live -= 1
        if not self.live:
            self._reset_log()
        obs = self.report.observations.get(inst.label)
        if obs is None:
            obs = self.report.observations[inst.label] = LoopObservation(inst.label)
        obs.merge(cls, conflicts, flows, inst.iters)

    def record_access(self, kind: str, storage: ArrayStorage, offset: int) -> None:
        if self.live:
            bits = self.views.get(storage)
            if bits is None:
                bits = self._view(storage)
            if offset > _OFF_MASK:
                raise RuntimeError_(
                    f"array {storage.name}: flat offset {offset} beyond "
                    f"the ELPD shadow's 2**{_OFF_BITS}"
                )
            self.cur.append(bits | offset << 1 | (kind == "w"))

    # -- the log ----------------------------------------------------------
    def _block_entries(self, accesses, bits):
        """A block's entries in scalar order (iteration by iteration,
        outer level first): a list when small (or too wide for int64),
        else an int64 array."""
        m = len(bits)
        n = accesses[0][2].size
        if self.wide or n * m < _BULK_MIN:
            out = [0] * (n * m)
            for j, (b, (_k, _s, offs)) in enumerate(zip(bits, accesses)):
                out[j::m] = [b | o << 1 for o in offs.ravel().tolist()]
            return out
        out = _np.empty((n, m), _np.int64)
        for j, (b, (_k, _s, offs)) in enumerate(zip(bits, accesses)):
            _np.left_shift(offs.reshape(-1), 1, out=out[:, j])
            out[:, j] |= b
        return out.reshape(-1)

    def _entries(self, a: int, b: int, as_array: bool):
        """The log entries at positions ``a..b``."""
        parts = []
        seg_pos, segs = self.seg_pos, self.segs
        for i in range(bisect_right(seg_pos, a) - 1, len(segs)):
            s0 = seg_pos[i]
            if s0 >= b:
                break
            seg = segs[i]
            s1 = s0 + len(seg)
            if s1 > a:
                part = seg[max(a, s0) - s0:min(b, s1) - s0]
                if as_array:
                    parts.append(_np.asarray(part, _np.int64))
                else:
                    parts.append(part if isinstance(part, list) else part.tolist())
        if as_array:
            return _np.concatenate(parts) if len(parts) != 1 else parts[0]
        return parts[0] if len(parts) == 1 else [e for p in parts for e in p]

    def _scan(self, inst: _Instance, a: int, b: int) -> None:
        """Fold *inst*'s entries at log positions ``a..b`` into its state."""
        if a == b:
            return
        bulk = _np is not None and not self.wide and (
            isinstance(inst.state, tuple)
            or (inst.state is None and b - a >= _BULK_MIN)
        )
        entries = self._entries(a, b, bulk)
        if bulk:
            inst.state = _scan_np(self, inst, entries, a)
        else:
            inst.state = _scan_py(self, inst, entries, a)

    def _fold(self) -> None:
        """Fold the log into every active instance; start it empty."""
        pos = self._pos()
        with perf.phase("elpd.shadow"):
            for inst in self.active:
                if inst is not None and inst.start >= 0:
                    self._scan(inst, max(inst.start, self.seg_pos[0]), pos)
                    # later entries count ordinals on from the folded ones
                    inst.o0 += len(inst.bounds)
                    inst.bounds = []
                    inst.start = pos
        self.cur = []
        self.segs = [self.cur]
        self.seg_pos = [pos]
        self.views.clear()

    # -- classification ---------------------------------------------------
    def _classify(self, inst: _Instance) -> Tuple[str, Set[str], Set[str]]:
        conflict_bufs: Set[int] = set()
        flow_bufs: Set[int] = set()
        state = inst.state
        if inst.count is not None:
            n = inst.count
        elif state is None:
            n = 0
        elif isinstance(state, dict):
            n = len(state)
            for key, s in state.items():
                if s & 4:
                    flow_bufs.add(key >> _OFF_BITS)
                elif s & 3 == 3:
                    conflict_bufs.add(key >> _OFF_BITS)
        else:
            keys, _last, flags = state
            n = len(keys)
            flow = (flags & 4) != 0
            conf = ((flags & 3) == 3) & ~flow
            if flow.any() or conf.any():
                bufs = keys >> _OFF_BITS
                flow_bufs = set(_np.unique(bufs[flow]).tolist())
                conflict_bufs = set(_np.unique(bufs[conf]).tolist())
        perf.bump("elpd.shadow.elements", n)
        # a buffer's name: the one its latest fresh element was first
        # touched under (a buffer seen under one name keeps it)
        names, latest = self.view_name, inst.latest
        flow_arrays = {names[latest.get(b, b)] for b in flow_bufs}
        conflict_arrays = {names[latest.get(b, b)] for b in conflict_bufs}
        if flow_arrays:
            return "dependent", conflict_arrays, flow_arrays
        if conflict_arrays:
            return "privatizable", conflict_arrays, flow_arrays
        return "independent", conflict_arrays, flow_arrays


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
