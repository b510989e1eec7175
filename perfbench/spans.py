"""Spans around each layer's public entry points, and the per-op split.

The benchmark installs timing wrappers from its own files; nothing under
``src/`` records spans.  A span is ``(id, parent, name, start_ns,
end_ns, op)`` on the system-wide monotonic clock, so spans recorded in
the server process line up with the client's.  A span inherits its op
from its parent; a wrapper may also name the op from the call's
arguments or result (a job id), which then propagates to open ancestors
that had none (the HTTP handler learns its job id from the submit it
made).  Spans stay in memory until :meth:`Tracer.dump`.

Two ways to split an op's latency into layers, both exact (layer times
plus ``unattributed`` equal the op's latency):

* :func:`self_split` -- one thread, properly nested spans: a span's self
  time is its duration minus its children's; the op root's self time is
  ``unattributed``.
* :func:`timeline_split` -- spans of one op in several threads and
  processes (the HTTP service): every instant of the op goes to one
  layer by a fixed priority (see the function).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

now_ns = time.monotonic_ns

#: a wrap target: (owner module or class, attribute, span name, op_of)
Target = Tuple[object, str, str, Optional[Callable]]


class Tracer:
    def __init__(self) -> None:
        #: while False, installed wrappers call straight through
        self.enabled = True
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[5]
        frame = [next(self._ids), parent[0] if parent else 0, name, now_ns(), 0, op]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        frame[4] = now_ns()
        self._stack().pop()
        self.spans.append(tuple(frame))

    def _name_op(self, op) -> None:
        for frame in reversed(self._stack()):
            if frame[5] is not None:
                break
            frame[5] = op

    @contextmanager
    def span(self, name: str, op=None):
        frame = self._open(name, op)
        try:
            yield frame
        finally:
            self._close(frame)

    def wrap(self, name: str, fn: Callable, op_of: Optional[Callable] = None):
        """*fn* recording a span; ``op_of(args, result)`` names the op,
        first with ``result=None`` before the call, then after it."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open(name, op_of(args, None) if op_of else None)
            try:
                result = fn(*args, **kwargs)
                if op_of is not None and frame[5] is None:
                    op = op_of(args, result)
                    if op is not None:
                        tracer._name_op(op)
                return result
            finally:
                tracer._close(frame)

        return traced

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap each target.  A class method is replaced on its class; a
        module function is replaced in every ``repro`` module that bound
        it by name, so ``from x import f`` callers are traced too."""
        for owner, attr, name, op_of in targets:
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, op_of)
            if isinstance(owner, type):
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def load_spans(path: str) -> List[tuple]:
    with open(path) as f:
        return [tuple(s) for s in json.load(f)["spans"]]


def by_op(spans: Iterable[tuple]) -> Dict[object, List[tuple]]:
    out: Dict[object, List[tuple]] = {}
    for s in spans:
        if s[5] is not None:
            out.setdefault(s[5], []).append(s)
    return out


def self_split(
    op_spans: List[tuple], layer_of: Dict[str, str], root: str = "op"
) -> Tuple[int, Dict[str, int]]:
    """(latency, layer -> self ns) of one op recorded in one thread.

    The root span's own self time is charged to ``unattributed``.
    """
    child_ns: Dict[int, int] = {}
    for s in op_spans:
        child_ns[s[1]] = child_ns.get(s[1], 0) + (s[4] - s[3])
    split: Dict[str, int] = {}
    latency = None
    for s in op_spans:
        own = (s[4] - s[3]) - child_ns.get(s[0], 0)
        if s[2] == root:
            latency = s[4] - s[3]
            layer = "unattributed"
        else:
            layer = layer_of[s[2]]
        split[layer] = split.get(layer, 0) + own
    if latency is None:
        raise ValueError("op has no root span")
    if sum(split.values()) != latency:
        raise AssertionError("layer self times do not add up to op latency")
    return latency, split


#: service layers, highest priority first, by what the client is doing
_IN_CALL = ("queue.submit", "http.handler")
_BETWEEN_CALLS = (
    "receipt.build",
    "job.run",
    "queue.finish",
    "queue.claim",
    "job.queued",
)
_CLIENT_CALLS = ("http.post", "http.get")


def timeline_split(op_spans: List[tuple]) -> Tuple[int, Dict[str, int]]:
    """(latency, layer -> ns) of one service op, from client and server
    spans of the same job.

    Each instant between the client's POST start and its terminal GET
    end goes to exactly one layer:

    * while the client is inside a call: ``queue.submit`` or
      ``http.handler`` if the server is handling it, else
      ``http.transport`` (network, socket buffers, delayed ACKs);
    * between calls: the deepest job-side span running (``receipt.build``
      > ``job.run`` > ``queue.finish`` > ``queue.claim`` > ``job.queued``,
      the wait from submit to claim), else ``client.poll_wait`` once the
      job has finished, else ``unattributed``.
    """
    spans = list(op_spans)
    root = next(s for s in spans if s[2] == "op")
    submit = next((s for s in spans if s[2] == "queue.submit"), None)
    claim = next((s for s in spans if s[2] == "queue.claim"), None)
    finish = next((s for s in spans if s[2] == "queue.finish"), None)
    if submit is not None and claim is not None and claim[3] > submit[4]:
        spans.append((0, 0, "job.queued", submit[4], claim[3], root[5]))
    done_at = finish[4] if finish is not None else None
    t0, t1 = root[3], root[4]
    cuts = sorted(
        {t0, t1}
        | {t for s in spans for t in (s[3], s[4]) if t0 < t < t1}
    )
    split: Dict[str, int] = {}
    for a, b in zip(cuts, cuts[1:]):
        active = {s[2] for s in spans if s[3] <= a and s[4] >= b}
        if active & set(_CLIENT_CALLS):
            layer = next((n for n in _IN_CALL if n in active), "http.transport")
        else:
            layer = next((n for n in _BETWEEN_CALLS if n in active), None)
            if layer is None:
                finished = done_at is not None and done_at <= a
                layer = "client.poll_wait" if finished else "unattributed"
        split[layer] = split.get(layer, 0) + (b - a)
    return t1 - t0, split
