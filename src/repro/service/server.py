"""JSON-lines batch/server front end (``serve --stdio``).

``python -m repro serve`` reads one analysis request per line from
stdin and writes one JSON result per line to stdout, in request order.
Since the job-system refactor the loop is a thin front end over the
same persistent queue + worker fleet the HTTP front door uses
(:mod:`repro.service.queue` / :mod:`repro.service.workers`): each line
becomes a queued job, ``--jobs N`` sizes the worker fleet, and results
stream strictly in request order through a sliding window — responses
are byte-identical to the pre-queue server (an integration test pins
the full suite).

Request object::

    {"id": 7,                      # echoed back verbatim (optional)
     "source": "program p\\n...",   # inline source text, or:
     "file": "path/to/prog.f",     # read from disk (worker-side)
     "options": "predicated",      # or "base" (default "predicated")
     "budget": {"max_wall_s": 1.0, # optional per-request budget
                "max_ops": 100000,
                "max_fm_constraints": 20000},
     "report": false}              # include the formatted text report

An optional ``"kind"`` field selects the job kind (``"analyze"``, the
default, or ``"experiment"`` with a ``"which"`` body — the same schema
``POST /v1/jobs`` accepts).

Response object::

    {"id": 7, "ok": true, "program": "p",
     "degraded": false,            # any budget demotion happened
     "loops": [{"label": "p:L1", "unit": "p", "status": "parallel",
                "condition": null, "runtime_test": null, "reason": "",
                "enclosed": false}, ...]}

A failed request answers ``{"id": ..., "ok": false, "error": "..."}``
on its own line — one bad request never takes down the server or the
batch.  An unknown ``budget`` key is such a failure (the server names
the bad key rather than silently granting an unlimited budget).  Budget
exhaustion is *not* a failure: it degrades the answer (sound,
``"degraded": true``) and the server keeps going.

The cache directory configured via ``--cache`` (or the
``REPRO_CACHE_DIR`` environment variable) is shared by every worker, so
a long-lived server warms it monotonically.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections import deque
from typing import Dict, Optional, TextIO

from repro.service.jobs import run_analyze


def handle_request(req: Dict) -> Dict:
    """Analyze one request dict into one response dict (never raises).

    The direct (no queue) entry point; kept as the pinned wire format —
    :func:`repro.service.jobs.run_analyze` is the single implementation
    both this and the job system use.
    """
    resp, _extras = run_analyze(req)
    return resp


def _emit(out: TextIO, resp: Dict) -> None:
    out.write(json.dumps(resp, sort_keys=True) + "\n")
    out.flush()


def serve(
    in_stream: TextIO,
    out_stream: TextIO,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    queue_dir: Optional[str] = None,
) -> int:
    """Run the JSON-lines loop until EOF; returns the request count.

    Every request runs through the queue + worker core: *jobs* worker
    threads drain the queue (each job under its own thread-local
    budget).  A line that fails to parse, or names an unknown
    job kind, is answered locally — still on its own line, still in
    request order.  With *queue_dir* ``None`` the queue lives in a
    temporary directory deleted on return; pass a path to keep the
    journal and receipts.
    """
    if cache_dir is not None:
        from repro.service.cache import set_default_cache_dir

        set_default_cache_dir(cache_dir)

    from repro.service.queue import JobQueue, QueueFull
    from repro.service.workers import WorkerFleet

    workers = max(1, jobs)
    own_dir = queue_dir is None
    qdir = tempfile.mkdtemp(prefix="repro-serve-") if own_dir else queue_dir
    queue = JobQueue(qdir, capacity=max(64, 4 * workers))
    fleet = WorkerFleet(queue, workers=workers)
    fleet.start()

    #: responses already decided locally, or job ids awaiting results —
    #: emitted strictly in arrival order
    window: deque = deque()
    count = 0

    def emit_head(block: bool) -> bool:
        nonlocal count
        kind, val = window[0]
        if kind == "resp":
            resp = val
        else:
            resp = queue.wait(val) if block else queue.response(val)
            if resp is None:
                return False
        _emit(out_stream, resp)
        window.popleft()
        count += 1
        return True

    try:
        for line in in_stream:
            if not line.strip():
                continue
            try:
                req = json.loads(line)
                if not isinstance(req, dict):
                    raise TypeError("request must be an object")
                kind = req.pop("kind", "analyze")
            except ValueError as exc:
                window.append(
                    ("resp", {"id": None, "ok": False,
                              "error": f"bad JSON: {exc}"})
                )
            except TypeError as exc:
                window.append(
                    ("resp", {"id": None, "ok": False, "error": str(exc)})
                )
            else:
                while True:
                    try:
                        window.append(("job", queue.submit(kind, req)))
                        break
                    except QueueFull:
                        emit_head(block=True)  # backpressure: drain one
                    except ValueError as exc:
                        window.append(
                            ("resp", {"id": req.get("id"), "ok": False,
                                      "error": f"ValueError: {exc}"})
                        )
                        break
            # stream: flush whatever is already done, in order, and
            # block once the window outgrows the fleet's useful depth
            while window and emit_head(block=len(window) >= 2 * workers):
                pass
        while window:
            emit_head(block=True)
    finally:
        fleet.drain()
        if own_dir:
            shutil.rmtree(qdir, ignore_errors=True)
    return count
