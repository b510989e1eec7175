"""HTTP front door for the job system (stdlib only, zero new deps).

``python -m repro serve --http :8080`` starts a
:class:`~http.server.ThreadingHTTPServer` in front of the persistent
job queue and a worker fleet.  The API surface:

``POST /v1/jobs``
    Submit a job.  The body is today's JSON-lines request object plus a
    ``"kind"`` field (``"analyze"``, the default, or ``"experiment"``).
    Answers ``202 {"id": "j00000001", "state": "queued"}``.  When the
    queue is at capacity the server answers ``429`` with a
    ``Retry-After`` header — backpressure instead of unbounded buffering.

``POST /v1/batch``
    Submit many jobs in one request: ``{"kind": ..., "priority": ...,
    "jobs": [<request object>, ...]}``.  Answers ``202 {"ok": true,
    "ids": [...], "state": "queued"}``.  Admission is all-or-nothing
    against capacity (429 if the whole batch does not fit); each job is
    then claimed, executed and receipted individually, exactly as if
    submitted one by one — the batch path only removes per-job
    submit/journal/wake-up overhead (see ``docs/SERVICE.md``).

``GET /v1/jobs/<id>``
    Job status: ``{"id", "state"}`` with ``state`` one of ``queued`` /
    ``running`` / ``done`` / ``failed``, plus the full ``response``
    object once terminal.

``GET /v1/jobs/<id>/receipt``
    The job's provenance receipt (404 until the job is terminal).

``GET /v1/healthz``
    Liveness: ``{"ok": true}`` (and ``"draining": true`` once a
    shutdown began — load balancers should stop sending work).

``GET /v1/stats``
    Queue depth and states, fleet utilization, and the service-relevant
    perf counters and cache hit rates.

Shutdown (SIGTERM/SIGINT) is a graceful drain: the listener stops
accepting, the fleet stops claiming, running jobs finish, receipts are
written — then the process exits.

Every answer leaves in one write on a ``TCP_NODELAY`` socket, and a
``POST``'s declared body is read before any answer, so keep-alive
connections stay fast and in sync (``docs/SERVICE.md``, Transport).
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

from repro import perf
from repro.service.queue import JobQueue, QueueFull
from repro.service.receipts import receipt_bytes
from repro.service.workers import WorkerFleet

perf.declare("http.requests")
perf.declare("http.rejected")

#: counter prefixes surfaced by ``GET /v1/stats``
_STATS_PREFIXES = ("job.", "queue.", "worker.", "http.", "cache.", "budget.")

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)(/receipt)?$")


def service_stats(queue: JobQueue, fleet: Optional[WorkerFleet]) -> Dict:
    """The ``GET /v1/stats`` payload (also used by tests directly)."""
    snap = perf.snapshot()
    counters = {
        k: v
        for k, v in snap["counters"].items()
        if k.startswith(_STATS_PREFIXES)
    }
    return {
        "queue": queue.stats(),
        "fleet": fleet.stats() if fleet is not None else None,
        "counters": counters,
        "caches": snap["caches"],
    }


class ServiceHandler(BaseHTTPRequestHandler):
    """Request handler; the server object carries queue + fleet."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # answers leave in one write (see _send); with the whole answer in
    # hand, Nagle's algorithm has nothing to wait for
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def _send(
        self,
        code: int,
        body: Union[Dict, bytes],
        headers: Optional[Dict] = None,
    ) -> None:
        """Answer with *body* — a JSON-able payload, or bytes sent as
        they are — in one socket write.

        ``end_headers()`` would write the header block by itself and the
        body would follow as a second small segment, which Nagle's
        algorithm holds until the client's delayed ACK (~40 ms).
        """
        if not isinstance(body, bytes):
            body = (json.dumps(body, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        head = getattr(self, "_headers_buffer", [])  # none for HTTP/0.9
        if head:
            head.append(b"\r\n")
        self.wfile.write(b"".join(head) + body)
        head.clear()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # stay quiet; the journal is the record

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        perf.bump("http.requests")
        # read the declared body before any answer: an early 404 or 503
        # must leave a keep-alive connection at the next request line
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # where the body ends is unknown, so the connection cannot
            # carry another request
            self._send(
                400,
                {"ok": False, "error": "bad Content-Length"},
                headers={"Connection": "close"},
            )
            return
        raw = self.rfile.read(length)
        path = self.path.rstrip("/")
        if path not in ("/v1/jobs", "/v1/batch"):
            self._send(404, {"ok": False, "error": "not found"})
            return
        if self.server.draining:
            self._send(
                503,
                {"ok": False, "error": "draining"},
                headers={"Retry-After": "5"},
            )
            return
        try:
            body = json.loads(raw or b"null")
        except ValueError as exc:
            self._send(400, {"ok": False, "error": f"bad JSON: {exc}"})
            return
        if not isinstance(body, dict):
            self._send(400, {"ok": False, "error": "request must be an object"})
            return
        kind = body.pop("kind", "analyze")
        priority = body.pop("priority", 0)
        try:
            if path == "/v1/batch":
                jobs = body.get("jobs")
                if not isinstance(jobs, list) or not jobs:
                    raise ValueError(
                        "batch request needs a non-empty 'jobs' array"
                    )
                if not all(isinstance(j, dict) for j in jobs):
                    raise ValueError("every batch job must be an object")
                ids = self.server.queue.submit_batch(
                    kind, jobs, priority=priority
                )
                self._send(202, {"ok": True, "ids": ids, "state": "queued"})
                return
            job_id = self.server.queue.submit(kind, body, priority=priority)
        except QueueFull as exc:
            perf.bump("http.rejected")
            self._send(
                429,
                {
                    "ok": False,
                    "error": str(exc),
                    "retry_after": exc.retry_after,
                },
                headers={"Retry-After": str(int(exc.retry_after) or 1)},
            )
            return
        except (ValueError, TypeError) as exc:
            self._send(400, {"ok": False, "error": str(exc)})
            return
        self._send(202, {"ok": True, "id": job_id, "state": "queued"})

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        perf.bump("http.requests")
        path = self.path.split("?", 1)[0]
        if path == "/v1/healthz":
            self._send(200, {"ok": True, "draining": self.server.draining})
            return
        if path == "/v1/stats":
            self._send(200, service_stats(self.server.queue, self.server.fleet))
            return
        m = _JOB_PATH.match(path)
        if m is None:
            self._send(404, {"ok": False, "error": "not found"})
            return
        job_id, want_receipt = m.group(1), bool(m.group(2))
        queue = self.server.queue
        state = queue.state(job_id)
        if state is None:
            self._send(404, {"ok": False, "error": f"unknown job {job_id!r}"})
            return
        if want_receipt:
            receipt = queue.receipt(job_id)
            if receipt is None:
                self._send(
                    404,
                    {
                        "ok": False,
                        "error": f"job {job_id!r} has no receipt yet",
                        "state": state,
                    },
                )
                return
            self._send(200, receipt_bytes(receipt))
            return
        payload: Dict = {"id": job_id, "state": state}
        if state in ("done", "failed"):
            payload["response"] = queue.response(job_id)
        self._send(200, payload)


class ServiceServer(ThreadingHTTPServer):
    """The front door: an HTTP listener over one queue + fleet."""

    daemon_threads = True

    def __init__(self, addr: Tuple[str, int], queue: JobQueue, fleet):
        super().__init__(addr, ServiceHandler)
        self.queue = queue
        self.fleet = fleet
        self.draining = False


def parse_addr(spec: str) -> Tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` → ``(host, port)``."""
    spec = str(spec)
    if ":" in spec:
        host, _, port = spec.rpartition(":")
    else:
        host, port = "", spec
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ValueError(f"bad --http address {spec!r} (want HOST:PORT)")


def serve_http(
    addr: str,
    queue_dir: str,
    workers: int = 1,
    capacity: int = 256,
    cache_dir: Optional[str] = None,
    install_signals: bool = True,
    ready: Optional[threading.Event] = None,
) -> int:
    """Run the HTTP service until SIGTERM/SIGINT, then drain.

    Returns the number of jobs the fleet completed.  *ready* (tests) is
    set once the listener is bound and the fleet is running.
    """
    if cache_dir is not None:
        from repro.service.cache import set_default_cache_dir

        set_default_cache_dir(cache_dir)
    queue = JobQueue(queue_dir, capacity=capacity)
    fleet = WorkerFleet(queue, workers=workers).start()
    server = ServiceServer(parse_addr(addr), queue, fleet)

    stop = threading.Event()

    def request_stop(*_args) -> None:
        server.draining = True
        stop.set()

    if install_signals:
        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)

    listener = threading.Thread(
        target=server.serve_forever, name="http-listener", daemon=True
    )
    listener.start()
    if ready is not None:
        ready.set()
    try:
        stop.wait()
    finally:
        server.draining = True
        server.shutdown()
        listener.join(5.0)
        server.server_close()
        fleet.drain()
    return fleet.stats()["completed"]
