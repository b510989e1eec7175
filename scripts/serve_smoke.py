#!/usr/bin/env python
"""End-to-end smoke test of the HTTP job service (`make serve-smoke`).

Starts ``python -m repro serve --http`` as a real subprocess, walks the
whole job lifecycle from outside, and tears the service down the way an
operator would:

1. start the server on a free port with a 2-worker fleet and a fresh
   queue directory;
2. wait for ``GET /v1/healthz``;
3. ``POST`` two jobs — a plain analysis and one with a per-job budget;
4. poll ``GET /v1/jobs/<id>`` to completion and check the responses;
5. fetch each receipt and validate it with
   ``repro.service.receipts.validate_receipt`` (schema + the receipt
   must reproduce its own inputs hash);
6. ``POST /v1/batch`` with three jobs and walk every returned id to a
   valid per-job receipt — the batched path must be indistinguishable
   past admission;
7. on one keep-alive connection, make 10 POST → poll → done round
   trips (the median POST must answer in under 20 ms: each answer is
   one write on a ``TCP_NODELAY`` socket), then ``POST`` to an unknown
   path and require the ``GET`` after it on that connection to answer
   200;
8. check ``GET /v1/stats`` saw the traffic;
9. send SIGTERM and require a clean, graceful exit.

Exit status 0 on success; any failure prints a diagnostic and exits 1.
Stdlib only — run as ``python scripts/serve_smoke.py``.
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service.receipts import validate_receipt  # noqa: E402

SOURCE = (
    "program smoke\n"
    "  integer n, k\n"
    "  real a(100)\n"
    "  read n, k\n"
    "  do i = 1, n\n"
    "    a(i + k) = a(i) + 1.0\n"
    "  enddo\n"
    "  print a(n)\n"
    "end\n"
)

START_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
#: a POST answer split over two writes waits ~40 ms for a delayed ACK
POST_MEDIAN_MAX_MS = 20.0


def fail(msg):
    print(f"serve-smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http(method, url, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(req, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read().decode())


def wait_healthy(base):
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            status, payload = http("GET", base + "/v1/healthz")
            if status == 200 and payload.get("ok"):
                return
        except (urllib.error.URLError, OSError, ConnectionError):
            pass
        time.sleep(0.2)
    fail(f"server not healthy within {START_TIMEOUT_S}s")


def poll_done(base, job_id):
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        _, payload = http("GET", f"{base}/v1/jobs/{job_id}")
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.2)
    fail(f"job {job_id} not terminal within {JOB_TIMEOUT_S}s")


def keepalive_round_trips(port):
    conn = HTTPConnection("127.0.0.1", port, timeout=10.0)

    def call(method, path, body=None):
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    try:
        posts = []
        for i in range(10):
            body = json.dumps({"id": 100 + i, "source": SOURCE})
            start = time.perf_counter()
            status, accepted = call("POST", "/v1/jobs", body)
            posts.append((time.perf_counter() - start) * 1000)
            if status != 202:
                fail(f"keep-alive submit {i} answered {status}: {accepted}")
            deadline = time.monotonic() + JOB_TIMEOUT_S
            while True:
                _, payload = call("GET", f"/v1/jobs/{accepted['id']}")
                if payload["state"] == "done":
                    break
                if payload["state"] == "failed" or time.monotonic() > deadline:
                    fail(f"keep-alive job {accepted['id']} not done: {payload}")
                time.sleep(0.01)
        median = statistics.median(posts)
        if median >= POST_MEDIAN_MAX_MS:
            fail(
                f"median keep-alive POST took {median:.1f} ms "
                f"(limit {POST_MEDIAN_MAX_MS:g} ms)"
            )
        status, _ = call("POST", "/v1/nope", json.dumps({"source": SOURCE}))
        if status != 404:
            fail(f"POST to an unknown path answered {status}")
        status, health = call("GET", "/v1/healthz")
        if status != 200:
            fail(f"GET after an early answer answered {status}: {health}")
        print(
            f"serve-smoke: 10 keep-alive round trips, median POST "
            f"{median:.1f} ms; connection in sync after a 404"
        )
    finally:
        conn.close()


def main():
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--http",
                f"127.0.0.1:{port}",
                "--workers",
                "2",
                "--queue-dir",
                os.path.join(tmp, "queue"),
                "--cache",
                os.path.join(tmp, "cache"),
            ],
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.path.join(REPO_ROOT, "src")
                + (
                    os.pathsep + os.environ["PYTHONPATH"]
                    if os.environ.get("PYTHONPATH")
                    else ""
                ),
            },
        )
        try:
            wait_healthy(base)

            status, accepted = http(
                "POST",
                base + "/v1/jobs",
                {"kind": "analyze", "id": 1, "source": SOURCE},
            )
            if status != 202 or not accepted.get("ok"):
                fail(f"submit #1 rejected: {status} {accepted}")
            status, budgeted = http(
                "POST",
                base + "/v1/jobs",
                {
                    "id": 2,
                    "source": SOURCE,
                    "budget": {"max_fm_constraints": 50000},
                },
            )
            if status != 202 or not budgeted.get("ok"):
                fail(f"submit #2 rejected: {status} {budgeted}")
            ids = [accepted["id"], budgeted["id"]]
            print(f"serve-smoke: submitted {ids} on {base}")

            for job_id in ids:
                payload = poll_done(base, job_id)
                resp = payload.get("response") or {}
                if payload["state"] != "done" or not resp.get("ok"):
                    fail(f"job {job_id} did not succeed: {payload}")
                if not resp.get("loops"):
                    fail(f"job {job_id} reported no loops: {resp}")
                _, receipt = http("GET", f"{base}/v1/jobs/{job_id}/receipt")
                problems = validate_receipt(receipt)
                if problems:
                    fail(f"receipt {job_id} invalid: {problems}")
                print(
                    f"serve-smoke: {job_id} done, receipt valid "
                    f"(inputs {receipt['inputs']['combined'][:12]}…)"
                )

            status, batch = http(
                "POST",
                base + "/v1/batch",
                {
                    "kind": "analyze",
                    "jobs": [
                        {"id": i, "source": SOURCE} for i in range(3)
                    ],
                },
            )
            if status != 202 or not batch.get("ok"):
                fail(f"batch submit rejected: {status} {batch}")
            if len(batch.get("ids", [])) != 3:
                fail(f"batch admitted wrong count: {batch}")
            for i, job_id in enumerate(batch["ids"]):
                payload = poll_done(base, job_id)
                resp = payload.get("response") or {}
                if payload["state"] != "done" or not resp.get("ok"):
                    fail(f"batch job {job_id} did not succeed: {payload}")
                if resp.get("id") != i:
                    fail(f"batch job {job_id} lost input order: {resp}")
                _, receipt = http("GET", f"{base}/v1/jobs/{job_id}/receipt")
                problems = validate_receipt(receipt)
                if problems:
                    fail(f"batch receipt {job_id} invalid: {problems}")
            print(f"serve-smoke: batch {batch['ids']} done, receipts valid")

            keepalive_round_trips(port)

            _, stats = http("GET", base + "/v1/stats")
            counters = stats.get("counters", {})
            if counters.get("queue.submitted", 0) < 5:
                fail(f"stats lost the traffic: {counters}")
            if counters.get("queue.batches", 0) < 1:
                fail(f"stats lost the batch submit: {counters}")

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=EXIT_TIMEOUT_S)
            if code != 0:
                fail(f"server exited {code} on SIGTERM")
            print("serve-smoke: graceful drain, exit 0 — PASS")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)


if __name__ == "__main__":
    main()
