"""Tests for the HTTP front door."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.http import (
    ServiceHandler,
    ServiceServer,
    parse_addr,
    service_stats,
)
from repro.service.queue import JobQueue
from repro.service.workers import WorkerFleet

SRC = (
    "program ind\n"
    "  integer n\n"
    "  real a(100)\n"
    "  read n\n"
    "  do i = 1, n\n"
    "    a(i) = 2.0\n"
    "  enddoen\n"
    "end\n"
).replace("enddoen", "enddo")


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port, with a 2-worker fleet."""
    queue = JobQueue(tmp_path / "q", capacity=8)
    fleet = WorkerFleet(queue, workers=2).start()
    server = ServiceServer(("127.0.0.1", 0), queue, fleet)
    t = threading.Thread(target=server.serve_forever, daemon=True)
    t.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, queue, fleet, server
    finally:
        server.shutdown()
        server.server_close()
        fleet.drain(timeout=30.0)


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as r:
            return r.status, json.loads(r.read()), dict(r.headers)
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read()), dict(e.headers)


def _post(base, path, body, raw=None):
    data = raw if raw is not None else json.dumps(body).encode()
    req = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, json.loads(r.read()), dict(r.headers)
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read()), dict(e.headers)


def _wait_done(base, jid, tries=600):
    import time

    for _ in range(tries):
        _, payload, _ = _get(base, f"/v1/jobs/{jid}")
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {jid} never finished")


class TestEndpoints:
    def test_healthz(self, service):
        base, *_ = service
        code, payload, _ = _get(base, "/v1/healthz")
        assert code == 200
        assert payload == {"ok": True, "draining": False}

    def test_job_lifecycle(self, service):
        base, queue, _, _ = service
        code, sub, _ = _post(
            base, "/v1/jobs", {"kind": "analyze", "id": 1, "source": SRC}
        )
        assert code == 202 and sub["ok"] and sub["state"] == "queued"
        payload = _wait_done(base, sub["id"])
        assert payload["state"] == "done"
        resp = payload["response"]
        assert resp["ok"] and resp["id"] == 1
        assert resp["loops"][0]["status"] == "parallel"

    def test_kind_defaults_to_analyze(self, service):
        base, *_ = service
        code, sub, _ = _post(base, "/v1/jobs", {"id": 2, "source": SRC})
        assert code == 202
        assert _wait_done(base, sub["id"])["response"]["ok"]

    def test_receipt_endpoint(self, service):
        base, *_ = service
        _, sub, _ = _post(base, "/v1/jobs", {"id": 3, "source": SRC})
        _wait_done(base, sub["id"])
        code, receipt, _ = _get(base, f"/v1/jobs/{sub['id']}/receipt")
        assert code == 200
        from repro.service.receipts import validate_receipt

        assert validate_receipt(receipt) == []
        assert receipt["job"]["id"] == sub["id"]

    def test_stats(self, service):
        base, *_ = service
        _, sub, _ = _post(base, "/v1/jobs", {"id": 4, "source": SRC})
        _wait_done(base, sub["id"])
        code, stats, _ = _get(base, "/v1/stats")
        assert code == 200
        assert stats["queue"]["done"] >= 1
        assert stats["fleet"]["workers"] == 2
        assert stats["counters"]["job.analyze"] >= 1
        assert stats["counters"]["queue.submitted"] >= 1
        assert "caches" in stats

    def test_batch_lifecycle(self, service):
        base, queue, _, _ = service
        code, sub, _ = _post(
            base,
            "/v1/batch",
            {
                "kind": "analyze",
                "jobs": [{"id": i, "source": SRC} for i in range(3)],
            },
        )
        assert code == 202 and sub["ok"] and sub["state"] == "queued"
        assert len(sub["ids"]) == 3
        for i, jid in enumerate(sub["ids"]):
            payload = _wait_done(base, jid)
            assert payload["state"] == "done"
            assert payload["response"]["id"] == i  # input order preserved
            # per-job receipts survive the batch path
            code, receipt, _ = _get(base, f"/v1/jobs/{jid}/receipt")
            assert code == 200 and receipt["job"]["id"] == jid

    def test_unknown_budget_key_fails_the_job(self, service):
        """The strict-budget contract travels the whole HTTP path."""
        base, *_ = service
        _, sub, _ = _post(
            base,
            "/v1/jobs",
            {"id": 5, "source": SRC, "budget": {"max_walls": 1.0}},
        )
        payload = _wait_done(base, sub["id"])
        assert payload["state"] == "failed"
        assert "max_walls" in payload["response"]["error"]


class TestErrors:
    def test_unknown_job_404(self, service):
        base, *_ = service
        code, payload, _ = _get(base, "/v1/jobs/j99999999")
        assert code == 404 and not payload["ok"]

    def test_receipt_before_done_404(self, service):
        base, queue, _, _ = service
        # submitted but never claimed (a job the fleet lost the race to
        # would be racy; use an id that exists only as queued)
        jid = queue.submit("analyze", {"id": 0, "source": "program p\nend\n"})
        code, payload, _ = _get(base, f"/v1/jobs/{jid}/receipt")
        if code == 200:  # fleet may have finished it already
            return
        assert code == 404 and payload["state"] in ("queued", "running")

    def test_bad_json_400(self, service):
        base, *_ = service
        code, payload, _ = _post(base, "/v1/jobs", None, raw=b"{nope")
        assert code == 400 and "bad JSON" in payload["error"]

    def test_non_object_400(self, service):
        base, *_ = service
        code, payload, _ = _post(base, "/v1/jobs", [1, 2])
        assert code == 400 and "object" in payload["error"]

    def test_unknown_kind_400(self, service):
        base, *_ = service
        code, payload, _ = _post(base, "/v1/jobs", {"kind": "bogus"})
        assert code == 400 and "bogus" in payload["error"]

    def test_unknown_path_404(self, service):
        base, *_ = service
        assert _get(base, "/v1/nope")[0] == 404
        assert _post(base, "/v1/nope", {})[0] == 404

    def test_batch_validation_400(self, service):
        base, *_ = service
        code, payload, _ = _post(base, "/v1/batch", {"kind": "analyze"})
        assert code == 400 and "jobs" in payload["error"]
        code, payload, _ = _post(base, "/v1/batch", {"jobs": []})
        assert code == 400 and "jobs" in payload["error"]
        code, payload, _ = _post(base, "/v1/batch", {"jobs": [1, 2]})
        assert code == 400 and "object" in payload["error"]
        code, payload, _ = _post(
            base, "/v1/batch", {"kind": "bogus", "jobs": [{}]}
        )
        assert code == 400 and "bogus" in payload["error"]


def _keepalive(base):
    host, port = base.rsplit("//", 1)[1].split(":")
    return http.client.HTTPConnection(host, int(port), timeout=30)


def _call(conn, method, path, body=None, headers=None):
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


class TestKeepAlive:
    """Early answers leave a keep-alive connection ready for the next
    request: the declared body is read before any answer."""

    BODY = json.dumps({"id": 1, "source": SRC})

    @pytest.mark.parametrize(
        "path, body, draining, code",
        [
            ("/v1/nope", BODY, False, 404),
            ("/v1/jobs", BODY, True, 503),
            ("/v1/jobs", "{nope", False, 400),
        ],
    )
    def test_early_answer_then_get(self, service, path, body, draining, code):
        base, _, _, server = service
        conn = _keepalive(base)
        server.draining = draining
        try:
            assert _call(conn, "POST", path, body)[0] == code
            assert _call(conn, "GET", "/v1/healthz") == (
                200,
                {"ok": True, "draining": draining},
            )
        finally:
            server.draining = False
            conn.close()

    def test_bad_content_length_closes_the_connection(self, service):
        """With no known body end the server answers, then hangs up; the
        client reconnects on its own for the next request."""
        base, *_ = service
        conn = _keepalive(base)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Length", "twelve")
            conn.endheaders(self.BODY.encode())
            resp = conn.getresponse()
            assert resp.status == 400
            assert resp.getheader("Connection") == "close"
            assert "Content-Length" in json.loads(resp.read())["error"]
            assert _call(conn, "GET", "/v1/healthz")[0] == 200
        finally:
            conn.close()

    def test_round_trips_on_one_connection(self, service):
        base, *_ = service
        conn = _keepalive(base)
        try:
            for i in range(3):
                code, sub = _call(
                    conn, "POST", "/v1/jobs", json.dumps({"id": i, "source": SRC})
                )
                assert code == 202
                while True:
                    code, job = _call(conn, "GET", f"/v1/jobs/{sub['id']}")
                    assert code == 200
                    if job["state"] in ("done", "failed"):
                        break
                assert job["response"]["id"] == i
            code, receipt = _call(conn, "GET", f"/v1/jobs/{sub['id']}/receipt")
            assert code == 200 and receipt["job"]["id"] == sub["id"]
        finally:
            conn.close()


class TestOneWrite:
    def test_every_answer_is_one_write_on_a_nodelay_socket(self, tmp_path):
        """Status line, headers and body leave in one write, so Nagle's
        algorithm never holds a body back for a delayed ACK."""
        writes = []
        nodelay = []

        class Counting(ServiceHandler):
            def setup(self):
                super().setup()
                nodelay.append(
                    self.connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY
                    )
                )
                raw = self.wfile

                class Writer:
                    def write(self, data):
                        writes.append(bytes(data))
                        return raw.write(data)

                    def __getattr__(self, name):
                        return getattr(raw, name)

                self.wfile = Writer()

        queue = JobQueue(tmp_path / "q", capacity=4)
        server = ServiceServer(("127.0.0.1", 0), queue, None)
        server.RequestHandlerClass = Counting
        t = threading.Thread(target=server.serve_forever, daemon=True)
        t.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        conn = _keepalive(base)
        try:
            jid = queue.submit("analyze", {"id": 0, "source": SRC})
            queue.finish(jid, {"id": 0, "ok": True}, {"job": {"id": jid}})
            requests = [
                ("GET", "/v1/healthz", None),
                ("GET", "/v1/stats", None),
                ("GET", f"/v1/jobs/{jid}", None),
                ("GET", f"/v1/jobs/{jid}/receipt", None),
                ("GET", "/v1/nope", None),
                ("POST", "/v1/jobs", json.dumps({"source": SRC})),
                ("POST", "/v1/nope", "{}"),
            ]
            for method, path, body in requests:
                del writes[:]
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                payload = resp.read()
                assert len(writes) == 1, (path, writes)
                assert writes[0].endswith(b"\r\n\r\n" + payload), path
            assert nodelay == [1]  # one connection, Nagle off
        finally:
            conn.close()
            server.shutdown()
            server.server_close()


class TestBackpressure:
    def test_429_with_retry_after_when_full(self, tmp_path):
        # no fleet: nothing drains the queue, so capacity 1 fills at once
        queue = JobQueue(tmp_path / "q", capacity=1)
        server = ServiceServer(("127.0.0.1", 0), queue, None)
        t = threading.Thread(target=server.serve_forever, daemon=True)
        t.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            code, _, _ = _post(base, "/v1/jobs", {"id": 0, "source": SRC})
            assert code == 202
            code, payload, headers = _post(
                base, "/v1/jobs", {"id": 1, "source": SRC}
            )
            assert code == 429
            assert not payload["ok"]
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.shutdown()
            server.server_close()

    def test_batch_429_is_all_or_nothing(self, tmp_path):
        queue = JobQueue(tmp_path / "q", capacity=2)
        server = ServiceServer(("127.0.0.1", 0), queue, None)
        t = threading.Thread(target=server.serve_forever, daemon=True)
        t.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            code, payload, headers = _post(
                base,
                "/v1/batch",
                {"jobs": [{"id": i, "source": SRC} for i in range(3)]},
            )
            assert code == 429 and not payload["ok"]
            assert int(headers["Retry-After"]) >= 1
            assert queue.depth() == 0  # nothing half-admitted
            code, payload, _ = _post(
                base,
                "/v1/batch",
                {"jobs": [{"id": i, "source": SRC} for i in range(2)]},
            )
            assert code == 202 and len(payload["ids"]) == 2
        finally:
            server.shutdown()
            server.server_close()

    def test_draining_healthz_and_503(self, tmp_path):
        queue = JobQueue(tmp_path / "q", capacity=4)
        server = ServiceServer(("127.0.0.1", 0), queue, None)
        server.draining = True
        t = threading.Thread(target=server.serve_forever, daemon=True)
        t.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            code, health, _ = _get(base, "/v1/healthz")
            assert code == 200 and health["draining"]
            code, _, headers = _post(base, "/v1/jobs", {"source": SRC})
            assert code == 503 and "Retry-After" in headers
        finally:
            server.shutdown()
            server.server_close()


class TestHelpers:
    def test_parse_addr(self):
        assert parse_addr(":8080") == ("127.0.0.1", 8080)
        assert parse_addr("8080") == ("127.0.0.1", 8080)
        assert parse_addr("0.0.0.0:80") == ("0.0.0.0", 80)
        with pytest.raises(ValueError):
            parse_addr("nope")

    def test_service_stats_without_fleet(self, tmp_path):
        stats = service_stats(JobQueue(tmp_path), None)
        assert stats["fleet"] is None
        assert stats["queue"]["queued"] == 0
