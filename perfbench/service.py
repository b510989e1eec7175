"""The ``service_http`` workload: the real HTTP job service, driven by
one client process with keep-alive connections.

Each connection loops: ``POST /v1/jobs``, then ``GET /v1/jobs/<id>``
every ``POLL_S`` seconds until the job is terminal.  The server is
``python -m repro serve --http`` (or, for the traced run,
``serve_traced.py``, which wraps the service layers first) with fresh
queue and cache directories every time it starts.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import by_op, load_spans, now_ns, ratio, timeline_split

#: seconds between the end of one call and the next poll.  Long enough
#: that nearly every job is done by the first poll: each GET costs about
#: 45 ms today (delayed ACKs), so with a short interval the ~5% of jobs that
#: outlast the POST call put p95 on the edge between one and two polls.
POLL_S = 0.05
#: an op not terminal after this long fails
OP_TIMEOUT_S = 60.0
#: bounded wait for a clean exit after SIGTERM
STOP_WAIT_S = 20.0
TERMINAL = ("done", "failed")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _proc_status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One server process, from start to a checked shutdown."""

    def __init__(self, root: Path, work: Path, workers: int, spans_path=None):
        self.root = root
        self.work = work
        self.workers = workers
        self.spans_path = spans_path
        self.port = _free_port()
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        addr = f"127.0.0.1:{self.port}"
        queue_dir, cache_dir = self.work / "queue", self.work / "cache"
        if self.spans_path is None:
            cmd = [
                sys.executable, "-m", "repro", "serve", "--http", addr,
                "--workers", str(self.workers),
                "--queue-dir", str(queue_dir), "--cache", str(cache_dir),
            ]
        else:
            config = {
                "addr": addr,
                "queue_dir": str(queue_dir),
                "workers": self.workers,
                "cache_dir": str(cache_dir),
            }
            cmd = [
                sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                str(self.spans_path), json.dumps(config),
            ]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), TMPDIR=str(self.work))
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                if self.call("GET", "/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not answer /v1/healthz")
            time.sleep(0.005)

    def call(self, method: str, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return _proc_status_kb(self.proc.pid, "VmHWM") / 1024

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def stop(self, accepted: List[str]) -> List[str]:
        """SIGTERM, then check the exit and that every accepted job is
        terminal.  Returns the lifecycle failures."""
        failures = []
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_WAIT_S)
            if code != 0:
                failures.append(f"server exited with status {code}")
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            failures.append(f"server still running {STOP_WAIT_S:g}s after SIGTERM")
        results = self.work / "queue" / "results"
        for jid in accepted:
            try:
                state = json.loads((results / f"{jid}.json").read_text())["state"]
            except (OSError, ValueError, KeyError):
                state = None
            if state not in TERMINAL:
                failures.append(f"job {jid} not terminal after shutdown")
        return failures

    def cleanup(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)


class Client:
    """``conns`` keep-alive connections sharing one request sequence."""

    def __init__(self, port: int, conns: int) -> None:
        self.port = port
        self.conns = conns

    def run(self, requests: List[Dict], seconds: Optional[float]) -> List[Dict]:
        """Closed loop over *requests* in order: for *seconds* (cycling),
        or once through when *seconds* is None.  Returns one record per
        op, in submission order."""
        lock = threading.Lock()
        records: List[Dict] = []
        state = {"next": 0}
        deadline = None if seconds is None else now_ns() + int(seconds * 1e9)

        def take():
            with lock:
                i = state["next"]
                if deadline is None and i >= len(requests):
                    return None
                if deadline is not None and now_ns() >= deadline:
                    return None
                state["next"] = i + 1
                rec = {"i": i, "req": requests[i % len(requests)]}
                records.append(rec)
                return rec

        def loop():
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT_S)
            try:
                while True:
                    rec = take()
                    if rec is None:
                        return
                    try:
                        self._op(conn, rec)
                    except Exception as exc:  # counted as a failed op
                        rec["error"] = f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", self.port, timeout=OP_TIMEOUT_S
                        )
            finally:
                conn.close()

        threads = [threading.Thread(target=loop) for _ in range(self.conns)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return sorted(records, key=lambda r: r["i"])

    @staticmethod
    def _call(conn, method, path, body=None):
        start = now_ns()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        return resp.status, payload, (start, now_ns())

    def _op(self, conn, rec: Dict) -> None:
        req = rec["req"]
        rec["start"] = now_ns()
        status, body, rec["post"] = self._call(conn, "POST", "/v1/jobs", req["body"])
        if status != 202:
            raise RuntimeError(f"POST answered {status}: {body}")
        rec["id"] = jid = body["id"]
        rec["gets"] = []
        while True:
            time.sleep(POLL_S)
            status, body, span = self._call(conn, "GET", f"/v1/jobs/{jid}")
            rec["gets"].append(span)
            if status != 200:
                raise RuntimeError(f"GET answered {status}: {body}")
            if body["state"] in TERMINAL:
                break
            if now_ns() - rec["start"] > OP_TIMEOUT_S * 1e9:
                raise TimeoutError(f"job {jid} not terminal after {OP_TIMEOUT_S:g}s")
        rec["end"] = now_ns()
        rec["error"] = _check_response(req, body)


def _check_response(req: Dict, body: Dict) -> Optional[str]:
    resp = body.get("response") or {}
    if body["state"] != "done" or not resp.get("ok"):
        return f"{req['name']}: job {body['state']}: {resp.get('error')}"
    statuses = {l["label"]: l["status"] for l in resp["loops"]}
    wrong = [
        f"{label} {statuses.get(label)} (expected {pred})"
        for label, (pred, _elpd) in req["expect"].items()
        if statuses.get(label) != pred
    ]
    return f"{req['name']}: " + ", ".join(wrong) if wrong else None


def _server_run(root, work, workers, conns, warmup, requests, seconds, spans_path=None):
    """Start a server, warm it up, run the timed loop, stop it."""
    spawned = now_ns()
    server = Server(root, work, workers, spans_path)
    try:
        server.start()
        client = Client(server.port, conns)
        warm = client.run(warmup, None)
        setup_s = (now_ns() - spawned) / 1e9
        out = {"setup_s": setup_s, "records": []}
        if requests is not None:
            stats0, cpu0 = server.call("GET", "/v1/stats")[1], server.cpu_s()
            t0 = now_ns()
            out["records"] = client.run(requests, seconds)
            t1 = max([r["end"] for r in out["records"] if "end" in r] + [now_ns()])
            out["window"] = (t0, t1)
            out["cpu_s"] = server.cpu_s() - cpu0
            out["stats"] = (stats0, server.call("GET", "/v1/stats")[1])
            out["peak_rss_mb"] = server.peak_rss_mb()
        records = warm + out["records"]
        accepted = [r["id"] for r in records if "id" in r]
        out["lifecycle"] = server.stop(accepted)
        out["warm_failures"] = [r["error"] for r in warm if r.get("error")]
        return out
    finally:
        server.cleanup()


def _delta(stats, kind, key):
    s0, s1 = stats
    if kind == "counters":
        return s1["counters"].get(key, 0) - s0["counters"].get(key, 0)
    a, b = s0["caches"].get(key, {}), s1["caches"].get(key, {})
    return {k: b.get(k, 0) - a.get(k, 0) for k in ("hits", "misses")}


def run(root: Path, work: Path, spec: Dict) -> Dict:
    """One benchmark run; the shape matches the in-process workloads'."""
    workers = conns = spec["workers"]
    common = (root, work / "server", workers, conns, spec["warmup"])
    if not spec["trace"]:
        setups = [
            _server_run(*common, None, None)
            for _ in range(spec["setups"] - 1)
        ]
        main = _server_run(*common, spec["requests"], spec["seconds"])
        server_runs = setups + [main]
        out = _summarize(main, server_runs)
        out["setup_s_all"] = [s["setup_s"] for s in server_runs]
        out["peak_rss_mb"] = main["peak_rss_mb"]
        return out

    half = spec["seconds"] / 2
    ref = _server_run(*common, spec["requests"], half)
    spans_path = work.parent / "spans-service_http.json"
    traced = _server_run(*common, spec["requests"], half, spans_path=spans_path)
    out = _summarize(traced, [ref, traced])
    out["setup_s_all"] = [ref["setup_s"], traced["setup_s"]]
    out["per_layer"] = _per_layer(traced, ref, spans_path, workers)
    return out


def _summarize(main: Dict, server_runs: List[Dict]) -> Dict:
    records = main["records"]
    failures = [r["error"] for r in records if r.get("error")]
    for s in server_runs:
        failures += s["warm_failures"] + s["lifecycle"]
    lat = [r["end"] - r["start"] if "end" in r and not r.get("error") else None for r in records]
    t0, t1 = main["window"]
    return {
        "setup_s": main["setup_s"],
        "lat": lat,
        "wall_ns": t1 - t0,
        "check_ns": 0,
        "failed": len(failures),
        "failures": failures,
    }


def _per_layer(traced: Dict, ref: Dict, spans_path: Path, workers: int) -> Dict:
    """Per-layer metrics from the server's spans (written at its exit)
    and the client's, which are then written beside them."""
    server_spans = load_spans(spans_path)
    records = [r for r in traced["records"] if "end" in r and not r.get("error")]
    client_spans = []
    for r in records:
        client_spans.append((0, 0, "op", r["start"], r["end"], r["id"]))
        client_spans.append((0, 0, "http.post", *r["post"], r["id"]))
        client_spans.extend((0, 0, "http.get", *g, r["id"]) for g in r["gets"])
    spans_path.write_text(json.dumps({"spans": server_spans + client_spans}))
    grouped = by_op(client_spans + server_spans)
    layers = (
        "http.handler", "http.transport", "queue.submit", "queue.claim",
        "queue.finish", "receipt.build", "job.queued", "job.run",
        "client.poll_wait", "unattributed",
    )
    totals = dict.fromkeys(layers, 0)
    for r in records:
        _latency, split = timeline_split(grouped[r["id"]])
        for layer, ns in split.items():
            totals[layer] += ns
    n = len(records)
    metrics = {f"{layer}_ms": ns / n / 1e6 for layer, ns in totals.items()}

    posts = [r["post"][1] - r["post"][0] for r in records]
    gets = [g[1] - g[0] for r in records for g in r["gets"]]
    metrics["http.post_ms"] = sum(posts) / len(posts) / 1e6
    metrics["http.get_ms"] = sum(gets) / len(gets) / 1e6
    metrics["http.polls_per_job"] = len(gets) / n

    stats = traced["stats"]
    hit = _delta(stats, "counters", "cache.program_hit")
    miss = _delta(stats, "counters", "cache.program_miss")
    metrics["cache.program_hit_share"] = ratio(hit, hit + miss)
    fm = _delta(stats, "caches", "fm.eliminate_all")
    metrics["memo.fm_hit_rate"] = ratio(fm["hits"], fm["hits"] + fm["misses"])
    t0, t1 = traced["window"]
    busy = sum(
        max(0, min(s[4], t1) - max(s[3], t0))
        for s in server_spans
        if s[2] in ("job.run", "queue.finish", "queue.claim") and s[5] is not None
    )
    metrics["fleet.utilization"] = busy / ((t1 - t0) * workers)
    metrics["server.cpu_ms_per_job"] = 1000 * traced["cpu_s"] / len(traced["records"])

    ref_lat = [r["end"] - r["start"] for r in ref["records"] if "end" in r]
    run_lat = [r["end"] - r["start"] for r in traced["records"] if "end" in r]
    k = min(len(ref_lat), len(run_lat))
    metrics["trace.overhead_pct"] = 100 * (ratio(sum(run_lat[:k]), sum(ref_lat[:k])) - 1)
    return metrics
