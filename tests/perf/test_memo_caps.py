"""Cap policy: every pure memo table stays bounded in a warm fleet.

A long-lived service keeps memo tables warm across jobs, so a table
without a cap grows with every distinct program it serves.  Only the
intern tables stay uncapped.  They carry identity (structurally equal
values are pointer-equal), and trimming one would mint a second object
for a value that other tables and live results still hold.
"""

import importlib
import json
import pkgutil
import sys
import threading
import time

import repro
from repro import perf
from repro.service.jobs import run_analyze
from repro.service.queue import JobQueue
from repro.service.workers import WorkerFleet
from repro.suites import patterns as P
from repro.suites.compose import compose

#: the memo tables that stay uncapped, and why
UNCAPPED = {
    "affine.intern": "identity: hash-consed affine expressions",
    "constraint.intern": "identity: hash-consed constraints",
    "system.intern": "identity: hash-consed linear systems",
    "region.intern": "identity: hash-consed array regions",
}

#: pattern makers sized by ``n`` (the generated programs vary it)
_MAKERS = (
    P.stencil,
    P.triangular,
    P.cond_cover,
    P.guard_zero_trip,
    P.index_guard,
    P.offset_runtime,
    P.outer_offset,
    P.work_array,
    P.call_row,
    P.data_dependent,
    P.init2d,
    P.wavefront,
)


def _programs(count):
    """*count* distinct programs of three pattern instances each."""
    sources = []
    for k in range(count):
        instances = [
            _MAKERS[(k + 5 * j) % len(_MAKERS)](f"u{j}", n=6 + (k + j) % 9)
            for j in range(3)
        ]
        sources.append(compose(f"cap{k}", "test", instances).source)
    assert len(set(sources)) == count
    return sources


def _all_memo_tables():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    return {n for n, kind in perf.registered_names().items() if kind == "memo"}


class TestCapPolicy:
    def test_every_memo_table_is_capped_or_listed(self):
        uncapped = _all_memo_tables() - set(perf.memo_caps())
        assert uncapped == set(UNCAPPED), (
            "a memo table without a cap grows with every program a warm "
            "fleet serves: give it perf.memo_table(..., cap=N), or list "
            f"it in UNCAPPED with the reason (uncapped now: {uncapped})"
        )

    def test_concurrent_fill_and_trim(self):
        """Two threads filling and trimming one table never raise."""
        table = perf.Memo("trim-race", cap=1000)
        errors = []

        def fill(tid):
            try:
                for i in range(200000):
                    table.data[(tid, i)] = i
                    if i % 32 == 0:
                        table.trim()
            except Exception as exc:  # the race this test guards
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [
                threading.Thread(target=fill, args=(t,)) for t in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        table.trim()
        assert len(table.data) == 1000


class TestWarmFleet:
    def test_fleet_stays_within_caps_and_answers_like_a_cold_run(
        self, tmp_path
    ):
        """A 2-worker fleet on 100 distinct programs, with every cap cut
        to 16 so trims land mid-job in the other worker: each table ends
        within its cap and each response matches a cold single-worker
        run byte for byte."""
        sources = _programs(100)
        bodies = [{"id": i, "source": src} for i, src in enumerate(sources)]
        perf.reset_all_caches()
        cold = [json.dumps(run_analyze(b)[0], sort_keys=True) for b in bodies]

        caps = perf.memo_caps()
        trims = perf.counter("perf.memo_trims")
        try:
            for name in caps:
                perf.set_memo_cap(name, 16)
            queue = JobQueue(tmp_path)
            ids = queue.submit_batch("analyze", bodies)
            deadline = time.monotonic() + 120.0  # a dead worker fails, not hangs
            with WorkerFleet(queue, workers=2):
                warm = [
                    queue.wait(jid, timeout=max(0.0, deadline - time.monotonic()))
                    for jid in ids
                ]
            sizes = perf.snapshot()["caches"]
            over = {
                name: sizes[name]["size"]
                for name in caps
                if sizes[name]["size"] > 16
            }
            trims = perf.counter("perf.memo_trims") - trims
        finally:
            for name, cap in caps.items():
                perf.set_memo_cap(name, cap)
            perf.reset_all_caches()
        assert over == {}
        assert trims > 0
        assert [json.dumps(r, sort_keys=True) for r in warm] == cold
