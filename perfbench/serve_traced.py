"""Start the HTTP job service with the benchmark's timing wrappers.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH CONFIG_JSON``
where CONFIG_JSON holds the keyword arguments of
:func:`repro.service.http.serve_http`.  The wrappers go around the
service layers' entry points; every span carries its job id, across the
handler and worker threads.  After SIGTERM the service drains as usual,
then the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)")


def _job_of_request(args, _result):
    m = _JOB_PATH.match(args[0].path)
    return m.group(1) if m else None


def main() -> int:
    spans_path, config = sys.argv[1], json.loads(sys.argv[2])
    from repro.service import http, jobs, queue, receipts

    tracer = Tracer()
    tracer.install(
        [
            (http.ServiceHandler, "do_POST", "http.handler", None),
            (http.ServiceHandler, "do_GET", "http.handler", _job_of_request),
            (queue.JobQueue, "submit", "queue.submit", lambda a, r: r),
            (
                queue.JobQueue,
                "claim_chunk",
                "queue.claim",
                lambda a, r: r[0].id if r else None,
            ),
            (queue.JobQueue, "finish", "queue.finish", lambda a, r: a[1]),
            (jobs, "execute_job", "job.run", lambda a, r: a[0].id),
            (receipts, "build_receipt", "receipt.build", None),
        ]
    )
    try:
        http.serve_http(**config)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
