"""The PERF.md counter-namespace table stays true to the live registry.

`docs/PERF.md` §1.4 enumerates every dotted prefix a perf registry name
may live under.  This test imports every ``repro`` module, runs
representative work so lazily-registered names (phase timers, runtime
counters) exist, and checks both directions:

* every registered name falls under a documented prefix, and
* every documented prefix matches at least one registered name
  (no stale rows).
"""

import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import pytest

import repro
from repro import perf

PERF_MD = Path(__file__).resolve().parents[2] / "docs" / "PERF.md"


def _documented_prefixes():
    text = PERF_MD.read_text()
    m = re.search(r"### 1\.4[^\n]*\n(.*?)(?=\n## )", text, re.S)
    assert m, "PERF.md lost its counter-namespace table (section 1.4)"
    prefixes = re.findall(r"^\| `([a-z0-9_.]+?)(?:\.\*)?` \|", m.group(1), re.M)
    assert len(prefixes) >= 17, f"namespace table parsed oddly: {prefixes}"
    return prefixes


@pytest.fixture(scope="module")
def registry():
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)

    # representative work, so phase timers and runtime counters that
    # register on first use all exist
    from repro.arraydf.options import AnalysisOptions
    from repro.pipeline import run_pipeline
    from repro.runtime.elpd import run_oracle
    from repro.runtime.interp import run_program
    from repro.service.cache import SummaryCache
    from repro.suites import all_programs

    bench = all_programs()[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            cache = SummaryCache(d)
            opts = AnalysisOptions.predicated()
            run_pipeline(
                bench.fresh_program(),
                opts,
                cache=cache,
                goals=("result", "transformed"),
            )
            run_pipeline(bench.fresh_program(), opts, cache=cache)  # rebind
        run_program(bench.fresh_program(), bench.inputs)
        run_oracle(bench.fresh_program(), bench.inputs)
    return perf.registered_names()


def _covered(name, prefixes):
    base = name.split("[", 1)[0].strip()
    return any(base == p or base.startswith(p + ".") for p in prefixes)


def test_every_registered_name_is_documented(registry):
    prefixes = _documented_prefixes()
    undocumented = sorted(
        n for n in registry if not _covered(n, prefixes)
    )
    assert not undocumented, (
        "perf names missing from the PERF.md section 1.4 namespace "
        f"table: {undocumented}"
    )


def test_every_documented_prefix_is_live(registry):
    names = [n.split("[", 1)[0].strip() for n in registry]
    stale = sorted(
        p
        for p in _documented_prefixes()
        if not any(n == p or n.startswith(p + ".") for n in names)
    )
    assert not stale, (
        f"PERF.md section 1.4 documents prefixes with no registered "
        f"name behind them: {stale}"
    )


def test_screen_namespace_is_documented(registry):
    """The tier-0 dependence screen's counters."""
    prefixes = _documented_prefixes()
    assert "screen" in prefixes
    for name in (
        "screen.independent",
        "screen.unknown",
        "screen.agree",
        "screen.disagree",
    ):
        assert registry.get(name) == "counter", name


def test_job_system_namespaces_are_documented(registry):
    """The PR-9 namespaces: the job queue, execution core and fleet."""
    prefixes = _documented_prefixes()
    for prefix in ("job", "queue", "worker", "http"):
        assert prefix in prefixes, prefix
    for name in (
        "job.analyze",
        "job.experiment",
        "job.done",
        "job.failed",
        "job.degraded",
        "job.receipt",
        "queue.submitted",
        "queue.claimed",
        "queue.finished",
        "queue.recovered",
        "queue.rejected",
        "worker.jobs",
        "worker.idle_waits",
        "http.requests",
        "http.rejected",
    ):
        assert registry.get(name) == "counter", name


def test_warm_fleet_namespaces_are_documented(registry):
    """The warm-fleet names: epoch syncs, batch chunking, queue batch
    submits and the perf layer's own events."""
    prefixes = _documented_prefixes()
    assert "perf" in prefixes
    for name in (
        "pipeline.executor.epoch_syncs",
        "pipeline.executor.chunks",
        "pipeline.executor.batch_programs",
        "queue.batches",
        "perf.epoch_bumps",
        "perf.memo_trims",
    ):
        assert registry.get(name) == "counter", name


def test_runtime_namespace_is_documented(registry):
    """The bytecode runtime's counters, nest programs included."""
    assert "rt" in _documented_prefixes()
    for name in ("rt.compile_unit", "rt.vec_loop", "rt.vec_nest", "rt.vec_fallback"):
        assert registry.get(name) == "counter", name
    assert "`rt.vec_nest`" in PERF_MD.read_text()


def test_registered_names_report_their_kind(registry):
    assert registry.get("pipeline.executor.tasks") == "counter"
    assert registry.get("affine.intern") == "memo"
    assert registry.get("suites.all_programs") == "exempt"
    assert set(registry.values()) <= {
        "memo",
        "external",
        "exempt",
        "counter",
        "phase",
    }
