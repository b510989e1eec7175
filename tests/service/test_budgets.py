"""Unit tests for the per-request resource budgets."""

import time

import pytest

from repro import perf
from repro.service.budgets import (
    Budget,
    BudgetExceeded,
    active_budget,
    budget_scope,
    charge_fm,
    checkpoint,
    metered,
    suspended,
)


class TestBudget:
    def test_unlimited_by_default(self):
        assert Budget().is_unlimited
        assert Budget.unlimited().is_unlimited

    def test_from_dict(self):
        b = Budget.from_dict({"max_wall_s": 1.5, "max_fm_constraints": 10})
        assert b.max_wall_s == 1.5
        assert b.max_fm_constraints == 10
        assert b.max_ops is None
        assert not b.is_unlimited

    def test_from_dict_empty(self):
        assert Budget.from_dict(None).is_unlimited
        assert Budget.from_dict({}).is_unlimited

    def test_from_dict_rejects_unknown_keys(self):
        """Regression: a typo'd key used to be silently ignored, leaving
        the request unlimited while the client believed a budget held."""
        import pytest

        with pytest.raises(ValueError, match="'max_walls'"):
            Budget.from_dict({"max_walls": 1.5})
        with pytest.raises(ValueError, match="'junk'"):
            Budget.from_dict({"max_ops": 10, "junk": 3})
        # the error names every bad key and the allowed ones
        with pytest.raises(ValueError, match="max_fm_constraints"):
            Budget.from_dict({"a": 1, "b": 2})


class TestScope:
    def test_no_budget_is_noop(self):
        assert active_budget() is None
        checkpoint()  # must not raise
        charge_fm(10**9)  # must not raise
        with budget_scope(None):
            assert active_budget() is None
        with budget_scope(Budget.unlimited()):
            assert active_budget() is None

    def test_scope_restores_previous(self):
        outer = Budget(max_fm_constraints=100)
        inner = Budget(max_fm_constraints=5)
        with budget_scope(outer) as a:
            assert active_budget() is a
            with budget_scope(inner) as b:
                assert active_budget() is b
            assert active_budget() is a
        assert active_budget() is None

    def test_scope_restored_after_trip(self):
        with pytest.raises(BudgetExceeded):
            with budget_scope(Budget(max_fm_constraints=1)):
                charge_fm(2)
        assert active_budget() is None

    def test_suspended(self):
        with budget_scope(Budget(max_fm_constraints=1)):
            with suspended():
                charge_fm(100)  # enforcement off
            with pytest.raises(BudgetExceeded):
                charge_fm(100)


SRC = (
    "program cli\n"
    "  integer n, k\n"
    "  real a(100)\n"
    "  read n, k\n"
    "  do i = 1, n\n"
    "    a(i + k) = a(i) + 1.0\n"
    "  enddo\n"
    "  print a(n)\n"
    "end\n"
)


class TestMetering:
    """Work under an FM or ops limit reads no memoized or cached answer."""

    def test_only_work_limits_meter(self):
        assert not metered()
        with budget_scope(Budget(max_wall_s=60.0)):
            assert not metered()
        for limit in ({"max_fm_constraints": 10}, {"max_ops": 10}):
            with budget_scope(Budget(**limit)):
                assert metered()
                with suspended():
                    assert not metered()
        assert not metered()

    def test_warm_tables_do_not_change_a_budgeted_verdict(self, tmp_path):
        # an unbudgeted run leaves every memo table and the summary
        # cache warm with the same analysis; the budgeted run that
        # follows still pays for its own and degrades as a cold one
        import warnings

        from repro.lang.parser import parse_program
        from repro.pipeline import run_pipeline
        from repro.service.cache import SummaryCache

        def run(budget=None):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with budget_scope(budget):
                    ctx = run_pipeline(parse_program(SRC), cache=cache)
            return ctx.degraded, [
                (r.label, r.status, r.reason) for r in ctx.get("result").loops
            ]

        cache = SummaryCache(tmp_path / "c")
        tiny = Budget(max_fm_constraints=1)
        perf.reset_all_caches()
        cold = run(tiny)
        assert cold == (True, [("cli:L1", "serial", "budget exhausted: not proven parallel")])
        assert run() == (False, [("cli:L1", "runtime", "")])
        assert run(tiny) == cold


class TestTrips:
    def test_fm_budget_trips(self):
        with budget_scope(Budget(max_fm_constraints=10)) as active:
            charge_fm(6)
            charge_fm(4)  # exactly at the limit: fine
            with pytest.raises(BudgetExceeded) as exc:
                charge_fm(1)
            assert exc.value.kind == "fm"
            assert active.degraded

    def test_wall_budget_trips(self):
        with budget_scope(Budget(max_wall_s=0.005)):
            time.sleep(0.02)
            with pytest.raises(BudgetExceeded) as exc:
                checkpoint()
            assert exc.value.kind == "wall"

    def test_ops_budget_trips(self):
        with budget_scope(Budget(max_ops=0)):
            perf.bump("fm.eliminate", 5)  # an op counter
            with pytest.raises(BudgetExceeded) as exc:
                checkpoint()
            assert exc.value.kind == "ops"

    def test_keeps_raising_while_exhausted(self):
        with budget_scope(Budget(max_fm_constraints=1)):
            with pytest.raises(BudgetExceeded):
                charge_fm(5)
            with pytest.raises(BudgetExceeded):
                charge_fm(0)  # fm spend is cumulative; still over

    def test_trip_counter_bumped_once(self):
        base = perf.counter("budget.trip.fm")
        with budget_scope(Budget(max_fm_constraints=1)):
            for _ in range(3):
                with pytest.raises(BudgetExceeded):
                    charge_fm(5)
        assert perf.counter("budget.trip.fm") == base + 1


class TestPooledExperimentJobs:
    """An experiment job's budget holds on the process pool too."""

    @staticmethod
    def _run(jobs, budget=None):
        from repro.service.jobs import execute_job
        from repro.service.queue import Job

        body = {"id": 1, "which": "tab2", "jobs": jobs}
        if budget is not None:
            body["budget"] = budget
        return execute_job(Job("j00000001", "experiment", body, 0, 1, None))

    def test_budget_holds_at_any_job_count(self):
        perf.reset_all_caches()
        clean, _ = self._run(1)
        perf.reset_all_caches()
        serial, serial_receipt = self._run(1, {"max_ops": 1})
        # a degraded result never outlives its job
        assert self._run(1)[0] == clean
        perf.reset_all_caches()
        pooled, pooled_receipt = self._run(2, {"max_ops": 1})
        assert self._run(2)[0] == clean
        assert serial["ok"] and serial["output"] != clean["output"]
        assert pooled == serial
        assert serial_receipt["degradation"]["degraded"]
        assert pooled_receipt["degradation"]["degraded"]

    def test_job_count_is_capped_at_the_cpu_count(self, monkeypatch):
        """A request's ``jobs`` never sizes the pool past the host's
        cores: the fork pool starts every worker at its first submit."""
        import os

        from repro.pipeline import executor as pexec
        from repro.service.jobs import run_experiment

        asked = []

        def refuse(jobs):  # records the size, starts no process
            asked.append(jobs)
            raise RuntimeError("pool refused")

        monkeypatch.setattr(pexec, "process_pool", refuse)
        resp, _ = run_experiment({"id": 1, "which": "tab2", "jobs": 100000})
        cpus = os.cpu_count() or 1
        if cpus > 1:
            assert asked == [cpus]
            assert not resp["ok"]
        else:  # one core: the map runs in process, no pool at all
            assert asked == [] and resp["ok"]
