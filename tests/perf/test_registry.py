"""Registry completeness: every cache-like object must be registered.

A memo table created without going through ``perf.memo_table`` /
``perf.register_cache`` / ``perf.exempt_cache`` silently escapes
``perf.reset_all_caches()`` — benchmarks then measure a warm path while
claiming a cold one.  This test walks every module of the ``repro``
package, finds module-level cache-like objects (``perf.Memo`` instances
and ``functools.lru_cache`` wrappers) and fails on any the registry has
never seen, so adding a table without registering it breaks the build.
"""

import functools
import importlib
import pkgutil

import repro
from repro import perf


def _iter_repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def _module_caches(mod):
    """Module-level (name, obj) pairs that look like caches."""
    for attr, obj in vars(mod).items():
        if isinstance(obj, perf.Memo):
            yield attr, obj
        elif isinstance(obj, functools._lru_cache_wrapper):
            yield attr, obj


class TestCacheRegistryCompleteness:
    def test_every_cache_is_registered(self):
        unregistered = []
        seen = set()
        for mod in _iter_repro_modules():
            for attr, obj in _module_caches(mod):
                if id(obj) in seen:
                    continue  # re-exported
                seen.add(id(obj))
                if perf.tracked_cache(obj) is None:
                    unregistered.append(f"{mod.__name__}.{attr}")
        assert not unregistered, (
            "cache-like objects unknown to the perf registry (register "
            "via perf.memo_table / perf.register_cache, or declare them "
            f"deliberately uncleared via perf.exempt_cache): {unregistered}"
        )

    def test_detects_unregistered_memo(self):
        """The scan actually catches a rogue table (meta-test)."""
        rogue = perf.Memo("rogue")  # deliberately bypasses memo_table
        assert perf.tracked_cache(rogue) is None
        assert perf.tracked_cache(perf.memo_table("summary.union")) == (
            "summary.union",
            "memo",
        )

    def test_exempt_caches_are_tracked_with_reason(self):
        from repro.suites.registry import all_programs

        tracked = perf.tracked_cache(all_programs)
        assert tracked is not None
        name, kind = tracked
        assert kind == "exempt"
        assert "exempt:" in name

    def test_registered_lru_caches_clear_on_reset(self):
        from repro.experiments.common import analyzed

        assert perf.tracked_cache(analyzed) == (
            "experiments.analyzed",
            "external",
        )
        analyzed("swim", "base")
        assert analyzed.cache_info().currsize > 0
        perf.reset_all_caches()
        assert analyzed.cache_info().currsize == 0
