"""Emptiness testing for linear systems.

``is_rationally_feasible`` runs Fourier–Motzkin to the ground and checks
the resulting variable-free constraints.  ``is_feasible`` is the public
entry point used by the dependence and privatization tests; it is the
rational test plus the gcd-based integer tightening already built into
constraint normalization, i.e. it may answer *feasible* for an
integer-empty system (conservative toward reporting dependences) but never
answers *infeasible* for a system with integer points.
"""

from __future__ import annotations

from functools import lru_cache

from repro import perf
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.system import LinearSystem
from repro.service.budgets import checkpoint, metered


@lru_cache(maxsize=16384)
def _feasible_cached(system: LinearSystem) -> bool:
    checkpoint()
    perf.bump("feasibility.ground")
    if system.is_universe():
        return True
    if system.is_trivially_empty():
        return False
    ground = eliminate_all(system, system.variables())
    # After eliminating every variable only constant constraints remain;
    # LinearSystem construction already folds tautologies/contradictions.
    return not ground.is_trivially_empty()


def is_rationally_feasible(system: LinearSystem) -> bool:
    """True iff the system has a rational solution."""
    if metered():
        return _feasible_cached.__wrapped__(system)
    return _feasible_cached(system)


def is_feasible(system: LinearSystem) -> bool:
    """Conservative integer feasibility (superset of the truth).

    Sound for the analysis: an ``False`` answer guarantees the system has
    no integer points.
    """
    return is_rationally_feasible(system)


def clear_cache() -> None:
    """Reset the feasibility memo table (used by benchmarks)."""
    _feasible_cached.cache_clear()


def _registry_stats():
    info = _feasible_cached.cache_info()
    total = info.hits + info.misses
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "hit_rate": (info.hits / total) if total else 0.0,
    }


perf.register_cache(
    "feasibility.is_feasible", _registry_stats, clear_cache, obj=_feasible_cached
)
