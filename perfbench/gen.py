"""Seeded program generator and the op sequences of each workload.

Generated programs compose :mod:`repro.suites.patterns` instances, the
same pattern functions the 30 suite programs use, so every loop keeps its
hand-written :class:`~repro.suites.patterns.LoopExpectation`.  The
pattern mix and parameters come from the suite itself: the suite modules
are run once with their pattern functions and ``compose`` wrapped, which
records every ``(pattern, parameters)`` instance and every program's
instance count.

A *round* of generated programs uses that recorded pool exactly once:
the instances are shuffled, each size parameter is jittered by up to
±25% but kept inside the range the suite uses for that pattern, and the
instances are cut into programs whose sizes are the suite's program
sizes, shuffled.  Every round therefore does about the same amount of
work, whatever the seed, which keeps run-to-run spread low.  The same
seed gives byte-identical sources.
"""

from __future__ import annotations

import inspect
import json
import random
from typing import Dict, List, Tuple

#: pattern parameters that only size loops and arrays (jittered); the
#: others (flags, offsets) decide the ground truth and keep suite values
SIZE_PARAMS = ("n", "reps", "p_value", "q_value")

#: every REPEAT_EVERY-th service request repeats an earlier one
REPEAT_EVERY = 4


def _record_suite() -> Tuple[List[Tuple[str, Dict]], List[int]]:
    """Every pattern instance the suite builds, and its program sizes."""
    from repro.suites import compose as compose_mod
    from repro.suites import extra, nas, patterns, perfect, specfp

    makers = {
        name: fn
        for name, fn in vars(patterns).items()
        if inspect.isfunction(fn)
        and fn.__module__ == patterns.__name__
        and not name.startswith("_")
    }
    pool: List[Tuple[str, Dict]] = []
    sizes: List[int] = []
    pending: List[Tuple[str, Dict]] = []

    def recorder(name, fn):
        sig = inspect.signature(fn)

        def record(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            params = {k: v for k, v in bound.arguments.items() if k != "u"}
            pending.append((name, params))
            return fn(*args, **kwargs)

        return record

    def record_compose(name, suite, instances, **kwargs):
        sizes.append(len(instances))
        pool.extend(pending)
        pending.clear()
        return compose_mod.compose(name, suite, instances, **kwargs)

    suite_mods = (specfp, nas, perfect, extra)
    saved = [(patterns, name, fn) for name, fn in makers.items()]
    saved += [(m, "compose", m.compose) for m in suite_mods]
    try:
        for name, fn in makers.items():
            setattr(patterns, name, recorder(name, fn))
        for m in suite_mods:
            m.compose = record_compose
        for m in suite_mods:
            m.programs()
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return pool, sizes


class Generator:
    """Rounds of generated programs for one seed."""

    def __init__(self, seed: int) -> None:
        self.pool, self.sizes = _record_suite()
        self.ranges: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for name, params in self.pool:
            for key in SIZE_PARAMS:
                if key in params:
                    lo, hi = self.ranges.get((name, key), (params[key],) * 2)
                    self.ranges[(name, key)] = (
                        min(lo, params[key]),
                        max(hi, params[key]),
                    )
        self.rng = random.Random(seed)

    def _jitter(self, name: str, params: Dict) -> Dict:
        out = dict(params)
        for key in SIZE_PARAMS:
            if key in out:
                lo, hi = self.ranges[(name, key)]
                value = round(out[key] * self.rng.uniform(0.75, 1.25))
                out[key] = min(hi, max(lo, value))
        return out

    def round(self, tag: str) -> List[Dict]:
        """One round: the whole suite pool, reshuffled into programs."""
        from repro.suites import patterns
        from repro.suites.compose import compose

        pool = list(self.pool)
        self.rng.shuffle(pool)
        sizes = list(self.sizes)
        self.rng.shuffle(sizes)
        ops = []
        start = 0
        for k, size in enumerate(sizes):
            group = pool[start : start + size]
            start += size
            instances = [
                getattr(patterns, name)(f"g{i}", **self._jitter(name, params))
                for i, (name, params) in enumerate(group)
            ]
            ops.append(as_op(compose(f"{tag}{k}", "gen", instances)))
        return ops

    def programs(self, count: int, tag: str = "g") -> List[Dict]:
        ops: List[Dict] = []
        r = 0
        while len(ops) < count:
            ops.extend(self.round(f"{tag}{r}x"))
            r += 1
        return ops[:count]


def as_op(bench) -> Dict:
    """A JSON-able op: source, inputs and per-loop ground truth."""
    return {
        "name": bench.name,
        "source": bench.source,
        "inputs": list(bench.inputs),
        "expect": {
            label: [e.predicated, e.elpd]
            for label, e in sorted(bench.expectations.items())
        },
    }


def suite_ops() -> List[Dict]:
    from repro.suites import all_programs

    return [as_op(p) for p in all_programs()]


def service_requests(ops: List[Dict], seed: int) -> List[Dict]:
    """One request per op; every REPEAT_EVERY-th repeats an earlier
    request byte for byte (a summary-cache hit on the server)."""
    rng = random.Random(seed ^ 0x5EED)
    out: List[Dict] = []
    originals: List[Dict] = []
    fresh = iter(ops)
    while True:
        if len(out) % REPEAT_EVERY == REPEAT_EVERY - 1:
            out.append(rng.choice(originals))
            continue
        op = next(fresh, None)
        if op is None:
            return out
        body = json.dumps({"id": op["name"], "source": op["source"]})
        req = {"name": op["name"], "body": body, "expect": op["expect"]}
        originals.append(req)
        out.append(req)
