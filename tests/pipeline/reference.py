"""The unscreened analysis: the reference the tier-0 screen must match.

:class:`repro.pipeline.passes.ScreenPass` settles the loops it can prove
independent from syntax alone, and the pipeline skips their region
summarization.  :func:`unscreened` makes the pass emit an empty screen
for every unit instead, so every loop takes the full predicated
analysis — the configuration the screen's soundness and identity tests
compare against.  :func:`eager_loop_values` projects every loop of that
analysis at once, the reference for the lazily projected loop values.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro import perf
from repro.arraydf.screen import UnitScreen
from repro.pipeline.passes import ScreenPass


def empty_screen(unit_name: str) -> UnitScreen:
    """The screen result that settles nothing: no loop screened, no skip."""
    return UnitScreen(
        unit_name=unit_name, verdicts={}, rows={}, order=[], full_cover=False
    )


@contextmanager
def unscreened() -> Iterator[None]:
    """Run the analysis without the screen inside the block.

    Caches are reset on entry and exit: screen rows cached on one side
    never serve the other, and the process pool is torn down, so pool
    workers fork with the empty screen in place.
    """
    saved = ScreenPass.__dict__["_compute"]
    perf.reset_all_caches()
    ScreenPass._compute = staticmethod(lambda engine, unit: empty_screen(unit))
    try:
        yield
    finally:
        ScreenPass._compute = saved
        perf.reset_all_caches()


def eager_loop_values(program, opts) -> Dict[str, Tuple]:
    """``label -> (body value, loop value)`` for every loop of
    *program* under the unscreened analysis, each loop value projected
    from the body value as soon as the walk is done."""
    from repro.arraydf.analysis import _project_loop
    from repro.pipeline import run_pipeline

    with unscreened():
        ctx = run_pipeline(program, opts, goals=("summary",))
        return {
            ls.label: (ls.body_value, _project_loop(ls.body_value, ls.info, opts))
            for name in ctx.unit_names()
            for ls in ctx.get("summary", name).loops.values()
        }
