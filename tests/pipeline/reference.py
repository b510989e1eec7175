"""The unscreened analysis: the reference the tier-0 screen must match.

:class:`repro.pipeline.passes.ScreenPass` hands ``decide`` a ready-made
row for each loop it can prove independent from syntax alone.
:func:`unscreened` makes the screen return no row for every loop
instead, so every loop takes the full predicated analysis — the
configuration the screen's soundness and identity tests compare
against.  :func:`eager_loop_values` projects every loop of that
analysis at once, the reference for the lazily projected loop values.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro import perf
from repro.arraydf import screen


@contextmanager
def unscreened() -> Iterator[None]:
    """Run the analysis without the screen inside the block.

    Caches are reset on entry and exit, so memo rows computed on one
    side never serve the other, and the process pool is torn down, so
    pool workers fork with the empty screen in place.
    """
    saved = screen.screen_loop
    perf.reset_all_caches()
    screen.screen_loop = lambda info, symtab: None
    try:
        yield
    finally:
        screen.screen_loop = saved
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
