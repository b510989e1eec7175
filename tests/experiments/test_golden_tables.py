"""Every experiment table, byte for byte.

``python -m repro experiments all`` prints the paper's tables and
figures (FIG1, TAB1, TAB2, TAB3, FIGS, FIGO).  The output has no timing
line and does not depend on the process, the hash seed or the job count,
so it is pinned against the committed ``experiments_all.txt``.  A change
to any loop decision, run-time test, speedup estimate or substrate op
count shows up here as a diff.

The tiered predicate oracle and the dependence screen only skip work:
the ground and unscreened references would change FIGO-a's substrate
op counts (a cost figure) and nothing else, which
``tests/integration/test_oracle_identity.py`` and
``test_screen_identity.py`` pin.

Regenerate the file only for a change that is meant to alter a table::

    PYTHONPATH=src python -m repro experiments all \\
        > tests/experiments/experiments_all.txt
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).with_name("experiments_all.txt")


def test_experiments_all_matches_committed_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro", "experiments", "all"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
    ).stdout
    assert out == EXPECTED.read_bytes()
