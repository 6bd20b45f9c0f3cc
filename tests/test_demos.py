"""Every demo runs to completion, warning-free, and cleans up after itself.

The demos count as program uses in the export census of
``tests/test_imports.py``, so a demo that no longer runs would keep a dead
export alive.  Each one runs in its own interpreter with warnings as
errors and its temporary directory redirected into the test's own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert list(tmp_path.glob("tot_demo_*")) == []
