"""Each demo script runs to completion and prints its walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
