"""Every script under ``demos/`` runs to completion.

Each demo runs in a fresh interpreter with a temporary working directory, so
anything it writes lands there. Two demos draw a figure only when matplotlib
is importable; where it is not installed those branches do not run, and this
test checks only their text output path.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecc

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(ecc.__file__).parents[1])}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
