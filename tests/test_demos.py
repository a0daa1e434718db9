"""The narrative scripts under ``demos/`` run to completion.

Each script is run in its own interpreter with ``src`` on ``PYTHONPATH``,
as the README runs them, and must exit 0.  A RuntimeWarning (an overflow
or an invalid value) is an error in the script, as it is in the tests:
the ``filterwarnings`` rule of ``pyproject.toml`` does not reach a
subprocess, so ``PYTHONWARNINGS`` carries it there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    assert _run(script).strip()


def test_worked_example_demo_prints_the_papers_determinant():
    # det A(p) = -1 - 3p - 2p^2, evaluated in exact fractions
    out = _run(ROOT / "demos" / "worked_example_minimization.py")
    assert "det A(p) coefficients (constant first, exact): -1, -3, -2, 0\n" in out
