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


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip()
