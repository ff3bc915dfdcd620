"""Every demo runs to completion and prints the same bytes twice."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_is_deterministic(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, timeout=120, cwd=ROOT
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
