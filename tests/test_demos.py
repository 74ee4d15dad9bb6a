"""Smoke test: the walkthrough demos run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_metric_spaces.py",
    "02_grids_and_forests.py",
    "03_coloring_probabilities.py",
    "04_good_bad_cubes.py",
    "05_weights.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
