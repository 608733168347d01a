"""Demo smoke tests: the fast walkthrough scripts run to completion.

``demos/04_active_learning_benchmark.py`` trains a full multi-cycle grid
(several seconds), so it stays a manual acceptance check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FAST_DEMOS = (
    "01_uncertainty_decomposition.py",
    "02_dual_head_training.py",
    "03_coarse_to_fine_selection.py",
)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
