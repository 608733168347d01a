"""Demo smoke tests: the walkthrough scripts and README's Python examples
run to completion."""

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
    "04_active_learning_benchmark.py",
)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    # a demo's temporary files land in tmp_path, which pytest removes
    env = dict(os.environ, TMPDIR=str(tmp_path))
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


def test_readme_python_blocks_run():
    """README's Python blocks, run in order in one namespace, as a reader
    pastes them: each later block reads names an earlier one made."""
    readme = (REPO / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
