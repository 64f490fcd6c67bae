"""Smoke test: every narrative script in demos/ runs to completion against
the package under test, so an API change cannot break one silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import duomech

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = str(Path(duomech.__file__).resolve().parents[1])


def run_demo(name: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


@pytest.mark.parametrize("name", [
    "01_steady_state_point.py",
    "02_squeezing_sweep.py",
    "03_closed_form_check.py",
    "05_entanglement_death.py",
    pytest.param("04_trajectory_check.py", marks=pytest.mark.slow),
])
def test_demo_runs(name, tmp_path):
    done = run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr
