"""Smoke test: every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_exact_scalars.py",
    "02_build_a_double.py",
    "03_bialgebra_and_rmatrix.py",
    "04_factory_tour.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
