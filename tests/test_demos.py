"""Smoke test: every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "demo_01_sphere_calculus.py",
        "demo_02_interface_geometry.py",
        "demo_03_flat_interface_kernels.py",
        "demo_04_translating_drop.py",
        "demo_05_steady_drop.py",
        "demo_06_density_sweep.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
