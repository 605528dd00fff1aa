"""Smoke tests: demos 01-04 run to completion (05 and 06 take 15-20 s each)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = (
    "01_bond_perception.py",
    "02_dual_graphs.py",
    "03_structure_encodings.py",
    "04_model_forward_and_attention.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
