"""perfbench/tracer.py wraps demol functions by module and name; a rename in
src/ must fail here, not in every traced benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_patch_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=os.path.join(ROOT, "perfbench"), env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
