"""The benchmark's tracer, ``perfbench/tracing.py``, wraps sepfilt
functions and methods by name.  Installing it fails when one of them is
renamed or deleted, which would break ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr
