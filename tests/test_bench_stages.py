"""Smoke test of ``tools/bench_stages.py``: one measured run of the smallest
fixture, so that renaming an internal the tool wraps breaks a test."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_stages.py"


def test_one_measured_run_times_every_stage():
    spec = importlib.util.spec_from_file_location("bench_stages", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in tool.THREAD_VARS})
    result = subprocess.run(
        [sys.executable, str(TOOL), "circle12-d2", "--measure"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert set(record["stages_s"]) == {*tool.STAGES, "total"}
    assert all(record["stages_s"][stage] > 0 for stage in tool.STAGES)
    assert record["level_areas"] == [3.0]
    assert record["speed"] > 0
