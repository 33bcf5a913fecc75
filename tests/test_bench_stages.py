"""Smoke test of ``tools/bench_stages.py``: one measured run of the smallest
fixture, so that renaming an internal the tool wraps breaks a test, that
run's filtration against the package's own ``run_pipeline``, and the
comparison of runs that reports which outputs stayed identical."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_stages.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record(tool):
    """One measured run of the smallest fixture, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in tool.THREAD_VARS})
    result = subprocess.run(
        [sys.executable, str(TOOL), "circle12-d2", "--measure"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_one_measured_run_times_every_stage(tool, record):
    assert set(record["stages_s"]) == {*tool.STAGES, "total"}
    # the fixture's complex, metric check included, is timed before the run
    assert tool.STAGES[:2] == ("complex", "geometry")
    assert record["stages_s"]["complex"] > 0
    assert all(record["stages_s"][stage] > 0 for stage in tool.STAGES)
    # the verify's sweep CSV is timed last, as its own stage
    assert tool.STAGES[-2:] == ("verify", "csv")
    assert record["stages_s"]["csv"] > 0
    # every check is counted, the verify's 2,500 among them
    assert record["checks"]["verify"] == 2500 and record["checks"]["csv"] == 0
    assert record["level_areas"] == [3.0]
    assert record["speed"] > 0
    assert all(record["stages_speed"][stage] > 0 for stage in (*tool.STAGES, "total"))
    # the run's metric graph and the fresh one verify builds, and the
    # untimed geometry build's traced peak
    graph_s = record["graph_s"]
    assert graph_s["geometry"] > 0 and graph_s["verify"] > 0
    assert sum(graph_s.values()) == graph_s["geometry"] + graph_s["verify"]
    assert graph_s["geometry"] < record["stages_s"]["geometry"]
    assert record["geometry_peak_mb"] > 0


def test_the_tool_measures_the_pipeline_the_cli_runs(tool, record):
    from sepfilt import generators
    from sepfilt.files import canonical_dumps
    from sepfilt.filtration import SeparationConfig
    from sepfilt.pipeline import run_pipeline

    maker, kwargs, depth, radius = tool.FIXTURES["circle12-d2"]
    config = SeparationConfig(radius=radius, subdivision_depth=depth,
                              **tool.CONFIG)
    artifacts = run_pipeline(getattr(generators, maker)(**kwargs), config,
                             samples=tool.SAMPLES)
    text = canonical_dumps(artifacts.filtration_document())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert record["filtration_digest"] == digest


def test_components_calls_and_infeasible_states_are_counted(record):
    # every prune state labels its components once; validate labels each
    # level's once more
    calls, infeasible = record["components_calls"], record["infeasible_states"]
    assert set(calls) == set(infeasible) == set(record["prune_states"])
    assert calls["filtration"] >= record["prune_states"]["filtration"] > 0
    assert calls["validate"] == 1
    assert 0 <= infeasible["filtration"] < record["prune_states"]["filtration"]
    assert sum(infeasible.values()) == infeasible["filtration"]


def test_settled_entries_count_the_finite_entries_of_the_rows(record):
    # a row settles at least its own source and at most every node, and a
    # stage that computes no row settles nothing
    settled, rows = record["settled_entries"], record["dijkstra_rows"]
    nodes = record["graph"]["nodes"]
    assert set(settled) == set(rows)
    assert settled["filtration"] > 0 and settled["verify"] > 0
    for stage in rows:
        assert rows[stage] <= settled[stage] <= rows[stage] * nodes


def test_the_filtration_and_the_measures_are_compared_apart(tool, record,
                                                            monkeypatch):
    # two checkouts whose runs agree on the filtration document and differ
    # in the measured records, and the other way round
    for same, differs in (("filtration", "measures"), ("measures", "filtration")):
        def fresh_run(fixture, checkout):
            return {**record, f"{differs}_digest": checkout}

        monkeypatch.setattr(tool, "fresh_run", fresh_run)
        result = tool.compare("circle12-d2", {"parent": "a", "change": "b"}, 2)
        assert result[f"{same}_identical"] is True
        assert result[f"{differs}_identical"] is False
    assert "outputs_identical" not in result


def test_the_measured_process_runs_the_sweep_in_process(tool):
    # a sweep large enough to fork anywhere forks nowhere once pinned, so
    # the wrappers see all of the verify stage's calls
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks only with two usable CPUs")
    script = (
        "import importlib.util, os, sys\n"
        "from sepfilt import pipeline\n"
        "spec = importlib.util.spec_from_file_location('tool', sys.argv[1])\n"
        "tool = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tool)\n"
        "large = pipeline._FORK_ENTRIES\n"
        "before = pipeline._forks(large)\n"
        "tool.pin()\n"
        "print(before, pipeline._forks(large), len(os.sched_getaffinity(0)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script, str(TOOL)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "False", "1"]


def test_scaled_stage_times_come_with_their_quartiles(tool, record):
    def run(seconds):
        return {**record, "stages_s": dict.fromkeys(record["stages_s"], seconds),
                "stages_speed": dict.fromkeys(record["stages_speed"], 0.5)}

    summary = tool.summarize([run(s) for s in (8.0, 2.0, 6.0, 4.0)])
    for stage in (*tool.STAGES, "total"):
        assert summary["stages_scaled_median_s"][stage] == 2.5
        assert summary["stages_scaled_q1_s"][stage] == 1.75
        assert summary["stages_scaled_q3_s"][stage] == 3.25
    alone = tool.summarize([run(3.0)])
    assert alone["stages_scaled_q1_s"] == alone["stages_scaled_q3_s"] \
        == alone["stages_scaled_median_s"]
