"""Tests of the benchmark itself: whole runs on circle(12) at depth 2
(``smoke``), the correctness gate and the speed probe.

Run from the checkout root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import time

import pytest

import run as bench
import speed


def invoke(capsys, trace):
    code = bench.main(["--workload", "smoke", "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(capsys, declared, trace,
                                               section):
    lines, result = invoke(capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in declared[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    summary = "\n".join(lines[:-1])
    for name in ("area_top", "rainbow_bound", "failed_frac", "setup_s"):
        assert f"# {name} = " in summary
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3


def test_traced_run_counts_calls_at_the_bindings_the_program_uses(capsys):
    _, result = invoke(capsys, 1)
    metrics = result["metrics"]
    assert metrics["adjacency.fit_calls.run"]["value"] > 0
    assert metrics["adjacency.fit_calls.verify"]["value"] > 0
    assert metrics["complexes.dijkstra_calls"]["value"] > 0
    assert metrics["rainbow.census_flags"]["value"] > 0


def test_altered_output_copy_counts_as_a_failure(capsys, tmp_path):
    invoke(capsys, 0)
    results = json.loads(
        (bench.OUT / "smoke" / "results.json").read_text())
    first = next(r for r in results["records"] if "outputs" in r)
    assert bench.gate([dict(first), dict(first)])[1] == 0

    altered = tmp_path / "altered"
    shutil.copytree(first["dir"], altered)
    csv = altered / "report_samples.csv"
    csv.write_text(csv.read_text().replace("density", "densitx", 1))
    copy = dict(first, dir=str(altered))
    assert bench.gate([dict(first), copy]) == (6, 1)

    failed_verify = dict(first, codes=dict(first["codes"], verify=3))
    assert bench.gate([dict(first), failed_verify]) == (6, 1)


def test_probe_samples_while_the_block_runs_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 4  # start, end and timer ticks
    # The loop's 0.35 s hold every sample but the first and the last; a
    # sample that straddles the deadline makes it overrun by up to one more.
    own = 0.35 - sum(probe.samples[1:-1])
    assert own - 0.005 < probe.wall_s < own + max(probe.samples) + 0.005
    assert probe.scaled_s == speed.scale(probe.wall_s, probe.samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
