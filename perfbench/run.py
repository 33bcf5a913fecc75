"""sepfilt benchmark: fixture, ``sepfilt run``, then ``sepfilt verify``.

Usage, from the root of a checkout that holds ``src/sepfilt``:

    python3 perfbench/run.py --workload search-torus --seed 7 \
        --seconds 20 --trace 0

Single-client closed loop: each iteration is one fresh interpreter
(``worker.py``) that writes the fixture with ``sepfilt gen``, then calls
``sepfilt run`` and ``sepfilt verify`` in-process through
``sepfilt.cli.main``; the next iteration starts only after it exits.
Iterations repeat until ``--seconds`` have passed (at least one; two with
``--trace 1``, one untraced and one traced, alternating).  More set-up-only
interpreters are started until ``SETUPS`` set-ups were timed.

``--seed`` seeds the verify sweep (its random centers and radii); the
extra verifies an untraced iteration times use seeds derived from it.  ``run``
always gets ``--seed 7``: its search trajectory, and so its cost, moves by
up to 20% between seeds, which would hide any change to the code.

Correctness gate: every command exits 0, the report's rainbow bound equals
the census ``expected_total`` and ``total``, and the output files are
byte-identical across the iterations of one invocation (traced ones too).
Every miss is a failed command.

The last stdout line is one JSON object: ``--trace 0`` reports the
``end_to_end`` metrics of BENCHMARK.json (medians over untraced
iterations), ``--trace 1`` the ``per_layer`` ones (medians over traced
iterations).  The end-to-end times are scaled to a reference machine speed
measured while each command runs (``speed.py``); the wall times are printed
on the ``#`` lines as ``*_wall_s``.  Iteration records, versions and span
files are kept under ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"

RUN_SEED = 7
RUN_COMMON = ["--epsilon", "0.05", "--move-budget", "40", "--samples", "100",
              "--seed", str(RUN_SEED)]
VERIFY_SAMPLES = 2000
# Untraced iterations time up to this many more verifies, each with its own
# sweep seed, so that verify_s is not the cost of one seed's sweep.
VERIFY_REPEATS = 11
SETUPS = 9
TIME_LIMIT_S = 170.0

# name -> (gen arguments, run arguments); see NOTES.md for why each exists.
WORKLOADS = {
    "search-torus": (["torus", "--side", "4"],
                     ["--subdivision-depth", "2", "--radius", "1.1"]),
    "search-genus": (["genus", "--genus", "2"],
                     ["--subdivision-depth", "1", "--radius", "0.7"]),
    "vanish-large": (["torus", "--side", "5", "--scale", "0.1"],
                     ["--subdivision-depth", "3", "--radius", "1.0"]),
    # circle(12) at depth 2: the benchmark's own tests, not listed in
    # BENCHMARK.json.
    "smoke": (["circle", "--nodes", "12", "--length", "6"],
              ["--subdivision-depth", "2", "--radius", "1.0"]),
}
COMMANDS = ("gen", "run", "verify")
OUTPUTS = ("filtration.json", "report.json", "report_samples.csv",
           "sweep.csv")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def verify_argv(directory, seed, out=None):
    argv = ["verify", str(directory / "filtration.json"),
            "--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]
    return argv + ["--out", str(out)] if out else argv


def iteration(workload, seed, directory, deadline, index=0, traced=False,
              setup_only=False):
    """Run one worker interpreter to completion; return its record.

    The ``verify`` that writes the gated ``sweep.csv`` uses ``seed``; the
    repeats write ``sweep-repeat.csv`` with seeds that differ between
    repeats and between the ``index``-th iterations of one invocation.
    """
    gen_args, run_args = WORKLOADS[workload]
    directory.mkdir(parents=True)
    fixture = directory / "complex.json"
    first = seed + 1 + index * VERIFY_REPEATS
    spec = {
        "gen": ["gen", *gen_args, "-o", str(fixture)],
        "run": ["run", str(fixture), *run_args, *RUN_COMMON,
                "--out-dir", str(directory)],
        "verify": verify_argv(directory, seed),
        "verify_repeats": [
            verify_argv(directory, first + k, directory / "sweep-repeat.csv")
            for k in range(VERIFY_REPEATS)],
        "setup_only": setup_only,
        "trace": traced,
        "result": str(directory / "result.json"),
        "spans": str(directory / "spans.json"),
    }
    record = {"dir": str(directory), "traced": traced,
              "setup_only": setup_only, "codes": {}}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
            env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        record["error"] = "worker timed out"
        return record
    if proc.returncode:
        record["error"] = proc.stderr[-2000:]
        return record
    with open(spec["result"], encoding="utf-8") as handle:
        record.update(json.load(handle))
    if not Path(record["sepfilt"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"sepfilt was imported from {record['sepfilt']}, "
                         f"not from {SRC}")
    return record


def read_outputs(directory):
    """Digests and the user-facing figures of one iteration's outputs."""
    directory = Path(directory)
    digests = {name: hashlib.sha256((directory / name).read_bytes())
               .hexdigest() for name in OUTPUTS}
    filtration = json.loads((directory / "filtration.json").read_text())
    report = json.loads((directory / "report.json").read_text())
    census = filtration["census"]
    bound = report["bound_report"]["rainbow_bound"]
    top = max(filtration["levels"], key=lambda level: level["dim"])
    return {"digests": digests, "area_top": top["area"],
            "rainbow_bound": bound,
            "census_ok": bound == census["expected_total"] == census["total"]}


def gate(records):
    """Count attempted and failed commands over one invocation's records.

    Full iterations whose commands all exit 0 get an ``outputs`` entry; a
    census mismatch or outputs that differ from the first full iteration's
    count as one more failure each.
    """
    attempted = failed = 0
    reference = None
    for record in records:
        commands = COMMANDS[:1] if record["setup_only"] else COMMANDS
        attempted += len(commands)
        bad = [c for c in commands if record["codes"].get(c) != 0]
        failed += len(bad)
        if bad or record["setup_only"]:
            continue
        try:
            outputs = read_outputs(record["dir"])
        except (OSError, ValueError, KeyError) as exc:
            record["error"] = f"unreadable outputs: {exc}"
            failed += 1
            continue
        record["outputs"] = outputs
        if not outputs["census_ok"]:
            record["error"] = "rainbow bound does not match the census"
            failed += 1
        if reference is None:
            reference = outputs["digests"]
        elif outputs["digests"] != reference:
            record["error"] = "outputs differ from the first iteration"
            failed += 1
    return attempted, failed


def median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def metrics_of(records, trace):
    """Every metric this invocation can report, by name."""
    full = [r for r in records if "outputs" in r]
    plain = [r for r in full if not r["traced"]]
    values = {"setup_s": median(records, "setup_s"),
              "setup_wall_s": median(records, "setup_wall_s")}
    if full:
        values["area_top"] = full[0]["outputs"]["area_top"]
        values["rainbow_bound"] = full[0]["outputs"]["rainbow_bound"]
    if trace:
        traced = [r for r in full if r["traced"]]
        for name in (traced[0]["layers"] if traced else ()):
            values[name] = statistics.median(r["layers"][name]
                                             for r in traced)
        if traced and plain:
            values["trace.overhead_s"] = (median(traced, "run_wall_s")
                                          - median(plain, "run_wall_s"))
    else:
        for key in ("run_s", "run_wall_s", "verify_s", "verify_wall_s",
                    "peak_rss_mb"):
            values[key] = median(plain, key)
    return values


def run_workload(workload, seed, seconds, trace):
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    records = []
    while (len(records) < (2 if trace else 1)
           or time.monotonic() - started < seconds):
        traced = trace and len(records) % 2 == 1
        records.append(iteration(workload, seed, out / f"iter-{len(records)}",
                                 deadline, len(records), traced=traced))
    while not trace and len(records) < SETUPS:
        records.append(iteration(workload, seed, out / f"iter-{len(records)}",
                                 deadline, setup_only=True))
    return records, time.monotonic() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sepfilt" / "cli.py").is_file():
        print(f"no sepfilt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    records, elapsed = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    attempted, failed = gate(records)
    values = metrics_of(records, bool(args.trace))
    env = next((r["versions"] for r in records if "versions" in r), {})
    env["nproc"] = os.cpu_count()
    iterations = sum(1 for r in records if not r["setup_only"])
    (OUT / args.workload / "results.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "elapsed_s": elapsed,
         "attempted": attempted, "failed": failed, "records": records},
        indent=1, default=str))

    print(f"# workload={args.workload} seed={args.seed} run_seed={RUN_SEED} "
          f"trace={args.trace} iterations={iterations} setups={len(records)} "
          f"elapsed_s={elapsed:.1f}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for record in records:
        if "error" in record:
            error = record["error"].strip().replace("\n", " | ")
            print(f"# failure in {record['dir']}: {error}")
    shown = dict(values, failed_frac=failed / attempted)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    units.update(failed_frac="ratio", setup_wall_s="s", run_wall_s="s",
                 verify_wall_s="s")
    for name, value in sorted(shown.items()):
        print(f"# {name} = {value} {units.get(name, '')}")
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        print(f"no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
