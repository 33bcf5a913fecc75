"""One benchmark iteration in a fresh interpreter: gen, then run, then verify.

Usage (from the checkout root, with ``src`` on PYTHONPATH):
    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds the spawn time (``time.monotonic`` in the parent, which is
the same system-wide clock on Linux), the three argument lists, the output
directory, the result path and whether to trace.  With ``setup_only`` the
worker stops after ``gen``.  An untraced iteration follows its ``verify``
with the commands of ``verify_repeats`` until verifies have taken
``VERIFY_MIN_S`` in total.  The result is written as JSON to the result
path; sepfilt's own messages go to this process's stdout.

Untraced times are reported scaled to the reference speed of ``speed.py``
(``setup_s``, ``run_s``, ``verify_s``), with the wall times beside them
(``*_wall_s``).  Traced iterations report wall times only.
"""

import json
import statistics
import sys
import time

import speed

VERIFY_MIN_S = 3.0


def call(main, argv):
    """Exit code of one in-process CLI call."""
    try:
        return main(argv)
    except Exception:  # a traceback is a failed command, not a dead worker
        import traceback
        traceback.print_exc()
        return 1


def timed_command(main, argv):
    """Exit code, scaled seconds and wall seconds of one CLI call."""
    with speed.Probe() as probe:
        code = call(main, argv)
    return code, probe.scaled_s, probe.wall_s


def main(spec):
    with speed.Probe() as probe:
        import sepfilt.cli

        gen_code = call(sepfilt.cli.main, spec["gen"])
    setup_wall_s = (time.monotonic() - spec["spawned"]
                    - sum(probe.samples))
    result = {"setup_s": speed.scale(setup_wall_s, probe.samples),
              "setup_wall_s": setup_wall_s,
              "sepfilt": sepfilt.cli.__file__, "codes": {"gen": gen_code}}
    if spec["setup_only"] or gen_code:
        return result

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    def command(argv):
        if tracer is None:
            return timed_command(sepfilt.cli.main, argv)
        with tracer.command(argv[0]):
            start = time.perf_counter()
            code = call(sepfilt.cli.main, argv)
            wall_s = time.perf_counter() - start
        return code, None, wall_s

    code, run_s, result["run_wall_s"] = command(spec["run"])
    result["codes"]["run"] = code
    if tracer is None:
        result["run_s"] = run_s
    if code == 0:
        # verify of search-torus takes ~0.5 s, too short to time steadily on
        # a shared machine, and its cost depends on the sweep seed, so
        # untraced iterations time more verifies with other seeds until
        # VERIFY_MIN_S have passed and keep the median.  Traced iterations
        # verify once, so that per-layer counts are per command.
        code, seconds, wall_s = command(spec["verify"])
        times, walls = [seconds], [wall_s]
        for argv in spec["verify_repeats"] if tracer is None else ():
            if code or sum(walls) >= VERIFY_MIN_S:
                break
            code, seconds, wall_s = command(argv)
            times.append(seconds)
            walls.append(wall_s)
        result["codes"]["verify"] = code
        if tracer is None:
            result["verify_s"] = statistics.median(times)
            result["verify_times"] = times
        result["verify_wall_s"] = statistics.median(walls)

    import resource

    import numpy
    import scipy
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(spec["spans"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
