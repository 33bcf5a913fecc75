"""Per-stage wall-time medians of the pipeline, compared across checkouts.

Usage, from anywhere:

    python3 tools/bench_stages.py genus2-d2 --checkout parent=DIR_A \
        --checkout change=DIR_B --runs 3 --out BENCH_x.json

Each ``--checkout LABEL=DIR`` names the root of a source tree that holds
``src/sepfilt``, for example a ``git archive`` of one commit: d2bccac
(the chunked inequality sweep) or a later one.  For every run a fresh
``python3`` process imports ``sepfilt`` from that checkout, builds the
fixture and calls that checkout's own ``pipeline.run_pipeline`` (100
samples).  The complex stage, first, times the generator's build of the
fixture's ``WeightedComplex``, which checks the metric of every maximal
simplex.  Wrappers bound for the run lap its stages with
``time.perf_counter``, each from the end of the one before: geometry and
incidence at ``WeightedComplex.geometry`` (the wrapper builds the
geometry's ``cell_system`` between the two laps), then filtration,
coloring, census, V1, packing and sweep at the ``sepfilt.pipeline``
names ``build_filtration``, ``color_by_filtration``, ``count_rainbow``,
``estimate_v1``, ``greedy_packing`` and ``inequality_sweep`` (the sweep
includes ``bound_report``).  A stage that a checkout's run never calls
reads 0 s: the packing on an empty Z_0 before the packing always
existed.  The wrappers are restored before validate and verify, which
together mirror ``sepfilt verify`` on a fresh geometry: validate is
``Filtration.validate`` alone, and verify is the rest:
``WeightedComplex.from_json`` and ``Filtration.from_json`` of the
filtration document before it, ``pipeline.audit_document`` and
``inequality_sweep`` with 2,000 samples at seed 101 after it.
``peak_rss_mb`` is the process's ``ru_maxrss``; after it is read, one
more geometry of the fixture is built, untimed, under ``tracemalloc``, and
``geometry_peak_mb`` is that build's peak of live traced memory (NumPy's
arrays included).  ``graph_s`` is the time spent inside
``MetricGraph.__init__``, the metric graph's part of a geometry build: the
run's in the geometry stage, the fresh geometry's in verify.
``dijkstra_rows`` counts
the distance rows each stage computes, by wrapping
``sepfilt.complexes.dijkstra`` from outside the package,
and ``truncated_rows`` counts those of them computed with a finite
``limit`` (read only out to a check's radius); ``complete_rows`` counts
the rows that come out with no ``inf`` entry, truncated or not (a row
that reaches every node).  ``settled_entries`` counts the finite entries
of every ``dijkstra`` result, the entries SciPy settles (before the fill
completes a row's block interiors); counting them is left out of the
stage's time.  ``table_builds`` counts the calls that fill
the distance store: the ``dijkstra`` calls made inside
``MetricGraph.tabulate`` (the ball table).  ``table_entries`` and
``table_bytes`` give the size of the store held at the end of each stage
by the geometry the stage read (the run's, or the fresh one of validate
and verify): the ball table's entries and the bytes of its column and
distance arrays and bitsets.
``fill_pairs`` counts the (row, block) pairs whose interior entries
``MetricGraph._fill`` completes from the block's portals; it is counted
by redoing the fill's selection after each call, and the time that takes
is left out of the stage's time.  ``complete_rows`` is counted on the
filled rows.
``graph`` describes the run's metric graph once per fixture:
``nodes``, ``portals`` (the nodes Dijkstra settles from a portal source),
``dijkstra_arcs`` (the arcs Dijkstra scans) and ``table_arcs`` (the
portal -> interior arcs held in the block tables).
The sweep counters: ``checks`` counts the inequality checks made
(``InequalityCheck`` constructions), ``sweep_chunks`` the chunks of
balls that the checks and V1 evaluate (the chunks ``bounds._chunks``
yields), ``dijkstra_calls`` the ``dijkstra`` calls and ``rows_read`` the
distance rows the metric graph hands out: the rows
``MetricGraph.rows_within`` returns for a nonnegative limit.  ``gc_s`` is
the time the cyclic garbage collector spent in each stage, from ``gc.callbacks`` (it is part of the stage's
time), and ``gc_collections`` the number of its collections there.  The
run imports ``sepfilt.cli`` as the command line does, so the collector
starts from the state that import leaves (a ``gc.freeze`` where the
checkout's ``cli`` makes one).
``fit_calls`` counts each stage's ``fit_in_ball`` calls, wrapped at every
``sepfilt`` module attribute that holds it.  ``balls_built`` counts the
R-balls computed: the rows ``MetricGraph.tabulate`` adds to the table.
The prune counters wrap the method
``filtration._PruneState.try_remove``: ``try_remove_calls`` counts its
calls and ``merge_refusals`` the calls that return False, which
``try_remove`` does only when it refuses a merge, because the parts' AND
of feasible centers is empty.  ``cell_systems`` counts the
``CellSystem`` constructions and ``face_id_lookups`` the
``CellSystem.face_ids`` calls
(those inside a construction too), both by wrapping the methods of
``sepfilt.adjacency.CellSystem`` from outside the package.
``prune_states`` counts the ``filtration._PruneState`` constructions (each
builds its components and their feasible centers), ``infeasible_states``
those of them whose components do not all fit a ball (``feasible`` false),
``components_calls`` the ``CellSystem.components`` calls (each builds the
dual graph of one blocked set and labels its components),
``feasible_calls`` the ``MetricGraph.feasible_centers`` calls and ``feasible_groups`` the node
groups they take (a call of the one-group form ``(nodes, radius)`` of
checkouts before the grouped call counts one).  ``balls_measured`` counts
the balls ``bounds._measures`` measures from their rows, not proven whole:
in the V1 stage, at most the ball of the largest exact sum, whose boundary
credit V1 reports (before the sums were exact, every ball near the largest
sum; before V1 summed balls over their nodes, every ball not proven
whole).
Each checkout first makes one untimed warm-up run, whose result is
dropped, so that no timed run includes the byte-compilation of modules
edited since the checkout's last import.  Checkouts then alternate run
by run, BLAS threads are 1, ``filtration_identical`` says whether
every run gave the same sha256 of the filtration document (its levels
included), and ``measures_identical`` whether every run gave the same
sha256 of the report document and every sweep and verify row, the
records the credited measures enter.  Each run
also records the per-level areas of its filtration (Z_0 first) and a
sha256 of each level's cell list, taken after the run; ``areas_identical`` and
``cells_identical`` say whether every run gave the same ones.

The host is shared, and its speed swings by more than most changes this
tool judges, also within one run.  So each run also times ``kernel()`` of
the benchmark's ``perfbench/speed.py`` (loaded by path from this tool's
own tree, so every checkout is measured with one kernel)
``SPEED_SAMPLES`` times just before its first stage and as many times at
the end of every stage, never inside a stage's time.  A speed is the mean
of ``KERNEL_REF_S / sample``, as ``speed.scale`` computes it: 1.0 at the
kernel's reference speed, below 1 on a slower host.  Each stage's speed
is that of the samples at its start and end (of both its parts, for
verify), and ``stages_speed`` of the total is its stages' time-weighted
mean.  ``stages_scaled_median_s`` gives the median over runs of each
stage's time times its own speed, next to the raw ``stages_median_s``,
and ``stages_scaled_q1_s`` and ``stages_scaled_q3_s`` its first and third
quartiles (NumPy's linear percentiles; with 3 runs, halfway from the
median to the least and to the largest), so a change whose median moves
by less than that spread shows as unresolved;
``runs_speed`` lists each run's speed over all its samples, and
``runs_stages_speed`` each run's stage speeds.

Each measured process pins itself to one CPU (``pin``) before it imports
sepfilt.  ``inequality_sweep`` then runs its coarea checks in-process
rather than in a forked child, as it does on any one-CPU host, so every
counter above counts the whole sweep; the child's calls would be out of
the wrappers' sight.  So the verify stage is the in-process sweep's
time, not that of ``sepfilt verify`` on a host with two usable CPUs.

With ``--out`` the result is merged into that JSON file under
``results[<fixture>]`` (other fixtures already in it are kept); without it,
it is printed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# name -> (generator, generator arguments, subdivision depth, radius)
FIXTURES = {
    "circle12-d2": ("circle", {"nodes": 12, "length": 6.0}, 2, 1.0),
    "torus4-d2": ("torus", {"side": 4}, 2, 1.0),
    "search-torus": ("torus", {"side": 4}, 2, 1.1),
    "search-genus": ("genus_surface", {"genus": 2}, 1, 0.7),
    "vanish-large": ("torus", {"side": 5, "scale": 0.1}, 3, 1.0),
    "genus2-d2": ("genus_surface", {"genus": 2}, 2, 0.7),
    "torus6-d2": ("torus", {"side": 6}, 2, 1.0),
    "torus4-d3": ("torus", {"side": 4}, 3, 1.0),
    "torus5-d3": ("torus", {"side": 5}, 3, 1.0),
    "torus6-d3": ("torus", {"side": 6}, 3, 1.0),
}
CONFIG = {"epsilon": 0.05, "move_budget": 40, "rng_seed": 7}
SAMPLES = 100
VERIFY_SAMPLES, VERIFY_SEED = 2000, 101
STAGES = ("complex", "geometry", "incidence", "filtration", "coloring", "census", "V1",
          "packing", "sweep", "validate", "verify")
COUNTERS = ("dijkstra_rows", "truncated_rows", "complete_rows",
            "settled_entries", "fill_pairs", "table_builds", "checks", "sweep_chunks",
            "dijkstra_calls", "rows_read", "gc_s", "gc_collections", "graph_s",
            "fit_calls",
            "balls_built", "try_remove_calls", "merge_refusals",
            "cell_systems", "face_id_lookups", "prune_states",
            "infeasible_states", "components_calls",
            "feasible_calls", "feasible_groups", "balls_measured")
# sizes at the end of each stage, not counts during it
STORE = ("table_entries", "table_bytes")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SPEED_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "speed.py"
SPEED_SAMPLES = 5


def load_speed():
    """The benchmark's ``speed`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("speed", SPEED_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pin():
    """Pin this process to one CPU, its lowest usable one, so that
    ``inequality_sweep`` runs its coarea checks in-process, where the
    wrappers count them, and forks no child."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(fixture):
    """One in-process run of the pipeline: stage seconds, RSS and digest."""
    pin()
    import gc
    import hashlib
    import math
    import resource
    import time
    import tracemalloc

    import numpy as np

    import sepfilt.cli  # noqa: F401  (the collector state its import leaves)
    from sepfilt import (WeightedComplex, adjacency, bounds, complexes,
                         filtration as filtration_module, generators, pipeline)
    from sepfilt.files import canonical_dumps
    from sepfilt.filtration import Filtration, SeparationConfig

    counts = dict.fromkeys(COUNTERS, 0)
    dijkstra, fit_in_ball = complexes.dijkstra, adjacency.fit_in_ball
    try_remove = filtration_module._PruneState.try_remove
    prune_state_init = filtration_module._PruneState.__init__
    graph_class = complexes.MetricGraph
    graph_init = graph_class.__init__
    tabulate, fill = graph_class.tabulate, graph_class._fill
    feasible_centers, measures = graph_class.feasible_centers, bounds._measures
    filling, uncounted = False, 0.0
    cell_system = adjacency.CellSystem

    def counting(counter, fn):
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def counted_dijkstra(*args, **kwargs):
        nonlocal uncounted
        result = dijkstra(*args, **kwargs)
        start = time.perf_counter()
        counts["settled_entries"] += int(np.count_nonzero(np.isfinite(result)))
        uncounted += time.perf_counter() - start
        rows = result.size // result.shape[-1]
        counts["dijkstra_calls"] += 1
        counts["dijkstra_rows"] += rows
        if kwargs.get("limit", math.inf) < math.inf:
            counts["truncated_rows"] += rows
        counts["table_builds"] += filling
        return result

    def counted_tabulate(graph, nodes, radius):
        nonlocal filling
        held = len(graph._table) if radius == graph.radius else 0
        filling = True
        try:
            tabulate(graph, nodes, radius)
        finally:
            filling = False
        counts["balls_built"] += len(graph._table) - held

    def counted_fill(graph, rows, limit):
        nonlocal uncounted
        result = fill(graph, rows, limit)
        start = time.perf_counter()
        # the fill's own selection; the fill changes no portal entry
        near = rows.reshape(-1, graph.n_nodes).take(graph._portals, axis=1)
        bound = (near + graph._nearest).min(axis=1, initial=math.inf)
        counts["fill_pairs"] += int(((bound < math.inf)
                                     & (bound <= limit)).sum())
        counts["complete_rows"] += int(
            np.isfinite(result).reshape(-1, graph.n_nodes).all(axis=1).sum())
        uncounted += time.perf_counter() - start
        return result

    def timed_graph(graph, *args, **kwargs):
        start = time.perf_counter()
        graph_init(graph, *args, **kwargs)
        counts["graph_s"] += time.perf_counter() - start

    def counted_remove(state, facet):
        removed = try_remove(state, facet)
        counts["try_remove_calls"] += 1
        counts["merge_refusals"] += not removed
        return removed

    def counted_prune_state(state, *args, **kwargs):
        counts["prune_states"] += 1
        prune_state_init(state, *args, **kwargs)
        counts["infeasible_states"] += not state.feasible

    def counted_feasible(graph, *args):
        counts["feasible_calls"] += 1
        counts["feasible_groups"] += len(args[1]) if len(args) == 3 else 1
        return feasible_centers(graph, *args)

    def counted_measures(z, rows, radii, whole):
        counts["balls_measured"] += int(np.count_nonzero(~whole))
        return measures(z, rows, radii, whole)

    chunks, rows_within = bounds._chunks, graph_class.rows_within
    collecting = 0.0

    def counted_chunks(*args, **kwargs):
        for chunk in chunks(*args, **kwargs):
            counts["sweep_chunks"] += 1
            yield chunk

    def counted_rows_within(graph, nodes, limits):
        counts["rows_read"] += int((np.asarray(limits) >= 0).sum())
        return rows_within(graph, nodes, limits)

    def timed_collection(phase, info):
        nonlocal collecting
        if phase == "start":
            collecting = time.perf_counter()
        else:
            counts["gc_s"] += time.perf_counter() - collecting
            counts["gc_collections"] += 1

    bounds.InequalityCheck.__init__ = counting(
        "checks", bounds.InequalityCheck.__init__)
    bounds._chunks = counted_chunks
    graph_class.rows_within = counted_rows_within
    gc.callbacks.append(timed_collection)
    complexes.dijkstra = counted_dijkstra
    cell_system.__init__ = counting("cell_systems", cell_system.__init__)
    cell_system.face_ids = counting("face_id_lookups", cell_system.face_ids)
    cell_system.components = counting("components_calls",
                                       cell_system.components)
    filtration_module._PruneState.try_remove = counted_remove
    filtration_module._PruneState.__init__ = counted_prune_state
    graph_class.feasible_centers = counted_feasible
    bounds._measures = counted_measures
    graph_class.__init__ = timed_graph
    graph_class.tabulate = counted_tabulate
    graph_class._fill = counted_fill

    def store(graph):
        """(entries, bytes) of the distances the graph holds; none
        before the run builds a graph."""
        table = graph._table.values() if graph else ()
        return (sum(len(ball[0]) for ball in table),
                sum(ball[0].nbytes + ball[1].nbytes + sys.getsizeof(ball[2])
                    for ball in table))
    # modules import fit_in_ball by name: rebind every sepfilt binding
    counted_fit = counting("fit_calls", fit_in_ball)
    for name, module in list(sys.modules.items()):
        if name == "sepfilt" or name.startswith("sepfilt."):
            for attr, value in list(vars(module).items()):
                if value is fit_in_ball:
                    setattr(module, attr, counted_fit)

    maker, kwargs, depth, radius = FIXTURES[fixture]
    config = SeparationConfig(radius=radius, subdivision_depth=depth, **CONFIG)
    stages = dict.fromkeys(STAGES, 0.0)
    stage_counts = {counter: dict.fromkeys(STAGES, 0)
                    for counter in (*COUNTERS, *STORE)}
    speed = load_speed()
    kernel_samples = [speed.kernel() for _ in range(SPEED_SAMPLES)]
    stage_samples = {}  # per stage, the kernel samples at its start and end
    run_graph = None  # set by the geometry's wrapper

    def lap(stage, graph):
        nonlocal clock, at_lap, uncounted
        now = time.perf_counter()
        stages[stage] += now - clock - uncounted
        uncounted = 0.0
        for counter in COUNTERS:
            stage_counts[counter][stage] += counts[counter] - at_lap[counter]
        for counter, size in zip(STORE, store(graph)):
            stage_counts[counter][stage] = size
        # after the counters are read, so that no collection the kernel
        # triggers counts for a stage
        start = kernel_samples[-SPEED_SAMPLES:]
        kernel_samples.extend(speed.kernel() for _ in range(SPEED_SAMPLES))
        stage_samples.setdefault(stage, []).extend(
            start + kernel_samples[-SPEED_SAMPLES:])
        clock, at_lap = time.perf_counter(), dict(counts)

    def lapped(stage, fn):
        def run_stage(*args, **kwargs):
            result = fn(*args, **kwargs)
            lap(stage, run_graph)
            return result
        return run_stage

    def lapped_geometry(*args, **kwargs):
        nonlocal run_graph
        geometry = make_geometry(*args, **kwargs)
        run_graph = geometry.graph
        lap("geometry", run_graph)
        geometry.cell_system
        lap("incidence", run_graph)
        return geometry

    # the names the checkout's run_pipeline calls its stages by
    stage_names = {"build_filtration": "filtration",
                   "color_by_filtration": "coloring", "count_rainbow": "census",
                   "estimate_v1": "V1", "greedy_packing": "packing",
                   "inequality_sweep": "sweep"}
    stage_functions = {name: getattr(pipeline, name) for name in stage_names}
    make_geometry = WeightedComplex.geometry
    WeightedComplex.geometry = lapped_geometry
    vars(pipeline).update({name: lapped(stage, stage_functions[name])
                           for name, stage in stage_names.items()})
    clock, at_lap = time.perf_counter(), dict(counts)
    complex_ = getattr(generators, maker)(**kwargs)
    lap("complex", None)
    artifacts = pipeline.run_pipeline(complex_, config, SAMPLES)
    # audit_document and the verify sweep read the same names
    vars(pipeline).update(stage_functions)
    WeightedComplex.geometry = make_geometry
    graph = run_graph
    portals = graph.n_nodes - len(np.unique(graph._interiors))
    table_arcs = len(np.unique(graph._portals[:, :, None] * graph.n_nodes
                               + graph._interiors[None, :, :]))
    graph_size = {"nodes": graph.n_nodes, "portals": portals,
                  "dijkstra_arcs": int(graph._arcs.nnz), "table_arcs": table_arcs}
    levels = artifacts.filtration.levels
    level_areas = [level.area for level in levels]
    level_cells = [
        hashlib.sha256(repr(level.subpolyhedron.cells).encode()).hexdigest()
        for level in levels
    ]
    document = artifacts.filtration_document()
    clock = time.perf_counter()
    fresh = WeightedComplex.from_json(document["complex"])
    checked_depth = SeparationConfig(**document["config"]).subdivision_depth
    checked = Filtration.from_json(fresh.geometry(checked_depth), document)
    lap("verify", checked.geometry.graph)
    checked.validate()
    lap("validate", checked.geometry.graph)
    pipeline.audit_document(checked, document)
    verify_checks = pipeline.inequality_sweep(checked, VERIFY_SAMPLES,
                                              VERIFY_SEED)
    lap("verify", checked.geometry.graph)
    stages_speed = {stage: speed.scale(1.0, stage_samples.get(stage,
                                                              kernel_samples))
                    for stage in STAGES}
    stages["total"] = sum(stages.values())
    stages_speed["total"] = sum(
        stages[stage] * stages_speed[stage] for stage in STAGES) / stages["total"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    complex_.geometry(depth)
    geometry_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    texts = {
        "filtration": canonical_dumps(document),
        "measures": canonical_dumps({
            "report": artifacts.report_document(),
            "checks": [check.to_row() for check in artifacts.checks],
            "verify_checks": [check.to_row() for check in verify_checks],
        }),
    }
    return {
        "stages_s": stages,
        **stage_counts,
        "peak_rss_mb": peak_rss_mb,
        "geometry_peak_mb": geometry_peak_mb,
        "speed": speed.scale(1.0, kernel_samples),
        "stages_speed": stages_speed,
        "graph": graph_size,
        **{f"{key}_digest": hashlib.sha256(text.encode()).hexdigest()
           for key, text in texts.items()},
        "level_areas": level_areas,
        "level_cells": level_cells,
    }


def fresh_run(fixture, checkout):
    """``measure`` in a new interpreter that imports sepfilt from checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"))
    env.update({name: "1" for name in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, fixture, "--measure"], env=env,
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartile(values, which):
    """The first (0) or third (2) quartile of the values, as NumPy's
    linear percentile gives it; a single value is its own quartile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which]


def summarize(runs):
    scaled = {stage: [r["stages_s"][stage] * r["stages_speed"][stage]
                      for r in runs]
              for stage in (*STAGES, "total")}
    return {
        "stages_median_s": {
            stage: round(statistics.median(r["stages_s"][stage] for r in runs), 4)
            for stage in (*STAGES, "total")
        },
        "stages_scaled_median_s": {
            stage: round(statistics.median(values), 4)
            for stage, values in scaled.items()
        },
        "stages_scaled_q1_s": {
            stage: round(quartile(values, 0), 4) for stage, values in scaled.items()
        },
        "stages_scaled_q3_s": {
            stage: round(quartile(values, 2), 4) for stage, values in scaled.items()
        },
        **{
            f"{counter}_median": {
                stage: statistics.median(r[counter][stage] for r in runs)
                for stage in STAGES
            }
            for counter in (*COUNTERS, *STORE)
        },
        "peak_rss_mb_median": round(
            statistics.median(r["peak_rss_mb"] for r in runs), 1),
        "geometry_peak_mb_median": round(
            statistics.median(r["geometry_peak_mb"] for r in runs), 2),
        "runs_total_s": [round(r["stages_s"]["total"], 3) for r in runs],
        "runs_peak_rss_mb": [round(r["peak_rss_mb"], 1) for r in runs],
        "runs_speed": [round(r["speed"], 3) for r in runs],
        "runs_stages_speed": [
            {stage: round(v, 3) for stage, v in r["stages_speed"].items()}
            for r in runs],
        "graph": runs[0]["graph"],
        "level_areas": runs[0]["level_areas"],
        "level_cells": runs[0]["level_cells"],
    }


def compare(fixture, checkouts, runs):
    """Alternate fresh runs over ``{label: directory}``; summarize each."""
    records = {label: [] for label in checkouts}
    for checkout in checkouts.values():
        fresh_run(fixture, checkout)  # warm-up, not timed
    for _ in range(runs):
        for label, checkout in checkouts.items():
            record = fresh_run(fixture, checkout)
            records[label].append(record)
            print(f"# {fixture} {label}: "
                  f"{record['stages_s']['total']:.3f} s, "
                  f"{record['peak_rss_mb']:.1f} MB", file=sys.stderr)
    result = {label: summarize(rs) for label, rs in records.items()}
    for key in ("filtration", "measures"):
        digests = {r[f"{key}_digest"] for rs in records.values() for r in rs}
        result[f"{key}_identical"] = len(digests) == 1
    areas = {tuple(r["level_areas"]) for rs in records.values() for r in rs}
    result["areas_identical"] = len(areas) == 1
    cells = {tuple(r["level_cells"]) for rs in records.values() for r in rs}
    result["cells_identical"] = len(cells) == 1
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fixture", choices=sorted(FIXTURES))
    parser.add_argument("--checkout", action="append", default=[],
                        metavar="LABEL=DIR",
                        help="source tree with src/sepfilt; repeat to compare")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.fixture)))
        return
    checkouts = dict(spec.partition("=")[::2] for spec in args.checkout)
    if not checkouts or "" in checkouts.values() or args.runs < 1:
        parser.error("need at least one --checkout LABEL=DIR and one run")
    result = compare(args.fixture, checkouts, args.runs)
    if args.out is None:
        print(json.dumps(result, indent=1))
        return
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document.setdefault("results", {})[args.fixture] = result
    args.out.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
