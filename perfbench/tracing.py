"""Spans and counters around sepfilt's public functions, added from outside.

Nothing inside ``src/sepfilt`` is changed: the tracer replaces module and
class attributes at import time of the traced iteration.  Several modules
import functions by name (``from .adjacency import fit_in_ball``), so a
wrapper is bound at every ``sepfilt`` module attribute that holds the
original function; patching only the defining module would count nothing.

A span is ``[id, parent id, name, start, end, phase]`` with
``time.perf_counter`` stamps; the phase is the CLI command (``run`` or
``verify``) that was executing.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import math
import os
import sys
import time

FIT = "adjacency.fit_in_ball"
FILES = "files.io"
MINIMIZE = "filtration.minimize"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.phase = None

    def _open(self, name):
        span = [len(self.spans), self.stack[-1] if self.stack else -1, name,
                time.perf_counter(), None, self.phase]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def command(self, phase):
        """Root span for one CLI command; counters are keyed by it."""
        self.phase = phase
        span = self._open(phase)
        try:
            yield
        finally:
            self._close(span)
            self.phase = None

    def count(self, key, amount=1):
        self.counts[(self.phase, key)] += amount

    def traced(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of its args."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end",
                                  "phase"],
                       "spans": self.spans,
                       "counts": [[phase, key, value] for (phase, key), value
                                  in sorted(self.counts.items(), key=str)]},
                      handle)


def _bind_everywhere(original, replacement):
    """Rebind every ``sepfilt`` module attribute that is ``original``."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "sepfilt" and not name.startswith("sepfilt."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    if not bound:
        raise RuntimeError(f"no sepfilt binding of {original!r} to trace")


def install(tracer):
    """Trace the public entry points of each sepfilt layer."""
    import sepfilt.cli  # noqa: F401  (loads every module holding a binding)
    from sepfilt import (adjacency, bounds, complexes, files, filtration,
                         rainbow)

    def after_fit(args, result):
        if not result.fits:
            tracer.count("fit_fail")

    def after_dijkstra(args, result):
        tracer.count("dist_bytes", result.nbytes)

    def after_census(args, result):
        geometry = args[0]
        tracer.count("census_flags",
                     len(geometry.cells) * math.factorial(geometry.dim + 1))

    def after_write(args, result):
        tracer.count("bytes_written", os.path.getsize(args[0]))

    def minimize_name(parent, *rest):
        return f"{MINIMIZE}.l{parent.dim - 1}"

    functions = [
        (complexes.dijkstra, "complexes.dijkstra", after_dijkstra),
        (adjacency.fit_in_ball, FIT, after_fit),
        (filtration.minimize_separating, minimize_name, None),
        (filtration.sphere_replacement_move, "filtration.move", None),
        (rainbow.color_by_filtration, "rainbow.color", None),
        (rainbow.count_rainbow, "rainbow.census", after_census),
        (bounds.estimate_v1, "bounds.v1", None),
        (bounds.point_density_check, "bounds.density", None),
        (bounds.coarea_check, "bounds.coarea", None),
        (files.write_json, FILES, after_write),
        (files.write_checks_csv, FILES, after_write),
        (files.write_manifest, FILES, None),
        (files.read_json, FILES, None),
    ]
    for fn, name, after in functions:
        _bind_everywhere(fn, tracer.traced(name, fn, after))

    methods = [
        (complexes.WeightedComplex, "geometry", "complexes.geometry"),
        (adjacency.CellSystem, "components", "adjacency.components"),
        (filtration.Filtration, "validate", "filtration.validate"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.traced(name, getattr(cls, attr)))

    # Rows are requested millions of times on the search workloads, so they
    # are counted, not spanned.
    distances_from = complexes.MetricGraph.distances_from
    spans, stack, counts = tracer.spans, tracer.stack, tracer.counts

    @functools.wraps(distances_from)
    def counted_distances_from(graph, node):
        in_fit = stack and spans[stack[-1]][2] == FIT
        counts[tracer.phase, "rows_in_fit" if in_fit else "rows_else"] += 1
        return distances_from(graph, node)

    complexes.MetricGraph.distances_from = counted_distances_from


def layer_metrics(tracer):
    """Per-layer totals over the whole iteration (``run`` plus ``verify``)."""
    spans = tracer.spans
    child_time = collections.defaultdict(float)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[4] - span[3]
    seconds = collections.defaultdict(float)
    calls = collections.Counter()
    minimize_self = io = 0.0
    for span in spans:
        _, parent, name, start, end, phase = span
        seconds[name] += end - start
        calls[name] += 1
        calls[(phase, name)] += 1
        if name.startswith(MINIMIZE):
            minimize_self += end - start - child_time[span[0]]
        if name == FILES and (parent < 0 or spans[parent][2] != FILES):
            io += end - start

    def total(key):
        return sum(v for (_, k), v in tracer.counts.items() if k == key)

    fits = calls[FIT]
    return {
        "complexes.geometry_s": seconds["complexes.geometry"],
        "complexes.rows_requested": total("rows_in_fit") + total("rows_else"),
        "complexes.dijkstra_calls": calls["complexes.dijkstra"],
        "complexes.dijkstra_calls.run": calls[("run", "complexes.dijkstra")],
        "complexes.dijkstra_calls.verify":
            calls[("verify", "complexes.dijkstra")],
        "complexes.dijkstra_s": seconds["complexes.dijkstra"],
        "complexes.dist_bytes": total("dist_bytes"),
        "adjacency.fit_calls": fits,
        "adjacency.fit_calls.run": calls[("run", FIT)],
        "adjacency.fit_calls.verify": calls[("verify", FIT)],
        "adjacency.fit_s": seconds[FIT],
        "adjacency.fit_fail_ratio": total("fit_fail") / fits if fits else 0.0,
        "adjacency.rows_per_fit": total("rows_in_fit") / fits if fits else 0.0,
        "adjacency.components_calls": calls["adjacency.components"],
        "adjacency.components_s": seconds["adjacency.components"],
        "filtration.minimize_s.l1": seconds[f"{MINIMIZE}.l1"],
        "filtration.minimize_s.l0": seconds[f"{MINIMIZE}.l0"],
        "filtration.minimize_self_s": minimize_self,
        "filtration.moves": calls["filtration.move"],
        "filtration.move_s": seconds["filtration.move"],
        "filtration.validate_s": seconds["filtration.validate"],
        "rainbow.color_s": seconds["rainbow.color"],
        "rainbow.census_s": seconds["rainbow.census"],
        "rainbow.census_flags": total("census_flags"),
        "bounds.v1_s": seconds["bounds.v1"],
        "bounds.density_calls": calls["bounds.density"],
        "bounds.density_s": seconds["bounds.density"],
        "bounds.coarea_calls": calls["bounds.coarea"],
        "bounds.coarea_s": seconds["bounds.coarea"],
        "files.io_s": io,
        "files.bytes_written": total("bytes_written"),
    }
