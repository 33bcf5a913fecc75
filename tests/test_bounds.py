import errno
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfilt import WeightedComplex, bounds, complexes, pipeline
from sepfilt.adjacency import fit_in_ball
from sepfilt.bounds import (
    InequalityCheck,
    bound_report,
    coarea_check,
    estimate_v1,
    greedy_packing,
    level_trace_checks,
    point_density_check,
)
from sepfilt.errors import RadiusOrder, SepfiltError
from sepfilt.filtration import Filtration, SeparationConfig, build_filtration
from sepfilt.generators import circle, genus_surface, torus
from sepfilt.pipeline import inequality_sweep, run_pipeline
from sepfilt.rainbow import color_by_filtration, count_rainbow

from conftest import (ball_volume, credited_volumes, reference_distances,
                      reference_measure, row_source)


# ---------------------------------------------------------------------------
# density inequality


def test_density_empty_intersection(torus_filtration_d1):
    geometry = torus_filtration_d1.geometry
    z0 = set(torus_filtration_d1.z0_nodes())
    # pick a center whose tiny r1-ball avoids all 0-level points
    center = next(
        node
        for node in range(geometry.n_nodes)
        if all(geometry.graph.distances_from(node)[list(z0)] > 0.05)
    )
    (check,) = point_density_check(torus_filtration_d1, [(center, 0.05, 0.9)])
    assert check.lhs == 0.0
    assert not check.violated


def test_density_circle_example(circle_filtration):
    # one 0-level point at the center, r1 = 0.1, r2 = 0.9:
    # lhs = 1 * 0.8 / 1! = 0.8
    # rhs = ball volume + eps; on the 8-node circle at depth 1 the 0.9-ball
    # holds six full 0.25-cells (1.5) plus half credit on the two straddling
    # cells (0.25), so rhs = 1.75 + 0.05
    point = circle_filtration.z0_nodes()[0]
    (check,) = point_density_check(circle_filtration, [(point, 0.1, 0.9)])
    assert check.lhs == pytest.approx(0.8)
    assert check.rhs == pytest.approx(1.75 + 0.05)
    assert not check.violated


@pytest.mark.parametrize(
    "check",
    [
        point_density_check,
        level_trace_checks,
        lambda filtration, samples: coarea_check(filtration, 1, samples),
    ],
    ids=["density", "trace", "coarea"],
)
def test_density_radius_order(check):
    # every radius order is checked before the filtration is read
    with pytest.raises(RadiusOrder):
        check(None, [(0, 0.1, 0.9), (0, 0.9, 0.1)])


def test_density_sweep_no_violations(torus_filtration_d1):
    rng = random.Random(19)
    geometry = torus_filtration_d1.geometry
    radius = torus_filtration_d1.config.radius
    samples = []
    for _ in range(200):
        r1, r2 = sorted(rng.uniform(0.02, 0.98 * radius) for _ in range(2))
        if r1 == r2:
            continue
        samples.append((rng.randrange(geometry.n_nodes), r1, r2))
    checks = point_density_check(torus_filtration_d1, samples)
    assert len(checks) == len(samples)
    assert not any(check.violated for check in checks)
    assert min(check.residual + check.budget for check in checks) >= 0.0


def test_level_trace_holds(torus_filtration_d2):
    rng = random.Random(43)
    geometry = torus_filtration_d2.geometry
    radius = torus_filtration_d2.config.radius
    samples = []
    for _ in range(50):
        r1, r2 = sorted(rng.uniform(0.05, 0.95 * radius) for _ in range(2))
        if r1 == r2:
            continue
        samples.append((rng.randrange(geometry.n_nodes), r1, r2))
    checks = level_trace_checks(torus_filtration_d2, samples)
    assert len(checks) == 3 * len(samples)
    for check in checks:
        assert check.residual >= -check.budget


# ---------------------------------------------------------------------------
# coarea


def test_coarea_no_violations(torus_filtration_d2):
    rng = random.Random(47)
    geometry = torus_filtration_d2.geometry
    radius = torus_filtration_d2.config.radius
    samples = []
    for _ in range(60):
        r1, r2 = sorted(rng.uniform(0.05, 0.95 * radius) for _ in range(2))
        if r1 == r2:
            continue
        samples.append((rng.randrange(geometry.n_nodes), r1, r2))
    for check in coarea_check(torus_filtration_d2, 1, samples):
        assert check.residual >= -check.budget


def test_coarea_integral_monotone_in_r2(torus_filtration_d1):
    a, b = coarea_check(torus_filtration_d1, 1, [(0, 0.2, 0.6), (0, 0.2, 0.9)])
    assert b.lhs >= a.lhs - 1e-12


# ---------------------------------------------------------------------------
# empty strata and pinned rows


def test_checks_on_empty_strata(tiny_torus_filtration):
    # Z_1 and Z_0 are empty; every level is read through Filtration.level
    filtration = tiny_torus_filtration
    assert filtration.level(0).cells_array.shape == (0, 1)
    assert filtration.level(1).cells_array.shape == (0, 2)
    # the area 16 x 0.15^2 = 0.36 is measured with each cell's volume
    # rounded up to the quantum 2^-52, 1.842e-13 more in all
    # center, r1, r2 and lhs, then rhs and budget
    row = (0, 0.2, 0.6, 0.0)
    sample = [(0, 0.2, 0.6)]
    assert filtration.geometry.whole_measure == (0.3600000000001842, 0.0)
    assert point_density_check(filtration, sample) == [
        ("density", *row, 0.3700000000001842, 0.0)
    ]
    assert level_trace_checks(filtration, sample) == [
        ("trace0", *row, 0.0, 0.0),
        ("trace1", *row, 0.005, 0.0),
        ("trace2", *row, 0.3700000000001842, 0.0),
    ]
    assert coarea_check(filtration, 1, sample) == [
        ("coarea1", *row, 0.24583333333345653, 0.040000000000020464)
    ]
    assert coarea_check(filtration, 0, sample) == [("coarea0", *row, 0.005, 0.0)]
    checks = inequality_sweep(filtration, 8, 3)
    assert [(c.kind, c.center, c.lhs, c.rhs, c.budget) for c in checks] == [
        ("density", 155, 0.0, 0.3700000000001842, 0.0),
        ("density", 535, 0.0, 0.3700000000001842, 0.0),
        ("density", 399, 0.0, 0.3700000000001842, 0.0),
        ("density", 15, 0.0, 0.3700000000001842, 0.0),
        ("density", 65, 0.0, 0.23166666666678007, 0.0537500000000275),
        ("density", 163, 0.0, 0.3700000000001842, 0.0),
        ("density", 43, 0.0, 0.3700000000001842, 0.0),
        ("density", 308, 0.0, 0.3700000000001842, 0.0),
        ("coarea1", 68, 0.0, 0.14333333333340412, 0.07687500000003933),
        ("coarea1", 20, 0.0, 0.27458333333347124, 0.040000000000020464),
    ]


# sha256 of the nine-column check rows below (inequality_sweep,
# level_trace_checks and level-0 coarea_check on the side-4 depth-2 torus):
# the fields, with the residual after rhs and the violated flag (0 or 1)
# last, as the sweep CSV writes them.  Re-pinned once when
# the metric graph's arc lengths became multiples of a dyadic quantum,
# once when the coarea check's slice order became a stable sort and once
# when the measures became exact sums of volumes rounded up to a quantum
CHECKS_DIGEST = "cae8615b538333c853c150bb681f00fcc2b8a9d16fe429ab10278d94fd2fc476"


def test_checks_digest_is_pinned(torus_filtration_d2):
    import hashlib
    import json

    def row(c):
        return [c.kind, c.center, c.r1, c.r2, c.lhs, c.rhs, c.residual, c.budget,
                int(c.violated)]

    rows = [row(c) for c in inequality_sweep(torus_filtration_d2, 200, seed=5)]
    rng = random.Random(11)
    samples = []
    for _ in range(10):
        center = rng.randrange(torus_filtration_d2.geometry.n_nodes)
        samples.append((center, *sorted(rng.uniform(0.05, 0.95) for _ in range(2))))
    traces = level_trace_checks(torus_filtration_d2, samples)
    coareas = coarea_check(torus_filtration_d2, 0, samples)
    for k, coarea in enumerate(coareas):
        rows += [row(c) for c in [*traces[3 * k : 3 * k + 3], coarea]]
    assert len(rows) == 290
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CHECKS_DIGEST


# ---------------------------------------------------------------------------
# whole-ball shortcut against real distance rows

# Radii spanning the genus-2 surface's eccentricities (0.125 to 0.149) and
# the anchor bound reach (0.131 to 0.261), so some balls are proven whole
# and others are measured from their rows.
WHOLE_BALL_RADII = np.linspace(0.12, 0.27, 11)


def fresh_copy(filtration):
    """The filtration over a fresh geometry: no row computed, no ball table."""
    base = WeightedComplex.from_json(filtration.geometry.base.to_json())
    geometry = base.geometry(filtration.config.subdivision_depth)
    return Filtration.from_json(geometry, filtration.to_json())


def read_complete_rows(graph, monkeypatch):
    """Make every read of this graph return the node's complete row."""
    dist = reference_distances(graph)
    monkeypatch.setattr(graph, "distances_within", lambda node, limit: dist[node])
    monkeypatch.setattr(
        graph, "rows_within",
        lambda nodes, limits: dist[np.asarray(nodes, dtype=np.int64)],
    )


def without_shortcut(monkeypatch):
    monkeypatch.setattr(
        complexes.MetricGraph, "holds_every_node",
        lambda graph, node, r: np.zeros(np.broadcast(node, r).shape, dtype=bool),
    )


def shortcut_fires(graph, radii):
    return {graph.holds_every_node(p, r) for p in range(graph.n_nodes) for r in radii}


@pytest.mark.parametrize("mode", ["dense", "rowwise"])
def test_whole_ball_volume_matches_row(small_genus_filtration, monkeypatch, mode):
    dist = reference_distances(small_genus_filtration.geometry.graph)
    geometry = fresh_copy(small_genus_filtration).geometry
    graph = geometry.graph
    row_source(graph, mode, monkeypatch, np.median(WHOLE_BALL_RADII))
    for r in WHOLE_BALL_RADII:
        for p in range(geometry.n_nodes):
            expected = reference_measure(
                geometry.cells_array, geometry.cell_volumes, dist[p], r
            )
            assert ball_volume(geometry, p, r) == expected
    assert shortcut_fires(graph, WHOLE_BALL_RADII) == {True, False}
    assert bool(graph._table) == (mode == "dense")


@pytest.mark.parametrize("mode", ["dense", "rowwise"])
def test_whole_ball_v1_matches_rows(small_genus_filtration, monkeypatch, mode):
    geometry = fresh_copy(small_genus_filtration).geometry
    radii = (0.14, 0.2)
    row_source(geometry.graph, mode, monkeypatch, max(radii))
    assert all(
        shortcut_fires(geometry.graph, [r]) == {True, False} for r in radii
    )
    estimates = []
    for r in radii:
        monkeypatch.setattr(bounds, "_V1_RADIUS", r)
        estimates.append(estimate_v1(geometry))
    without_shortcut(monkeypatch)
    for r, estimate in zip(radii, estimates):
        monkeypatch.setattr(bounds, "_V1_RADIUS", r)
        assert estimate_v1(geometry) == estimate
    assert bool(geometry.graph._table) == (mode == "dense")


@pytest.mark.parametrize("mode", ["dense", "rowwise"])
def test_whole_ball_checks_match_rows(small_genus_filtration, monkeypatch, mode):
    filtration = fresh_copy(small_genus_filtration)
    assert len(filtration.level(0).cells) > 0
    pairs = [(r1, r1 + 0.02) for r1 in WHOLE_BALL_RADII[:-1:2]]
    row_source(filtration.geometry.graph, mode, monkeypatch, np.median(pairs))
    assert shortcut_fires(filtration.geometry.graph, [r1 for r1, _ in pairs]) == {
        True, False
    }

    samples = [(center, r1, r2) for center in range(filtration.geometry.n_nodes)
               for r1, r2 in pairs]

    def rows():
        checks = point_density_check(filtration, samples)
        checks += level_trace_checks(filtration, samples)
        for level in (0, 1):
            checks += coarea_check(filtration, level, samples)
        return checks

    fast = rows()
    without_shortcut(monkeypatch)
    assert fast == rows()
    assert bool(filtration.geometry.graph._table) == (mode == "dense")


def test_whole_ball_checks_are_order_free(small_genus_filtration, monkeypatch):
    # Which balls are proven whole depends on the rows computed so far;
    # the check rows must not.  Large radii come first and
    # the coarea checks, which read the row of a nonempty level, come last,
    # so each center's balls are proven whole from other centers' rows.
    pairs = [(r1, r1 + 0.02) for r1 in WHOLE_BALL_RADII[::-1]]
    proves = complexes.MetricGraph.holds_every_node
    proven, refused = [], []

    def recording(graph, nodes, radii):
        whole = proves(graph, nodes, radii)
        for node, r, one in zip(*np.broadcast_arrays(nodes, radii, whole)):
            (proven if one else refused)[-1].add((int(node), float(r)))
        return whole

    monkeypatch.setattr(complexes.MetricGraph, "holds_every_node", recording)

    def rows(centers):
        filtration = fresh_copy(small_genus_filtration)
        proven.append(set())
        refused.append(set())
        out = {}
        for center in centers:
            samples = [(center, r1, r2) for r1, r2 in pairs]
            checks = point_density_check(filtration, samples)
            checks += level_trace_checks(filtration, samples)
            for level in (0, 1):
                checks += coarea_check(filtration, level, samples)
            out[center] = checks
        return [out[c] for c in sorted(out)]

    n_nodes = small_genus_filtration.geometry.n_nodes
    forward = rows(range(n_nodes))
    backward = rows(reversed(range(n_nodes)))
    assert forward == backward
    assert proven[0] and proven[1] and refused[0] != refused[1]
    without_shortcut(monkeypatch)
    assert forward == rows(range(n_nodes))


@pytest.mark.parametrize("name", ["torus_filtration_d2", "small_genus_filtration"])
def test_coarea_rows_cut_at_r2_give_the_complete_rows_checks(
    name, request, monkeypatch
):
    # The slices are summed in a stable distance order, so the cells within
    # r2, the only ones summed, come in the same order whatever the entries
    # beyond r2 read: a row cut at r2 (one call, no table) or at R (the
    # ball table) gives the same floats as the complete row.
    filtration = request.getfixturevalue(name)
    assert all(len(filtration.level(i)) for i in range(filtration.dim))
    top = filtration.config.radius
    rng = random.Random(17)
    samples = []
    for _ in range(40):
        center = rng.randrange(filtration.geometry.n_nodes)
        r1, r2 = sorted(rng.uniform(0.02, 0.98) * top for _ in range(2))
        samples.append((center, r1, r2))

    def rows(copy):
        return [check for level in range(filtration.dim)
                for check in coarea_check(copy, level, samples)]

    complete = fresh_copy(filtration)
    read_complete_rows(complete.geometry.graph, monkeypatch)
    expected = rows(complete)
    assert rows(fresh_copy(filtration)) == expected
    tabled = fresh_copy(filtration)
    graph = tabled.geometry.graph
    graph.tabulate(range(graph.n_nodes), top)
    assert any(len(ball[0]) < graph.n_nodes for ball in graph._table.values())
    assert rows(tabled) == expected


# Radii spanning the eccentricities of torus(3, scale=0.1) at depth 1 (0.189
# to 0.212) and node 0's reach (0.212 to 0.424).
VANISHING_RADII = np.linspace(0.17, 0.44, 8)


@pytest.fixture(scope="session")
def vanishing_filtration():
    geometry = torus(3, scale=0.1).geometry(1)
    config = SeparationConfig(
        radius=1.0, epsilon=0.05, move_budget=5, rng_seed=1, subdivision_depth=1
    )
    return build_filtration(geometry, config)


def test_a_complex_inside_one_ball_tabulates_nothing(monkeypatch):
    # every R-ball is proven whole, so the filtration's ball search, the
    # fit and V1 read no row but node 0's anchor, and the table stays empty
    geometry = torus(3, scale=0.1).geometry(1)
    calls = []
    dijkstra = complexes.dijkstra

    def recording(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(complexes, "dijkstra", recording)
    config = SeparationConfig(radius=1.0, epsilon=0.05, move_budget=5,
                              rng_seed=1, subdivision_depth=1)
    filtration = build_filtration(geometry, config)
    estimate_v1(geometry)
    assert calls == [0]
    assert geometry.graph.radius == 1.0 and geometry.graph._table == {}
    inequality_sweep(filtration, 40, 101)
    assert geometry.graph._table == {}


def test_the_anchor_row_serves_every_read_of_node_0(vanishing_filtration, monkeypatch):
    # node 0's complete row, computed for reach, is the only row the fit
    # and the certificate audit read when the whole complex fits one ball
    # around node 0, and it serves reads of node 0 out to any limit
    filtration = fresh_copy(vanishing_filtration)
    geometry = filtration.geometry
    full = reference_distances(geometry.graph)[0]
    calls = []
    dijkstra = complexes.dijkstra

    def recording(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(complexes, "dijkstra", recording)
    fit = fit_in_ball(geometry, np.arange(geometry.n_nodes), 1.0)
    assert (fit.center, fit.radius) == (0, full.max())
    assert filtration.validate()
    assert [cert.center for cert in filtration.levels[1].certificates] == [0]
    for limit in (0.0, full.max() / 2, math.inf):
        assert np.array_equal(geometry.graph.distances_within(0, limit), full)
    assert calls == [0]


@pytest.mark.parametrize("mode", ["dense", "rowwise"])
def test_empty_level_coarea_shortcut(vanishing_filtration, monkeypatch, mode):
    filtration = fresh_copy(vanishing_filtration)
    geometry = filtration.geometry
    row_source(geometry.graph, mode, monkeypatch, np.median(VANISHING_RADII))
    assert [len(filtration.level(i)) for i in (0, 1)] == [0, 0]
    assert shortcut_fires(geometry.graph, VANISHING_RADII) == {True, False}
    for i in range(filtration.dim + 1):
        level = filtration.level(i)
        inside = np.zeros(geometry.n_nodes)
        expected = reference_measure(level.cells_array, level.cell_volumes, inside, 0.0)
        assert level.whole_measure == expected
    assert filtration.level(0).whole_measure == (0.0, 0.0)

    samples = [(center, r1, r1 + 0.02) for center in range(geometry.n_nodes)
               for r1 in VANISHING_RADII]

    def rows():
        return [check for level in (0, 1)
                for check in coarea_check(filtration, level, samples)]

    fast = rows()
    without_shortcut(monkeypatch)
    assert fast == rows()
    assert bool(geometry.graph._table) == (mode == "dense")


# The checks whose balls B(p, r1) and B(p, r2) are all measured from one row:
# the coarea check on an empty level, the density and trace checks with a
# nonempty Z_0.
ROW_RADIUS_CHECKS = {
    "vanishing_filtration": (
        VANISHING_RADII,
        [lambda f, samples, level=level: coarea_check(f, level, samples)
         for level in (0, 1)],
    ),
    "small_genus_filtration": (
        WHOLE_BALL_RADII, [point_density_check, level_trace_checks]
    ),
}


def chunk_size(geometry):
    """Balls per chunk of the checks and of V1."""
    return min(bounds._CHUNK_BALLS, complexes._BATCH // (8 * geometry.n_nodes))


@pytest.mark.parametrize("name", sorted(ROW_RADIUS_CHECKS))
def test_rows_stop_at_the_largest_radius_not_proven_whole(name, request, monkeypatch):
    # With no ball table, a chunk of balls reads the rows it needs in one
    # dijkstra call: each center once, out to the largest radius one of its
    # checks needs that is not proven whole (r2 when neither ball is, r1
    # when only B(p, r2) is, none when B(p, r1) is), and the call's limit is
    # the largest of these.  Balls are classified when the chunk's turn
    # comes, so a complete row read for an earlier chunk tightens reach;
    # node 0's rows come from its anchor row.  A sweep longer than one
    # chunk, with repeated centers, takes its samples in ascending order of
    # the radius a classification before the first chunk reads them to,
    # then of r2, and makes the calls of those chunks in turn.  So the
    # chunks' largest radii by that first classification ascend, and each
    # call's limit is at most its chunk's: a later classification reads a
    # row to the same radius or a smaller one, or not at all.
    radii, checks = ROW_RADIUS_CHECKS[name]
    filtration = request.getfixturevalue(name)
    empty = {len(filtration.level(i)) == 0 for i in (0, 1)}
    assert empty == {name == "vanishing_filtration"}
    n_nodes = filtration.geometry.n_nodes
    samples = [(center, r1, r1 + step) for step in (0.02, 0.05) for r1 in radii
               for center in range(n_nodes)]
    random.Random(5).shuffle(samples)
    size = chunk_size(filtration.geometry)
    calls = []
    dijkstra = complexes.dijkstra

    def recording(*args, **kwargs):
        if np.ndim(kwargs.get("indices")) == 1:
            calls.append((kwargs.get("limit"), sorted(kwargs["indices"])))
        return dijkstra(*args, **kwargs)

    def classify(graph, center, r1, r2):
        if graph.holds_every_node(center, r1):
            return "both whole", None
        if graph.holds_every_node(center, r2):
            return "r2 whole", r1
        return "neither whole", r2

    monkeypatch.setattr(complexes, "dijkstra", recording)
    cases = set()
    for check in checks:
        copy = fresh_copy(filtration)
        graph = copy.geometry.graph
        reads = [classify(graph, *sample)[1] for sample in samples]
        order = sorted(range(len(samples)),
                       key=lambda k: (-1.0 if reads[k] is None else reads[k],
                                      samples[k][2]))
        parts = [order[start : start + size] for start in range(0, len(samples), size)]
        chunks = [[samples[k] for k in part] for part in parts]
        firsts = [max((reads[k] for k in part if reads[k] is not None), default=-1.0)
                  for part in parts]
        assert firsts == sorted(firsts) and firsts[0] < firsts[-1]
        assert len(chunks) > 1
        assert any(len({center for center, _, _ in chunk}) < len(chunk)
                   for chunk in chunks)
        expected = []
        for chunk, first in zip(chunks, firsts):
            needs = {}
            for center, r1, r2 in chunk:
                case, need = classify(graph, center, r1, r2)
                cases.add(case)
                if need is not None and center != 0:
                    needs[center] = max(need, needs.get(center, need))
            calls.clear()
            check(copy, chunk)
            assert calls == ([(max(needs.values()), sorted(needs))] if needs else [])
            assert all(limit <= first for limit, _ in calls)
            expected += calls
        assert len(expected) > 1
        calls.clear()
        check(fresh_copy(filtration), samples)
        assert calls == expected
    assert cases == {"both whole", "r2 whole", "neither whole"}


def reference_checks(filtration, samples):
    """The density checks, the trace checks and the coarea checks of each
    level, for each sample one check at a time: complete reference rows,
    measured by ``reference_measure``, and the slice areas summed exactly
    in distance order."""
    dist = reference_distances(filtration.geometry.graph)
    n, R = filtration.dim, filtration.config.radius
    schedule, total = filtration.slacks
    z0 = filtration.level(0).cells_array[:, 0]

    def measure(i, row, r):
        z = filtration.level(i)
        return reference_measure(z.cells_array, z.cell_volumes, row, r)

    density, trace, coarea = [], [], [[] for _ in range(n)]
    for center, r1, r2 in samples:
        row = dist[center]
        count = int((row[z0] <= r1).sum())

        def level_check(kind, i, slack):
            area, boundary = measure(i, row, r2)
            lhs = count * (r2 - r1) ** i / math.factorial(i)
            return InequalityCheck(kind, center, r1, r2, lhs, area + slack, boundary)

        density.append(level_check("density", n, total))
        trace += [
            level_check(f"trace{i}", i,
                        sum(2.0 * schedule[j] * R ** (i - j) for j in range(i)))
            for i in range(n + 1)
        ]
        for level in range(n):
            z = filtration.level(level)
            integral = budget = 0.0
            if len(z):
                far = row[z.cells_array].max(axis=1)
                order = np.argsort(far)
                units, quantum = credited_volumes(z.cells_array, z.cell_volumes)
                totals = itertools.accumulate(units[k] for k in order.tolist())
                cumulative = np.array([0.0, *(float(t * quantum) for t in totals)])
                rhos = np.linspace(r1, r2, bounds._COAREA_SAMPLES)
                values = cumulative[np.searchsorted(far[order], rhos, side="right")]
                integral = float(np.trapezoid(values, rhos))
                step = (r2 - r1) / (bounds._COAREA_SAMPLES - 1)
                budget = step * float(values.max() - values.min())
            vol2, b2 = measure(level + 1, row, r2)
            vol1, b1 = measure(level + 1, row, r1)
            rhs = (vol2 - vol1) + 2.0 * schedule[level] * R
            coarea[level].append(InequalityCheck(
                f"coarea{level}", center, r1, r2, integral, rhs, budget + b1 + b2))
    return density, trace, coarea


@pytest.mark.parametrize(
    "name", ["search-genus", "torus_filtration_d2", "vanishing_filtration"]
)
def test_a_ball_measures_the_same_alone_in_a_chunk_and_exactly(name, request):
    # On the geometry and every level (both lower levels are empty on the
    # vanishing fixture), 64 balls measured in one chunk read the floats
    # each reads measured alone and the exact reference's, and a ball
    # holding every node measures Z's whole measure.
    if name == "search-genus":
        config = SeparationConfig(radius=0.7, rng_seed=7, subdivision_depth=1)
        filtration = build_filtration(genus_surface(2).geometry(1), config)
    else:
        filtration = request.getfixturevalue(name)
    geometry = filtration.geometry
    rng = np.random.default_rng(5)
    dist = reference_distances(geometry.graph, rng.integers(geometry.n_nodes, size=64))
    radii = rng.uniform(0.0, 1.0, 64) * dist.max(axis=1)
    whole = np.zeros(64, dtype=bool)
    credited = 0
    for i in range(filtration.dim + 1):
        z = filtration.level(i)
        chunk = bounds._measures(z, dist, radii, whole)
        alone = [bounds._measures(z, dist[k : k + 1], radii[k : k + 1], whole[:1])[0]
                 for k in range(64)]
        assert chunk == alone == [
            reference_measure(z.cells_array, z.cell_volumes, row, r)
            for row, r in zip(dist, radii)
        ]
        credited += sum(credit > 0 for _, credit in chunk)
        everything = bounds._measures(z, dist, dist.max(axis=1), whole)
        assert everything == [z.whole_measure] * 64
    assert credited > 0


@pytest.mark.parametrize("mode", ["table", "rows"])
@pytest.mark.parametrize(
    "name", ["small_genus_filtration", "torus_filtration_d2", "vanishing_filtration"]
)
def test_chunked_checks_equal_the_per_check_reference(name, mode, request):
    # Check by check, the chunked density, trace and coarea checks equal
    # those of one ball at a time from complete rows, bit for bit: with the
    # ball table named at the median r2 and with no table, over more than two chunks of
    # samples that repeat centers, include node 0 and mix balls proven
    # whole, balls of which only B(p, r2) is, and balls neither is.  The
    # coarea levels are empty on the vanishing fixture.
    filtration = fresh_copy(request.getfixturevalue(name))
    geometry = filtration.geometry
    graph = geometry.graph
    rng = random.Random(23)
    top = float(graph.reach.max())
    count = 2 * chunk_size(geometry) + 7
    centers = [0, 0, 5, 5] + [rng.randrange(geometry.n_nodes) for _ in range(count - 4)]
    samples = []
    for center in centers:
        r1 = rng.uniform(0.05, 0.9) * top
        samples.append((center, r1, r1 + rng.uniform(0.01, 0.3) * top))
    cases = {(bool(graph.holds_every_node(c, r1)), bool(graph.holds_every_node(c, r2)))
             for c, r1, r2 in samples}
    assert cases == {(True, True), (False, True), (False, False)}
    if mode == "table":
        graph.tabulate([], float(np.median([r2 for _, _, r2 in samples])))
    density, trace, coarea = reference_checks(filtration, samples)
    assert point_density_check(filtration, samples) == density
    assert level_trace_checks(filtration, samples) == trace
    for level in range(filtration.dim):
        assert coarea_check(filtration, level, samples) == coarea[level]
    assert bool(graph._table) == (mode == "table")
    levels = {len(filtration.level(i)) > 0 for i in range(filtration.dim)}
    assert levels == ({False} if name == "vanishing_filtration" else {True})


@pytest.mark.parametrize("name", ["small_genus_filtration", "vanishing_filtration"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_checks_come_in_sample_order(name, small_genus_filtration,
                                     vanishing_filtration, data):
    # Whatever order the chunks take the balls in, the density and coarea
    # checks of a list of samples, and of a shuffle of it, are the
    # reference's in sample order, over chunks of three balls.
    filtration = fresh_copy({"small_genus_filtration": small_genus_filtration,
                             "vanishing_filtration": vanishing_filtration}[name])
    geometry = filtration.geometry
    top = float(geometry.graph.reach.max())
    sample = st.tuples(st.integers(0, geometry.n_nodes - 1),
                       st.floats(0.05, 0.9), st.floats(0.01, 0.3))
    drawn = data.draw(st.lists(sample, min_size=1, max_size=12))
    samples = [(center, a * top, (a + b) * top) for center, a, b in drawn]
    shuffled = data.draw(st.permutations(samples))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_BATCH", 8 * geometry.n_nodes * 3)
        for each in (samples, shuffled):
            density, _, coarea = reference_checks(filtration, each)
            assert point_density_check(filtration, each) == density
            for level in range(filtration.dim):
                assert coarea_check(filtration, level, each) == coarea[level]


# ---------------------------------------------------------------------------
# rows read out to a radius, from single calls and from the ball table


def assert_batch_is_single_rows(graph, nodes, limits):
    # equal wherever a row is exact: out to the limit
    for limit in limits:
        batch = graph.rows_within(nodes, [limit] * len(nodes))
        assert batch.shape == (len(nodes), graph.n_nodes)
        for node, row in zip(nodes, batch):
            one = graph.distances_within(node, limit)
            assert np.array_equal(np.where(row <= limit, row, np.inf),
                                  np.where(one <= limit, one, np.inf))


def test_limited_row_is_the_full_row_cut_at_its_limit(small_genus_filtration):
    dist = reference_distances(small_genus_filtration.geometry.graph)
    graph = fresh_copy(small_genus_filtration).geometry.graph
    for p in range(1, graph.n_nodes, 7):
        full = dist[p]
        # SciPy's limit is inclusive: entries equal to it are kept
        for limit in np.quantile(np.unique(full), [0.0, 0.1, 0.5, 0.9], method="lower"):
            row = graph.distances_within(p, limit)
            assert np.array_equal(row, np.where(full <= limit, full, np.inf))
        assert np.array_equal(graph.distances_within(p, full.max()), full)
    # node 0's row is its complete anchor row at every limit
    assert np.array_equal(graph.distances_within(0, 0.0), dist[0])
    full = dist[3]
    limits = [0.0, np.median(full), full.max()]
    assert_batch_is_single_rows(graph, [3, 0, 10], limits)
    # a tabulated row is the full row cut at the table's radius R, for
    # any read out to at most R; reads past R are computed
    top = np.median(full)
    graph.tabulate([3, 10], top)
    cut = np.where(full <= top, full, np.inf)
    assert np.array_equal(graph.distances_within(3, top), cut)
    assert np.array_equal(graph.distances_within(3, 0.0), cut)
    assert_batch_is_single_rows(graph, [3, 0, 10, 11], [0.0, top, full.max()])
    assert np.array_equal(graph.distances_within(3, full.max()), full)


def test_only_complete_rows_tighten_reach(small_genus_filtration):
    # a complete row, alone or in a batch, tightens reach to
    # min(reach, row + row.max()); a cut one does not
    dist = reference_distances(small_genus_filtration.geometry.graph)
    graph = fresh_copy(small_genus_filtration).geometry.graph
    ecc = dist.max(axis=1)
    near, far, q = int(ecc.argmin()), int(ecc.argmax()), 9
    assert 0 not in (near, far, q)
    reach = graph.reach.copy()
    row = graph.distances_within(far, np.median(dist[far]))
    assert np.isinf(row).any()
    assert np.array_equal(graph.reach, reach)
    row = graph.distances_within(q, ecc[q])
    assert np.array_equal(row, dist[q])
    tightened = np.minimum(reach, dist[q] + ecc[q])
    assert np.array_equal(graph.reach, tightened)
    assert (tightened < reach).any()
    # at the nearest node's eccentricity, the farthest node's row is cut
    rows = graph.rows_within([far, near], [ecc[near]] * 2)
    assert np.isinf(rows[0]).any() and np.array_equal(rows[1], dist[near])
    assert np.array_equal(graph.reach, np.minimum(tightened, dist[near] + ecc[near]))


@pytest.mark.parametrize(
    "name,top",
    [("small_genus_filtration", 0.07), ("torus_filtration_d2", 1.0),
     ("vanishing_filtration", VANISHING_RADII[-1])],
)
def test_truncated_rows_give_the_dense_outputs(name, top, request, monkeypatch):
    # The same sweep, V1 estimate and packing from complete rows and from
    # rows read out to the checks' radii: from the ball table at R and from
    # single calls; more checks are drawn with radii up to ``top``, so that
    # some balls miss nodes.  Coarea levels are empty on the vanishing
    # fixture and not on the others.
    filtration = request.getfixturevalue(name)
    truncated = []
    limited = complexes.MetricGraph._limited

    def recording(graph, nodes, limit):
        # the finished rows: the Dijkstra graph's own rows miss interiors
        rows = limited(graph, nodes, limit)
        if limit < math.inf and np.isinf(rows).any():
            truncated.append(limit)
        return rows

    def outputs(copy):
        geometry = copy.geometry
        rng = random.Random(13)
        rows = inequality_sweep(copy, 60, seed=3)
        samples = []
        for _ in range(20):
            center = rng.randrange(geometry.n_nodes)
            r1 = rng.uniform(0.02, 0.9) * top
            samples.append((center, r1, r1 + 0.05 * top))
        checks = point_density_check(copy, samples)
        for level in range(copy.dim):
            checks += coarea_check(copy, level, samples)
        rows += checks
        z0 = copy.z0_nodes()
        packing = greedy_packing(z0, geometry) if z0 else None
        return rows, estimate_v1(geometry), packing

    complete = fresh_copy(filtration)
    read_complete_rows(complete.geometry.graph, monkeypatch)
    expected = outputs(complete)
    monkeypatch.setattr(complexes.MetricGraph, "_limited", recording)
    assert outputs(fresh_copy(filtration)) == expected
    assert truncated
    levels = {len(filtration.level(i)) > 0 for i in range(filtration.dim)}
    assert levels == ({False} if name == "vanishing_filtration" else {True})


@pytest.mark.parametrize("table", [True, False], ids=["table", "rows"])
def test_v1_rows_come_in_batches(table, monkeypatch):
    # On 5,400 nodes V1 reads its rows from the ball table when its radius
    # covers V1's, tabulated first in at most ceil(N / batch) calls, batch
    # = _BATCH // N rows; else it computes them out to V1's radius, one
    # call per chunk of balls.  The estimate is the first node of largest
    # measure, as one row per node gives it.
    geometry = torus(5, scale=0.1).geometry(3)
    graph = geometry.graph
    monkeypatch.setattr(bounds, "_V1_RADIUS", 0.02)
    if table:
        graph.tabulate([], 0.025)  # names R, as the ball search would
    calls = []
    dijkstra = complexes.dijkstra

    def recording(*args, **kwargs):
        calls.append(kwargs.get("limit"))
        return dijkstra(*args, **kwargs)

    graph.reach  # node 0's anchor row, computed before the count starts
    monkeypatch.setattr(complexes, "dijkstra", recording)
    estimate = estimate_v1(geometry)
    n = geometry.n_nodes
    size = complexes._BATCH // n if table else chunk_size(geometry)
    assert 0 < len(calls) <= math.ceil(n / size)
    assert set(calls) == {0.025 if table else 0.02}
    assert len(graph._table) == (n if table else 0)
    rows = reference_distances(graph, [0, estimate.argmax_node, n - 1])
    measures = [
        reference_measure(geometry.cells_array, geometry.cell_volumes, row, 0.02)
        for row in rows
    ]
    assert (estimate.value, estimate.boundary_credit) == measures[1]
    assert all(value <= estimate.value for value, _ in measures)


# ---------------------------------------------------------------------------
# packing


def test_packing_single_point(circle_filtration):
    geometry = circle_filtration.geometry
    packing = greedy_packing([circle_filtration.z0_nodes()[0]], geometry)
    assert packing.count == 1


def test_packing_two_far_points():
    geometry = circle(8, 8.0).geometry(0)  # nodes 1 apart
    packing = greedy_packing([0, 3], geometry)  # distance 3 > 1/2
    assert packing.count == 2


def test_packing_close_points_merge():
    geometry = circle(8, 8.0).geometry(1)  # nodes 0.5 apart
    # nodes 0 and its split-neighbor are 0.5 apart; 0.5 <= 2 * 0.25 fails to
    # be strictly greater, so the second point is absorbed
    dist = geometry.graph.distances_from(0)
    near = next(v for v in range(geometry.n_nodes) if 0 < dist[v] <= 0.5)
    packing = greedy_packing([0, near], geometry)
    assert packing.count == 1


@pytest.mark.parametrize("name", ["circle_filtration", "torus_filtration_d1",
                                  "torus_filtration_d2", "small_genus_filtration"])
def test_packing_reverify_independent(request, name):
    # greedy_packing checks no cover itself: this is its only check
    filtration = request.getfixturevalue(name)
    geometry = filtration.geometry
    z0 = filtration.z0_nodes()
    packing = greedy_packing(z0, geometry)
    # disjointness: pairwise center distance > 2 r_small
    for a in packing.centers:
        for b in packing.centers:
            if a < b:
                assert geometry.graph.distances_from(a)[b] > 2 * packing.r_small
    # maximality: every point is within 2 r_small of some center
    for node in z0:
        assert any(
            geometry.graph.distances_from(center)[node] <= 2 * packing.r_small
            for center in packing.centers
        )
    # cover: doubled balls cover the point set
    for node in z0:
        assert any(
            geometry.graph.distances_from(center)[node] <= packing.r_big
            for center in packing.centers
        )


def test_packing_oracle_matches_greedy(torus_filtration_d2):
    # re-run the greedy selection independently under the same ordering
    geometry = torus_filtration_d2.geometry
    z0 = sorted(torus_filtration_d2.z0_nodes())
    chosen = []
    for node in z0:
        if all(geometry.graph.distances_from(c)[node] > 0.5 for c in chosen):
            chosen.append(node)
    packing = greedy_packing(z0, geometry)
    assert list(packing.centers) == chosen


# ---------------------------------------------------------------------------
# V1 and the report


# name -> (complex, subdivision depth, radius R of the ball table)
V1_FIXTURES = {
    "search-torus": (lambda: torus(4), 2, 1.1),  # radius-1 rows from the table
    "search-genus": (lambda: genus_surface(2), 1, 0.7),  # rows computed
    "torus4-d3": (lambda: torus(4), 3, 1.0),
    "vanish-large": (lambda: torus(5, scale=0.1), 3, 1.0),  # every ball whole
}


def v1_reference(geometry):
    """(value, argmax_node, boundary_credit) of the first node of largest
    ``_measures``, every node's ball measured from its row, 64 balls at a
    time, or whole where ``holds_every_node`` proves it."""
    graph, measures = geometry.graph, []
    for start in range(0, geometry.n_nodes, 64):
        nodes = np.arange(start, min(start + 64, geometry.n_nodes))
        radii = np.ones(len(nodes))
        whole = graph.holds_every_node(nodes, radii)
        rows = graph.rows_within(nodes, np.where(whole, -1.0, radii))
        measures += bounds._measures(geometry, rows, radii, whole)
    best = max(range(len(measures)), key=lambda node: measures[node][0])
    return measures[best][0], best, measures[best][1]


@pytest.mark.parametrize("name", sorted(V1_FIXTURES))
def test_v1_sums_select_the_largest_measure(name, monkeypatch):
    # With the ball table at R, as the ball search leaves it, V1 sums each
    # ball over its nodes and measures only the ball of the largest sum:
    # the estimate is the reference's, bit for bit, and the table stays at
    # R, holding the same balls.
    make, depth, R = V1_FIXTURES[name]
    geometry = make().geometry(depth)
    graph = geometry.graph
    graph.tabulate(range(geometry.n_nodes), R)
    held = set(graph._table)
    measured = []
    measures = bounds._measures

    def counting(z, rows, radii, whole):
        measured.extend(np.flatnonzero(~whole).tolist())
        return measures(z, rows, radii, whole)

    monkeypatch.setattr(bounds, "_measures", counting)
    estimate = estimate_v1(geometry)
    assert (graph.radius, set(graph._table)) == (R, held)
    monkeypatch.setattr(bounds, "_measures", measures)
    assert (estimate.value, estimate.argmax_node,
            estimate.boundary_credit) == v1_reference(geometry)
    assert len(measured) <= 1
    if name == "vanish-large":
        assert not held and not measured


@pytest.mark.parametrize("batch", [1, 300, 1 << 18])
def test_table_sums_equal_each_ball_summed_alone(batch, monkeypatch):
    # one ball a batch, a few balls a batch and all in one; at the table's
    # radius and below it, where each ball is masked to the radius
    geometry = torus(4).geometry(2)
    graph, n = geometry.graph, geometry.n_nodes
    graph.tabulate(range(n), 1.1)
    weights = bounds._node_weights(geometry)
    dist = reference_distances(graph)
    monkeypatch.setattr(complexes, "_BATCH", batch)
    for radius in (1.1, 1.0, 0.3):
        tabled, sums, rest = graph.table_sums(np.arange(n), radius, weights)
        assert sorted([*tabled.tolist(), *rest.tolist()]) == list(range(n))
        assert len(tabled) > n // 2
        assert sums.tolist() == [weights[dist[node] <= radius].sum()
                                 for node in tabled.tolist()]


def test_v1_warning_for_short_systole(tiny_torus_filtration):
    estimate = estimate_v1(tiny_torus_filtration.geometry)
    assert estimate.warning is not None
    assert estimate.value == pytest.approx(16 * 0.15**2)


def test_v1_no_warning_for_wide_torus(torus4_d1):
    estimate = estimate_v1(torus4_d1)
    assert estimate.warning is None
    assert estimate.value >= 3.0


def test_v1_warning_when_systole_unknown():
    from sepfilt.generators import genus_surface

    estimate = estimate_v1(genus_surface(2).geometry(0))
    assert estimate.warning is not None


def test_bound_report_constants_exact(torus_filtration_d1, circle_filtration):
    report = bound_report(
        torus_filtration_d1, None, Fraction(3, 5), Fraction(16)
    )
    assert report.constant_bound == Fraction(49152, 5)
    assert float(report.constant_bound) == 9830.4
    assert report.vanishing is False

    report1 = bound_report(circle_filtration, None, Fraction(1), Fraction(4))
    assert report1.constant_bound == Fraction(64)


def test_bound_report_vanishing_flag(torus_filtration_d1):
    report = bound_report(torus_filtration_d1, None, Fraction(2, 5), Fraction(16))
    assert report.vanishing is True  # 0.4 < 1/2!
    # a nonempty 0-level with a vanishing V1 is inconsistent
    assert report.vanishing_consistent is False


def test_bound_report_compares_v1_with_the_exact_threshold():
    # a stand-in 3-dimensional filtration: bound_report reads only these
    class Stub:
        dim = 3
        slacks = (0.01, 0.06)

        class geometry:
            max_cell_diameter = 0.5

        @staticmethod
        def z0_nodes():
            return []

    # 1.0 / 6 is 0.16666666666666666, below 1/3! = 1/6
    assert bound_report(Stub, None, 1.0 / 6, 1.0).vanishing is True
    assert bound_report(Stub, None, Fraction(1, 6), Fraction(1)).vanishing is False

    factor = 16**3 * math.factorial(3) ** 2
    exact = bound_report(Stub, None, Fraction(1, 3), Fraction(5, 7))
    assert exact.constant_bound == Fraction(factor * 5, 21)
    v1, vol_m = 0.3, 4.7
    inexact = bound_report(Stub, None, v1, vol_m)
    assert inexact.constant_bound == factor * float(v1) * float(vol_m)
    assert isinstance(inexact.constant_bound, float)


def test_bound_report_vanishing_consistent(tiny_torus, tiny_torus_filtration):
    geometry = tiny_torus_filtration.geometry
    coloring = color_by_filtration(geometry, tiny_torus_filtration)
    census = count_rainbow(geometry, coloring, tiny_torus_filtration)
    estimate = estimate_v1(geometry)
    report = bound_report(
        tiny_torus_filtration, census, estimate.value, geometry.total_area()
    )
    assert report.vanishing is True
    assert report.rainbow_bound == 0
    assert report.vanishing_consistent is True
    # the report derives its tolerances, and an empty 0-level still has a
    # packing, with no center
    assert report.tolerances == {
        "epsilon_total": tiny_torus_filtration.slacks[1],
        "max_cell_diameter": geometry.max_cell_diameter,
    }
    artifacts = run_pipeline(tiny_torus, tiny_torus_filtration.config, samples=2)
    assert artifacts.report_document()["packing"]["count"] == 0


def test_rainbow_bound_below_packing_chain(torus_filtration_d2):
    # 2^n #Z0 <= 4^n n! (V1 + eps + tolerance) k with k from the packing
    geometry = torus_filtration_d2.geometry
    n = geometry.dim
    z0 = torus_filtration_d2.z0_nodes()
    packing = greedy_packing(z0, geometry)
    estimate = estimate_v1(geometry)
    eps = torus_filtration_d2.slacks[1]
    samples = [(center, 0.5, 0.999) for center in packing.centers]
    checks = point_density_check(torus_filtration_d2, samples)
    budget = max(check.budget for check in checks)
    lhs = (2**n) * len(z0)
    rhs = (4**n) * math.factorial(n) * (estimate.value + eps + budget) * packing.count
    assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# the coarea checks in a forked child

# The in-process side of a sweep: a fresh interpreter pinned to one CPU,
# where ``inequality_sweep`` forks no child; it reads the complex, the
# filtration, the sample count and the seed as JSON on stdin and prints
# the checks' fields.
PINNED_SWEEP = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from sepfilt import WeightedComplex
from sepfilt.filtration import Filtration
from sepfilt.pipeline import inequality_sweep
complex_, document, samples, seed = json.load(sys.stdin)
depth = document["config"]["subdivision_depth"]
geometry = WeightedComplex.from_json(complex_).geometry(depth)
filtration = Filtration.from_json(geometry, document)
print(json.dumps(inequality_sweep(filtration, samples, seed)))
"""


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to the parent; skips the test where the
    sweep cannot fork."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks only with two usable CPUs")
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def forked_samples(filtration):
    """The fewest sweep samples whose coarea share forks."""
    nodes = filtration.geometry.n_nodes
    return 4 * -(-pipeline._FORK_ENTRIES // nodes)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "name", ["torus_filtration_d2", "small_genus_filtration", "vanishing_filtration"]
)
def test_forked_and_in_process_sweeps_give_the_same_checks(name, request, forks):
    filtration = request.getfixturevalue(name)
    samples = forked_samples(filtration)
    checks = inequality_sweep(fresh_copy(filtration), samples, 5)
    assert len(forks) == 1
    assert_no_child()
    document = [filtration.geometry.base.to_json(), filtration.to_json(),
                samples, 5]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    pinned = subprocess.run([sys.executable, "-c", PINNED_SWEEP],
                            input=json.dumps(document), capture_output=True,
                            text=True, env=env, timeout=300)
    assert pinned.returncode == 0, pinned.stderr
    assert json.loads(pinned.stdout) == [list(c) for c in checks]
    # density checks in sample order, then the coarea checks in theirs
    kinds = [c.kind for c in checks]
    assert kinds == ["density"] * samples + [f"coarea{filtration.dim - 1}"] * (samples // 4)


class Unsendable(ValueError):
    """An exception the child cannot pickle once its ``__module__`` names
    no module."""


@pytest.mark.parametrize("error", [RadiusOrder, ValueError, KeyboardInterrupt])
def test_a_failure_in_the_child_is_raised_with_its_type(error, forks, monkeypatch,
                                                        vanishing_filtration):
    def failing(*args):
        raise error("planted in the child")

    monkeypatch.setattr(pipeline, "coarea_check", failing)
    filtration = fresh_copy(vanishing_filtration)
    with pytest.raises(error, match="planted in the child"):
        inequality_sweep(filtration, forked_samples(filtration), 5)
    assert len(forks) == 1
    assert_no_child()


def test_a_failure_the_child_cannot_send_is_a_package_error(forks, monkeypatch,
                                                           vanishing_filtration):
    def failing(*args):
        raise Unsendable("planted in the child")

    monkeypatch.setattr(pipeline, "coarea_check", failing)
    monkeypatch.setattr(Unsendable, "__module__", "no_such_module")
    filtration = fresh_copy(vanishing_filtration)
    with pytest.raises(SepfiltError, match="child process failed"):
        inequality_sweep(filtration, forked_samples(filtration), 5)
    assert len(forks) == 1
    assert_no_child()


def test_a_sweep_that_cannot_fork_runs_in_process(forks, monkeypatch,
                                                  vanishing_filtration):
    samples = forked_samples(vanishing_filtration)
    forked = inequality_sweep(fresh_copy(vanishing_filtration), samples, 5)
    assert len(forks) == 1

    def refused():
        raise OSError(errno.EAGAIN, "no process to spare")

    monkeypatch.setattr(os, "fork", refused)
    assert inequality_sweep(fresh_copy(vanishing_filtration), samples, 5) == forked
    assert_no_child()


def test_a_failure_in_the_parent_kills_and_reaps_the_child(forks, monkeypatch,
                                                           vanishing_filtration):
    def failing(*args):
        raise RadiusOrder("planted in the parent")

    kills, kill = [], os.kill

    def recording(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(pipeline, "point_density_check", failing)
    monkeypatch.setattr(os, "kill", recording)
    filtration = fresh_copy(vanishing_filtration)
    with pytest.raises(RadiusOrder, match="planted in the parent"):
        inequality_sweep(filtration, forked_samples(filtration), 5)
    assert kills == [(forks[0], signal.SIGKILL)]
    assert_no_child()


def test_run_never_forks(monkeypatch):
    # the largest gated graph (5,400 nodes) at run's default 100 samples
    def refused():
        raise AssertionError("run forked")

    monkeypatch.setattr(os, "fork", refused)
    config = SeparationConfig(radius=1.0, epsilon=0.05, move_budget=40,
                              rng_seed=7, subdivision_depth=3)
    artifacts = run_pipeline(torus(5, scale=0.1), config)
    assert len(artifacts.checks) == 125
