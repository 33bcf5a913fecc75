import gc
import heapq
import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfilt import (Subpolyhedron, WeightedComplex, bounds, complexes,
                     simplex_volume)
from sepfilt.complexes import MetricGraph
from sepfilt.errors import DimensionMismatch, NondegenerateViolation
from sepfilt.generators import circle, genus_surface, torus

from conftest import (ball_volume, complete_arcs, reference_distances,
                      reference_measure)


# ---------------------------------------------------------------------------
# independent oracles


def dijkstra_oracle(geometry, source):
    """Plain heapq Dijkstra over the metric-graph arcs."""
    matrix = complete_arcs(geometry.graph)
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    dist = [math.inf] * geometry.n_nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for k in range(indptr[node], indptr[node + 1]):
            other = int(indices[k])
            nd = d + float(data[k])
            if nd < dist[other]:
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


def flat_torus_disk_area_mc(side, radius, samples=200000, seed=20240817):
    """Monte-Carlo area of a metric disk on the flat side x side torus."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, side, size=(samples, 2))
    wrapped = np.minimum(np.abs(pts), side - np.abs(pts))
    dist = np.hypot(wrapped[:, 0], wrapped[:, 1])
    return side * side * float((dist <= radius).mean())


# frozen from the oracle above (seed 20240817, 200k samples); true value is pi
MC_DISK_AREA = 3.13368


# ---------------------------------------------------------------------------
# simplex volumes


def test_right_triangle_volume():
    assert simplex_volume([1.0, 1.0, math.sqrt(2.0)]) == pytest.approx(0.5)


def test_regular_tetrahedron_volume():
    expected = math.sqrt(2.0) / 12.0
    assert simplex_volume([1.0] * 6) == pytest.approx(expected, abs=1e-12)


def test_degenerate_triangle_rejected():
    with pytest.raises(NondegenerateViolation):
        simplex_volume([1.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_length_rejected(bad):
    with pytest.raises(NondegenerateViolation):
        simplex_volume([bad, 1.0, 1.0])


# the squared length overflows, or only L^(2d+2) does, the power a
# Cayley-Menger determinant reaches
@pytest.mark.parametrize("length", [1e300, 1.5e308**0.25], ids=["square", "det"])
def test_overflowing_length_rejected(length):
    with pytest.raises(NondegenerateViolation, match="overflow"):
        simplex_volume([length] * 3)


def test_bad_length_count_rejected():
    with pytest.raises(ValueError):
        simplex_volume([1.0, 1.0])


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_volume_scaling_law(scale):
    base = simplex_volume([1.0, 1.0, math.sqrt(2.0)])
    scaled = simplex_volume([scale, scale, scale * math.sqrt(2.0)])
    assert scaled == pytest.approx(base * scale**2, rel=1e-9)


@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.1, 0.9))
@settings(max_examples=50, deadline=None)
def test_triangle_volume_is_herons(a, b, t):
    c = abs(a - b) + t * (a + b - abs(a - b))  # strictly between the bounds
    s = (a + b + c) / 2
    heron = math.sqrt(s * (s - a) * (s - b) * (s - c))
    assert simplex_volume([a, b, c]) == pytest.approx(heron, rel=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_volume_matches_coordinate_determinant(d):
    # oracle: volume of an embedded simplex from the Gram determinant of its
    # coordinate edge vectors, sqrt(det(B B^T)) / d!
    rng = np.random.default_rng(50 + d)
    for _ in range(25):
        points = rng.normal(size=(d + 1, d))
        diffs = points[1:] - points[0]
        oracle = math.sqrt(abs(np.linalg.det(diffs @ diffs.T))) / math.factorial(d)
        if oracle < 1e-3:
            continue
        lengths = [
            float(np.linalg.norm(points[i] - points[j]))
            for i in range(d + 1)
            for j in range(i + 1, d + 1)
        ]
        assert simplex_volume(lengths) == pytest.approx(oracle, rel=1e-8)


@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.integers(0, 16))
@settings(max_examples=200, deadline=None)
def test_near_degenerate_simplices_are_refused_or_measured(d, seed, k):
    # random points pushed toward a line or a plane (the last coordinate
    # scaled by 10^-k); the oracle is the coordinate determinant above.
    # Rounding the lengths alone moves a squared volume by a few units of
    # roundoff of L^(2d), more than 1e-8 of it near the 1e-14 L^(2d) floor
    points = np.random.default_rng(seed).normal(size=(d + 1, d))
    points[:, -1] *= 10.0**-k
    diffs = points[1:] - points[0]
    oracle2 = abs(np.linalg.det(diffs @ diffs.T)) / math.factorial(d) ** 2
    simplex = tuple(range(d + 1))
    edges = {(i, j): float(np.linalg.norm(points[i] - points[j]))
             for i, j in itertools.combinations(simplex, 2)}
    lengths = list(edges.values())
    try:
        volume = simplex_volume(lengths)
    except NondegenerateViolation:
        with pytest.raises(NondegenerateViolation):
            WeightedComplex(d, [simplex], edges)
        return
    roundoff = 16 * np.finfo(float).eps * max(lengths) ** (2 * d)
    assert abs(volume**2 - oracle2) <= 1e-8 * oracle2 + roundoff
    cells = WeightedComplex(d, [simplex], edges).geometry(1).cell_volumes
    assert len(cells) == math.factorial(d + 1) and (cells > 0).all()


def test_volume_invariant_under_relabeling():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(4, 3))
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
        shuffled = points[list(perm)]
        lengths = [
            float(np.linalg.norm(shuffled[i] - shuffled[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        base = [
            float(np.linalg.norm(points[i] - points[j]))
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert simplex_volume(lengths) == pytest.approx(
            simplex_volume(base), rel=1e-9
        )


# ---------------------------------------------------------------------------
# total area


def test_two_triangles_additive():
    complex_ = WeightedComplex(
        2,
        [(0, 1, 2), (3, 4, 5)],
        {
            (0, 1): 1.0, (0, 2): 1.0, (1, 2): math.sqrt(2.0),
            (3, 4): 1.0, (3, 5): 1.0, (4, 5): math.sqrt(2.0),
        },
    )
    assert complex_.geometry(0).total_area() == pytest.approx(1.0)


def test_empty_subpolyhedron_area(circle8_geom):
    assert Subpolyhedron(circle8_geom, ()).whole_measure == (0.0, 0.0)


def test_torus_total_area(torus4_d1):
    # 32 unit right triangles of area 1/2 each
    assert torus4_d1.total_area() == pytest.approx(16.0)


def test_disjoint_union_additivity():
    one = circle(6, 3.0)
    both = WeightedComplex(
        1,
        list(one.simplices) + [(u + 6, v + 6) for u, v in one.simplices],
        {
            **one.edge_lengths,
            **{(u + 6, v + 6): l for (u, v), l in one.edge_lengths.items()},
        },
    )
    assert both.geometry(0).total_area() == pytest.approx(
        2 * one.geometry(0).total_area(), abs=1e-12
    )


# ---------------------------------------------------------------------------
# balls


def ball_of(geometry, center, r):
    """Node ids within graph distance r of the center, the cells all of
    whose nodes are, and the ball's ``reference_measure``."""
    dist = geometry.graph.distances_from(center)
    inside = (dist[geometry.cells_array] <= r).all(axis=1)
    measure = reference_measure(geometry.cells_array, geometry.cell_volumes, dist, r)
    return (set(np.flatnonzero(dist <= r).tolist()),
            set(np.flatnonzero(inside).tolist()), measure)


def test_ball_all_nodes_beyond_diameter(circle8_geom):
    nodes, cells, (volume, boundary) = ball_of(circle8_geom, 0, 2.5)
    assert nodes == set(range(circle8_geom.n_nodes))
    assert len(cells) == len(circle8_geom.cells)
    assert volume == pytest.approx(circle8_geom.total_area())
    assert boundary == 0.0


def test_ball_tiny_radius_is_center_only(circle8_geom):
    nodes, cells, (volume, boundary) = ball_of(circle8_geom, 0, 1e-9)
    assert nodes == {0}
    assert cells == set()
    # the two edges at the center are credited by half each
    assert volume == pytest.approx(boundary / 2) and boundary > 0.0


def test_ball_matches_dijkstra_oracle(torus4_d1):
    oracle = dijkstra_oracle(torus4_d1, 0)
    nodes, cells, _ = ball_of(torus4_d1, 0, 1.0)
    expected = {v for v, d in enumerate(oracle) if d <= 1.0}
    assert nodes == expected
    for cell in cells:
        assert all(oracle[v] <= 1.0 for v in torus4_d1.cells[cell])


def test_graph_distance_matches_oracle(torus4_d1):
    oracle = dijkstra_oracle(torus4_d1, 5)
    computed = torus4_d1.graph.distances_from(5)
    assert np.allclose(computed, oracle)


def test_ball_volume_saturates(torus4_d1):
    assert ball_volume(torus4_d1, 0, 100.0)[0] == pytest.approx(16.0)


def test_ball_volume_vanishes_at_small_radius(torus4_d1):
    value = ball_volume(torus4_d1, 0, 1e-9)[0]
    # only fractional credit from the cells touching the center
    assert value <= torus4_d1.cell_volumes.max() * 7


def test_ball_volume_near_disk_area(torus4):
    geometry = torus4.geometry(3)
    value, boundary = ball_volume(geometry, 0, 1.0)
    assert abs(value - MC_DISK_AREA) / MC_DISK_AREA <= 0.10
    oracle_now = flat_torus_disk_area_mc(4, 1.0)
    assert oracle_now == pytest.approx(MC_DISK_AREA, abs=1e-9)


def test_ball_monotonicity(torus4_d1, circle8_geom):
    rng = random.Random(11)
    for geometry in (torus4_d1, circle8_geom):
        for _ in range(100):
            r1, r2 = sorted(rng.uniform(0.05, 2.0) for _ in range(2))
            if r1 == r2:
                continue
            center = rng.randrange(geometry.n_nodes)
            small_nodes, small_cells, _ = ball_of(geometry, center, r1)
            large_nodes, large_cells, _ = ball_of(geometry, center, r2)
            assert small_nodes <= large_nodes
            assert small_cells <= large_cells
            assert ball_volume(geometry, center, r1)[0] <= (
                ball_volume(geometry, center, r2)[0] + 1e-12
            )


def test_graph_connected_when_complex_is(torus4_d1):
    distances = reference_distances(torus4_d1.graph)
    assert np.isfinite(distances).all()


def test_triangle_inequality(torus4_d1):
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rng.randrange(torus4_d1.n_nodes) for _ in range(3))
        dab = torus4_d1.graph.distances_from(a)[b]
        dbc = torus4_d1.graph.distances_from(b)[c]
        dac = torus4_d1.graph.distances_from(a)[c]
        assert dac <= dab + dbc


def _chain_graph(lengths):
    """Two chains through node 0 with the given arc lengths, in order."""
    side = len(lengths) // 2
    pairs = []
    for first in (1, side + 1):
        chain = [0, *range(first, first + side)]
        pairs.extend(zip(chain, chain[1:]))
    return MetricGraph(2 * side + 1, pairs, lengths), pairs


@pytest.mark.parametrize("name", ["torus4_d2", "genus2_d1", "chains"])
def test_metric_is_exact(name, request):
    # Arcs are rounded up to multiples of one dyadic quantum, so every path
    # sum is exact: distances are symmetric, the triangle inequality and
    # the whole-ball proof hold with no tolerance, and no arc shrinks.
    if name == "chains":
        rng = random.Random(0)
        arc_sets = [[rng.uniform(0.05, 0.15) for _ in range(20)] for _ in range(10)]
        arc_sets.append(
            [1e-17, 1e3, *(10 ** rng.uniform(-17, 3) for _ in range(18))]
        )
        chains = [_chain_graph(lengths) for lengths in arc_sets]
        graphs = [graph for graph, _ in chains]
    elif name == "torus4_d2":
        graphs = [request.getfixturevalue("torus4_d2").graph]
    else:
        graphs = [request.getfixturevalue("genus2").geometry(1).graph]
    rng = np.random.default_rng(5)
    for graph in graphs:
        dist = reference_distances(graph)
        assert (dist == dist.T).all()
        assert (np.fmod(dist, graph.quantum) == 0).all()
        a, b, c = rng.integers(graph.n_nodes, size=(3, 200_000))
        assert (dist[a, c] <= dist[a, b] + dist[b, c]).all()
        ecc = dist.max(axis=1)
        assert (ecc <= graph.reach).all()
        assert all(map(graph.holds_every_node, range(graph.n_nodes), graph.reach))
    if name == "chains":
        for (graph, pairs), lengths in zip(chains, arc_sets):
            # a chain arc is the only path between its ends
            arcs = reference_distances(graph)[tuple(np.array(pairs).T)]
            assert (arcs > 0).all()
            assert (arcs >= lengths).all()
            assert (arcs - lengths < graph.quantum).all()


def test_a_depth_past_physical_memory_is_refused_before_any_allocation():
    # torus(3) has 18 triangles; at depth 40 its cell array alone would
    # take 18 * 6**40 * 3 * 8 bytes, so the request fails before a round
    with pytest.raises(ValueError, match="physical memory"):
        torus(3).geometry(40)
    with pytest.raises(TypeError):
        torus(3).geometry(2.0)


def test_dropped_geometry_is_freed_without_the_cycle_collector():
    # A dropped geometry (with its distance rows) is freed at once.
    complex_ = torus(3)
    geometry = complex_.geometry(1)
    dropped = weakref.ref(geometry)
    gc.disable()
    try:
        del geometry
        assert dropped() is None
    finally:
        gc.enable()


def test_tightened_reach_is_sound_and_order_free():
    # Every computed complete row tightens reach.  Whatever the order the
    # rows arrive in, reach never grows, every ball it proves whole holds
    # p's real row, and all rows end at the same bound.
    finals = []
    for seed in (0, 1):
        graph = torus(3).geometry(1).graph
        n = graph.n_nodes
        ecc = reference_distances(graph).max(axis=1)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        previous = None
        for node in order:
            graph.distances_from(node)
            reach = graph.reach.copy()
            if previous is not None:
                assert (reach <= previous).all()
            for p in range(n):
                for r in (np.nextafter(ecc[p], 0), ecc[p], reach[p], 1.001 * reach[p]):
                    if graph.holds_every_node(p, r):
                        assert ecc[p] <= r
            previous = reach
        anchor = reference_distances(graph, 0)
        assert (previous < anchor + anchor.max()).any()
        assert all(graph.distances_from(p).max() == ecc[p] for p in range(n))
        finals.append(previous)
    assert (finals[0] == finals[1]).all()


def sphere3_at(depth):
    return lambda request: request.getfixturevalue("sphere3").geometry(depth)


def assert_same_arcs(matrix, expected):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(matrix, part), getattr(expected, part))


PORTAL_ROW_FIXTURES = {
    "torus5_small_d3": lambda request: torus(5, scale=0.1).geometry(3),
    "torus4_d2": lambda request: torus(4).geometry(2),
    "torus4_d3": lambda request: torus(4).geometry(3),
    "genus2_d1": lambda request: genus_surface(2).geometry(1),
    "genus3_d2": lambda request: genus_surface(3).geometry(2),
    "circle12_d3": lambda request: circle(12, 6.0).geometry(3),
    "torus3_d0": lambda request: torus(3).geometry(0),
    "torus3_d1": lambda request: torus(3).geometry(1),
    **{f"sphere3_d{depth}": sphere3_at(depth) for depth in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(PORTAL_ROW_FIXTURES))
def test_rows_equal_the_complete_arc_reference(name, request):
    # Rows run Dijkstra over every arc but portal -> interior and fill each
    # block's interior from its portals.  From portal and interior sources,
    # alone and in one batch, at a small limit, a middle one, the
    # eccentricity and none, they are the complete-arc rows cut at the
    # limit, bit for bit.  Depth 0 has no interior node.  The split keeps
    # every chord: its two parts make up the arcs of a graph with no blocks.
    geometry = PORTAL_ROW_FIXTURES[name](request)
    graph = geometry.graph
    block = math.factorial(geometry.dim + 1) ** min(geometry.depth, 2)
    keys, lengths, _, _ = geometry._chords(block)
    pairs = np.column_stack(np.divmod(keys, graph.n_nodes))
    whole = MetricGraph(graph.n_nodes, pairs, lengths)
    assert_same_arcs(complete_arcs(graph), whole._arcs)
    interior = np.unique(graph._interiors)
    portal = np.setdiff1d(np.arange(graph.n_nodes), interior)
    assert (len(interior) > 0) == (name != "torus3_d0")
    rng = np.random.default_rng(3)
    sources = [
        int(node)
        for group in (portal[portal > 0], interior)
        for node in rng.choice(group, size=min(3, len(group)), replace=False)
    ]
    reference = reference_distances(graph, [0, *sources])
    assert np.array_equal(graph.distances_from(0), reference[0])
    reference = reference[1:]
    ecc = float(reference.max())
    for limit in (ecc / 8, ecc / 2, ecc, math.inf):
        cut = np.where(reference <= limit, reference, math.inf)
        assert np.isinf(cut).any() == (limit < ecc)
        for node, expected in zip(sources, cut):
            assert np.array_equal(graph.distances_within(node, limit), expected)
        batch = graph.rows_within(sources, [limit] * len(sources))
        assert np.array_equal(batch, cut)


def test_a_strict_shortcut_stays_a_portal():
    # Node 1 lies only in block {0, 1, 2} but is a strict shortcut there,
    # L(0, 1) + L(1, 2) = 2 < L(0, 2) = 3; node 4 lies only in block
    # {0, 2, 4} but has an arc to node 5, which is in no block.  Both stay
    # portals; node 3, alone in block {0, 2, 3} with 2 + 2 >= 3, is interior.
    pairs = [(0, 1), (1, 2), (0, 2), (0, 3), (2, 3), (0, 4), (2, 4), (4, 5)]
    lengths = [1.0, 1.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5]
    blocks = [[0, 1, 2], [0, 2, 3], [0, 2, 4]]
    graph = MetricGraph(6, pairs, lengths, blocks)
    assert graph._interiors.tolist() == [[3]]
    assert graph._portals.tolist() == [[0], [2]]
    assert_same_arcs(complete_arcs(graph), MetricGraph(6, pairs, lengths)._arcs)
    reference = reference_distances(graph)
    assert reference[0, 2] == 2.0 and reference[5, 4] == 0.5
    for limit in (1.0, 2.5, math.inf):
        cut = np.where(reference <= limit, reference, math.inf)
        rows = graph.rows_within(range(6), [limit] * 6)
        # node 0's row is its complete anchor row at every limit
        assert np.array_equal(rows[0], reference[0])
        assert np.array_equal(rows[1:], cut[1:])
    with pytest.raises(ValueError, match="must be an arc"):
        MetricGraph(3, [(0, 1), (1, 2)], [1.0, 1.0], [[0, 1, 2]])
    with pytest.raises(ValueError, match="must be an arc"):
        MetricGraph(3, [(0, 1)], [1.0], [[0, 1, 2]])


@pytest.mark.parametrize(
    "pairs, lengths, message",
    [
        ([(0, 1), (0, 1)], [1.0, 1.0], "listed twice"),
        ([(0, 1), (1, 2), (1, 0)], [1.0, 1.0, 1.0], "listed twice"),
        ([(0, 1), (2, 2)], [1.0, 1.0], "to itself"),
        ([(0, 3)], [1.0], "not in range"),
        ([(-1, 1)], [1.0], "not in range"),
        ([(0, 1)], [-1.0], "positive and finite"),
        ([(0, 1)], [0.0], "positive and finite"),
        ([(0, 1)], [math.nan], "positive and finite"),
        ([(0, 1)], [math.inf], "positive and finite"),
    ],
)
def test_malformed_arcs_are_refused(pairs, lengths, message, monkeypatch):
    # Each raises before any row is computed: summed duplicate lengths, a
    # distance-0 or unreachable neighbour, or a broken quantum would give
    # wrong rows, and SciPy's Dijkstra never ends on a negative 2-cycle.
    calls = []
    monkeypatch.setattr(complexes, "dijkstra", lambda *args, **kwargs: calls.append(1))
    with pytest.raises(ValueError, match=message):
        MetricGraph(3, pairs, lengths).distances_from(0)
    assert calls == []


@pytest.mark.parametrize(
    "name, radius, step", [("torus4_d2", 1.1, 1), ("torus5_small_d3", 0.03, 7)]
)
def test_table_rows_are_the_reference_rows_cut_at_the_radius(
    name, radius, step, request
):
    # On a small and a large graph, each held row lists exactly the nodes
    # within R, in order, with their exact distances, and its bitset is
    # that ball; a node whose R-ball ``reach`` proves whole holds no row.
    # A new radius drops the table.
    graph = request.getfixturevalue(name).graph
    nodes = list(range(0, graph.n_nodes, step))
    reference = reference_distances(graph, nodes)
    for r in (radius, float(np.median(graph.reach))):
        whole = graph.reach <= r
        graph.tabulate(nodes, r)
        assert graph.radius == r
        assert sorted(graph._table) == [node for node in nodes if not whole[node]]
        for node, row in zip(nodes, reference):
            if whole[node]:
                assert row.max() <= r
                continue
            columns, distances, bits = graph._table[node]
            assert np.array_equal(columns, np.flatnonzero(row <= r))
            assert np.array_equal(distances, row[columns])
            inside = np.packbits(row <= r, bitorder="little")
            assert bits == int.from_bytes(inside, "little")
            # node 0's reads come from its complete anchor row
            cut = row if node == 0 else np.where(row <= r, row, np.inf)
            assert np.array_equal(graph.distances_within(node, r), cut)
        assert whole[nodes].any() == (r > radius)


@pytest.mark.parametrize(
    "make, radius", [(lambda: torus(4), 1.1), (lambda: genus_surface(2), 0.7)],
    ids=["torus4-R1.1", "genus2-R0.7"],
)
def test_each_ball_is_tabulated_once(make, radius, monkeypatch):
    # ``run`` and ``verify`` compute node 0's complete row once, for
    # ``reach``, and tabulate each R-ball at most once, in batches.  V1
    # reads its radius-1 rows from the table when R >= 1 and computes them
    # one call per chunk of balls when R < 1; validate reads each level's
    # certificate rows in one call, and the density and coarea sweeps each
    # tabulate their centers at once.
    from sepfilt.filtration import Filtration, SeparationConfig
    from sepfilt.pipeline import audit_document, inequality_sweep, run_pipeline

    calls = []
    dijkstra = complexes.dijkstra

    def recording(*args, **kwargs):
        calls.append((kwargs.get("limit"), np.atleast_1d(kwargs["indices"]).tolist()))
        return dijkstra(*args, **kwargs)

    def rows_at(limit, start=0):
        return [node for at, nodes in calls[start:] for node in nodes if at == limit]

    monkeypatch.setattr(complexes, "dijkstra", recording)
    config = SeparationConfig(radius=radius, epsilon=0.05, move_budget=10,
                              rng_seed=7, subdivision_depth=1)
    artifacts = run_pipeline(make(), config, samples=40)
    graph = artifacts.filtration.geometry.graph
    assert calls[0] == (None, [0])
    assert sorted(rows_at(radius)) == sorted(graph._table)
    v1_calls = [nodes for limit, nodes in calls if limit == 1.0]
    geometry = artifacts.filtration.geometry
    chunk = min(bounds._CHUNK_BALLS, complexes._BATCH // (8 * geometry.n_nodes))
    assert all(len(nodes) <= chunk for nodes in v1_calls)
    assert bool(v1_calls) == (radius < 1) and len(calls) == 1 + len(
        [limit for limit, _ in calls if limit in (radius, 1.0)])
    calls.clear()
    document = artifacts.filtration_document()
    base = WeightedComplex.from_json(document["complex"])
    checked = Filtration.from_json(base.geometry(1), document)
    assert checked.validate()
    audit_document(checked, document)
    centers = {cert.center for level in checked.levels for cert in level.certificates}
    rows = [nodes for limit, nodes in calls if limit is not None]
    assert len(rows) <= len(checked.levels)
    assert all(set(nodes) <= centers for nodes in rows)
    certificates = len(calls)
    inequality_sweep(checked, 400, 101)
    assert 0 < len(calls) - certificates <= 2
    assert [call for call in calls if call[0] != radius] == [(None, [0])]
    assert sorted(rows_at(radius, certificates)) == sorted(
        checked.geometry.graph._table)


def test_refinement_convergence(torus3):
    # frozen configuration: center 0, radius 1.0; deltas shrink monotonically
    volumes = [ball_volume(torus3.geometry(depth), 0, 1.0)[0]
               for depth in (1, 2, 3, 4)]
    deltas = [abs(volumes[i + 1] - volumes[i]) for i in range(3)]
    assert deltas[0] >= deltas[1] >= deltas[2]


# ---------------------------------------------------------------------------
# construction validation


def test_missing_edge_rejected():
    with pytest.raises(ValueError):
        WeightedComplex(1, [(0, 1)], {})


def test_metric_violating_triangle_rejected():
    with pytest.raises(NondegenerateViolation):
        WeightedComplex(2, [(0, 1, 2)], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 2.0})


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        WeightedComplex(2, [(0, 1)], {(0, 1): 1.0})


@pytest.mark.parametrize(
    "simplex, key",
    [((0, 1.7), (0, 1)), ((0, "1"), (0, 1)), ((0, 1), (0, 1.0)),
     ((0, 1), ("0", 1))],
    ids=["simplex-float", "simplex-str", "edge-float", "edge-str"],
)
def test_non_integer_vertex_ids_rejected(simplex, key):
    # int() would silently turn 1.7 into 1 and "1" into 1
    with pytest.raises(TypeError):
        WeightedComplex(1, [simplex, (1, 0)], {key: 1.0})


def test_json_round_trip(torus4):
    clone = WeightedComplex.from_json(torus4.to_json())
    assert clone.simplices == torus4.simplices
    assert clone.edge_lengths == torus4.edge_lengths
    assert clone.metadata == torus4.metadata


@pytest.mark.parametrize("kind", ["geometry", "subpolyhedron"])
def test_subpolyhedron_validation(torus4_d1, kind):
    # node 0 and the node farthest from it share no cell, hence no face
    far = int(np.argmax(torus4_d1.graph.distances_from(0)))
    edge = next(cell[:2] for cell in torus4_d1.cells if cell[0] == 0)
    if kind == "geometry":
        parent, facet, wrong_arity, non_face = torus4_d1, edge, (0,), (0, far)
    else:
        parent = Subpolyhedron(torus4_d1, [edge])
        facet, wrong_arity, non_face = (0,), edge, (far,)
    assert Subpolyhedron(parent, [facet]).cells == (facet,)
    with pytest.raises(DimensionMismatch, match="is not a"):
        Subpolyhedron(parent, [facet, wrong_arity])
    with pytest.raises(DimensionMismatch, match="not a face of the parent"):
        Subpolyhedron(parent, [facet, non_face])


def test_node_barycentric_coordinates(circle8_geom):
    from fractions import Fraction

    support = circle8_geom.node_barycentric(0)
    assert support == {0: Fraction(1)}


def test_generated_surfaces_euler_characteristic(torus4_d1, genus2):
    def euler(geometry):
        edges = {
            face for cell in geometry.cells for face in
            [(cell[0], cell[1]), (cell[0], cell[2]), (cell[1], cell[2])]
        }
        return geometry.n_nodes - len(edges) + len(geometry.cells)

    assert euler(torus4_d1) == 0
    assert euler(genus2.geometry(0)) == -2


def test_generated_surfaces_closed(genus2):
    geometry = genus2.geometry(0)
    counts = {}
    for cell in geometry.cells:
        for face in [(cell[0], cell[1]), (cell[0], cell[2]), (cell[1], cell[2])]:
            counts[face] = counts.get(face, 0) + 1
    assert set(counts.values()) == {2}


def test_circle_distances_exact(circle8_geom):
    # 16 nodes spaced 0.25 around a circumference-4 circle: the distance
    # multiset from any node is 0, two of each arc length, then 2.0
    dist = sorted(circle8_geom.graph.distances_from(0).tolist())
    expected = sorted(
        [0.0, 2.0] + [0.25 * k for k in range(1, 8) for _ in range(2)]
    )
    assert dist == pytest.approx(expected, abs=1e-12)


# sha256 of the subdivision's cells, ancestry, volumes, diameter, chord
# arcs (CSR arrays) and exact node coordinates.  Depth 3 is the first depth
# whose chord scope is not the original simplex, and the 3-sphere rows are
# the only n > 2 geometry pinned.  Re-pinned once when arc lengths were
# rounded up to the metric graph's dyadic quantum; circle12 kept its digest,
# as its arcs were multiples of the quantum already.
GEOMETRY_DIGESTS = {
    ("circle12", 3): "bd37fcef6c51439caa0f2fe7234365082beea1271c13007353803c597ef9bffc",
    ("torus3", 0): "aac0257272f728f2f11e208c0a2bf4cbfa22b2e3e14c7dca47bbe48afd8ab36c",
    ("torus3", 3): "c75d3f51e3e4f994397267d3a68321d2597244eaf27e3ec921458421b770a4f0",
    # search-torus's geometry
    ("torus4", 2): "b1b4bab229ec1f9319ffa1457a5eca3862a267f84c17819eadc5d5e072c3838c",
    # vanish-large's: 300 blocks of 25 members, none of them an original simplex
    ("torus5_small", 3): "0b8cb2af355aa31a70fd13a207c402278dde329ffabc2e4e7582b2d175b7274f",
    ("genus2", 1): "d1c5e11c72b6c139c8caee334140033082e4228fbd2c3299648633d86ae7146d",
    ("sphere3", 0): "0d2eeb37b02b268c68c07e83dc1b058068e3070a1a45df60e9c72d299c1bd0e1",
    ("sphere3", 1): "5af8d3f493085ecf56f1f8243c254efa080a4b79acbce7c2401f82a6c7d0d7ff",
    ("sphere3", 2): "5c6b854f34819c8056333638982f79b00526af2b7d765e2e4802fd5a6c80d032",
}


@pytest.mark.parametrize("name, depth", sorted(GEOMETRY_DIGESTS))
def test_geometry_digest_is_pinned(name, depth, request):
    import hashlib

    complex_ = {
        "circle12": lambda: circle(12, 6.0),
        "torus3": lambda: torus(3),
        "torus4": lambda: torus(4),
        "torus5_small": lambda: torus(5, scale=0.1),
        "genus2": lambda: genus_surface(2),
        "sphere3": lambda: request.getfixturevalue("sphere3"),
    }[name]()
    geometry = complex_.geometry(depth)
    arcs = complete_arcs(geometry.graph)
    digest = hashlib.sha256()
    for array in (
        geometry.cells_array,
        geometry.cell_orig,
        geometry.cell_volumes,
        np.float64(geometry.max_cell_diameter),
        arcs.indptr,
        arcs.indices,
        arcs.data,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    for node in range(geometry.n_nodes):
        coords = sorted(geometry.node_barycentric(node).items())
        digest.update(repr(coords).encode())
    assert digest.hexdigest() == GEOMETRY_DIGESTS[(name, depth)]
