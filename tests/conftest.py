import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from sepfilt import WeightedComplex, bounds, complexes
from sepfilt.filtration import SeparationConfig, build_filtration
from sepfilt.generators import circle, genus_surface, torus


def complete_arcs(graph):
    """Every arc of the graph as one canonical CSR matrix: the Dijkstra
    graph's arcs and the portal -> interior arcs of the block tables (whose
    padding repeats an arc, kept once)."""
    arcs = graph._arcs.tocoo()
    lengths = graph._portal_lengths
    heads = np.broadcast_to(graph._portals[:, :, None], lengths.shape).ravel()
    tails = np.broadcast_to(graph._interiors[None, :, :], lengths.shape).ravel()
    _, once = np.unique(heads * graph.n_nodes + tails, return_index=True)
    return csr_matrix(
        (
            np.concatenate([arcs.data, lengths.ravel()[once]]),
            (np.concatenate([arcs.row, heads[once]]),
             np.concatenate([arcs.col, tails[once]])),
        ),
        shape=arcs.shape,
    )


def reference_distances(graph, nodes=None):
    """The complete distance rows of the given nodes (all by default) from
    one SciPy call on all the graph's arcs: the reference the graph's own
    rows are compared with."""
    return dijkstra(complete_arcs(graph), indices=nodes)


def credited_volumes(cells, volumes):
    """The volumes rounded up to multiples of the quantum q = 2^(e + b -
    53), where 2^e > their float total >= 2^(e - 1) and 2^b > the cells'
    node count >= 2^(b - 1): the integers k with k q the rounded volume,
    and q as a Fraction."""
    e = math.frexp(float(volumes.sum()))[1]
    quantum = math.ldexp(1.0, e + cells.shape[1].bit_length() - 53)
    # dividing by a power of two is exact
    units = [math.ceil(volume / quantum) for volume in volumes.tolist()]
    return units, Fraction(quantum)


def reference_measure(cells, volumes, dist, r):
    """(measure, boundary credit) of cells inside the ball ``dist <= r``,
    one ball at a time and in exact arithmetic: the formula the package's
    measure evaluates.

    ``cells`` is an array of node-id rows with matching ``volumes``, which
    are first rounded up as ``credited_volumes``.  A cell with k of its
    n + 1 nodes inside counts k / (n + 1) of its volume: the sum of
    k x volume is taken exactly, divided by n + 1 once and rounded to a
    float.  The boundary credit is the total volume of the partially
    counted cells.
    """
    counts = (dist[cells] <= r).sum(axis=1).tolist()
    size = cells.shape[1]
    units, quantum = credited_volumes(cells, volumes)
    measure = sum(count * unit for count, unit in zip(counts, units))
    credit = sum(unit for count, unit in zip(counts, units) if 0 < count < size)
    return float(measure * quantum / size), float(credit * quantum)


def ball_volume(geometry, center, r):
    """(volume, boundary credit) of B(center, r) as the package measures a
    ball: whole when ``holds_every_node`` proves it, else from its row."""
    graph = geometry.graph
    centers, radii = np.array([center]), np.array([float(r)])
    whole = graph.holds_every_node(centers, radii)
    rows = graph.rows_within(centers, np.where(whole, -1.0, radii))
    return bounds._measures(geometry, rows, radii, whole)[0]


def row_source(graph, mode, monkeypatch, radius=None):
    """Set where the graph's rows come from, for a "dense"/"rowwise" pair.

    "dense": the ball table is named at ``radius`` (when given), so reads
    out to it of balls not proven whole come from the table, filled in
    batches of many rows each; pick a radius some ball is not proven whole
    at, or the table stays empty.
    "rowwise": no table is named and a batch is one row, so every row,
    tabulated or not, comes from its own single-row call."""
    if mode == "rowwise":
        monkeypatch.setattr(complexes, "_BATCH", 1)
    elif radius is not None:
        graph.tabulate([], radius)


@pytest.fixture(scope="session")
def circle8():
    return circle(8, 4.0)


@pytest.fixture(scope="session")
def circle8_geom(circle8):
    return circle8.geometry(1)


@pytest.fixture(scope="session")
def torus4():
    return torus(4)


@pytest.fixture(scope="session")
def torus4_d1(torus4):
    return torus4.geometry(1)


@pytest.fixture(scope="session")
def torus4_d2(torus4):
    return torus4.geometry(2)


@pytest.fixture(scope="session")
def torus5_small_d3():
    # 5,400 nodes: the large graph of the ball table tests
    return torus(5, scale=0.1).geometry(3)


@pytest.fixture(scope="session")
def torus3():
    return torus(3)


@pytest.fixture(scope="session")
def genus2():
    return genus_surface(2)


@pytest.fixture(scope="session")
def sphere3():
    # the 3-sphere as the boundary of the unit-edge 4-simplex
    return WeightedComplex(
        3,
        list(itertools.combinations(range(5), 4)),
        {pair: 1.0 for pair in itertools.combinations(range(5), 2)},
    )


@pytest.fixture(scope="session")
def circle_filtration(circle8_geom):
    config = SeparationConfig(
        radius=1.0, epsilon=0.05, move_budget=10, rng_seed=0, subdivision_depth=1
    )
    return build_filtration(circle8_geom, config)


@pytest.fixture(scope="session")
def torus_filtration_d1(torus4_d1):
    config = SeparationConfig(
        radius=1.1, epsilon=0.05, move_budget=15, rng_seed=3, subdivision_depth=1
    )
    return build_filtration(torus4_d1, config)


@pytest.fixture(scope="session")
def torus_filtration_d2(torus4_d2):
    # the acceptance fixture: side 4, R = 1, depth 2
    config = SeparationConfig(
        radius=1.0, epsilon=0.05, move_budget=40, rng_seed=7, subdivision_depth=2
    )
    return build_filtration(torus4_d2, config)


@pytest.fixture(scope="session")
def tiny_torus():
    # rescaled so the whole complex sits far inside one unit ball
    return torus(4, scale=0.15)


@pytest.fixture(scope="session")
def tiny_torus_filtration(tiny_torus):
    config = SeparationConfig(
        radius=1.0, epsilon=0.01, move_budget=5, rng_seed=1, subdivision_depth=2
    )
    return build_filtration(tiny_torus.geometry(2), config)


@pytest.fixture(scope="session")
def small_genus_filtration():
    geometry = genus_surface(2, scale=0.1).geometry(1)
    config = SeparationConfig(
        radius=0.07, epsilon=0.05, move_budget=10, rng_seed=7, subdivision_depth=1
    )
    return build_filtration(geometry, config)
