"""Dual adjacency of top cells, components under face blocking, ball fitting.

Two d-cells of a pure complex communicate through any shared face whose
relative interior is not covered by a blocking (d-1)-cell set; a face is
covered exactly when it is a face of some blocking cell.  Components of the
complement of a candidate separating set are computed with this passage
rule, which matches point-set connectivity of the underlying polyhedron.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def proper_subfaces(cell):
    """All proper nonempty subfaces of a simplex given as a sorted tuple."""
    out = []
    for size in range(1, len(cell)):
        out.extend(itertools.combinations(cell, size))
    return out


class CellSystem:
    """Face incidence tables for a list of top cells of one dimension."""

    def __init__(self, cells):
        self.cells = tuple(tuple(sorted(cell)) for cell in cells)
        if self.cells:
            arity = {len(cell) for cell in self.cells}
            if len(arity) != 1:
                raise ValueError("cells of mixed dimension")
            self.dim = arity.pop() - 1
        else:
            self.dim = -1
        self.cell_nodes = [np.array(cell, dtype=np.int64) for cell in self.cells]
        # face -> indices of cells containing it, for every dimension < dim
        self.face_cofaces = {}
        for index, cell in enumerate(self.cells):
            for face in proper_subfaces(cell):
                self.face_cofaces.setdefault(face, []).append(index)
        self.facets = sorted(
            face for face in self.face_cofaces if len(face) == self.dim
        )

    def facet_set(self):
        return set(self.facets)

    def components(self, blocked):
        """Component label per cell when the given facet set blocks passage.

        A face of any dimension permits passage unless it is a face of some
        blocked facet (including the facet itself).
        """
        blocked = {tuple(sorted(face)) for face in blocked}
        covered = set(blocked)
        for facet in blocked:
            covered.update(proper_subfaces(facet))
        uf = UnionFind(len(self.cells))
        for face, cofaces in self.face_cofaces.items():
            if len(cofaces) > 1 and face not in covered:
                first = cofaces[0]
                for other in cofaces[1:]:
                    uf.union(first, other)
        labels = [uf.find(i) for i in range(len(self.cells))]
        return labels

    def component_groups(self, blocked):
        """List of components, each a sorted tuple of cell indices."""
        labels = self.components(blocked)
        groups = {}
        for index, label in enumerate(labels):
            groups.setdefault(label, []).append(index)
        return [tuple(groups[key]) for key in sorted(groups)]

    def group_nodes(self, group):
        nodes = set()
        for index in group:
            nodes.update(self.cells[index])
        return np.array(sorted(nodes), dtype=np.int64)


@dataclass(frozen=True)
class BallFit:
    """Witness that a node set fits in (or escapes) every radius-R ball."""

    fits: bool
    center: int | None
    radius: float
    witness_pair: tuple | None = None


def fit_in_ball(geometry, nodes, radius, hint=None):
    """Search for a graph node whose eccentricity over ``nodes`` is <= radius.

    Centers may be any node of the ambient complex.  They are tried in one
    fixed order: the hint, then the members of ``nodes`` by their two-sweep
    proxy (largest distance to the two sweep ends, ties by position), then
    every other node by id; the first whose eccentricity is <= radius is the
    center.  When the two sweep ends are more than 2 radius apart no center
    can work, and that pair is the witness.  Otherwise a failure reports the
    minimum-eccentricity center (lowest id first) and its farthest member.
    """
    graph = geometry.graph
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return BallFit(True, None, 0.0)

    def ecc(center):
        return float(graph.distances_from(center)[nodes].max())

    if hint is not None:
        e = ecc(hint)
        if e <= radius:
            return BallFit(True, int(hint), e)

    d_first = graph.distances_from(int(nodes[0]))[nodes]
    far_a = int(nodes[int(np.argmax(d_first))])
    d_a = graph.distances_from(far_a)[nodes]
    far_b = int(nodes[int(np.argmax(d_a))])
    if float(d_a.max()) > 2.0 * radius:
        # diameter bound: no center can work
        return BallFit(False, far_a, float(d_a.max()), (far_a, far_b))
    d_b = graph.distances_from(far_b)[nodes]
    members = nodes[np.argsort(np.maximum(d_a, d_b), kind="stable")]
    e = ecc(int(members[0]))
    if e <= radius:
        return BallFit(True, int(members[0]), e)

    eccs = graph.eccentricities(nodes)
    fitting = members[eccs[members] <= radius]
    if fitting.size == 0:
        fitting = np.flatnonzero(eccs <= radius)
    if fitting.size:
        center = int(fitting[0])
        return BallFit(True, center, float(eccs[center]))
    best = int(np.argmin(eccs))
    farthest = int(nodes[int(np.argmax(graph.distances_from(best)[nodes]))])
    return BallFit(False, best, float(eccs[best]), (best, farthest))
