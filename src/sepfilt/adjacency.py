"""Dual adjacency of top cells, components under face blocking, ball fitting.

Two d-cells of a pure complex communicate through any shared face whose
relative interior is not covered by a blocking (d-1)-cell set; a face is
covered exactly when it is a face of some blocking cell.  Components of the
complement of a candidate separating set are computed with this passage
rule, which matches point-set connectivity of the underlying polyhedron.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def proper_subfaces(cell):
    """All proper nonempty subfaces of a simplex given as a sorted tuple."""
    out = []
    for size in range(1, len(cell)):
        out.extend(itertools.combinations(cell, size))
    return out


class CellSystem:
    """Face incidence tables for a list of top cells of one dimension.

    This class owns the passage rule: a face blocks passage exactly when it
    lies in a blocked facet, which ``cover_counts`` records.
    """

    def __init__(self, cells):
        self.cells = tuple(tuple(sorted(cell)) for cell in cells)
        if self.cells:
            arity = {len(cell) for cell in self.cells}
            if len(arity) != 1:
                raise ValueError("cells of mixed dimension")
            self.dim = arity.pop() - 1
        else:
            self.dim = -1
        self.cell_nodes = np.array(self.cells, dtype=np.int64).reshape(
            len(self.cells), self.dim + 1
        )
        # face -> indices of cells containing it, for every dimension < dim
        self.face_cofaces = {}
        for index, cell in enumerate(self.cells):
            for face in proper_subfaces(cell):
                self.face_cofaces.setdefault(face, []).append(index)
        self.facets = sorted(
            face for face in self.face_cofaces if len(face) == self.dim
        )
        # facet -> the facet, then its proper subfaces: what it blocks
        self._closures = {
            facet: (facet, *proper_subfaces(facet)) for facet in self.facets
        }
        # each face joins its first coface to every other one
        self._pair_faces, pairs = [], []
        for face, cofaces in self.face_cofaces.items():
            for other in cofaces[1:]:
                self._pair_faces.append(face)
                pairs.append((cofaces[0], other))
        self._pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    def cover_counts(self, blocked):
        """Per face, how many facets of ``blocked`` contain it (itself too).

        A face blocks passage exactly when its count is positive.
        """
        return collections.Counter(
            itertools.chain.from_iterable(map(self._closures.__getitem__, blocked))
        )

    def opened_cells(self, facet, counts):
        """Cells around the faces that only ``facet`` blocks, face by face.

        ``counts`` are the cover counts of a blocked set holding ``facet``.
        """
        return [
            cell
            for face in self._closures[facet]
            if counts[face] == 1
            for cell in self.face_cofaces[face]
        ]

    def components(self, blocked):
        """Component label per cell when the given facet set blocks passage.

        The label of a cell is the smallest cell index in its component.
        ``blocked`` holds facets of ``self.facets`` as they are (sorted
        tuples); anything else raises ``KeyError``.
        """
        covered = self.cover_counts(blocked)
        passable = np.array(
            [face not in covered for face in self._pair_faces], dtype=bool
        )
        rows, cols = self._pairs[:, passable]
        size = len(self.cells)
        graph = coo_matrix((np.ones(rows.size), (rows, cols)), (size, size))
        _, labels = connected_components(graph, directed=False)
        _, smallest = np.unique(labels, return_index=True)
        return smallest[labels].tolist()

    def component_groups(self, blocked):
        """List of components, each a sorted tuple of cell indices."""
        labels = self.components(blocked)
        groups = {}
        for index, label in enumerate(labels):
            groups.setdefault(label, []).append(index)
        return [tuple(groups[key]) for key in sorted(groups)]

    def cut_facets(self, side):
        """Facets whose cofaces do not all have the same ``side[cell]``."""
        return [
            facet
            for facet in self.facets
            if len({side[cell] for cell in self.face_cofaces[facet]}) > 1
        ]

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


def fit_in_ball(geometry, nodes, radius, hint=None, eccs=None):
    """Search for a graph node whose eccentricity over ``nodes`` is <= radius.

    Centers may be any node of the ambient complex.  They are tried in one
    fixed order: the hint, then the members of ``nodes`` by their two-sweep
    proxy (largest distance to the two sweep ends, ties by position), then
    every other node by id; the first whose eccentricity is <= radius is the
    center.  When the two sweep ends are more than 2 radius apart no center
    can work, and that pair is the witness.  Otherwise a failure reports the
    minimum-eccentricity center (lowest id first) and its farthest member.

    ``eccs``, when given, is called at most once, only if the exact pass is
    reached, and must return ``geometry.graph.eccentricities(nodes)``.
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

    eccs = graph.eccentricities(nodes) if eccs is None else eccs()
    fitting = members[eccs[members] <= radius]
    if fitting.size == 0:
        fitting = np.flatnonzero(eccs <= radius)
    if fitting.size:
        center = int(fitting[0])
        return BallFit(True, center, float(eccs[center]))
    best = int(np.argmin(eccs))
    farthest = int(nodes[int(np.argmax(graph.distances_from(best)[nodes]))])
    return BallFit(False, best, float(eccs[best]), (best, farthest))
