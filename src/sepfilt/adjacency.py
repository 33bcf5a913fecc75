"""Dual adjacency of top cells, components under face blocking, ball fitting.

Two d-cells of a pure complex communicate through any shared face whose
relative interior is not covered by a blocking (d-1)-cell set; a face is
covered exactly when it is a face of some blocking cell.  Components of the
complement of a candidate separating set are computed with this passage
rule, which matches point-set connectivity of the underlying polyhedron.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def row_groups(rows):
    """A stable lexicographic order of the rows of an integer array, and
    the positions in that order where each distinct row starts.

    Row ``order[starts[k]]`` is the first occurrence of the k-th distinct
    row, and ``order[starts[k]:starts[k + 1]]`` lists all its occurrences
    in increasing position.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(new)


def shared_tuples(rows, objects):
    """The rows of a 2-D index array as tuples of ``objects[i]``: equal ids
    share one Python object instead of each getting an int of its own."""
    return list(zip(*(map(objects.__getitem__, column) for column in rows.T.tolist())))


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
        # face -> indices of cells containing it, for every dimension < dim,
        # keyed in the order a walk over the cells (each cell's subfaces by
        # size, then lexicographically) first meets each face; cofaces
        # ascend.  Faces are gathered one size at a time: ``members`` lists
        # every face's cofaces, face after face, from ``starts[face]`` on.
        width = self.dim + 1
        per_cell = 2**width - 2
        nodes = list(range(int(self.cell_nodes.max(initial=-1)) + 1))
        faces, walk, starts, members = [], [], [], []
        offset = occurrences = 0
        for size in range(1, width):
            columns = list(itertools.combinations(range(width), size))
            rows = self.cell_nodes[:, columns].reshape(-1, size)
            order, first = row_groups(rows)
            cell, column = np.divmod(order[first], len(columns))
            walk.append(cell * per_cell + offset + column)
            starts.append(first + occurrences)
            members.append(order // len(columns))
            offset += len(columns)
            occurrences += len(rows)
            unique = rows[order[first]]
            faces.extend(shared_tuples(unique, nodes))
        walk, starts, members = (
            np.concatenate([np.empty(0, np.int64), *parts])
            for parts in (walk, starts, members)
        )
        counts = np.diff(starts, append=len(members))
        by_walk = np.argsort(walk)
        indices = list(range(len(self.cells)))
        listed = list(map(indices.__getitem__, members.tolist()))
        lo, hi = starts.tolist(), (starts + counts).tolist()
        self.face_cofaces = {
            faces[face]: listed[lo[face] : hi[face]] for face in by_walk.tolist()
        }
        # distinct rows come in lexicographic order, so the faces of the
        # last size are the facets, sorted
        self.facets = faces[len(faces) - len(unique) :] if self.dim > 0 else []
        # facet -> the facet, then its proper subfaces: what it blocks
        self._closures = dict(
            zip(
                self.facets,
                zip(
                    self.facets,
                    *(
                        shared_tuples(unique[:, list(subset)], nodes)
                        for size in range(1, self.dim)
                        for subset in itertools.combinations(range(self.dim), size)
                    ),
                ),
            )
        )
        # each face, in dict order, joins its first coface to every other one
        repeats = counts[by_walk] - 1
        pair_face = np.repeat(by_walk, repeats)
        head = starts[pair_face]
        # the k-th pair of a face pairs its first coface with its (k+1)-th
        k = np.arange(len(pair_face)) - np.repeat(np.cumsum(repeats) - repeats, repeats)
        self._pair_faces = [faces[face] for face in pair_face.tolist()]
        self._pairs = np.array([members[head], members[head + k + 1]])

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
        labels = np.asarray(self.components(blocked), dtype=np.int64)
        order = np.argsort(labels, kind="stable")
        cuts = (np.flatnonzero(np.diff(labels[order])) + 1).tolist()
        cells = order.tolist()
        return [
            tuple(cells[a:b]) for a, b in zip([0, *cuts], [*cuts, len(cells)])
        ] if cells else []

    @functools.cached_property
    def _facet_cofaces(self):
        """Every facet's cofaces, facet after facet; where each facet's
        run starts, and how long it is."""
        cofaces = list(map(self.face_cofaces.__getitem__, self.facets))
        counts = np.array(list(map(len, cofaces)), dtype=np.int64)
        members = np.array(list(itertools.chain.from_iterable(cofaces)), np.int64)
        return members, np.cumsum(counts) - counts, counts

    def cut_facets(self, side):
        """Facets whose cofaces do not all have the same ``side[cell]``."""
        if not self.facets:
            return []
        members, starts, counts = self._facet_cofaces
        values = np.asarray(side)[members]
        differs = values != np.repeat(values[starts], counts)
        cut = np.logical_or.reduceat(differs, starts)
        return [self.facets[i] for i in np.flatnonzero(cut).tolist()]

    def group_nodes(self, group):
        return np.unique(self.cell_nodes[list(group)])


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
