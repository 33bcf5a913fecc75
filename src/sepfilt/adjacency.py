"""Dual adjacency of top cells, components under face blocking, ball fitting.

Two d-cells of a pure complex communicate through any shared face whose
relative interior is not covered by a blocking (d-1)-cell set; a face is
covered exactly when it is a face of some blocking cell.  Components of the
complement of a candidate separating set are computed with this passage
rule, which matches point-set connectivity of the underlying polyhedron.
``CellSystem`` numbers every face of a cell list once, and its incidence
tables and queries are integer arrays over those face ids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def subdivision_flags(n):
    """Index tables for the barycentric subdivision of an n-simplex.

    Returns the nonempty subsets of its vertices ``range(n + 1)``, by size
    and then lexicographically, and an array with one row per permutation
    of the vertices (in ``itertools.permutations`` order): the indices
    among those subsets of the permutation's n + 1 prefixes, each sorted.
    Such a flag of faces spans one n-simplex of the subdivision; its first
    index is the permutation's first vertex, as singletons come first.
    This is the one face-subset order: ``CellSystem.cell_faces`` and
    ``closures`` list faces in it, and the census reads its flags.
    """
    subsets = [
        subset
        for size in range(1, n + 2)
        for subset in itertools.combinations(range(n + 1), size)
    ]
    index = {subset: k for k, subset in enumerate(subsets)}
    flags = np.array(
        [
            [index[tuple(sorted(perm[: j + 1]))] for j in range(n + 1)]
            for perm in itertools.permutations(range(n + 1))
        ]
    )
    return subsets, flags


def row_groups(rows):
    """A stable lexicographic order of the rows of an integer array, and
    the positions in that order where each distinct row starts.

    Row ``order[starts[k]]`` is the first occurrence of the k-th distinct
    row, and ``order[starts[k]:starts[k + 1]]`` lists all its occurrences
    in increasing position.  When the rows' entries, less the smallest,
    and the row positions fit side by side in 63 bits, each row is one
    int64 key, its first entry in the highest bits and its position in the
    lowest, and one plain sort of the keys orders the rows stably (several
    times faster than a stable argsort); otherwise ``np.lexsort`` sorts
    column by column.
    """
    count, width = rows.shape
    low = int(rows.min(initial=0))
    bits = (int(rows.max(initial=0)) - low).bit_length()
    position_bits = max(count - 1, 0).bit_length()
    if bits * width + position_bits <= 63:
        keys = np.zeros(count, dtype=np.int64)
        for column in rows.T:
            keys <<= bits
            keys |= column - low
        keys <<= position_bits
        keys |= np.arange(count)
        keys.sort()
        return keys & ((1 << position_bits) - 1), run_starts(keys >> position_bits)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(count, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.flatnonzero(new)


def group_ids(order, starts):
    """Each row's group index, from ``row_groups``' order and starts: rows
    equal to the k-th distinct row read k (a running count of the starts
    along the order)."""
    step = np.zeros(len(order), dtype=np.int64)
    step[starts[1:]] = 1
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(step, out=step)
    return ids


def run_starts(values):
    """The positions where each run of equal values of a 1-D array starts:
    0 and each position whose value differs from the one before."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def distinct(values):
    """The distinct values of an integer array, flattened, ascending: one
    sort, each value kept where it differs from the one before.  NumPy
    2.4's ``np.unique`` takes a hash path on int64 values instead, several
    times slower on the few thousand a prune state groups."""
    values = np.sort(values, axis=None)
    return values[run_starts(values)]


class CellSystem:
    """Face incidence tables for a list of top cells of one dimension.

    Every face of the cells has one integer id.  The faces of each size get
    consecutive ids, from the facets (size ``dim``) down to the nodes, each
    size's distinct node rows in lexicographic order; the cells follow, in
    their given order.  So facet k has id k.  The tables are arrays over
    these ids:

    - ``face_rows[size]``: the sorted node rows of one size's faces, in id
      order; ``offsets[size]`` is the id of the first;
    - ``coface_ptr``, ``coface_cells``: each proper face's cofaces,
      ascending, from ``coface_cells[coface_ptr[face]]`` on;
    - ``closures``: per facet, its own id and then those of its proper
      subfaces in the order of ``subdivision_flags``'s subsets: the faces
      it blocks;
    - ``cell_faces``: per cell, the ids of its faces, the cell last, in the
      order of ``subdivision_flags``'s subsets;
    - ``dual_ptr``, ``dual_cells``, ``dual_faces``: the dual graph as
      symmetric int32 CSR rows, cell ``c``'s neighbours ascending from
      ``dual_cells[dual_ptr[c]]`` on, each with the id of the face that
      joins them in ``dual_faces``.  Each proper face joins its first
      coface to each other one, both ways; where several faces join the
      same two cells, one row keeps the largest of them, the smallest id.
      That face is the two cells' whole common face: the faces joining
      them all lie in it, and every cell that holds it holds them, so it
      has their first coface and joins the two cells too.  A face that
      contains an uncovered face is uncovered, so the kept face is
      passable exactly when one of the merged ones is, and no component
      changes.  No row repeats a column: SciPy 1.17's strong-components
      routine never returns on a row that does;
    - ``node_bound``: one above the largest node id of the cells.

    ``closure_lists`` and ``coface_lists`` give the same closures and
    cofaces as Python lists, for loops over a few faces at a time.

    This class owns the passage rule: a face blocks passage exactly when it
    lies in a blocked facet, which ``cover`` counts.
    """

    def __init__(self, cells):
        cell_nodes = np.asarray(cells, dtype=np.int64)
        if cell_nodes.ndim == 1:  # no cells
            cell_nodes = cell_nodes.reshape(0, 0)
        self.cell_nodes = np.sort(cell_nodes, axis=1)
        n_cells, width = self.cell_nodes.shape
        self.dim = width - 1
        subsets, _ = subdivision_flags(self.dim)
        self.cell_faces = np.empty((n_cells, len(subsets)), dtype=np.int64)
        self.face_rows, self.offsets = {}, {}
        starts, members = [], []
        offset = occurrences = 0
        for size in range(width - 1, 0, -1):
            # every cell's faces of one size, grouped into distinct rows
            columns = [k for k, subset in enumerate(subsets) if len(subset) == size]
            rows = self.cell_nodes[:, [subsets[k] for k in columns]].reshape(-1, size)
            order, first = row_groups(rows)
            ids = group_ids(order, first)
            self.cell_faces[:, columns] = offset + ids.reshape(n_cells, len(columns))
            self.face_rows[size] = rows[order[first]]
            self.offsets[size] = offset
            starts.append(first + occurrences)
            members.append(order // len(columns))
            offset += len(first)
            occurrences += len(rows)
        self.face_rows[width] = self.cell_nodes
        self.offsets[width] = offset
        self.cell_faces[:, len(subsets) - 1 :] = offset + np.arange(n_cells)[:, None]
        self.n_faces = offset + n_cells
        self.coface_ptr = np.concatenate([*starts, [occurrences]]).astype(np.int64)
        self.coface_cells = np.concatenate([np.empty(0, np.int64), *members])
        self.facets = self.face_rows.get(self.dim, np.empty((0, 0), np.int64))
        # the proper subfaces: every node subset but the last, the whole facet
        self.closures = np.column_stack(
            [np.arange(len(self.facets))]
            + [self.face_ids(self.facets[:, list(subset)])
               for subset in subdivision_flags(self.dim - 1)[0][:-1]]
        )
        self.node_bound = int(self.cell_nodes.max(initial=0)) + 1
        # each proper face joins its first coface to every other one, both
        # ways; a cell pair (a, b) comes from one half of the concatenation
        # only, with its faces ascending, so a stable grouping of the pairs
        # puts each pair's smallest face first
        repeats = np.diff(self.coface_ptr) - 1
        faces = np.repeat(np.arange(len(repeats)), repeats)
        other = self.coface_ptr[faces]
        first = self.coface_cells[other]
        other += np.arange(len(other)) - np.repeat(np.cumsum(repeats) - repeats, repeats)
        other = self.coface_cells[other + 1]
        pairs = np.column_stack([np.concatenate([first, other]),
                                 np.concatenate([other, first])])
        order, starts = row_groups(pairs)
        kept = order[starts]
        self.dual_faces = np.concatenate([faces, faces])[kept]
        self.dual_cells = pairs[kept, 1].astype(np.int32)
        self.dual_ptr = np.searchsorted(
            pairs[kept, 0], np.arange(n_cells + 1)).astype(np.int32)

    @functools.cached_property
    def closure_lists(self):
        """Per facet, its ``closures`` row as a list of face ids."""
        return self.closures.tolist()

    @functools.cached_property
    def coface_lists(self):
        """Per proper face, its cofaces as an ascending list of cells."""
        cells, ptr = self.coface_cells.tolist(), self.coface_ptr.tolist()
        return [cells[a:b] for a, b in zip(ptr, ptr[1:])]

    def face_ids(self, rows):
        """Ids of the faces with the given node rows, all of one size and
        each sorted; a row that is no face raises ``KeyError``."""
        rows = np.asarray(rows, dtype=np.int64)
        size = rows.shape[1]
        table = self.face_rows.get(size, np.empty((0, size), np.int64))
        # a query row's group starts at the table row equal to it, if any
        order, starts = row_groups(np.concatenate([table, rows]))
        found = order[starts][group_ids(order, starts)[len(table):]]
        missing = found >= len(table)
        if missing.any():
            raise KeyError(tuple(rows[np.argmax(missing)].tolist()))
        return found + self.offsets.get(size, 0)

    def cover(self, blocked):
        """Per proper face, how many of the facets with the given ids
        contain it (itself too).

        A face blocks passage exactly when its count is positive.
        """
        if not isinstance(blocked, np.ndarray):
            blocked = np.fromiter(blocked, dtype=np.int64)
        faces = self.closures[blocked]
        return np.bincount(faces.ravel(), minlength=len(self.coface_ptr) - 1)

    def components(self, blocked, cover=None):
        """Component label per cell when the facets with the given ids
        block passage; ``cover`` is their ``cover``, when the caller has
        it already.

        The label of a cell is the smallest cell index in its component.
        """
        if cover is None:
            cover = self.cover(blocked)
        kept = np.flatnonzero(cover[self.dual_faces] == 0)
        size = len(self.cell_nodes)
        graph = csr_matrix((np.ones(len(kept)), self.dual_cells.take(kept),
                            np.searchsorted(kept, self.dual_ptr).astype(np.int32)),
                           (size, size))
        # on a symmetric graph the strong components are the connected
        # ones, and SciPy transposes no copy of the graph to find them
        _, labels = connected_components(graph, directed=True, connection="strong")
        # int64 labels: ``component_groups`` multiplies them by the node bound
        smallest = np.full(size, size, dtype=np.int64)
        np.minimum.at(smallest, labels, np.arange(size))
        return smallest[labels]

    def component_groups(self, labels):
        """The components of the cell labels ``labels`` (``components``),
        in label order, as the flat arrays ``(cells, cell_starts, nodes,
        node_starts)``: component k's cells, ascending, are
        ``cells[cell_starts[k]:cell_starts[k + 1]]`` and its distinct
        nodes, ascending, ``nodes[node_starts[k]:node_starts[k + 1]]``
        (the last component runs to the end).

        The nodes are the ``distinct`` ``label * n + node`` keys of every
        cell's nodes, split by label.
        """
        cells = np.argsort(labels, kind="stable")
        cell_starts = run_starts(labels[cells])
        n = self.node_bound
        owners, nodes = np.divmod(distinct(labels[:, None] * n + self.cell_nodes), n)
        return cells, cell_starts, nodes, run_starts(owners)

    def cut_facets(self, side):
        """Ids of the facets whose cofaces do not all have the same
        ``side[cell]``."""
        ptr = self.coface_ptr[: len(self.facets) + 1]
        if len(ptr) < 2:
            return np.empty(0, dtype=np.int64)
        values = np.asarray(side)[self.coface_cells[: ptr[-1]]]
        differs = values != np.repeat(values[ptr[:-1]], np.diff(ptr))
        return np.flatnonzero(np.logical_or.reduceat(differs, ptr[:-1]))


@dataclass(frozen=True)
class BallFit:
    """Whether a node set fits in a radius-R ball, and the ball's center
    and exact radius when it does."""

    fits: bool
    center: int | None
    radius: float


def fit_in_ball(geometry, nodes, radius):
    """The lowest-id node whose eccentricity over ``nodes`` is <= radius.

    Centers may be any node of the ambient complex; the feasible ones are
    ``graph.feasible_centers`` of ``nodes`` as one group.  The fit's radius
    is the center's exact eccentricity, read from its radius-limited row.
    When no node is feasible the set fits no radius-R ball: it has no
    center, and its radius is ``inf``.
    """
    graph = geometry.graph
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        return BallFit(True, None, 0.0)
    centers = graph.feasible_centers(nodes, [0], radius)[0]
    if not centers:
        return BallFit(False, None, math.inf)
    center = (centers & -centers).bit_length() - 1
    row = graph.distances_within(center, radius)
    return BallFit(True, center, float(row[nodes].max()))
