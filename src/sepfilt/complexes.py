"""Weighted simplicial complexes with PL metrics, subdivision, balls, volumes.

A complex is specified by its maximal simplices and a global edge-length map.
Each maximal simplex carries the flat metric determined by its edge lengths;
sharing the lengths globally makes the metrics agree on common faces.  The
distance on the complex is approximated by shortest paths on a metric graph
whose nodes are the vertices of the k-fold barycentric subdivision and whose
arcs are straight chords between nodes sharing a cell two subdivision rounds
up (up to depth 2, a common maximal simplex; chords are exact path lengths,
rounded up to a dyadic quantum, so graph distances never underestimate the
PL distance and converge to it under refinement).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .adjacency import (CellSystem, distinct, group_ids, row_groups,
                        run_starts, subdivision_flags)
from .errors import DimensionMismatch, NondegenerateViolation
from .files import check_keys

# Distance entries (8 bytes each) computed per batch of rows.
_BATCH = 1 << 18


def _pair_index(d):
    """Lexicographic (i, j) pairs for the edges of a d-simplex."""
    return list(itertools.combinations(range(d + 1), 2))


def simplex_volume(edge_lengths):
    """Euclidean d-volume of a simplex given its edge lengths, listed in
    lexicographic vertex-pair order (d01, d02, ..., d0d, d12, ...): the
    ``_simplex_volumes`` volume of its ``_embed_simplices`` embedding, which
    raises NondegenerateViolation when the lengths fit no flat simplex."""
    m = len(edge_lengths)
    d = (math.isqrt(1 + 8 * m) - 1) // 2
    if d < 1 or d * (d + 1) // 2 != m:
        raise ValueError(f"{m} lengths match no d-simplex edge pattern")
    points = _embed_simplices([tuple(range(d + 1))], [edge_lengths])
    return float(_simplex_volumes(points)[0])


def _embed_simplices(simplices, lengths):
    """The d-simplices placed in R^d from their rows of edge ``lengths``
    (``simplex_volume``'s order), shape (simplices, d + 1, d): vertex 0 at
    the origin, vertex k at row k - 1 of the Cholesky factor of the Gram
    matrix of the edges from vertex 0, all factored in one call.

    This is the check of a PL metric.  NondegenerateViolation names the
    first simplex with a length not positive and finite, with L^(2d + 2)
    infinite for its largest length L (the power a Cayley-Menger
    determinant reaches), with a Gram matrix not positive definite (in
    d = 3 a positive determinant does not prove it is), or with a squared
    volume of at most 1e-14 L^(2d).
    """
    d = len(simplices[0]) - 1
    lengths = np.asarray(lengths, dtype=float)
    largest = lengths.max(axis=1)

    def refuse(k, problem):
        raise NondegenerateViolation(
            f"simplex {simplices[k]}, edge lengths {lengths[k].tolist()}: {problem}")

    valid = (np.isfinite(lengths) & (lengths > 0)).all(axis=1)
    if not valid.all():
        refuse(np.argmin(valid), "a length is not positive and finite")
    with np.errstate(over="ignore"):
        overflow = np.isinf(largest ** (2 * d + 2))
    if overflow.any():
        refuse(np.argmax(overflow), f"L^{2 * d + 2} overflows")
    first, second = np.array(_pair_index(d)).T
    squares = np.zeros((len(lengths), d + 1, d + 1))
    squares[:, first, second] = squares[:, second, first] = lengths**2
    gram = 0.5 * (squares[:, 0, 1:, None] + squares[:, 0, None, 1:]
                  - squares[:, 1:, 1:])
    points = np.zeros((len(lengths), d + 1, d))
    try:
        points[:, 1:] = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # one at a time, to name the first failure (the last, if no other)
        for k in range(len(lengths) - 1):
            _embed_simplices(simplices[k : k + 1], lengths[k : k + 1])
        refuse(len(lengths) - 1, "its Gram matrix is not positive definite")
    flat = _simplex_volumes(points) ** 2 <= 1e-14 * largest ** (2 * d)
    if flat.any():
        refuse(np.argmax(flat), "degenerate, squared volume at most 1e-14 L^(2d)")
    return points


def _simplex_volumes(points):
    """The k-volume of each simplex of ``points``, an array of shape
    (simplices, k + 1, coordinates), from the Gram determinant of its edge
    vectors from its first vertex."""
    diffs = points[:, 1:] - points[:, :1]
    det = np.linalg.det(diffs @ diffs.transpose(0, 2, 1))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(points.shape[1] - 1)


def _barycenter_supports(support_vertex, support_num, faces):
    """Supports of the barycenters of node faces (rows padded with -1).

    A barycenter's support lists its vertices in the order they first
    appear over the face's nodes, each node's support in its own order;
    its numerators are the summed numerators over the face size.
    """
    n_faces, width = faces.shape
    valid = (faces >= 0)[:, :, None]
    vertex = np.where(valid, support_vertex[faces], -1).reshape(n_faces, -1)
    num = np.where(valid, support_num[faces], 0).reshape(n_faces, -1)
    same = vertex[:, :, None] == vertex[:, None, :]
    total = (same @ num[:, :, None])[:, :, 0]
    first = (same.argmax(axis=2) == np.arange(vertex.shape[1])) & (vertex >= 0)
    keep = np.argsort(~first, axis=1, kind="stable")[:, :width]
    kept = np.take_along_axis(first, keep, axis=1)
    size = valid.sum(axis=1)
    return (
        np.where(kept, np.take_along_axis(vertex, keep, axis=1), -1),
        np.where(kept, np.take_along_axis(total, keep, axis=1) // size, 0),
    )


def _integer(value, name):
    """``operator.index(value)``, which reads True as 1: TypeError for a bool too."""
    if isinstance(value, bool):
        raise TypeError(f"{name} {value!r} is not an integer")
    return operator.index(value)


class WeightedComplex:
    """Pure n-dimensional complex: maximal simplices, each listed once in
    any vertex order, plus an edge-length map, a dict or ``(pair, length)``
    items listing each pair once.  ``embedding`` places each maximal
    simplex in R^n, in ``simplices`` order (``_embed_simplices``)."""

    def __init__(self, dimension, simplices, edge_lengths, metadata=None):
        self.dimension = dimension = _integer(dimension, "dimension")
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        normalized = []
        for simplex in simplices:
            cell = tuple(sorted(_integer(v, "vertex id") for v in simplex))
            if len(cell) != dimension + 1 or len(set(cell)) != dimension + 1:
                raise ValueError(f"simplex {simplex} is not a {dimension}-simplex")
            normalized.append(cell)
        if not normalized:
            raise ValueError("a complex needs at least one maximal simplex")
        self.simplices = tuple(normalized)
        self.edge_lengths = {}
        items = edge_lengths.items() if isinstance(edge_lengths, dict) else edge_lengths
        for key, value in items:
            u, v = sorted(_integer(x, "vertex id") for x in key)
            if (u, v) in self.edge_lengths:
                raise ValueError(f"edge ({u}, {v}) is listed twice")
            length = float(value)
            if isinstance(value, bool) or not (math.isfinite(length) and length > 0):
                raise ValueError(f"edge ({u}, {v}) length {value!r} is not a "
                                 f"positive, finite number")
            self.edge_lengths[(u, v)] = length
        self.vertices = tuple(sorted({v for cell in self.simplices for v in cell}))
        self.metadata = dict(metadata or {})
        seen = set()
        for cell in self.simplices:
            if cell in seen:
                raise ValueError(f"simplex {cell} is listed twice")
            seen.add(cell)
        try:  # a cell's vertices ascend, as each edge's key does
            lengths = [[self.edge_lengths[cell[i], cell[j]]
                        for i, j in _pair_index(dimension)] for cell in self.simplices]
        except KeyError as missing:
            raise ValueError(f"missing length for edge {missing.args[0]}") from None
        # raises NondegenerateViolation for impossible metrics
        self.embedding = _embed_simplices(self.simplices, lengths)

    def geometry(self, depth=2):
        """The subdivided metric realization at the given refinement depth;
        ValueError when its len(simplices) ((n+1)!)^depth cells of n + 1
        int64 ids alone would exceed physical memory."""
        if operator.index(depth) < 0:
            raise ValueError("subdivision depth must be nonnegative")
        n = self.dimension
        cells = len(self.simplices) * math.factorial(n + 1) ** depth
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if cells * (n + 1) * 8 > memory:
            raise ValueError(f"subdivision depth {depth} gives {cells} cells, "
                             f"more than {memory} bytes of physical memory")
        return ComplexGeometry(self, depth)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "simplices": [list(cell) for cell in self.simplices],
            "edge_lengths": [
                [u, v, length] for (u, v), length in sorted(self.edge_lengths.items())
            ],
            "metadata": dict(sorted(self.metadata.items())),
        }

    @classmethod
    def from_json(cls, data):
        """The complex of a ``to_json`` payload, read with exactly its keys."""
        check_keys("complex", data, ("dimension", "simplices", "edge_lengths",
                                     "metadata"))
        return cls(
            data["dimension"],
            [tuple(cell) for cell in data["simplices"]],
            [((u, v), length) for u, v, length in data["edge_lengths"]],
            metadata=data["metadata"],
        )


class MetricGraph:
    """Shortest-path metric on the sample nodes of a subdivided complex.

    Distances have one store, the ball table (``tabulate``) at the radius
    R named by the ball search and the sweep: the distances <= R and the
    bitset of each ball B(node, R) that ``reach`` does not prove whole,
    computed when readers ask for them.  A read out to at most R of such a
    node comes from the table, a read of node 0 from its complete row
    (``reach``'s anchor), and any other read is one row cut at its limit.

    The arcs are kept in two disjoint parts (``_split``): the Dijkstra
    graph holds every arc but portal -> interior, and per-block tables hold
    the portal x interior lengths.  A batch of rows is one ``dijkstra``
    call on the Dijkstra graph, then one min-plus step per (row, block)
    pair that fills the block's interior entries from its portal entries
    (``_fill``); the rows are bit-identical to those of all the arcs.

    Arc lengths are rounded up to multiples of one power-of-two quantum,
    fine enough that every path sum, and every sum of two, is exact in
    float64.  So distances are exactly symmetric, obey the triangle
    inequality exactly and do not depend on summation order.

    For any anchor a, ``d(a, .) + max d(a, .)`` bounds every node's
    eccentricity by the triangle inequality.  ``reach`` starts from node
    0's complete row, and every complete row computed since tightens it to
    the elementwise minimum over those anchors, so ``holds_every_node``
    can prove that a ball contains every node without the ball's own row.
    """

    def __init__(self, n_nodes, pairs, lengths, blocks=np.empty((0, 0))):
        """``pairs`` is a (k, 2) array of distinct node pairs, ``lengths``
        their k arc lengths; each arc is traversed both ways.  Each row of
        ``blocks`` lists the members of a block, every pair of which must
        be an arc; all rows have the same length.  ValueError for a node id
        out of range, a self-loop, a pair listed twice (in either order) or
        a length that is not positive and finite."""
        self.n_nodes = n_nodes
        heads, tails = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        data = np.asarray(lengths, dtype=float)
        if ((heads < 0) | (heads >= n_nodes) | (tails < 0) | (tails >= n_nodes)).any():
            raise ValueError(f"an arc's node id is not in range({n_nodes})")
        if (heads == tails).any():
            raise ValueError("an arc joins a node to itself")
        if not (np.isfinite(data) & (data > 0)).all():
            raise ValueError("arc lengths must be positive and finite")
        # 2 ** e exceeds every path length, and the quantum leaves one bit
        # for the sum of two path lengths below the 53-bit mantissa
        e = math.frexp(data.sum())[1]
        self.quantum = math.ldexp(1.0, e - 51)
        data = np.ceil(data / self.quantum) * self.quantum
        interior = self._split(heads, tails, data, np.asarray(blocks, dtype=np.int64))
        # each arc both ways, but no portal -> interior arc; for pairs listed
        # by ascending key, the tail -> head arcs first put each row's
        # columns in ascending order, so SciPy sorts no row
        forth = interior[heads] | ~interior[tails]
        back = interior[tails] | ~interior[heads]
        self._arcs = csr_matrix(
            (
                np.concatenate([data[back], data[forth]]),
                (np.concatenate([tails[back], heads[forth]]),
                 np.concatenate([heads[back], tails[forth]])),
            ),
            shape=(n_nodes, n_nodes),
        )
        self.radius, self._table = -math.inf, {}  # no table: every limit is above
        self._held = np.zeros(n_nodes, dtype=bool)  # the nodes the table holds
        self._every_node = (1 << n_nodes) - 1

    def _split(self, heads, tails, data, blocks):
        """Mark the interior nodes and hold each block's portal x interior
        lengths; returns the interior mask.

        A node is interior when it lies in exactly one block, has no arc
        leaving it and is no strict shortcut there: no members x, y have
        ``L(x, w) + L(w, y) < L(x, y)``.  Then dropping it from the middle
        of a path never lengthens the path, so a shortest path with the
        fewest arcs has no interior node inside.  The tables pad each block
        to the widest by repeating its first portal and first interior.
        """
        n = self.n_nodes
        blocks = np.sort(blocks, axis=1)
        m = blocks.shape[1]
        keys = np.minimum(heads, tails) * n + np.maximum(heads, tails)
        order = np.argsort(keys)
        keys, data = keys[order], data[order]
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("a node pair is listed twice")
        degree = np.bincount(heads, minlength=n) + np.bincount(tails, minlength=n)
        single = np.bincount(blocks.ravel(), minlength=n) == 1
        interior = single & (degree == m - 1)
        # each block's member pair lengths, in np.triu_indices order
        first, second = np.triu_indices(m, 1)
        lengths = np.empty((len(blocks), len(first)))
        size = max(1, _BATCH // max(1, m * len(first)))  # sums per chunk's tests
        for start in range(0, len(blocks), size):
            chunk = blocks[start : start + size]
            key = chunk[:, first] * n + chunk[:, second]
            at = np.searchsorted(keys, key)
            if not (at < len(keys)).all() or not (keys[at] == key).all():
                raise ValueError("every pair of a block must be an arc")
            pair = lengths[start : start + size] = data[at]
            square = np.zeros((len(chunk), m, m))
            square[:, first, second] = square[:, second, first] = pair
            # position w holds a candidate in its only block or a portal,
            # which stays one: clearing the strict shortcuts there is exact
            for w in np.flatnonzero(interior[chunk].any(axis=0)):
                strict = (square[:, w, first] + square[:, w, second] < pair).any(axis=1)
                interior[chunk[strict, w]] = False

        inside = interior[blocks]
        count = inside.sum(axis=1)
        filled = (count > 0) & (count < m)
        blocks, inside, count = blocks[filled], inside[filled], count[filled]
        portals = m - count
        ranked = np.argsort(inside, axis=1, kind="stable")  # portals first
        slot = np.arange(portals.max(initial=0))
        portal_at = np.take_along_axis(
            ranked, np.where(slot < portals[:, None], slot, 0), 1)
        slot = np.arange(count.max(initial=0))
        interior_at = np.take_along_axis(
            ranked, portals[:, None] + np.where(slot < count[:, None], slot, 0), 1)
        # the portal tables put the portal slot first: the fill's least runs
        # over the first axis, the bound's over the middle one
        self._portals = np.ascontiguousarray(
            np.take_along_axis(blocks, portal_at, 1).T)
        self._interiors = np.take_along_axis(blocks, interior_at, 1)
        index = np.zeros((m, m), dtype=np.int64)  # pair index of two positions
        index[first, second] = index[second, first] = np.arange(len(first))
        pairs = index[portal_at[:, :, None], interior_at[:, None, :]]
        block = np.arange(len(pairs))[:, None, None]
        self._portal_lengths = np.ascontiguousarray(
            lengths[filled][block, pairs].transpose(1, 0, 2))
        # each portal's least length to an interior of its block
        self._nearest = self._portal_lengths.min(axis=2, initial=math.inf)
        return interior

    def _fill(self, rows, limit):
        """Complete the interior entries of rows from the portal graph, in
        place: for each (row, block) pair with a finite portal entry and an
        interior that may lie within ``limit``, each interior entry becomes
        the least of itself and the portal entries plus the portal lengths;
        entries above ``limit`` read ``inf``, as SciPy's inclusive limit
        gives them.  Rows are filled a step at a time, each step holding
        no more temporary entries than the rows do, or one row."""
        n, portals, interiors = self.n_nodes, self._portals, self._interiors
        lengths, flat = self._portal_lengths, rows.reshape(-1, self.n_nodes)
        step = max(1, rows.size // max(1, lengths.size + 2 * portals.size))
        for start in range(0, len(flat), step):
            part = flat[start : start + step]
            line = part.reshape(-1)  # a view: puts land in the rows
            bound = part.take(portals, axis=1)
            bound += self._nearest
            bound = bound.min(axis=1, initial=math.inf)  # least interior entry
            row, block = np.nonzero((bound < math.inf) & (bound <= limit))
            row *= n
            at = portals[:, block]
            at += row
            via = lengths.take(block, axis=1)
            via += line.take(at)[:, :, None]
            via = via.min(axis=0, initial=math.inf)
            at = interiors.take(block, axis=0)
            at += row[:, None]
            np.minimum(via, line.take(at), out=via)
            via[via > limit] = math.inf
            line.put(at, via)
        return rows

    def _limited(self, nodes, limit):
        """Rows of the nodes out to ``limit`` from one call; complete ones
        tighten ``reach``."""
        rows = self._fill(dijkstra(self._arcs, indices=nodes, limit=limit), limit)
        complete = rows[np.isfinite(rows).all(axis=1)]
        if len(complete):
            bounds = complete + complete.max(axis=1, keepdims=True)
            np.minimum(self.reach, bounds.min(axis=0), out=self.reach)
        return rows

    @functools.cached_property
    def _anchor(self):
        """Node 0's complete row."""
        return self._fill(dijkstra(self._arcs, indices=0), math.inf)

    @functools.cached_property
    def reach(self):
        """Per-node upper bound on the eccentricity: node 0's complete row
        plus its max, tightened by every complete row computed since."""
        return self._anchor + self._anchor.max()

    def holds_every_node(self, node, r):
        """True when B(node, r) provably contains every node; elementwise
        for arrays of nodes and radii."""
        return self.reach[node] <= r

    def tabulate(self, nodes, radius):
        """Hold B(node, radius) in the ball table for each node whose ball
        is neither held (``_held``) nor proven whole, first dropping a
        table at another radius.  Batches of ``_BATCH`` entries keep those
        <= radius as CSR columns and distances; a node holds its slices and
        its bitset."""
        if radius != self.radius:
            self.radius, self._table = radius, {}
            self._held = np.zeros(self.n_nodes, dtype=bool)
        nodes = np.asarray(nodes, dtype=np.int64)
        if not len(nodes):
            return
        table = self._table
        missing = nodes[~self._held[nodes] & (self.reach[nodes] > radius)]
        missing = list(dict.fromkeys(missing.tolist()))
        size = max(1, _BATCH // self.n_nodes)
        for start in range(0, len(missing), size):
            batch = missing[start : start + size]
            rows = self._limited(batch, radius)
            inside = rows <= radius
            flat = np.flatnonzero(inside)  # by row, each row's columns ascending
            distances, columns = rows.flat[flat], flat.astype(np.int32) % self.n_nodes
            ends = np.cumsum(np.count_nonzero(inside, axis=1)).tolist()
            bits = np.packbits(inside, axis=1, bitorder="little")
            for node, begin, end, ball in zip(batch, [0, *ends], ends, bits):
                table[node] = (columns[begin:end], distances[begin:end],
                               int.from_bytes(ball, "little"))
            self._held[batch] = True

    def distances_from(self, node):
        """Distances from one node to every node."""
        return self.distances_within(node, math.inf)

    def distances_within(self, node, limit):
        """Distances from one node, exact wherever they are <= ``limit``:
        its row of ``rows_within``."""
        return self.rows_within([node], [limit])[0]

    def rows_within(self, nodes, limits):
        """The distance rows of the nodes as one matrix, row k exact
        wherever it is <= ``limits[k]``; an entry beyond its limit may read
        ``inf`` (SciPy's limit is inclusive), so any comparison with a
        radius <= the limit gives the true answer.  A negative limit asks
        for no entry: its row reads ``inf``.

        Node 0's row is its anchor row.  A row out to at most R comes from
        the ball table when the table holds the node or the node's R-ball
        is not proven whole; the balls not yet held are tabulated first.
        Every other node is computed once, out to its largest limit, in
        ascending order of that limit, about ``_BATCH`` entries per call.
        """
        table, radius = self._table, self.radius
        rows = np.full((len(nodes), self.n_nodes), math.inf)
        tabled, computed, largest = {}, {}, {}  # node -> positions, limit
        for k, (node, limit) in enumerate(zip(nodes, limits)):
            if limit < 0:
                continue
            if node == 0:
                rows[k] = self._anchor
            elif limit <= radius and (node in table or self.reach[node] > radius):
                tabled.setdefault(node, []).append(k)
            else:
                computed.setdefault(node, []).append(k)
                largest[node] = max(limit, largest.get(node, limit))
        self.tabulate(list(tabled), radius)
        for node, at in tabled.items():
            columns, distances, _ = table[node]
            for k in at:
                rows[k].put(columns, distances)
        order = sorted(computed, key=largest.get)
        size = max(1, _BATCH // self.n_nodes)
        for start in range(0, len(order), size):
            batch = order[start : start + size]
            for node, row in zip(batch, self._limited(batch, largest[batch[-1]])):
                rows[computed[node]] = row
        return rows

    def table_sums(self, nodes, radius, weights):
        """Split the nodes into those whose ball B(node, radius) is read
        from the ball table, as ``rows_within`` reads it (tabulated first),
        and the rest.  Returns the first, the sum of ``weights`` over each
        one's ball, read from its table row, and the rest.

        The weights must be multiples of one quantum whose every partial
        sum is exact, as ``bounds._node_weights`` are: the table rows are
        summed about ``_BATCH`` entries at a time, each ball's weights
        masked to the radius (below the table's) and added in one
        ``np.add.reduceat``, in an order that then does not matter.  A
        ball holds its own node, so no slice is empty."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if radius > self.radius or not len(nodes):
            return nodes[:0], np.empty(0), nodes
        served = self._held[nodes] | (self.reach[nodes] > self.radius)
        tabled = nodes[served]
        self.tabulate(tabled, self.radius)
        balls = [self._table[node] for node in tabled.tolist()]
        sizes = np.array([len(ball[0]) for ball in balls], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        # a batch: the balls that start in one window of _BATCH entries
        firsts = run_starts(starts // _BATCH).tolist()
        sums = [np.empty(0)]
        for a, b in zip(firsts, [*firsts[1:], len(balls)]):
            values = weights[np.concatenate([ball[0] for ball in balls[a:b]])]
            if radius < self.radius:
                values[np.concatenate([ball[1] for ball in balls[a:b]]) > radius] = 0.0
            sums.append(np.add.reduceat(values, starts[a:b] - starts[a]))
        return tabled, np.concatenate(sums), nodes[~served]

    def feasible_centers(self, nodes, starts, radius):
        """Per group ``nodes[starts[k]:starts[k + 1]]`` (the last one runs
        to the end), the nodes within ``radius`` of every node of the
        group, as a bitset.

        Distances are exactly symmetric, so these are the centers c whose
        eccentricity over the group is at most the radius: the AND of the
        members' table bitsets, after one ``tabulate`` of every member.  A
        member the table does not hold has a ball proven whole, which
        leaves the AND as it is.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        self.tabulate(nodes, radius)
        held = self._held[nodes]
        table = self._table
        bits = [table[node][2] for node in nodes[held].tolist()]
        # the positions in ``bits`` where each group starts and ends
        before = np.concatenate([[0], np.cumsum(held)])
        ends = np.append(starts[1:], len(nodes))
        return [
            functools.reduce(operator.and_, bits[a:b], self._every_node)
            for a, b in zip(before[starts].tolist(), before[ends].tolist())
        ]


class ComplexGeometry:
    """A weighted complex subdivided k times, with metric graph and volumes.

    Nodes are the vertices of the k-fold barycentric subdivision, identified
    by their exact barycentric coordinates over the original vertices.  Cells
    are the maximal simplices of the subdivision.
    """

    def __init__(self, base: WeightedComplex, depth: int):
        self.base = base
        self.depth = depth
        self.dim = base.dimension
        n = self.dim

        # each simplex's vertices by index in ``base.vertices``, ascending
        orig_vertices = np.searchsorted(base.vertices, base.simplices)

        # Node keys are barycentric numerators over one denominator.  A
        # barycenter of k nodes divides by k <= n + 1, which divides
        # lcm(1..n+1) at every round, so the division is exact.  A node's
        # support lists (original vertex index, numerator) pairs in the
        # order the vertices first appear in its face, padded with -1.
        self._denominator = math.lcm(*range(1, n + 2)) ** depth
        n_base = len(base.vertices)
        support_vertex = np.full((n_base, n + 1), -1, dtype=np.int64)
        support_vertex[:, 0] = np.arange(n_base)
        support_num = np.zeros((n_base, n + 1), dtype=np.int64)
        support_num[:, 0] = self._denominator
        cells = orig_vertices

        # A round numbers the barycenter of every face of 2 or more nodes,
        # in the order faces first appear cell by cell (subsets by size,
        # then lexicographically), and splits each cell into its (n+1)!
        # flags, one per permutation of its nodes.
        subsets, flags = subdivision_flags(n)
        # column n + 1 of a padded cell row is -1
        face_columns = np.array(
            [s + (n + 1,) * (n + 1 - len(s)) for s in subsets[n + 1 :]]
        )
        for _ in range(depth):
            padded = np.hstack([cells, np.full((len(cells), 1), -1)])
            faces = padded[:, face_columns].reshape(-1, n + 1)
            order, starts = row_groups(faces)
            first = order[starts]
            # distinct faces get new node ids in order of first appearance
            numbering = np.argsort(first)
            ids = np.empty_like(numbering)
            ids[numbering] = np.arange(len(numbering)) + len(support_vertex)
            node = np.empty(len(faces), dtype=np.int64)
            node[order] = np.repeat(ids, np.diff(starts, append=len(faces)))
            sub = np.hstack([cells, node.reshape(len(cells), -1)])
            vertex, num = _barycenter_supports(
                support_vertex, support_num, faces[first[numbering]]
            )
            support_vertex = np.vstack([support_vertex, vertex])
            support_num = np.vstack([support_num, num])
            cells = np.sort(sub[:, flags], axis=2).reshape(-1, n + 1)
        self._support_vertex = support_vertex
        self._support_num = support_num

        # Each round emits a cell's (n+1)! children one after another, so a
        # cell's ancestor k rounds up is its index divided by (n+1)!^k.
        children = math.factorial(n + 1)
        self.cell_orig = np.arange(len(cells)) // children**depth
        self.cells_array = cells
        self.n_nodes = n_nodes = len(support_vertex)

        # One position per (original simplex, node in it), keyed by
        # orig * n_nodes + node in sorted order; ``at`` is each cell node's
        # position, read from the grouping that found the keys.  The build's
        # memory peak comes in the metric graph, so what it does not read is
        # freed before it.
        keys = (self.cell_orig[:, None] * n_nodes + cells).reshape(-1, 1)
        order, starts = row_groups(keys)
        self._pair_keys = keys[order[starts], 0]
        at = group_ids(order, starts).reshape(cells.shape)
        del keys, order, starts
        self._positions = self._embed_nodes(orig_vertices)
        self.cell_volumes = _simplex_volumes(self._positions[at])
        del at
        arc_keys, arc_lengths, blocks, edges = self._chords(children ** min(depth, 2))
        self.max_cell_diameter = float(arc_lengths[edges].max())
        del edges
        self.graph = MetricGraph(
            n_nodes, np.column_stack(np.divmod(arc_keys, n_nodes)), arc_lengths,
            blocks,
        )

    def _embed_nodes(self, orig_vertices):
        """The position of each (original simplex, node) pair of
        ``_pair_keys`` in the simplex's ``embedding``: its support's
        weighted corners summed in support order, from zero."""
        n = self.dim
        pair_orig, pair_node = np.divmod(self._pair_keys, self.n_nodes)
        support = self._support_vertex[pair_node]
        local = (orig_vertices[pair_orig][:, None, :] == support[:, :, None]).argmax(
            axis=2
        )
        weights = self._support_num[pair_node] / self._denominator
        corners = self.base.embedding[pair_orig[:, None], local]
        positions = np.zeros((len(pair_node), n))
        for k in range(n + 1):
            # a padding slot adds 0.0 * corner, which changes no sum
            positions += weights[:, k, None] * corners[:, k]
        return positions

    def _chords(self, block):
        """Arc keys ``head * n_nodes + tail`` (ascending) and lengths of the
        chords between the nodes of each block of ``block`` cells, the
        blocks' members, one ascending row per block, and the arc of each
        cell edge, one row per cell in ``_pair_index`` order.

        Chords join nodes sharing a cell two rounds up (the original
        simplex up to depth 2).  This keeps the arc count near linear while
        still refining the metric.  Every block is the same subdivided
        simplex, so each has the same member count, and every pair of its
        members is a chord: the metric graph splits its arcs by these
        blocks.

        Lookups are per block member, not per chord: each member's position
        is searched once, in its block's original simplex, and the sort that
        finds the members gives each cell node its member index.  One
        grouping of the chord keys makes the arcs and gives each chord, so
        each cell edge, its arc.  The one per-chord search left is the
        metric graph's, of its arcs for the blocks' pairs.  The per-chord
        arrays are freed on return, before the metric graph is built.
        """
        cells, n_nodes = self.cells_array, self.n_nodes
        rows = cells.reshape(len(cells) // block, -1)
        order = np.argsort(rows, axis=1)
        ranked = np.take_along_axis(rows, order, axis=1)
        new = np.ones(rows.shape, dtype=bool)
        new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        members = ranked[new].reshape(len(rows), -1)
        # each cell node's index among its block's members
        member_of = np.empty_like(order)
        np.put_along_axis(member_of, order, np.cumsum(new, axis=1) - 1, axis=1)
        m = members.shape[1]
        first, second = np.triu_indices(m, 1)
        # by coordinate: each (block, member) table row-gathered per chord,
        # the squares added in coordinate order, as a row sum adds them
        points = self._positions_of(self.cell_orig[::block, None], members)
        lengths = np.zeros(len(members) * len(first))
        for column in np.moveaxis(points, 2, 0):
            delta = column.take(second, axis=1)
            delta -= column.take(first, axis=1)
            delta *= delta
            lengths += delta.reshape(-1)
        np.sqrt(lengths, out=lengths)
        # A pair shared by two blocks keeps the later block's length.  Arcs
        # come out sorted by pair, the order the metric graph's CSR wants.
        keys = (members[:, first] * n_nodes + members[:, second]).reshape(-1, 1)
        order, starts = row_groups(keys)
        last = order[np.append(starts[1:], len(order)) - 1]
        arcs = group_ids(order, starts).reshape(len(rows), -1)
        pair = np.zeros((m, m), dtype=np.int64)  # chord index of two members
        pair[first, second] = np.arange(len(first))
        member_of = member_of.reshape(cells.shape)
        a, b = np.array(_pair_index(self.dim)).T
        edges = arcs[np.arange(len(cells))[:, None] // block,
                     pair[member_of[:, a], member_of[:, b]]]
        return keys[last, 0], lengths[last], members, edges

    # -- basic queries ----------------------------------------------------

    @property
    def root(self):
        return self

    @property
    def root_face_ids(self):
        """The identity on the face ids, built per call (read once per coloring)."""
        return np.arange(self.cell_system.n_faces)

    @functools.cached_property
    def cells(self):
        """The cells as sorted tuples of node ids, in cell order."""
        return tuple(map(tuple, self.cells_array.tolist()))

    @functools.cached_property
    def cell_system(self):
        """Face incidence of the top cells, built once; its facets are the
        cells a subpolyhedron of this object may use."""
        return CellSystem(self.cells_array)

    def _positions_of(self, origs, nodes):
        """Positions of nodes in the embeddings of the given original simplices."""
        keys = np.asarray(origs) * self.n_nodes + np.asarray(nodes)
        return self._positions[np.searchsorted(self._pair_keys, keys)]

    def node_barycentric(self, node):
        """Exact barycentric coordinates of a node over the original vertices."""
        vertices = self.base.vertices
        return {
            vertices[vertex]: Fraction(num, self._denominator)
            for vertex, num in zip(
                self._support_vertex[node].tolist(), self._support_num[node].tolist()
            )
            if vertex >= 0
        }

    @functools.cached_property
    def face_volumes(self):
        """k-volume of every face of the subdivision, by ``cell_system``
        face id; 0-faces count as 1 each.

        A face is measured in the embedding of the smallest original simplex
        holding it (that of its lowest-numbered coface), as the cells are.
        """
        system = self.cell_system
        orig = np.minimum.reduceat(
            self.cell_orig[system.coface_cells], system.coface_ptr[:-1]
        )
        volumes = []
        for size, rows in system.face_rows.items():
            if size == self.dim + 1:
                volumes.append(self.cell_volumes)
            elif size == 1:
                volumes.append(np.ones(len(rows)))
            else:
                start = system.offsets[size]
                volumes.append(_simplex_volumes(
                    self._positions_of(orig[start : start + len(rows), None], rows)))
        return np.concatenate(volumes)

    def total_area(self):
        return float(self.cell_volumes.sum())

    # -- balls -------------------------------------------------------------

    @functools.cached_property
    def credited_volumes(self):
        """``cell_volumes`` rounded up to multiples of the quantum q =
        2^(e + b - 53), 2^e above their total and 2^b above the n + 1
        nodes of a cell: (n + 1) times the rounded total is below 2^53 q
        (for fewer than 2^(53 - 2b) cells), so every sum of count x volume,
        counts 0 to n + 1, is exact in float64, in any order.  Every
        credited measure sums these."""
        volumes = self.cell_volumes
        e = math.frexp(float(volumes.sum()))[1]
        quantum = math.ldexp(1.0, e + len(self.cell_columns).bit_length() - 53)
        return np.ceil(volumes / quantum) * quantum

    @functools.cached_property
    def whole_measure(self):
        """(measure, boundary credit) of a ball holding every node: the sum
        of all ``credited_volumes``, zero boundary credit."""
        return float(self.credited_volumes.sum()), 0.0

    @functools.cached_property
    def cell_columns(self):
        """``cells_array`` by columns, each contiguous: a contiguous index
        array gathers faster than a column of ``cells_array``."""
        return np.ascontiguousarray(self.cells_array.T)


class Subpolyhedron:
    """A pure (d-1)-dimensional set of faces of a parent's d-cells.

    ``facet_ids`` are the cells' facet ids in the parent's ``cell_system``,
    ascending, ``cells_array`` their node rows and ``cells`` the same rows
    as tuples, built on first use.  Every face is a face of the root, and
    ``root_face_ids`` maps this level's face ids to the root's.
    """

    def __init__(self, parent, cells):
        self.parent = parent
        self.dim = parent.dim - 1
        if self.dim < 0:
            raise DimensionMismatch("parent is already 0-dimensional")
        normalized = sorted({tuple(sorted(cell)) for cell in cells})
        for cell in normalized:
            if len(cell) != self.dim + 1:
                raise DimensionMismatch(
                    f"cell {cell} is not a {self.dim}-cell of the parent"
                )
        rows = np.array(normalized).reshape(-1, self.dim + 1)
        try:
            if rows.size and rows.dtype.kind not in "iu":
                raise KeyError(normalized[0])
            self.facet_ids = parent.cell_system.face_ids(rows)
        except KeyError as missing:
            raise DimensionMismatch(
                f"cell {missing.args[0]} is not a face of the parent"
            ) from None
        self.cells_array = parent.cell_system.facets[self.facet_ids]

    @classmethod
    def of_facets(cls, parent, facet_ids):
        """The subpolyhedron made of the parent's facets with these ids,
        an integer array or any iterable of ints."""
        self = cls.__new__(cls)
        self.parent = parent
        self.dim = parent.dim - 1
        if not isinstance(facet_ids, np.ndarray):
            facet_ids = np.fromiter(facet_ids, dtype=np.int64)
        self.facet_ids = distinct(facet_ids.astype(np.int64, copy=False))
        self.cells_array = parent.cell_system.facets[self.facet_ids]
        return self

    cells = ComplexGeometry.cells
    cell_system = ComplexGeometry.cell_system
    credited_volumes = ComplexGeometry.credited_volumes
    whole_measure = ComplexGeometry.whole_measure
    cell_columns = ComplexGeometry.cell_columns

    @property
    def root(self) -> ComplexGeometry:
        return self.parent.root

    @functools.cached_property
    def root_face_ids(self):
        """The root's face id of each face of this level, by face id."""
        root, rows = self.root.cell_system, self.cell_system.face_rows.values()
        return np.concatenate([root.face_ids(size_rows) for size_rows in rows])

    @functools.cached_property
    def face_volumes(self):
        """The root's volume of each face of this level, by face id."""
        return self.root.face_volumes[self.root_face_ids]

    @functools.cached_property
    def cell_volumes(self):
        """The root's face volume of each cell, in cell order, read from the
        parent's face volumes: this level's ``cell_system`` is not needed."""
        return self.parent.face_volumes[self.facet_ids]

    def __len__(self):
        return len(self.cells_array)
