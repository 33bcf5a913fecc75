"""Colorings by filtration level, rainbow censuses, signed subdivision.

Vertices (and, implicitly, the relative interiors of all faces) are colored
by the pair (level, component of the level stratum).  A class at level
i >= 1 lies in one complement component of Z_{i-1} in Z_i, which a stored
certificate proves to fit an R-ball, and a level-0 class is one point, so
the coloring searches no ball.  Every level is a subcomplex by
construction, so counting happens in the barycentric subdivision of the
complex itself, whose vertices are the faces of the complex, and the
census never needs a geometric rebuild.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .adjacency import subdivision_flags
from .errors import CensusMismatch


# ---------------------------------------------------------------------------
# coloring


@dataclass(frozen=True)
class ColorInfo:
    """One color class: its level, its index among the level's classes
    (the order of the certificates below them) and the number of nodes it
    colors."""

    level: int
    component: int
    nodes: int


class LevelColoring:
    """Face colors induced by (level, stratum component).

    ``face_colors`` holds the color of every face of the geometry, by the
    face ids of its ``cell_system``; node v is face ``offsets[1] + v``.
    """

    def __init__(self, geometry, color_meta, face_colors):
        self.geometry = geometry
        self.color_meta = color_meta
        self.face_colors = face_colors

    def to_json(self):
        """Each color's ``ColorInfo`` fields and its ``id``."""
        return {
            "colors": [{"id": color, **asdict(info)}
                       for color, info in sorted(self.color_meta.items())]
        }


def color_by_filtration(geometry, filtration):
    """Color faces by their stratum: same color iff same level and component.

    The classes of level i >= 1 are the complement components of Z_{i-1}
    in Z_i in label order, so class k fits the ball of level i - 1's k-th
    certificate, which ``Filtration.validate`` checks.  No ball is
    searched.
    """
    n = geometry.dim
    levels = [filtration.level(i) for i in range(n + 1)]
    root_ids = [level.root_face_ids for level in levels]
    # each face's minimal level: levels are written top-down
    face_level = np.empty(geometry.cell_system.n_faces, dtype=np.int64)
    for i in range(n, -1, -1):
        face_level[root_ids[i]] = i
    face_colors = np.empty_like(face_level)
    # every node lies in a cell, so node v is the v-th 1-face
    node_faces = geometry.cell_system.offsets[1] + np.arange(geometry.n_nodes)

    color_meta = {}
    next_color = 0
    for i, level in enumerate(levels):
        system = level.cell_system
        if not len(system.cell_nodes):
            continue
        blocked = levels[i - 1].facet_ids if i > 0 else ()
        _, component = np.unique(system.components(blocked), return_inverse=True)
        cell_color = next_color + component
        colors = range(next_color, next_color + int(component.max()) + 1)
        next_color = colors.stop
        # faces whose minimal level is i inherit the color of their first
        # containing i-cell (passage through the face makes it unique)
        first_cell = system.coface_cells[system.coface_ptr[:-1]]
        local = np.concatenate([cell_color[first_cell], cell_color])
        mine = face_level[root_ids[i]] == i
        face_colors[root_ids[i][mine]] = local[mine]
        node_colors = face_colors[node_faces[face_level[node_faces] == i]]
        counts = np.bincount(node_colors - colors.start, minlength=len(colors))
        for index, color in enumerate(colors):
            color_meta[color] = ColorInfo(i, index, int(counts[index]))
    return LevelColoring(geometry, color_meta, face_colors)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class RainbowCensus:
    """Rainbow count of the barycentric subdivision, keyed by 0-level point."""

    dimension: int
    total: int
    per_point: dict
    z0_count: int
    color_count: int

    @property
    def expected_total(self):
        return (2**self.dimension) * self.z0_count

    def to_json(self):
        """The fields, ``per_point`` keyed by node strings, and the derived
        ``expected_total``."""
        record = asdict(self)
        record["per_point"] = {str(k): v for k, v in self.per_point.items()}
        record["expected_total"] = self.expected_total
        return record


def count_rainbow(geometry, coloring, filtration):
    """Count rainbow top simplices of the barycentric subdivision.

    A vertex of the subdivision is a face of the complex and wears
    that face's color.  Asserts the census identity: the total must be
    2^n * #Z_0 with exactly 2^n simplices per 0-level point; any failure
    raises CensusMismatch carrying the observed census.
    """
    n = geometry.dim
    z0 = filtration.z0_nodes()
    cells = geometry.cells_array
    _, flags = subdivision_flags(n)
    # the color of every face of every cell: colors[cell, subset]
    colors = coloring.face_colors[geometry.cell_system.cell_faces]
    # all (n+1)! flags of every cell at once
    flag_colors = np.sort(colors[:, flags], axis=2)
    rainbow = (flag_colors[:, :, 1:] != flag_colors[:, :, :-1]).all(axis=2)
    total = int(rainbow.sum())
    # a rainbow flag's only vertex is its first face; it counts for that
    # node when the vertex wears a level-0 color
    cell, flag = np.nonzero(rainbow)
    first = flags[flag, 0]
    first_colors, inverse = np.unique(colors[cell, first], return_inverse=True)
    at_point = np.array(
        [coloring.color_meta[c].level == 0 for c in first_colors.tolist()],
        dtype=bool,
    )
    hits = cells[cell, first][at_point[inverse]].tolist()
    per_point = {node: 0 for node in z0}
    per_point.update(collections.Counter(hits))
    census = RainbowCensus(
        dimension=n,
        total=total,
        per_point=per_point,
        z0_count=len(z0),
        color_count=len(coloring.color_meta),
    )
    if total != census.expected_total:
        raise CensusMismatch(
            f"rainbow total {total} != 2^{n} * {len(z0)} = "
            f"{census.expected_total}",
            census=census,
        )
    expected_each = 2**n
    for node, count in per_point.items():
        if count != expected_each:
            raise CensusMismatch(
                f"point {node} carries {count} rainbow simplices, "
                f"expected {expected_each}",
                census=census,
            )
    return census


# ---------------------------------------------------------------------------
# signed barycentric subdivision of chains


def barycenter_label(vertices):
    """Canonical name for the barycenter of a vertex set."""
    unique = frozenset(vertices)
    if len(unique) == 1:
        return next(iter(unique))
    return unique


def _sort_key(label):
    if isinstance(label, frozenset):
        return (1, tuple(sorted(_sort_key(x) for x in label)))
    return (0, label)


class Chain:
    """Formal sum of ordered simplices with integer or rational weights."""

    def __init__(self, terms=()):
        self.terms = {}
        for coefficient, simplex in terms:
            self.add(coefficient, simplex)

    def add(self, coefficient, simplex):
        simplex = tuple(simplex)
        value = self.terms.get(simplex, 0) + coefficient
        if value:
            self.terms[simplex] = value
        else:
            self.terms.pop(simplex, None)
        return self

    def __eq__(self, other):
        return isinstance(other, Chain) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("chains are mutable")

    def __len__(self):
        return len(self.terms)

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(
            self.terms.items(), key=lambda kv: tuple(_sort_key(x) for x in kv[0])
        )

    def __repr__(self):
        return f"Chain({list(self.items())!r})"


def boundary(chain):
    """Alternating-sign boundary of a chain of ordered simplices."""
    out = Chain()
    for simplex, coefficient in chain.terms.items():
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            out.add(coefficient * (-1) ** i, face)
    return out


def straighten_simplex_terms(simplex):
    """All (d+1)! signed barycentric pieces of one ordered simplex.

    The flag v_{pi(0)} in {v_{pi(0)}, v_{pi(1)}} in ... receives sign(pi);
    barycenters are named by the vertex subset they average, so simplices
    with repeated vertices cancel to zero after summation.
    """
    indices = range(len(simplex))
    pieces = []
    for perm in itertools.permutations(indices):
        sign = _perm_index_sign(perm)
        flag = tuple(
            barycenter_label(simplex[i] for i in perm[: j + 1])
            for j in range(len(simplex))
        )
        pieces.append((sign, flag))
    return pieces


def _perm_index_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def straighten(chain, d):
    """Replace each d-simplex by its signed barycentric subdivision.

    Extends linearly; swapping two vertices of an input simplex negates the
    output, and a simplex with a repeated vertex straightens to zero.
    """
    out = Chain()
    for simplex, coefficient in chain.terms.items():
        if len(simplex) != d + 1:
            raise ValueError(
                f"term {simplex} is not a {d}-simplex"
            )
        for sign, piece in straighten_simplex_terms(simplex):
            out.add(coefficient * sign, piece)
    return out
