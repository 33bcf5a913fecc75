"""Colorings by filtration level, rainbow censuses, signed subdivision.

Vertices (and, implicitly, the relative interiors of all faces) are colored
by the pair (level, component of the level stratum).  Counting happens in
the barycentric subdivision of the refined complex, whose vertices are the
faces of the complex, so the census never needs a geometric rebuild.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .adjacency import fit_in_ball
from .complexes import Subpolyhedron, WeightedComplex
from .errors import CensusMismatch, SeparationViolation, UnalignedFiltration
from .filtration import Filtration, FiltrationLevel, is_r_separating


# ---------------------------------------------------------------------------
# refinement


def split_edge(complex_, u, v, t):
    """Split edge (u, v) at parameter t, re-triangulating incident cells.

    Returns (new_complex, new_vertex).  New edge lengths to the other
    vertices of each incident cell come from the flat metric of that cell.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("split parameter must be strictly inside the edge")
    u, v = (u, v) if u < v else (v, u)
    base_length = complex_.edge_length(u, v)
    new_vertex = max(complex_.vertices) + 1
    new_lengths = dict(complex_.edge_lengths)
    new_lengths[(u, new_vertex)] = t * base_length
    new_lengths[(v, new_vertex)] = (1.0 - t) * base_length
    new_simplices = []
    for cell in complex_.simplices:
        if u not in cell or v not in cell:
            new_simplices.append(cell)
            continue
        for other in cell:
            if other in (u, v):
                continue
            du = complex_.edge_length(u, other)
            dv = complex_.edge_length(v, other)
            # law of cosines along the edge (u, v)
            w_sq = (
                (1.0 - t) * du * du
                + t * dv * dv
                - t * (1.0 - t) * base_length * base_length
            )
            new_lengths[(other, new_vertex)] = math.sqrt(max(w_sq, 0.0))
        left = tuple(sorted(new_vertex if x == v else x for x in cell))
        right = tuple(sorted(new_vertex if x == u else x for x in cell))
        new_simplices.extend([left, right])
    refined = WeightedComplex(
        complex_.dimension,
        new_simplices,
        new_lengths,
        metadata=dict(complex_.metadata),
    )
    return refined, new_vertex


def refine_with_filtration(geometry, filtration, extra_points=()):
    """Make every filtration level a full subcomplex of the geometry.

    Levels built by the pipeline already are, and pass through unchanged.
    ``extra_points`` adds 0-level points given as (u, v, t) positions inside
    edges of the current subdivision; the complex is then flattened to a
    depth-0 weighted complex (node ids preserved), split at those points,
    and the filtration is remapped, with the new nodes joining Z_0.
    """
    for level in filtration.levels:
        for cell in level.subpolyhedron.cells:
            missing = [
                node for node in cell if node >= geometry.n_nodes or node < 0
            ]
            if missing:
                raise UnalignedFiltration(f"level cell {cell} is not in the complex")
    if not extra_points:
        return geometry, filtration

    flat = geometry.as_weighted_complex()
    new_nodes = []
    for u, v, t in extra_points:
        flat, vertex = split_edge(flat, u, v, t)
        new_nodes.append(vertex)

    refined = flat.geometry(0)

    def remap_cells(cells):
        out = []
        for cell in cells:
            pieces = [cell]
            if len(cell) >= 2:
                pieces = []
                # map through every split that touched this cell
                stack = [tuple(cell)]
                for vertex, (u, v, _) in zip(new_nodes, extra_points):
                    next_stack = []
                    for piece in stack:
                        if u in piece and v in piece:
                            next_stack.append(
                                tuple(sorted(vertex if x == v else x for x in piece))
                            )
                            next_stack.append(
                                tuple(sorted(vertex if x == u else x for x in piece))
                            )
                        else:
                            next_stack.append(piece)
                    stack = next_stack
                pieces = stack
            out.extend(tuple(sorted(p)) for p in pieces)
        return sorted(set(out))

    parent = refined
    rebuilt = []
    for i in range(filtration.dim - 1, -1, -1):
        level = filtration.levels[i]
        cells = remap_cells(level.subpolyhedron.cells)
        if i == 0:
            cells = sorted(set(cells) | {(node,) for node in new_nodes})
        sub = Subpolyhedron(parent, cells)
        check = is_r_separating(parent, sub, filtration.config.radius)
        if not check.separating:
            raise SeparationViolation(f"refined level {i} lost separation")
        rebuilt.append(
            FiltrationLevel(
                sub,
                sub.total_area(),
                level.slack,
                level.slack_kind,
                check.components,
            )
        )
        parent = sub
    rebuilt.reverse()
    return refined, Filtration(refined, filtration.config, rebuilt)


# ---------------------------------------------------------------------------
# coloring


@dataclass(frozen=True)
class ColorInfo:
    level: int
    component: int
    center: int | None
    radius: float
    nodes: int


class LevelColoring:
    """Node and face colors induced by (level, stratum component)."""

    def __init__(self, geometry, node_color, color_meta, face_color_table):
        self.geometry = geometry
        self.node_color = node_color
        self.color_meta = color_meta
        self._face_color = face_color_table

    def face_color(self, face):
        return self._face_color[tuple(sorted(face))]

    @property
    def colors(self):
        return sorted(self.color_meta)

    def to_json(self):
        return {
            "colors": [
                {
                    "id": color,
                    "level": info.level,
                    "component": info.component,
                    "center": info.center,
                    "radius": info.radius,
                    "nodes": info.nodes,
                }
                for color, info in sorted(self.color_meta.items())
            ]
        }


def color_by_filtration(geometry, filtration, radius):
    """Color faces by their stratum: same color iff same level and component.

    Each color class must fit in a ball of the given radius (the certificate
    is stored); otherwise SeparationViolation is raised.
    """
    n = geometry.dim
    # iterate top-down so the recorded level is the minimum one
    face_level = {}
    for i in range(n, -1, -1):
        for cell in filtration.level(i).cells:
            for size in range(1, len(cell) + 1):
                for face in itertools.combinations(cell, size):
                    face_level[face] = i

    face_color_table = {}
    color_meta = {}
    node_color = {}
    next_color = 0
    for i in range(n + 1):
        system = filtration.level(i).cell_system
        cells = system.cells
        if not cells:
            continue
        blocked = filtration.level(i - 1).cells if i > 0 else ()
        groups = system.component_groups(blocked)
        cell_component = {}
        for index, group in enumerate(groups):
            for member in group:
                cell_component[system.cells[member]] = index
        color_of_component = {}
        for index, group in enumerate(groups):
            color_of_component[index] = next_color
            next_color += 1
        # faces whose minimal level is i inherit the component of any
        # containing i-cell (passage through the face makes this unique)
        for cell in cells:
            component = cell_component[cell]
            for size in range(1, len(cell) + 1):
                for face in itertools.combinations(cell, size):
                    if face_level[face] == i and face not in face_color_table:
                        face_color_table[face] = color_of_component[component]
        class_nodes = {color: set() for color in color_of_component.values()}
        for node in range(geometry.n_nodes):
            face = (node,)
            if face_level.get(face) == i:
                color = face_color_table[face]
                node_color[node] = color
                class_nodes[color].add(node)
        for index, group in enumerate(groups):
            color = color_of_component[index]
            nodes = sorted(class_nodes[color])
            fit = fit_in_ball(geometry, nodes, radius)
            if not fit.fits:
                raise SeparationViolation(
                    f"color class at level {i} fits in no radius-{radius} ball"
                )
            color_meta[color] = ColorInfo(
                i, index, fit.center, fit.radius, len(nodes)
            )
    return LevelColoring(geometry, node_color, color_meta, face_color_table)


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
        return {
            "dimension": self.dimension,
            "total": self.total,
            "z0_count": self.z0_count,
            "expected_total": self.expected_total,
            "per_point": {str(k): v for k, v in sorted(self.per_point.items())},
            "color_count": self.color_count,
        }


def count_rainbow(geometry, coloring, filtration):
    """Count rainbow top simplices of the barycentric subdivision.

    A vertex of the subdivision is a face of the refined complex and wears
    that face's color.  Asserts the census identity: the total must be
    2^n * #Z_0 with exactly 2^n simplices per 0-level point; any failure
    raises CensusMismatch carrying the observed census.
    """
    n = geometry.dim
    z0 = filtration.z0_nodes()
    per_point = {node: 0 for node in z0}
    total = 0
    face_color = coloring.face_color
    for cell in geometry.cells:
        for perm in itertools.permutations(cell):
            flag = [tuple(sorted(perm[: j + 1])) for j in range(n + 1)]
            colors = {face_color(face) for face in flag}
            if len(colors) == n + 1:
                total += 1
                point_faces = [
                    face
                    for face in flag
                    if len(face) == 1
                    and coloring.color_meta[face_color(face)].level == 0
                ]
                if len(point_faces) == 1:
                    per_point[point_faces[0][0]] = (
                        per_point.get(point_faces[0][0], 0) + 1
                    )
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
