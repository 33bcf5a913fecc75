import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepfilt.errors import CensusMismatch
from sepfilt.rainbow import (
    Chain,
    ColorInfo,
    LevelColoring,
    boundary,
    color_by_filtration,
    count_rainbow,
    straighten,
    straighten_simplex_terms,
)


# ---------------------------------------------------------------------------
# independent census oracle


def census_oracle(geometry, filtration):
    """Recount rainbow simplices with independently derived face colors.

    Levels and stratum components are recomputed here with a plain flood
    fill; only the filtration's level cell lists are shared with the
    implementation under test.
    """
    n = geometry.dim
    level_faces = {}
    for i in range(n + 1):
        faces = set()
        for cell in filtration.level(i).cells:
            for size in range(1, len(cell) + 1):
                faces.update(itertools.combinations(cell, size))
        level_faces[i] = faces

    def face_level(face):
        return min(i for i in range(n + 1) if face in level_faces[i])

    # stratum components per level by flood fill over shared faces
    component_of = {}
    for i in range(n + 1):
        cells = list(filtration.level(i).cells)
        blocked = level_faces[i - 1] if i > 0 else set()
        adjacency = {}
        for index, cell in enumerate(cells):
            for size in range(1, len(cell)):
                for face in itertools.combinations(cell, size):
                    if face not in blocked:
                        adjacency.setdefault(face, []).append(index)
        labels = list(range(len(cells)))

        def find(x):
            while labels[x] != x:
                labels[x] = labels[labels[x]]
                x = labels[x]
            return x

        for members in adjacency.values():
            for other in members[1:]:
                labels[find(other)] = find(members[0])
        for index, cell in enumerate(cells):
            component_of[(i, cell)] = (i, find(index))

    def face_color(face):
        i = face_level(face)
        for cell in filtration.level(i).cells:
            if set(face) <= set(cell):
                return component_of[(i, cell)]
        raise AssertionError(f"face {face} not in its level")

    total = 0
    per_point = {}
    for cell in geometry.cells:
        for perm in itertools.permutations(cell):
            flag = [tuple(sorted(perm[: j + 1])) for j in range(n + 1)]
            colors = [face_color(f) for f in flag]
            if len(set(colors)) == n + 1:
                total += 1
                zero_faces = [f for f, c in zip(flag, colors) if c[0] == 0]
                assert len(zero_faces) == 1 and len(zero_faces[0]) == 1
                point = zero_faces[0][0]
                per_point[point] = per_point.get(point, 0) + 1
    return total, per_point


def face_tuples(geometry):
    """Every face of the geometry as a node tuple, in face id order."""
    return [
        tuple(row)
        for rows in geometry.cell_system.face_rows.values()
        for row in rows.tolist()
    ]


def color_table(coloring):
    """The coloring's face colors keyed by face node tuples."""
    faces = face_tuples(coloring.geometry)
    return dict(zip(faces, coloring.face_colors.tolist()))


def loop_census(geometry, coloring, z0):
    """count_rainbow's tally taken flag by flag: (total, per_point), with
    per_point keyed by Z_0 first, then other nodes as they are counted."""
    n = geometry.dim
    face_color = color_table(coloring)
    per_point = {node: 0 for node in z0}
    total = 0
    for cell in geometry.cells:
        for perm in itertools.permutations(cell):
            flag = [tuple(sorted(perm[: j + 1])) for j in range(n + 1)]
            if len({face_color[face] for face in flag}) == n + 1:
                total += 1
                point = flag[0][0]
                if coloring.color_meta[face_color[flag[0]]].level == 0:
                    per_point[point] = per_point.get(point, 0) + 1
    return total, per_point


# ---------------------------------------------------------------------------
# coloring


def test_single_level_single_color(tiny_torus_filtration):
    geometry = tiny_torus_filtration.geometry
    coloring = color_by_filtration(geometry, tiny_torus_filtration)
    assert len(coloring.color_meta) == 1
    info = coloring.color_meta[0]
    assert info.level == geometry.dim


def test_circle_coloring_four_colors(circle_filtration, circle8_geom):
    coloring = color_by_filtration(circle8_geom, circle_filtration)
    levels = sorted(
        (info.level, info.component) for info in coloring.color_meta.values()
    )
    assert levels == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_color_count_matches_component_oracle(torus_filtration_d1, torus4_d1):
    coloring = color_by_filtration(torus4_d1, torus_filtration_d1)
    _, per_point = census_oracle(torus4_d1, torus_filtration_d1)
    # oracle component count per level via the same flood fill
    expected = 0
    n = torus4_d1.dim
    for i in range(n + 1):
        cells = list(torus_filtration_d1.level(i).cells)
        if not cells:
            continue
        blocked = set()
        if i > 0:
            for cell in torus_filtration_d1.level(i - 1).cells:
                for size in range(1, len(cell) + 1):
                    blocked.update(itertools.combinations(cell, size))
        adjacency = {}
        for index, cell in enumerate(cells):
            for size in range(1, len(cell)):
                for face in itertools.combinations(cell, size):
                    if face not in blocked:
                        adjacency.setdefault(face, []).append(index)
        labels = list(range(len(cells)))

        def find(x):
            while labels[x] != x:
                labels[x] = labels[labels[x]]
                x = labels[x]
            return x

        for members in adjacency.values():
            for other in members[1:]:
                labels[find(other)] = find(members[0])
        expected += len({find(i) for i in range(len(cells))})
    assert len(coloring.color_meta) == expected


@pytest.mark.parametrize(
    "name",
    [
        "circle_filtration",
        "tiny_torus_filtration",
        "torus_filtration_d1",
        "torus_filtration_d2",
        "small_genus_filtration",
    ],
)
def test_color_classes_lie_in_their_certified_balls(name, request):
    # the classes of level i >= 1 are level i - 1's certified components in
    # certificate order; a level-0 class is one point
    filtration = request.getfixturevalue(name)
    geometry = filtration.geometry
    coloring = color_by_filtration(geometry, filtration)
    node_faces = geometry.cell_system.offsets[1] + np.arange(geometry.n_nodes)
    node_colors = coloring.face_colors[node_faces]
    for i in range(geometry.dim + 1):
        classes = sorted(
            (info.component, color)
            for color, info in coloring.color_meta.items()
            if info.level == i
        )
        assert [k for k, _ in classes] == list(range(len(classes)))
        members = [np.flatnonzero(node_colors == color) for _, color in classes]
        assert [len(nodes) for nodes in members] == [
            coloring.color_meta[color].nodes for _, color in classes
        ]
        if i == 0:
            assert all(len(nodes) == 1 for nodes in members)
            continue
        certificates = filtration.levels[i - 1].certificates
        assert len(classes) == len(certificates)
        for cert, nodes in zip(certificates, members):
            assert cert.radius <= filtration.config.radius
            row = geometry.graph.distances_from(cert.center)
            assert row[nodes].max() <= cert.radius


def test_face_compatibility(torus_filtration_d1, torus4_d1):
    # vertices sharing a simplex are same-colored or at different levels
    coloring = color_by_filtration(torus4_d1, torus_filtration_d1)
    node_faces = torus4_d1.cell_system.offsets[1]
    for cell in torus4_d1.cells:
        for a, b in itertools.combinations(cell, 2):
            ca = coloring.face_colors[node_faces + a]
            cb = coloring.face_colors[node_faces + b]
            if ca != cb:
                assert (
                    coloring.color_meta[ca].level != coloring.color_meta[cb].level
                )


def walk_face_colors(geometry, filtration, coloring):
    """Face colors by a walk over every face of every level cell: a face
    takes its minimal level and the color of the first cell of that level
    containing it.  Cell colors are read from the coloring."""
    n = geometry.dim
    cell_color = color_table(coloring)
    face_level = {}
    for i in range(n, -1, -1):
        for cell in filtration.level(i).cells:
            for size in range(1, len(cell) + 1):
                for face in itertools.combinations(cell, size):
                    face_level[face] = i
    table = {}
    for i in range(n + 1):
        for cell in filtration.level(i).cells:
            for size in range(1, len(cell) + 1):
                for face in itertools.combinations(cell, size):
                    if face_level[face] == i and face not in table:
                        table[face] = cell_color[cell]
    return table


@pytest.mark.parametrize(
    "name",
    [
        "circle_filtration",
        "tiny_torus_filtration",
        "torus_filtration_d1",
        "torus_filtration_d2",
    ],
)
def test_face_colors_match_face_walk(name, request):
    filtration = request.getfixturevalue(name)
    geometry = filtration.geometry
    coloring = color_by_filtration(geometry, filtration)
    table = walk_face_colors(geometry, filtration, coloring)
    assert dict(zip(face_tuples(geometry), coloring.face_colors.tolist())) == table


# ---------------------------------------------------------------------------
# census


def test_census_empty_z0(tiny_torus_filtration):
    geometry = tiny_torus_filtration.geometry
    coloring = color_by_filtration(geometry, tiny_torus_filtration)
    census = count_rainbow(geometry, coloring, tiny_torus_filtration)
    assert census.total == 0
    assert census.z0_count == 0


def test_census_circle_two_points(circle_filtration, circle8_geom):
    coloring = color_by_filtration(circle8_geom, circle_filtration)
    census = count_rainbow(circle8_geom, coloring, circle_filtration)
    # one-dimensional identity: 2 per 0-level point
    assert census.total == 4
    assert all(count == 2 for count in census.per_point.values())


def test_census_matches_oracle_on_torus(torus_filtration_d1, torus4_d1):
    coloring = color_by_filtration(torus4_d1, torus_filtration_d1)
    census = count_rainbow(torus4_d1, coloring, torus_filtration_d1)
    oracle_total, oracle_per_point = census_oracle(torus4_d1, torus_filtration_d1)
    assert census.total == oracle_total
    assert census.per_point == oracle_per_point
    assert census.total == 4 * census.z0_count


def test_rainbow_level_structure(torus_filtration_d1, torus4_d1):
    # every rainbow flag hits each level exactly once
    n = torus4_d1.dim
    coloring = color_by_filtration(torus4_d1, torus_filtration_d1)
    face_color = color_table(coloring)
    for cell in torus4_d1.cells:
        for perm in itertools.permutations(cell):
            flag = [tuple(sorted(perm[: j + 1])) for j in range(n + 1)]
            colors = [face_color[f] for f in flag]
            if len(set(colors)) == n + 1:
                levels = sorted(coloring.color_meta[c].level for c in colors)
                assert levels == list(range(n + 1))


def test_census_mismatch_on_tampered_filtration(torus_filtration_d1, torus4_d1):
    # dropping one 0-level point breaks the per-point identity bookkeeping
    from sepfilt.complexes import Subpolyhedron
    from sepfilt.filtration import Filtration, FiltrationLevel

    z0 = torus_filtration_d1.levels[0]
    z1 = torus_filtration_d1.levels[1]
    # recolor with the full filtration but count against a tampered one
    coloring = color_by_filtration(torus4_d1, torus_filtration_d1)
    tampered = Filtration(
        torus4_d1,
        torus_filtration_d1.config,
        [
            FiltrationLevel(
                Subpolyhedron(z1.subpolyhedron, z0.subpolyhedron.cells[1:]),
                float(len(z0.subpolyhedron.cells) - 1),
                z0.slack,
                z0.slack_kind,
                (),
            ),
            z1,
        ],
    )
    with pytest.raises(CensusMismatch) as raised:
        count_rainbow(torus4_d1, coloring, tampered)
    # the error carries the census a flag-by-flag count gives
    total, per_point = loop_census(torus4_d1, coloring, tampered.z0_nodes())
    assert raised.value.census.total == total
    assert list(raised.value.census.per_point.items()) == list(per_point.items())


@pytest.mark.parametrize(
    "name",
    [
        "circle_filtration",
        "tiny_torus_filtration",
        "torus_filtration_d1",
        "torus_filtration_d2",
    ],
)
def test_census_matches_flag_loop(name, request):
    filtration = request.getfixturevalue(name)
    geometry = filtration.geometry
    coloring = color_by_filtration(geometry, filtration)
    census = count_rainbow(geometry, coloring, filtration)
    total, per_point = loop_census(geometry, coloring, filtration.z0_nodes())
    assert census.total == total
    assert list(census.per_point.items()) == list(per_point.items())


class _Points:
    """Stands in for a filtration whose level 0 is the given nodes."""

    def __init__(self, nodes):
        self.nodes = nodes

    def z0_nodes(self):
        return self.nodes


def test_census_matches_flag_loop_on_random_3d_colorings(sphere3):
    # the 3-sphere with random face colors: 24 flags per cell, rainbow or
    # not, and points counted outside the given Z_0
    geometry = sphere3.geometry(1)
    rng = random.Random(5)
    meta = {color: ColorInfo(color % 4, 0, 0) for color in range(6)}
    for _ in range(5):
        table = {
            face: rng.randrange(6)
            for cell in geometry.cells
            for size in range(1, 5)
            for face in itertools.combinations(cell, size)
        }
        face_colors = np.array([table[face] for face in face_tuples(geometry)])
        coloring = LevelColoring(geometry, meta, face_colors)
        z0 = sorted(rng.sample(range(geometry.n_nodes), 3))
        try:
            census = count_rainbow(geometry, coloring, _Points(z0))
        except CensusMismatch as error:
            census = error.census
        total, per_point = loop_census(geometry, coloring, z0)
        assert total > 0
        assert census.total == total
        assert list(census.per_point.items()) == list(per_point.items())


# ---------------------------------------------------------------------------
# straightening


def test_straighten_edge_example():
    pieces = straighten_simplex_terms((0, 1))
    assert pieces == [
        (1, (0, frozenset({0, 1}))),
        (-1, (1, frozenset({0, 1}))),
    ]


def test_piece_count():
    for d in range(1, 5):
        simplex = tuple(range(d + 1))
        assert len(straighten_simplex_terms(simplex)) == math.factorial(d + 1)


def test_repeated_vertex_straightens_to_zero():
    assert straighten(Chain([(1, (3, 3))]), 1).is_zero()
    assert straighten(Chain([(2, (0, 1, 1))]), 2).is_zero()
    assert straighten(Chain([(1, (5, 2, 5, 7))]), 3).is_zero()


@given(st.permutations(range(4)))
@settings(max_examples=24, deadline=None)
def test_transposition_sign(perm):
    base = straighten(Chain([(1, tuple(range(4)))]), 3)
    permuted = straighten(Chain([(1, tuple(perm))]), 3)
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if perm[i] > perm[j]:
                sign = -sign
    expected = {k: sign * v for k, v in base.terms.items()}
    assert permuted.terms == expected


def _random_chain(rng, d, labels=8, terms=4):
    chain = Chain()
    for _ in range(terms):
        simplex = tuple(rng.sample(range(labels), d + 1))
        chain.add(rng.randrange(-5, 6), simplex)
    return chain


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chain_map_commutes(d):
    # straightening is the identity on 0-chains, so d = 1 works uniformly
    rng = random.Random(100 + d)
    for _ in range(100):
        chain = _random_chain(rng, d)
        lhs = boundary(straighten(chain, d))
        rhs = straighten(boundary(chain), d - 1)
        assert lhs == rhs


def test_straighten_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        straighten(Chain([(1, (0, 1))]), 2)


def test_boundary_squares_to_zero():
    rng = random.Random(77)
    for d in (1, 2, 3, 4):
        chain = _random_chain(rng, d)
        assert boundary(boundary(chain)).is_zero()


# independent oracle: the classical cone-recursive subdivision operator.
# Our operator lists each piece's vertices along increasing flags; the cone
# construction lists them decreasing, so the two agree up to reversing each
# piece and a dimension-dependent sign.


def cone_subdivision(simplex):
    """Cone-based subdivision: sd(s) = cone_b(sd(boundary s)), sd([v]) = [v]."""
    from sepfilt.rainbow import barycenter_label

    def sd(chain, dim):
        if dim == 0:
            return chain
        out = Chain()
        for piece, coefficient in chain.terms.items():
            apex = barycenter_label(piece)
            inner = sd(boundary(Chain([(1, piece)])), dim - 1)
            for sub, c2 in inner.terms.items():
                out.add(coefficient * c2, (apex,) + sub)
        return out

    return sd(Chain([(1, simplex)]), len(simplex) - 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_straighten_matches_cone_oracle(d):
    simplex = tuple(range(d + 1))
    ours = straighten(Chain([(1, simplex)]), d)
    oracle = cone_subdivision(simplex)
    reversal_sign = (-1) ** (d * (d + 1) // 2)
    reversed_oracle = Chain(
        [(reversal_sign * c, tuple(reversed(piece)))
         for piece, c in oracle.terms.items()]
    )
    assert ours == reversed_oracle
