"""Fixture generators: circles, flat tori, and genus-g surfaces."""

from __future__ import annotations

import math

from .complexes import WeightedComplex
from .errors import BadParams

# interior ring of the genus surface, as a fraction of the polygon's size
_RING_FACTOR = 0.55


def circle(nodes, length):
    """Cycle with the given node count and total circumference."""
    if nodes < 3:
        raise BadParams("a simplicial circle needs at least 3 nodes")
    if length <= 0:
        raise BadParams("circumference must be positive")
    step = length / nodes
    simplices = [(i, (i + 1) % nodes) for i in range(nodes)]
    edges = {tuple(sorted(cell)): step for cell in simplices}
    return WeightedComplex(
        1,
        simplices,
        edges,
        metadata={"shape": "circle", "nodes": nodes, "length": length,
                  "systole": length},
    )


def torus(side, scale=1.0):
    """Flat square torus: side x side unit squares, each split by a diagonal."""
    if side < 3:
        raise BadParams("a simplicial torus needs side at least 3")
    if scale <= 0:
        raise BadParams("scale must be positive")

    def vid(i, j):
        return (i % side) * side + (j % side)

    simplices = []
    edges = {}

    def add_edge(a, b, length):
        edges[tuple(sorted((a, b)))] = length

    for i in range(side):
        for j in range(side):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            simplices.append((v00, v10, v11))
            simplices.append((v00, v01, v11))
            add_edge(v00, v10, scale)
            add_edge(v00, v01, scale)
            add_edge(v00, v11, scale * math.sqrt(2.0))
    return WeightedComplex(
        2,
        simplices,
        edges,
        metadata={"shape": "torus", "side": side, "scale": scale,
                  "systole": side * scale},
    )


def genus_surface(genus, scale=1.0):
    """Closed genus-g surface from an identified 4g-gon with unit sides.

    The polygon boundary follows the word a1 b1 a1' b1' ... ; each side is
    cut in thirds so the quotient is simplicial, and the interior is filled
    with a shrunken ring plus a central fan.  All corners map to one vertex.
    """
    if genus < 2:
        raise BadParams("use the torus generator for genus 1")
    if scale <= 0:
        raise BadParams("scale must be positive")

    sides = 4 * genus
    circumradius = scale / (2.0 * math.sin(math.pi / sides))
    corners = [
        (
            circumradius * math.cos(2.0 * math.pi * t / sides),
            circumradius * math.sin(2.0 * math.pi * t / sides),
        )
        for t in range(sides)
    ]

    def lerp(p, q, t):
        return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)

    # boundary slots: 3 per side (corner, 1/3 point, 2/3 point)
    slot_pos = []
    for s in range(sides):
        a, b = corners[s], corners[(s + 1) % sides]
        slot_pos.extend([a, lerp(a, b, 1.0 / 3.0), lerp(a, b, 2.0 / 3.0)])

    # identification classes: all corners -> vertex 0; the side pair
    # (4k, 4k+2) and (4k+1, 4k+3) glue with reversed orientation, so the
    # 1/3 point of one matches the 2/3 point of the other.
    vertex_class = {}
    next_id = 1
    for k in range(genus):
        for offset in (0, 1):
            s1, s2 = 4 * k + offset, 4 * k + offset + 2
            p_class, q_class = next_id, next_id + 1
            next_id += 2
            vertex_class[3 * s1 + 1] = p_class
            vertex_class[3 * s1 + 2] = q_class
            vertex_class[3 * s2 + 1] = q_class
            vertex_class[3 * s2 + 2] = p_class
    for s in range(sides):
        vertex_class[3 * s] = 0

    n_slots = 3 * sides
    ring_base = next_id
    center = ring_base + n_slots
    ring_pos = [(x * _RING_FACTOR, y * _RING_FACTOR) for x, y in slot_pos]

    simplices = []
    edges = {}

    def add_edge(a, b, p, q):
        key = tuple(sorted((a, b)))
        edges[key] = math.hypot(p[0] - q[0], p[1] - q[1])

    for i in range(n_slots):
        j = (i + 1) % n_slots
        bi, bj = vertex_class[i], vertex_class[j]
        ri, rj = ring_base + i, ring_base + j
        simplices.append((bi, bj, ri))
        simplices.append((bj, rj, ri))
        simplices.append((center, ri, rj))
        add_edge(bi, bj, slot_pos[i], slot_pos[j])
        add_edge(bi, ri, slot_pos[i], ring_pos[i])
        add_edge(bj, ri, slot_pos[j], ring_pos[i])
        add_edge(ri, rj, ring_pos[i], ring_pos[j])
        add_edge(bj, rj, slot_pos[j], ring_pos[j])
        add_edge(center, ri, (0.0, 0.0), ring_pos[i])
        add_edge(center, rj, (0.0, 0.0), ring_pos[j])
    return WeightedComplex(
        2,
        simplices,
        edges,
        metadata={"shape": "genus_surface", "genus": genus, "scale": scale},
    )
