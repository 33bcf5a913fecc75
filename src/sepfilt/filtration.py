"""Area-minimizing R-separating subpolyhedra and separating filtrations.

The minimizer is a deterministic seeded local search over facet subsets of a
parent complex: greedy pruning from the full facet skeleton and
ball-replacement moves that swap the part of a candidate inside a ball for
the cut facets along the ball boundary.  Only without candidate facets,
which ``build_filtration`` always gives, does it also reseed once,
Voronoi-style from centers greedily packed at the radius.  Every accepted
state carries per-component ball certificates.
"""

from __future__ import annotations

import copy
import functools
import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from .adjacency import distinct, fit_in_ball
from .complexes import _BATCH, Subpolyhedron
from .errors import Infeasible, SeparationViolation
from .files import check_keys, same_value

_AREA_TOL = 1e-12
# Relative tolerance of a stored level area against its recomputed sum.
_AREA_RTOL = 1e-9
# The keys of one level's record in a filtration file, in writing order.
_LEVEL_KEYS = ("dim", "cells", "area", "slack", "slack_kind", "components")


@dataclass(frozen=True)
class SeparationConfig:
    """Knobs for one filtration run; all randomness flows from rng_seed.

    Level i of an n-dimensional filtration receives the slack
    eps / (2 n R^(n-i)), which makes the total accumulated slack
    sum 2 eps_i R^(n-i) equal the configured epsilon.
    """

    radius: float
    epsilon: float = 1e-6
    move_budget: int = 40
    rng_seed: int = 0
    subdivision_depth: int = 2

    def __post_init__(self):
        # a stored config is JSON: true reads as 1 and 2.5 as a count
        if isinstance(self.radius, bool) or isinstance(self.epsilon, bool):
            raise TypeError("radius and epsilon must be numbers, not booleans")
        for name in ("move_budget", "rng_seed", "subdivision_depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, not {value!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive and finite")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if self.move_budget < 0:
            raise ValueError("move budget must not be negative")

    def slacks(self, n):
        """The slacks eps_i of an n-dimensional filtration and their total
        sum 2 eps_i R^(n-i).  Raises ValueError unless all are positive and
        finite: R^(n-i) can overflow or underflow for R far from 1."""
        R = self.radius
        try:
            schedule = tuple(self.epsilon / (2.0 * n * R ** (n - i))
                             for i in range(n))
            total = sum(2.0 * e * R ** (n - i) for i, e in enumerate(schedule))
        except (OverflowError, ZeroDivisionError):
            total = math.inf  # fails the check below before schedule is read
        if not (0 < total < math.inf and all(0 < e < math.inf for e in schedule)):
            raise ValueError(f"radius {R} and epsilon {self.epsilon} give no "
                             f"positive, finite slacks in dimension {n}")
        return schedule, total


@dataclass(frozen=True)
class ComponentCert:
    """Ball certificate for one complement component: its cell count and
    the center and exact radius of a ball holding it, or no center (and an
    infinite radius) when it fits none.  A stored level's certificates
    also prove that the color classes of the level above fit their
    balls."""

    cells: int
    center: int | None
    radius: float


@dataclass(frozen=True)
class SeparationCheck:
    """Outcome of is_r_separating with one certificate per component."""

    separating: bool
    components: tuple


def _facet_ids(parent, candidate):
    """The facet ids of the candidate's cells, checked to be facets of the
    parent."""
    if isinstance(candidate, Subpolyhedron):
        if candidate.parent is parent:
            return candidate.facet_ids
        candidate = candidate.cells
    return Subpolyhedron(parent, candidate).facet_ids


@dataclass
class _Component:
    """One complement component: its cell indices and its feasible
    centers, the bitset ``graph.feasible_centers`` of its nodes.

    The component fits an R-ball exactly when ``centers`` is nonzero, and
    the feasible centers of a union are the AND of its parts' ones.
    """

    cells: list
    centers: int


def _fit_components(parent, labels, radius):
    """The complement components of the parent's cell labels ``labels``
    (``CellSystem.components``), each with its feasible radius-ball
    centers: one ``component_groups`` pass and one ``feasible_centers``
    call for all of them.

    Keys are component labels (smallest cell index), in ascending order.
    """
    cells, cell_starts, nodes, node_starts = parent.cell_system.component_groups(labels)
    centers = parent.root.graph.feasible_centers(nodes, node_starts, radius)
    cells, starts = cells.tolist(), cell_starts.tolist()
    return {
        cells[a]: _Component(cells[a:b], bits)
        for a, b, bits in zip(starts, [*starts[1:], len(cells)], centers)
    }


def _certificates(parent, components, radius):
    """One certificate per component, in label order: ``fit_in_ball`` of
    the nodes of its cells."""
    cell_nodes = parent.cell_system.cell_nodes
    certs = []
    for label in sorted(components):
        cells = components[label].cells
        fit = fit_in_ball(parent.root, distinct(cell_nodes[cells]), radius)
        certs.append(ComponentCert(len(cells), fit.center, fit.radius))
    return tuple(certs)


def is_r_separating(parent, candidate, radius):
    """Check that every component of parent minus candidate fits a ball.

    Components are computed on the dual adjacency of the parent's top cells,
    with passage blocked exactly by faces of candidate cells.  The returned
    check carries one certificate per component: its center and radius, or
    no center when the component fits no radius ball.
    """
    blocked = _facet_ids(parent, candidate)
    labels = parent.cell_system.components(blocked)
    components = _fit_components(parent, labels, radius)
    return SeparationCheck(
        all(c.centers for c in components.values()),
        _certificates(parent, components, radius),
    )


def sphere_replacement_move(parent, candidate, center, rho):
    """Swap the part of a candidate inside a ball for the ball's cut facets.

    Cells with a node at graph distance strictly below rho count as inside;
    candidate cells all of whose nodes are strictly inside are removed, and
    every facet between an inside and an outside cell is added.  When no node
    other than the center is strictly inside, the ball is below the mesh
    resolution and the candidate is returned unchanged.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    blocked = _facet_ids(parent, candidate)
    system = parent.cell_system
    dist = parent.root.graph.distances_within(center, rho)
    strict = dist < rho
    if int(strict.sum()) <= 1:
        return Subpolyhedron.of_facets(parent, blocked)
    kept = blocked[~strict[system.facets[blocked]].all(axis=1)]
    cut = system.cut_facets(strict[system.cell_nodes].any(axis=1))
    return Subpolyhedron.of_facets(parent, np.concatenate([kept, cut]))


@dataclass
class FiltrationLevel:
    """One level of a separating filtration and its ball certificates.

    ``moves_used`` counts the minimizer's ball-replacement proposals; it
    stays in memory and is not written to the file.
    """

    subpolyhedron: Subpolyhedron
    area: float
    slack: float
    slack_kind: str  # "certified" for provably optimal, else "assumed"
    certificates: tuple
    moves_used: int = 0


class _PruneState:
    """Incrementally maintained components while facets are removed.

    Only separating states are pruned.  ``try_remove(f)`` refuses f exactly
    when the union of the components around f's opened faces fits no
    R-ball: when the AND of their ``centers`` bitsets is 0.  Removals only
    merge components and lower cover counts, so each later union around f
    contains the refused one, and a set containing a set that fits no ball
    fits none.  So a refused facet stays refused and one pass reaches the
    fixpoint.

    ``z`` holds facet ids of the parent; ``area_of`` lists the face volume
    of each of its facets by id.  ``cover_count`` (``system.cover(z)``),
    ``labels`` (each cell's component label) and the bitsets are plain
    Python values: a removal touches only one closure's few faces and their
    cells, where indexing a list beats a NumPy call.  A state that is not
    ``feasible`` is never pruned, so it stops at its components' feasible
    centers: it holds only ``system``, ``comps`` and ``feasible``.
    """

    def __init__(self, parent, blocked, radius, area_of=None):
        """``blocked`` is an integer array of distinct facet ids."""
        self.system = system = parent.cell_system
        cover = system.cover(blocked)
        labels = system.components(blocked, cover)
        self.comps = _fit_components(parent, labels, radius)
        self.feasible = all(comp.centers for comp in self.comps.values())
        if not self.feasible:
            return
        self.z = set(blocked.tolist())
        if area_of is None:
            area_of = parent.face_volumes[: len(system.facets)].tolist()
        self.area_of = area_of
        self.cover_count = cover.tolist()
        self.area = math.fsum(map(area_of.__getitem__, self.z))
        self.labels = labels.tolist()

    def copy(self):
        """An independent state; ``try_remove`` replaces merged components
        and changes none in place."""
        clone = copy.copy(self)
        clone.z = set(self.z)
        clone.cover_count = list(self.cover_count)
        clone.comps = dict(self.comps)
        clone.labels = list(self.labels)
        return clone

    def try_remove(self, facet):
        """Remove one facet if the merge it causes still fits in a ball."""
        system = self.system
        closure = system.closure_lists[facet]
        cover, labels, cofaces = self.cover_count, self.labels, system.coface_lists
        # the labels of the cells around the faces only this facet blocks
        affected = {labels[cell] for face in closure if cover[face] == 1
                    for cell in cofaces[face]}
        if len(affected) > 1:
            comps = self.comps
            centers = functools.reduce(
                int.__and__, [comps[label].centers for label in affected])
            if not centers:
                return False
            target = min(affected)
            merged = _Component([], centers)
            for label in sorted(affected):
                part = comps.pop(label)
                merged.cells.extend(part.cells)
                if label != target:
                    for cell in part.cells:
                        labels[cell] = target
            comps[target] = merged
        self.z.discard(facet)
        self.area -= self.area_of[facet]
        for face in closure:
            cover[face] -= 1
        return True


def _prune(state, order_key=None):
    """One first-improvement removal pass; it ends at the fixpoint.  With
    no ``order_key`` the facets go by ascending id, the lexicographic order
    of their node rows."""
    for facet in sorted(state.z, key=order_key):
        state.try_remove(facet)
    return state


def _voronoi_seed(parent, radius):
    """Cross facets of a nearest-center partition of the parent cells.

    Centers are a greedy maximal node set at pairwise distance > radius;
    each cell goes to the center minimizing its farthest-node distance.
    Parts that fit no ball fall back to all their internal facets.
    """
    system, graph = parent.cell_system, parent.root.graph
    centers, rows = [], []
    for node in range(graph.n_nodes):
        if all(row[node] > radius for row in rows):
            centers.append(node)
            rows.append(graph.distances_from(node))
    rows = np.stack(rows)
    owner = np.argmin(rows[:, system.cell_nodes].max(axis=2), axis=0)
    candidate = set(system.cut_facets(owner).tolist())
    # repair parts that fit no ball by isolating their cells: a cell's
    # dim + 1 facets are its faces just before the cell itself
    facet_columns = slice(-system.dim - 2, -1)
    for _ in range(len(centers)):
        components = _fit_components(parent, system.components(candidate), radius)
        bad = [c.cells for c in components.values() if not c.centers]
        if not bad:
            break
        for cells in bad:
            candidate.update(system.cell_faces[cells, facet_columns].ravel().tolist())
    return np.fromiter(candidate, dtype=np.int64)


def minimize_separating(
    parent,
    radius,
    epsilon,
    move_budget=40,
    rng_seed=0,
    candidate_facets=None,
):
    """Local-search a low-area R-separating facet set of the parent.

    Deterministic for a fixed seed.  The search prunes from the full facet
    skeleton under several deterministic orders and spends the move budget
    on ball-replacement proposals.  Only when ``candidate_facets`` is
    omitted, which ``build_filtration`` never does, does it also reseed
    once, from the greedy center partition at the radius.  Returns the
    proved ``FiltrationLevel``.
    Raises Infeasible when not even the full candidate facet set separates.
    """
    system = parent.cell_system
    geometry = parent.root
    if not len(system.cell_nodes):
        return FiltrationLevel(Subpolyhedron(parent, ()), 0.0, 0.0, "certified", ())
    if candidate_facets is None:
        facets = list(range(len(system.facets)))
    else:
        facets = _facet_ids(parent, candidate_facets).tolist()
    rng = random.Random(rng_seed)

    empty_check = is_r_separating(parent, (), radius)
    if empty_check.separating:
        return FiltrationLevel(Subpolyhedron(parent, ()), 0.0, 0.0, "certified",
                               empty_check.components)

    candidate = np.zeros(len(system.facets), dtype=bool)
    candidate[facets] = True
    area_of = parent.face_volumes[: len(system.facets)].tolist()

    def area_key(facet):
        return (-area_of[facet], facet)

    def new_state(blocked):
        return _PruneState(parent, blocked, radius, area_of)

    # pruning keeps feasibility, so the full candidate set decides it
    full_state = new_state(np.flatnonzero(candidate))
    if not full_state.feasible:
        raise Infeasible(
            "the full candidate facet set is not separating at this radius"
        )
    best_state = _prune(full_state.copy())
    moves_used = 0

    def consider(state, order_key=None):
        nonlocal best_state
        if state.feasible:  # only separating states are pruned
            _prune(state, order_key)
            if state.area < best_state.area - _AREA_TOL:
                best_state = state

    consider(full_state.copy(), area_key)

    if candidate_facets is None:
        consider(new_state(_voronoi_seed(parent, radius)))

    for _ in range(2 if move_budget > 0 else 0):  # shuffled orders
        shuffled = list(facets)
        rng.shuffle(shuffled)
        shuffled_index = {facet: i for i, facet in enumerate(shuffled)}
        consider(full_state.copy(), shuffled_index.__getitem__)

    # ball-replacement proposals around the incumbent
    h = geometry.max_cell_diameter
    lo = min(0.25 * radius, max(radius - h, 0.05 * radius))
    hi = max(lo + 1e-9, radius * 0.999)
    incumbent = blocked = None  # the best state and its subpolyhedron
    while moves_used < move_budget:
        moves_used += 1
        center = rng.randrange(geometry.n_nodes)
        rho = rng.uniform(lo, hi)
        if incumbent is not best_state:
            incumbent = best_state
            blocked = Subpolyhedron.of_facets(parent, best_state.z)
        moved = sphere_replacement_move(parent, blocked, center, rho).facet_ids
        moved = moved[candidate[moved]]
        if np.array_equal(moved, blocked.facet_ids):
            continue
        consider(new_state(moved))

    certified = best_state.area == 0.0
    return FiltrationLevel(
        Subpolyhedron.of_facets(parent, best_state.z),
        best_state.area,
        0.0 if certified else epsilon,
        "certified" if certified else "assumed",
        _certificates(parent, best_state.comps, radius),
        moves_used,
    )


def _audit_certificates(level, certificates, groups, graph, radius):
    """Check a level's stored certificates against its complement
    components, the ``CellSystem.component_groups`` arrays ``groups``.

    Each certificate is the only proof that its component fits an R-ball:
    its center must see every node of the component within exactly the
    stored radius, read from the center's own row, and that radius must be
    at most R; distances are exact, so the radius is compared with ``==``.
    The cell count and the center are ints, never 1.0 or true.  Every row
    is read out to R: a node beyond R reads more than R (maybe ``inf``),
    which equals no stored radius.  The rows of the centers that pass the
    other checks are read in batches of about ``_BATCH`` entries, one
    ``rows_within`` call each: under ``sepfilt verify``, which names no
    ball table before ``validate``, one ``dijkstra`` call per level up to
    ``_BATCH / n_nodes`` certificates.  The first certificate that fails,
    in stored order, is the one reported.
    """
    cells, cell_starts, nodes, node_starts = groups
    sizes = np.diff(cell_starts, append=len(cells)).tolist()
    if len(certificates) != len(sizes):
        raise SeparationViolation(
            f"level {level}: {len(certificates)} stored components, "
            f"{len(sizes)} recomputed"
        )
    wrong = []
    for cert, size in zip(certificates, sizes):
        if not same_value(cert.cells, size):
            wrong.append(f"cells {cert.cells} (recomputed {size})")
        elif not (type(cert.center) is int and 0 <= cert.center < graph.n_nodes):
            wrong.append(f"center {cert.center!r} (not a node)")
        elif not cert.radius <= radius:
            wrong.append(f"radius {cert.radius!r} (above R = {radius})")
        else:
            wrong.append(None)
    read = [k for k, problem in enumerate(wrong) if problem is None]
    ends = [*node_starts[1:].tolist(), len(nodes)]
    size = max(1, _BATCH // graph.n_nodes)
    for start in range(0, len(read), size):
        batch = read[start : start + size]
        rows = graph.rows_within([certificates[k].center for k in batch],
                                 [radius] * len(batch))
        for k, row in zip(batch, rows):
            cert = certificates[k]
            ecc = float(row[nodes[node_starts[k] : ends[k]]].max())
            if ecc != cert.radius:
                wrong[k] = (f"radius {cert.radius!r} (center {cert.center} "
                            f"has eccentricity {ecc!r})")
    for k, problem in enumerate(wrong):
        if problem is not None:
            raise SeparationViolation(
                f"level {level} component {k}: stored {problem}"
            )


def _audit_measures(level, stored, cells, epsilon):
    """Compare a level's stored area, slack and slack kind with the ones
    re-derived from its cells.

    The area must lie within a relative ``_AREA_RTOL`` of the ``math.fsum``
    of the cells' volumes: the minimizer's area is a running subtraction,
    which rounds.  The slack and its kind must be exactly the minimizer's
    for the stored area: 0.0 and "certified" for an area of 0.0, else the
    level's scheduled epsilon and "assumed".
    """
    area = math.fsum(cells.cell_volumes.tolist())
    slack, kind = (0.0, "certified") if stored.area == 0.0 else (epsilon, "assumed")
    for field, value, derived, same in (
        ("area", stored.area, area,
         math.isclose(stored.area, area, rel_tol=_AREA_RTOL, abs_tol=0.0)),
        ("slack", stored.slack, slack, stored.slack == slack),
        ("slack_kind", stored.slack_kind, kind, stored.slack_kind == kind),
    ):
        if not same:
            raise SeparationViolation(
                f"level {level}: stored {field} {value!r} (re-derived {derived!r})"
            )


class Filtration:
    """Nested separating levels Z_n >= ... >= Z_0 over one geometry, nested
    by construction: each level is built on the very level above it."""

    def __init__(self, geometry, config, levels):
        self.geometry = geometry
        self.config = config
        if len(levels) != geometry.dim:
            raise ValueError("expected one level per dimension below the top")
        self.levels = tuple(levels)  # index i holds Z_i, i = 0..n-1
        for i, level in enumerate(self.levels):
            if level.subpolyhedron.parent is not self.level(i + 1):
                raise ValueError(f"level {i} is not built on level {i + 1}")

    @property
    def dim(self):
        return self.geometry.dim

    def level(self, i):
        """Z_i for 0 <= i <= n; Z_n is the geometry itself."""
        if not 0 <= i <= self.dim:
            raise IndexError(f"level {i} is outside 0..{self.dim}")
        if i == self.dim:
            return self.geometry
        return self.levels[i].subpolyhedron

    def z0_nodes(self):
        return tuple(cell[0] for cell in self.level(0).cells)

    @functools.cached_property
    def slacks(self):
        """The configured slack schedule and its total, computed once."""
        return self.config.slacks(self.dim)

    def validate(self):
        """Re-verify separation from the stored certificates, and the
        stored area, slack and slack kind of every level, top level first
        (``_audit_certificates``, ``_audit_measures``).

        The levels audited are the ones held, nested by construction.  A
        certificate that passes proves that its component fits an R-ball,
        so no ball is searched for."""
        radius = self.config.radius
        schedule, _ = self.slacks
        for i in range(self.dim - 1, -1, -1):
            level = self.levels[i]
            z = level.subpolyhedron
            system = z.parent.cell_system
            groups = system.component_groups(system.components(z.facet_ids))
            _audit_certificates(i, level.certificates, groups,
                                self.geometry.graph, radius)
            _audit_measures(i, level, z, schedule[i])
        return True

    def to_json(self):
        """The file record: the config and certificates as their dataclass
        fields, and one record per level with the keys ``_LEVEL_KEYS``."""
        return {
            "config": asdict(self.config),
            "dimension": self.dim,
            "levels": [
                dict(zip(_LEVEL_KEYS, (
                    i,
                    [list(cell) for cell in level.subpolyhedron.cells],
                    level.area,
                    level.slack,
                    level.slack_kind,
                    [asdict(c) for c in level.certificates],
                )))
                for i, level in enumerate(self.levels)
            ],
        }

    @classmethod
    def from_json(cls, geometry, payload):
        """The filtration of a ``to_json`` payload on ``geometry``.

        Each level must carry exactly the keys ``_LEVEL_KEYS`` and each
        certificate exactly the fields of ``ComponentCert``; a missing or
        extra key raises ValueError, KeyError or TypeError.  The stored
        ``dimension`` must be the geometry's and each level's ``dim`` its
        position, types included (``same_value``); a mismatch raises
        SeparationViolation.  A level that lists a cell twice, in any
        vertex order, raises ValueError."""
        config = SeparationConfig(**payload["config"])
        entries = payload["levels"]
        for i, entry in enumerate(entries):
            check_keys(f"level {i}", entry, _LEVEL_KEYS)
        for field, value, derived in [
            ("dimension: stored", payload["dimension"], geometry.dim),
            *((f"level {i}: stored dim", e["dim"], i) for i, e in enumerate(entries)),
        ]:
            if not same_value(value, derived):
                raise SeparationViolation(f"{field} {value!r} (re-derived {derived})")
        levels = []
        parent = geometry
        for entry in reversed(entries):
            sub = Subpolyhedron(parent, [tuple(c) for c in entry["cells"]])
            if len(sub) != len(entry["cells"]):
                raise ValueError(f"level {entry['dim']}: a cell is listed twice")
            levels.append(
                FiltrationLevel(
                    sub,
                    entry["area"],
                    entry["slack"],
                    entry["slack_kind"],
                    tuple(ComponentCert(**c) for c in entry["components"]),
                )
            )
            parent = sub
        levels.reverse()
        return cls(geometry, config, levels)


def build_filtration(geometry, config):
    """Minimize level by level from the top dimension down to points.

    The complex must be closed (every facet shared by exactly two cells);
    below the top level, candidate facets are restricted to those with
    exactly two cofaces in their parent so the filtration stays locally
    flat around its 0-stratum.
    """
    schedule, _ = config.slacks(geometry.dim)
    levels = []
    parent = geometry
    for i in range(geometry.dim - 1, -1, -1):
        system = parent.cell_system
        cofaces = np.diff(system.coface_ptr[: len(system.facets) + 1])
        if parent is geometry and (cofaces != 2).any():
            facet = int(np.argmax(cofaces != 2))
            raise ValueError(
                f"complex is not closed: facet {tuple(system.facets[facet].tolist())} "
                f"has {cofaces[facet]} cofaces"
            )
        candidates = np.flatnonzero(cofaces == 2)
        level = minimize_separating(
            parent,
            config.radius,
            schedule[i],
            move_budget=config.move_budget,
            rng_seed=config.rng_seed + i,
            candidate_facets=Subpolyhedron.of_facets(parent, candidates),
        )
        levels.append(level)
        parent = level.subpolyhedron
    levels.reverse()
    return Filtration(geometry, config, levels)
