"""Quantitative checks: point-density and coarea inequalities, greedy ball
packing, unit-ball volume estimation, and the final bound report.

Every inequality is evaluated with an explicit tolerance budget (ball
boundary credit plus quadrature error plus the configured slack); a check
only counts as violated when the residual falls below minus that budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import complexes
from .errors import RadiusOrder

_COAREA_SAMPLES = 64
_V1_RADIUS = 1.0
_PACKING_R_SMALL = 0.25
_PACKING_R_BIG = 0.5
# Balls per sweep chunk at most: larger chunks save no measured time on
# small graphs, and their balls-by-cells matrices raise the peak memory
# (search-genus, 153 balls: +0.5 MB).
_CHUNK_BALLS = 64


@dataclass(frozen=True)
class InequalityCheck:
    """One evaluated inequality: lhs <= rhs up to the stated budget."""

    kind: str
    center: int
    r1: float
    r2: float
    lhs: float
    rhs: float
    budget: float

    @property
    def residual(self):
        return self.rhs - self.lhs

    @property
    def violated(self):
        return self.residual < -self.budget

    def to_row(self):
        return [
            self.kind,
            self.center,
            self.r1,
            self.r2,
            self.lhs,
            self.rhs,
            self.residual,
            self.budget,
            int(self.violated),
        ]


def _check_radius_orders(samples):
    for _, r1, r2 in samples:
        if not 0 < r1 < r2:
            raise RadiusOrder(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")


def _chunks(geometry, samples, reads):
    """The samples ``(center, r1, r2)`` a chunk of balls at a time, with the
    distance rows their checks read: yields ``(at, chunk, rows, (r1s,
    whole1), (r2s, whole2))``, where ``chunk[k]`` is sample ``at[k]``,
    ``rows[k]`` its row and ``whole1[k]`` says whether
    ``holds_every_node`` proves its B(p, r1) whole.

    ``reads((r1s, whole1), (r2s, whole2))`` gives the radius each row is
    read out to, negative for no row.  Every sample is classified once
    before the first chunk, and the samples are taken in ascending order of
    the radius that classification reads them to, then of r2, so one
    chunk's rows are read out to like radii, and
    ``MetricGraph.rows_within`` reads each chunk's rows at once.  That
    first classification only orders the samples: a chunk's balls are
    classified again when its turn comes, and its reads come from that, so
    the complete rows read for earlier chunks have tightened ``reach``.
    The centers whose r2 is within the table's radius R are tabulated
    first, together.  A chunk's matrix of rows, balls by nodes, holds
    about ``_BATCH / 8`` entries (256 KB of float64), in at most
    ``_CHUNK_BALLS`` balls.
    """
    if not samples:
        return
    graph = geometry.graph
    graph.tabulate([c for c, _, r2 in samples if r2 <= graph.radius], graph.radius)
    centers, r1s, r2s = (np.array(column) for column in zip(*samples))
    first = reads((r1s, graph.holds_every_node(centers, r1s)),
                  (r2s, graph.holds_every_node(centers, r2s)))
    order = np.lexsort((r2s, first))
    size = max(1, min(_CHUNK_BALLS, complexes._BATCH // (8 * geometry.n_nodes)))
    for start in range(0, len(order), size):
        at = order[start : start + size]
        chunk = [samples[k] for k in at.tolist()]
        small = r1s[at], graph.holds_every_node(centers[at], r1s[at])
        large = r2s[at], graph.holds_every_node(centers[at], r2s[at])
        yield at, chunk, graph.rows_within(centers[at], reads(small, large)), small, large


def _row_radii(small, large):
    """The larger of two radii whose ball is not proven whole, -1 when both
    are: one row serves both balls, and a ball proven whole is measured
    whole."""
    (r1s, whole1), (r2s, whole2) = small, large
    return np.where(~whole2, r2s, np.where(~whole1, r1s, -1.0))


def _measures(z, rows, radii, whole):
    """(measure, boundary credit) of Z in each ball B(p_k, radii[k]) of a
    chunk, ``rows[k]`` exact out to the radius unless ``whole[k]``: a ball
    proven whole gets Z's cached ``whole_measure``.

    A cell counts by the fraction of its n + 1 nodes inside, so a cell with
    every node inside counts fully.  The boundary credit (total volume of
    partially counted cells) bounds the crediting error.  The node-in-ball
    counts are one gather per cell column over the chunk, and the sums are
    two matrix-vector products with Z's ``credited_volumes``: exact sums,
    so a ball's floats do not depend on the chunk it is measured in.
    """
    measures = np.full(len(radii), z.whole_measure[0])
    credits = np.zeros(len(radii))
    balls = np.flatnonzero(~whole)
    columns, volumes = z.cell_columns, z.credited_volumes
    if len(balls) and len(volumes):
        inside = (rows <= radii[:, None])[balls].view(np.uint8)
        counts = inside.take(columns[0], axis=1)
        for column in columns[1:]:
            counts += inside.take(column, axis=1)
        size = len(columns)
        measures[balls] = counts @ volumes / size
        credits[balls] = ((counts > 0) & (counts < size)) @ volumes
    return list(zip(measures.tolist(), credits.tolist()))


def _level_checks(filtration, samples, levels):
    """Per sample, in sample order, one check per ``(kind, i, slack)`` of
    ``levels``: #(Z_0 in B(p, r1)) (r2-r1)^i / i! against the credited area
    of Z_i in B(p, r2) plus the slack; the budget is the area's boundary
    credit.

    Each row is read out to r2, or only to r1 when B(p, r2) is proven whole
    and Z_0 is nonempty (an empty Z_0 counts 0 at any radius), or not at
    all when both balls are (``_row_radii``).  A ball proven whole counts
    Z_0 whole or measures its level whole.
    """
    geometry = filtration.geometry
    z0 = filtration.level(0).cells_array[:, 0]

    def reads(small, large):
        return _row_radii(small if len(z0) else large, large)

    checks = [None] * (len(samples) * len(levels))
    for at, chunk, rows, (r1s, whole1), (r2s, whole2) in _chunks(
        geometry, samples, reads
    ):
        inside = np.count_nonzero(rows[:, z0] <= r1s[:, None], axis=1)
        counts = np.where(whole1, len(z0), inside).tolist()
        areas = {i: _measures(filtration.level(i), rows, r2s, whole2)
                 for i in {i for _, i, _ in levels}}
        for k, (center, r1, r2) in enumerate(chunk):
            for j, (kind, i, slack) in enumerate(levels, at[k] * len(levels)):
                area, boundary = areas[i][k]
                lhs = counts[k] * (r2 - r1) ** i / math.factorial(i)
                checks[j] = InequalityCheck(
                    kind, int(center), float(r1), float(r2), lhs, area + slack,
                    boundary)
    return checks


def point_density_check(filtration, samples):
    """Compare #(Z_0 in B(p, r1)) (r2-r1)^n / n! against Vol B(p, r2) + eps
    for each sample ``(center, r1, r2)``, in sample order.

    This is the level-n check of the trace chain, whose slack is the
    filtration's total configured slack.  The budget is the ball-volume
    boundary credit at r2.  Every radius order is checked before the
    filtration is read.
    """
    _check_radius_orders(samples)
    return _level_checks(
        filtration, samples, [("density", filtration.dim, filtration.slacks[1])])


def level_trace_checks(filtration, samples):
    """The level-by-level chain of density inequalities for each sample,
    one check per level, levels in order and samples in sample order.

    Level i compares #(Z_0 in B(p, r1)) (r2-r1)^i / i! with the credited
    area of Z_i in B(p, r2) plus the accumulated slack sum 2 eps_j R^(i-j).
    """
    _check_radius_orders(samples)
    R = filtration.config.radius
    schedule, _ = filtration.slacks
    levels = [
        (f"trace{i}", i, sum(2.0 * schedule[j] * R ** (i - j) for j in range(i)))
        for i in range(filtration.dim + 1)
    ]
    return _level_checks(filtration, samples, levels)


def _slice_integrals(z, rows, r1s, r2s):
    """Trapezoid integrals over [r1, r2] of the area of Z inside B(p, rho),
    and their quadrature budgets, for the balls of a chunk whose rows are
    read out to r2.

    A cell is inside once rho reaches its farthest node.  The slice areas
    are running sums of ``credited_volumes`` in distance order: exact, so
    the order of tied cells, or of cells beyond r2, changes no value.
    """
    columns = z.cell_columns
    far = rows.take(columns[0], axis=1)
    for column in columns[1:]:
        np.maximum(far, rows.take(column, axis=1), out=far)
    # row-major, so each row's trapezoid sum is one pairwise sum over the
    # row, as for the row alone (linspace along axis 1 returns a transpose)
    rhos = np.ascontiguousarray(np.linspace(r1s, r2s, _COAREA_SAMPLES, axis=1))
    order = np.argsort(far, axis=1)
    far.sort(axis=1)  # the values of far in that order
    inside = np.array([row.searchsorted(rho, side="right")
                       for row, rho in zip(far, rhos)])
    # far becomes the running area sums, in that order, in place
    np.cumsum(z.credited_volumes.take(order, out=far), axis=1, out=far)
    del order
    values = np.where(inside > 0, np.take_along_axis(far, inside - 1, axis=1), 0.0)
    step = (r2s - r1s) / (_COAREA_SAMPLES - 1)
    budgets = step * (values.max(axis=1) - values.min(axis=1))
    return np.trapezoid(values, rhos, axis=1).tolist(), budgets.tolist()


def coarea_check(filtration, level, samples):
    """Trapezoid checks of the sliced-area inequality for one level, one
    per sample ``(center, r1, r2)``, in sample order.

    Integrates the area of Z_level inside B(p, rho) for rho in [r1, r2] and
    compares with the credited area of the parent level in the annulus plus
    2 eps R.  The budget covers quadrature error and both boundary credits.
    A nonempty level's rows are read out to r2 (``_slice_integrals``).  An
    empty level has an integral and budget of 0, and only the parent is
    measured, at r1 and r2: its row is read out to r2, or only to r1 when
    B(p, r2) is proven whole, or not at all when B(p, r1) is
    (``_row_radii``).  A ball proven whole is measured whole.
    """
    _check_radius_orders(samples)
    R = filtration.config.radius
    eps = filtration.slacks[0][level]
    z, parent = filtration.level(level), filtration.level(level + 1)
    reads = (lambda small, large: large[0]) if len(z) else _row_radii
    checks = [None] * len(samples)
    for at, chunk, rows, (r1s, whole1), (r2s, whole2) in _chunks(
        filtration.geometry, samples, reads
    ):
        if len(z):
            integrals, quad_budgets = _slice_integrals(z, rows, r1s, r2s)
        else:
            integrals = quad_budgets = [0.0] * len(chunk)
        outer = _measures(parent, rows, r2s, whole2)
        inner = _measures(parent, rows, r1s, whole1)
        for k, (center, r1, r2) in enumerate(chunk):
            (vol2, b2), (vol1, b1) = outer[k], inner[k]
            rhs = (vol2 - vol1) + 2.0 * eps * R
            checks[at[k]] = InequalityCheck(
                f"coarea{level}", int(center), float(r1), float(r2),
                integrals[k], rhs, quad_budgets[k] + b1 + b2)
    return checks


@dataclass(frozen=True)
class Packing:
    """Greedy maximal packing of small balls centered on 0-level points."""

    centers: tuple
    r_small: float
    r_big: float

    @property
    def count(self):
        return len(self.centers)


def greedy_packing(z0_nodes, geometry):
    """Greedy maximal collection of disjoint balls centered at Z_0 points.

    Centers are chosen in sorted node order, keeping pairwise graph distance
    strictly above 2 r_small (r_small = 0.25), and each center's row is read
    once, out to r_big = 0.5.  The concentric r_big balls cover all of Z_0
    with no check: every Z_0 point is a center, whose own row reads 0, or
    was skipped because some center's row read it at <= 2.0 * r_small, the
    float 0.5 = r_big (rows hold no NaN).
    """
    nodes = sorted(int(v) for v in z0_nodes)
    centers, rows = [], []
    for node in nodes:
        if all(row[node] > 2.0 * _PACKING_R_SMALL for row in rows):
            centers.append(node)
            rows.append(geometry.graph.distances_within(node, _PACKING_R_BIG))
    return Packing(tuple(centers), _PACKING_R_SMALL, _PACKING_R_BIG)


@dataclass(frozen=True)
class V1Estimate:
    """Max unit-ball volume over all nodes, with its scope caveat."""

    value: float
    argmax_node: int
    boundary_credit: float
    radius: float
    systole: float | None
    warning: str | None


def _node_weights(geometry):
    """Per node v, the sum of ``credited_volumes`` over the cells holding
    v.  The sum of these over a ball's nodes is the count x volume sum
    that ``_measures`` divides by n + 1, and as exact."""
    n = geometry.n_nodes
    weights = np.zeros(n)
    for column in geometry.cell_columns:
        weights += np.bincount(column, geometry.credited_volumes, minlength=n)
    return weights


def estimate_v1(geometry):
    """Maximize the ball volume at radius 1 over the metric-graph nodes.

    This is the base-space maximum; it equals the supremum over covers only
    when the systole exceeds twice the radius, so shorter (or unknown)
    systoles attach a warning instead of a silent number.

    Each ball not proven whole is summed over its nodes with
    ``_node_weights``: from its table row (``MetricGraph.table_sums``), or
    else from its row read through ``_chunks``.  These sums are exact, so
    the first node of largest sum, divided by n + 1, is the first node of
    largest ``_measures``, and only its ball is measured, for its boundary
    credit: from the row kept for it, or from the table, or whole.
    """
    graph, n = geometry.graph, geometry.n_nodes
    size = len(geometry.cell_columns)
    whole_sum = geometry.whole_measure[0] * size
    weights = _node_weights(geometry)
    whole = graph.holds_every_node(np.arange(n), _V1_RADIUS)
    sums = np.where(whole, whole_sum, -math.inf)
    tabled, tabled_sums, rest = graph.table_sums(
        np.flatnonzero(~whole), _V1_RADIUS, weights)
    sums[tabled] = tabled_sums
    kept, kept_row = -1, None  # the largest sum's node among ``rest``, its row
    samples = [(node, _V1_RADIUS, _V1_RADIUS) for node in rest.tolist()]
    for at, _, rows, _, (radii, holds) in _chunks(geometry, samples, _row_radii):
        nodes = rest[at]
        whole[nodes] = holds
        sums[nodes] = np.where(holds, whole_sum,
                               (rows <= radii[:, None]) @ weights)
        k = int(sums[nodes].argmax())
        if kept < 0 or sums[nodes[k]] > sums[kept]:
            kept, kept_row = int(nodes[k]), rows[k].copy()
    best = int(sums.argmax())
    row = kept_row if best == kept else graph.rows_within(
        [best], [-1.0 if whole[best] else _V1_RADIUS])[0]
    [(_, boundary)] = _measures(geometry, row[None], np.array([_V1_RADIUS]),
                                whole[[best]])
    systole = geometry.base.metadata.get("systole")
    warning = None
    if systole is None or systole <= 2.0 * _V1_RADIUS:
        cause = (f"systole {systole} <= {2 * _V1_RADIUS}" if systole is not None
                 else "systole unknown")
        warning = f"{cause}: the node maximum may undershoot the cover supremum"
    return V1Estimate(float(sums[best] / size), best, boundary, _V1_RADIUS,
                      systole, warning)


def _plain(value):
    """A ``Fraction`` as its numerator, denominator and float value, a
    dict value by value, anything else as it is."""
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator,
                "value": float(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class BoundReport:
    """Assembled upper bounds and the vanishing flag for one run."""

    dimension: int
    v1: object
    vol_m: object
    z0_count: int
    rainbow_bound: object
    constant_bound: object
    vanishing: bool
    vanishing_consistent: bool
    tolerances: dict

    def to_json(self):
        """The fields, each ``Fraction`` written by ``_plain``."""
        return _plain(asdict(self))


def bound_report(filtration, census, v1, vol_m):
    """Assemble the rainbow and constant bounds plus the vanishing flag.

    ``rainbow_bound`` is 2^n * #Z_0 and ``constant_bound`` is
    16^n (n!)^2 v1 vol_m, exact when v1 and vol_m are both rational (both
    are taken as Fractions then, else both as floats).  Vanishing means
    v1 < 1/n!, compared exactly for floats too, in which case a converged
    filtration must have an empty 0-level.
    """
    n = filtration.dim
    kind = Fraction if all(isinstance(x, Rational) for x in (v1, vol_m)) else float
    v1, vol_m = kind(v1), kind(vol_m)
    z0_count = census.z0_count if census is not None else len(filtration.z0_nodes())
    rainbow_bound = (2**n) * z0_count
    constant_bound = 16**n * math.factorial(n) ** 2 * v1 * vol_m
    vanishing = v1 < Fraction(1, math.factorial(n))
    return BoundReport(
        dimension=n,
        v1=v1,
        vol_m=vol_m,
        z0_count=z0_count,
        rainbow_bound=rainbow_bound,
        constant_bound=constant_bound,
        vanishing=vanishing,
        vanishing_consistent=(not vanishing) or rainbow_bound == 0,
        tolerances={"epsilon_total": filtration.slacks[1],
                    "max_cell_diameter": filtration.geometry.max_cell_diameter},
    )
