"""Quantitative checks: point-density and coarea inequalities, greedy ball
packing, unit-ball volume estimation, and the final bound report.

Every inequality is evaluated with an explicit tolerance budget (ball
boundary credit plus quadrature error plus the configured slack); a check
only counts as violated when the residual falls below minus that budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .complexes import credited_measure
from .errors import CoverFailure, RadiusOrder

_COAREA_SAMPLES = 64
_V1_RADIUS = 1.0
_PACKING_R_SMALL = 0.25
_PACKING_R_BIG = 0.5


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


def _check_radius_order(r1, r2):
    if not 0 < r1 < r2:
        raise RadiusOrder(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")


def _measure(z, dist, r):
    """``credited_measure`` of Z in B(p, r); a ``None`` row means the ball
    holds every node, so Z's cached whole measure is the same floats."""
    if dist is None:
        return z.whole_measure
    return credited_measure(z.cells_array, z.cell_volumes, dist, r)


def _ball_rows(graph, center, r1, r2):
    """The distance rows for B(p, r1) and B(p, r2), ``None`` for a ball
    ``holds_every_node`` proves whole (measured whole).  One row serves
    both, read out to the larger radius whose ball is not proven whole;
    when both balls are, no row is read."""
    if not graph.holds_every_node(center, r2):
        dist = graph.distances_within(center, r2)
        return dist, dist
    if not graph.holds_every_node(center, r1):
        return graph.distances_within(center, r1), None
    return None, None


def _ball_row(filtration, center, r1, r2):
    """Distance row for the r2 balls (or ``None``) and #(Z_0 in B(p, r1)).

    The radius order is checked before the filtration is read.  The density
    and trace checks count Z_0 in B(p, r1) and measure every level in
    B(p, r2), so the row is read out to r2, or only to r1 when B(p, r2) is
    proven whole and Z_0 is nonempty (an empty Z_0 counts 0 at any radius),
    or not at all when both balls are (``_ball_rows``).  A ball proven
    whole counts Z_0 whole or measures its level whole.
    """
    _check_radius_order(r1, r2)
    graph = filtration.geometry.graph
    z0 = filtration.level(0).cells_array[:, 0]
    row1, row2 = _ball_rows(graph, center, r1 if len(z0) else r2, r2)
    count = len(z0) if row1 is None else int((row1[z0] <= r1).sum())
    return row2, count


def _level_check(kind, filtration, i, slack, center, r1, r2, dist, count):
    """#(Z_0 in B(p, r1)) (r2-r1)^i / i! against the credited area of Z_i in
    B(p, r2) plus ``slack``; the budget is the area's boundary credit."""
    area, boundary = _measure(filtration.level(i), dist, r2)
    lhs = count * (r2 - r1) ** i / math.factorial(i)
    return InequalityCheck(
        kind, int(center), float(r1), float(r2), lhs, area + slack, boundary
    )


def point_density_check(filtration, center, r1, r2):
    """Compare #(Z_0 in B(p, r1)) (r2-r1)^n / n! against Vol B(p, r2) + eps.

    This is the level-n check of the trace chain, whose slack is the
    filtration's total configured slack.  The budget is the ball-volume
    boundary credit at r2.
    """
    row = _ball_row(filtration, center, r1, r2)
    n, eps = filtration.dim, filtration.slacks[1]
    return _level_check("density", filtration, n, eps, center, r1, r2, *row)


def level_trace_checks(filtration, center, r1, r2):
    """The level-by-level chain of density inequalities, one check per level.

    Level i compares #(Z_0 in B(p, r1)) (r2-r1)^i / i! with the credited
    area of Z_i in B(p, r2) plus the accumulated slack sum 2 eps_j R^(i-j).
    """
    row = _ball_row(filtration, center, r1, r2)
    R = filtration.config.radius
    schedule, _ = filtration.slacks
    checks = []
    for i in range(filtration.dim + 1):
        slack = sum(2.0 * schedule[j] * R ** (i - j) for j in range(i))
        check = _level_check(f"trace{i}", filtration, i, slack, center, r1, r2, *row)
        checks.append(check)
    return checks


def coarea_check(filtration, level, center, r1, r2):
    """Trapezoid check of the sliced-area inequality for one level.

    Integrates the area of Z_level inside B(p, rho) for rho in [r1, r2] and
    compares with the credited area of the parent level in the annulus plus
    2 eps R.  The budget covers quadrature error and both boundary credits.
    A nonempty level's row is read out to r2.  Its slice areas are summed
    in distance order, sorted stably, so tied cells keep their cell order
    and the cells within r2, the only ones summed, come in the same order
    whatever the entries beyond r2 read.  An empty level has an integral
    and budget of 0, and only the parent is measured, at r1 and r2: its row
    is read out to r2, or only to r1 when B(p, r2) is proven whole, or not
    at all when B(p, r1) is (``_ball_rows``), and a ball proven whole is
    measured whole.
    """
    _check_radius_order(r1, r2)
    graph = filtration.geometry.graph
    R = filtration.config.radius
    eps = filtration.slacks[0][level]
    z = filtration.level(level)
    if not len(z):
        row1, row2 = _ball_rows(graph, center, r1, r2)
        integral, quad_budget = 0.0, 0.0
    else:
        row1 = row2 = dist = graph.distances_within(center, r2)
        max_dist = dist[z.cells_array].max(axis=1)
        order = np.argsort(max_dist, kind="stable")
        cumulative = np.concatenate(([0.0], np.cumsum(z.cell_volumes[order])))
        rhos = np.linspace(r1, r2, _COAREA_SAMPLES)
        values = cumulative[np.searchsorted(max_dist[order], rhos, side="right")]
        integral = float(np.trapezoid(values, rhos))
        step = (r2 - r1) / (_COAREA_SAMPLES - 1)
        quad_budget = step * float(values.max() - values.min())

    parent = filtration.level(level + 1)
    vol2, b2 = _measure(parent, row2, r2)
    vol1, b1 = _measure(parent, row1, r1)
    rhs = (vol2 - vol1) + 2.0 * eps * R
    return InequalityCheck(
        f"coarea{level}", int(center), float(r1), float(r2), integral, rhs,
        quad_budget + b1 + b2,
    )


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
    strictly above 2 r_small (r_small = 0.25); the concentric r_big = 0.5
    balls must cover all of Z_0, else CoverFailure (impossible for a maximal
    packing since r_big >= 2 r_small, unless the metric itself is broken).
    Both tests compare with 2 r_small = r_big, so each center's row is read
    once, out to r_big.
    """
    nodes = sorted(int(v) for v in z0_nodes)
    centers, rows = [], []
    for node in nodes:
        if all(row[node] > 2.0 * _PACKING_R_SMALL for row in rows):
            centers.append(node)
            rows.append(geometry.graph.distances_within(node, _PACKING_R_BIG))
    for node in nodes:
        if not any(row[node] <= _PACKING_R_BIG for row in rows):
            raise CoverFailure(
                f"point {node} is not covered by any doubled packing ball"
            )
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

    def to_json(self):
        return {
            "value": self.value,
            "argmax_node": self.argmax_node,
            "boundary_credit": self.boundary_credit,
            "radius": self.radius,
            "systole": self.systole,
            "warning": self.warning,
        }


def estimate_v1(geometry):
    """Maximize the ball volume at radius 1 over the metric-graph nodes.

    This is the base-space maximum; it equals the supremum over covers only
    when the systole exceeds twice the radius, so shorter (or unknown)
    systoles attach a warning instead of a silent number.  The rows of
    balls not proven whole are read in batches; the first largest wins.
    """
    graph = geometry.graph
    measures = [geometry.whole_measure] * geometry.n_nodes
    nodes = [node for node in range(geometry.n_nodes)
             if not graph.holds_every_node(node, _V1_RADIUS)]
    for node, row in graph.rows_within(nodes, _V1_RADIUS):
        measures[node] = _measure(geometry, row, _V1_RADIUS)
    best_node = max(range(geometry.n_nodes), key=lambda node: measures[node][0])
    best, best_boundary = measures[best_node]
    systole = geometry.base.metadata.get("systole")
    warning = None
    if systole is None:
        warning = (
            "systole unknown: the node maximum may undershoot the "
            "cover supremum"
        )
    elif systole <= 2.0 * _V1_RADIUS:
        warning = (
            f"systole {systole} <= {2 * _V1_RADIUS}: the node maximum may "
            "undershoot the cover supremum"
        )
    return V1Estimate(best, best_node, best_boundary, _V1_RADIUS, systole, warning)


def _exact_or_float(value):
    if isinstance(value, Rational):
        return Fraction(value)
    return float(value)


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
        def plain(x):
            if isinstance(x, Fraction):
                return {"numerator": x.numerator, "denominator": x.denominator,
                        "value": float(x)}
            return x

        return {
            "dimension": self.dimension,
            "v1": plain(self.v1),
            "vol_m": plain(self.vol_m),
            "z0_count": self.z0_count,
            "rainbow_bound": plain(self.rainbow_bound),
            "constant_bound": plain(self.constant_bound),
            "vanishing": self.vanishing,
            "vanishing_consistent": self.vanishing_consistent,
            "tolerances": {k: plain(v) for k, v in sorted(self.tolerances.items())},
        }


def bound_report(filtration, census, v1, vol_m, tolerances=None):
    """Assemble the rainbow and constant bounds plus the vanishing flag.

    ``rainbow_bound`` is 2^n * #Z_0 and ``constant_bound`` is
    16^n (n!)^2 v1 vol_m; arithmetic is exact when v1 and vol_m are
    rational.  Vanishing means v1 < 1/n!, in which case a converged
    filtration must have an empty 0-level.
    """
    n = filtration.dim
    v1 = _exact_or_float(v1)
    vol_m = _exact_or_float(vol_m)
    z0_count = census.z0_count if census is not None else len(filtration.z0_nodes())
    rainbow_bound = (2**n) * z0_count
    factor = 16**n * math.factorial(n) ** 2
    if isinstance(v1, Fraction) and isinstance(vol_m, Fraction):
        constant_bound = Fraction(factor) * v1 * vol_m
        vanishing = v1 < Fraction(1, math.factorial(n))
    else:
        constant_bound = factor * float(v1) * float(vol_m)
        vanishing = float(v1) < 1.0 / math.factorial(n)
    record = dict(tolerances or {})
    record.setdefault("epsilon_total", filtration.slacks[1])
    return BoundReport(
        dimension=n,
        v1=v1,
        vol_m=vol_m,
        z0_count=z0_count,
        rainbow_bound=rainbow_bound,
        constant_bound=constant_bound,
        vanishing=bool(vanishing),
        vanishing_consistent=(not vanishing) or rainbow_bound == 0,
        tolerances=record,
    )
