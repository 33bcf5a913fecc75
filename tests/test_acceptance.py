"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 7 and 8 were removed with the Cantor-fiber packing and patterns.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sepfilt.bounds import (bound_report, coarea_check, estimate_v1,
                            point_density_check)
from sepfilt.cli import main as cli_main
from sepfilt.complexes import Subpolyhedron
from sepfilt.filtration import SeparationConfig, build_filtration, minimize_separating
from sepfilt.generators import circle, genus_surface, torus
from sepfilt.pipeline import sweep_samples
from sepfilt.rainbow import (
    Chain,
    boundary,
    color_by_filtration,
    count_rainbow,
    straighten,
    straighten_simplex_terms,
)

from conftest import reference_distances


def _pass(criterion, detail):
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: rainbow census identity on five fixtures spanning n = 1, 2


CENSUS_FIXTURES = [
    ("circle8", lambda: circle(8, 4.0), 1, 1.0),
    ("circle10", lambda: circle(10, 5.0), 1, 1.0),
    ("torus3", lambda: torus(3), 1, 0.8),
    ("torus4", lambda: torus(4), 1, 1.1),
    ("genus2", lambda: genus_surface(2), 1, 0.7),
]


@pytest.mark.parametrize("name,make,depth,radius", CENSUS_FIXTURES)
def test_criterion_1_census_identity(name, make, depth, radius):
    started = time.time()
    geometry = make().geometry(depth)
    config = SeparationConfig(
        radius=radius, epsilon=0.05, move_budget=12, rng_seed=2,
        subdivision_depth=depth,
    )
    filtration = build_filtration(geometry, config)
    coloring = color_by_filtration(geometry, filtration)
    census = count_rainbow(geometry, coloring, filtration)
    n = geometry.dim
    assert census.total == (2**n) * census.z0_count  # tolerance 0
    assert all(v == 2**n for v in census.per_point.values())
    elapsed = time.time() - started
    assert elapsed < 10.0
    _pass(
        "criterion-1",
        f"{name}: {census.total} rainbow = 2^{n} x {census.z0_count} "
        f"({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: separating-set oracle equivalence


def _circle_exhaustive_minimum(geometry, radius):
    """Exhaustive search over all point subsets of a discretized circle."""
    from sepfilt.filtration import is_r_separating

    facets = sorted((v,) for v in range(geometry.n_nodes))
    for size in range(len(facets) + 1):
        for combo in itertools.combinations(facets, size):
            if is_r_separating(geometry, combo, radius).separating:
                return float(size)
    raise AssertionError("no separating subset found")


def _torus_partition_optimum(geometry, radius):
    """Exact optimum area over all separating facet sets, by partition DP.

    Any separating set induces a partition of the cells into ball-feasible
    connected parts whose crossing facets cost at most the set's area, and
    the crossing facets of such a partition are themselves separating, so
    minimizing total crossing area over partitions is exact.
    """
    cells = geometry.cells
    ncells = len(cells)
    distances = reference_distances(geometry.graph)
    ball_nodes = [
        set(np.nonzero(distances[c] <= radius)[0].tolist())
        for c in range(geometry.n_nodes)
    ]
    facet_cofaces = {}
    for index, cell in enumerate(cells):
        for facet in itertools.combinations(cell, len(cell) - 1):
            facet_cofaces.setdefault(facet, []).append(index)
    adjacency = [[] for _ in range(ncells)]
    for cofaces in facet_cofaces.values():
        if len(cofaces) == 2:
            a, b = cofaces
            adjacency[a].append(b)
            adjacency[b].append(a)

    feasible = set()
    for center in range(geometry.n_nodes):
        inside = [
            i for i in range(ncells) if set(cells[i]) <= ball_nodes[center]
        ]
        for size in range(1, len(inside) + 1):
            for combo in itertools.combinations(inside, size):
                chosen = set(combo)
                stack, seen = [combo[0]], {combo[0]}
                while stack:
                    x = stack.pop()
                    for y in adjacency[x]:
                        if y in chosen and y not in seen:
                            seen.add(y)
                            stack.append(y)
                if len(seen) == size:
                    feasible.add(frozenset(combo))

    facets = sorted(facet_cofaces)
    volume = dict(zip(facets, Subpolyhedron(geometry, facets).cell_volumes.tolist()))

    def perimeter(part):
        total = 0.0
        for i in part:
            for facet in itertools.combinations(cells[i], len(cells[i]) - 1):
                for other in facet_cofaces[facet]:
                    if other != i and other not in part:
                        total += volume[facet]
        return total

    contains = [[] for _ in range(ncells)]
    for part in feasible:
        mask = sum(1 << i for i in part)
        cost = perimeter(part)
        for i in part:
            contains[i].append((mask, cost))
    full_mask = (1 << ncells) - 1
    memo = {}

    def solve(mask):
        if mask == full_mask:
            return 0.0
        if mask in memo:
            return memo[mask]
        low = 0
        remaining = mask
        while remaining & 1:
            remaining >>= 1
            low += 1
        best = math.inf
        for pmask, cost in contains[low]:
            if pmask & mask == 0:
                best = min(best, cost + solve(mask | pmask))
        memo[mask] = best
        return best

    return solve(0) / 2.0  # each crossing facet was charged from both sides


def test_criterion_2_oracle_equivalence():
    started = time.time()
    for nodes, length in ((8, 4.0), (10, 5.0), (12, 6.0)):
        geometry = circle(nodes, length).geometry(0)
        oracle = _circle_exhaustive_minimum(geometry, 1.0)
        result = minimize_separating(
            geometry, 1.0, 1e-6, move_budget=20, rng_seed=2
        )
        assert result.area == pytest.approx(oracle, rel=1e-6)
        _pass(
            "criterion-2",
            f"circle {nodes} nodes: minimizer {result.area} = oracle {oracle}",
        )
    geometry = torus(3).geometry(0)
    oracle = _torus_partition_optimum(geometry, 1.5)
    # no candidate_facets: this call takes the reseed branch the pipeline skips
    result = minimize_separating(geometry, 1.5, 1e-6, move_budget=40, rng_seed=0)
    assert result.area == pytest.approx(oracle, rel=1e-6)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _pass(
        "criterion-2",
        f"3x3 torus grid: minimizer {result.area:.6f} = partition optimum "
        f"{oracle:.6f} ({elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criteria 3-4: inequality sweeps on the torus fixture (side 4, R = 1, depth 2)


def test_criterion_3_density_sweep(torus_filtration_d2):
    started = time.time()
    samples = sweep_samples(torus_filtration_d2, 500, seed=123)
    checks = point_density_check(torus_filtration_d2, samples)
    violations = [c for c in checks if c.violated]
    min_residual = min(c.residual for c in checks)
    min_margin = min(c.residual + c.budget for c in checks)
    assert len(checks) == 500
    assert not violations
    assert min_margin >= 0.0
    elapsed = time.time() - started
    assert elapsed < 120.0
    _pass(
        "criterion-3",
        f"500 samples, min residual {min_residual:.4f} >= -budget, "
        f"0 violations ({elapsed:.1f}s)",
    )


def test_criterion_4_coarea_sweep(torus_filtration_d2):
    samples = sweep_samples(torus_filtration_d2, 200, seed=321)
    checks = coarea_check(torus_filtration_d2, torus_filtration_d2.dim - 1, samples)
    violations = [c for c in checks if c.violated]
    min_residual = min(c.residual for c in checks)
    assert len(checks) == 200
    assert not violations
    _pass(
        "criterion-4",
        f"200 coarea samples, min residual {min_residual:.4f}, 0 violations",
    )


# ---------------------------------------------------------------------------
# criterion 5: vanishing criterion on a rescaled torus


def test_criterion_5_vanishing(tiny_torus_filtration):
    geometry = tiny_torus_filtration.geometry
    estimate = estimate_v1(geometry)
    n = geometry.dim
    assert estimate.value + estimate.boundary_credit < 1.0 / math.factorial(n)
    assert tiny_torus_filtration.z0_nodes() == ()
    coloring = color_by_filtration(geometry, tiny_torus_filtration)
    census = count_rainbow(geometry, coloring, tiny_torus_filtration)
    report = bound_report(
        tiny_torus_filtration, census, estimate.value, geometry.total_area()
    )
    assert report.vanishing is True
    assert report.rainbow_bound == 0
    assert report.vanishing_consistent is True
    _pass(
        "criterion-5",
        f"V1 = {estimate.value:.4f} + {estimate.boundary_credit:.4f} < "
        f"1/{n}! = {1/math.factorial(n)}, Z0 empty, vanishing flagged",
    )


# ---------------------------------------------------------------------------
# criterion 6: constant check, exact rational arithmetic


def test_criterion_6_constants(torus_filtration_d2, circle_filtration):
    report = bound_report(
        torus_filtration_d2, None, Fraction(3, 5), Fraction(16)
    )
    assert report.constant_bound == Fraction(49152, 5)
    assert float(report.constant_bound) == 9830.4

    vanish = bound_report(torus_filtration_d2, None, Fraction(2, 5), Fraction(16))
    assert vanish.vanishing is True  # 0.4 < 1/2!

    line = bound_report(circle_filtration, None, Fraction(1), Fraction(4))
    assert line.constant_bound == Fraction(64)
    _pass(
        "criterion-6",
        "16^2 (2!)^2 x 3/5 x 16 = 49152/5 = 9830.4; 16 x 1 x 4 = 64; "
        "vanishing at V1 = 2/5 (exact rationals)",
    )


# ---------------------------------------------------------------------------
# criterion 9: straightening operator


def test_criterion_9_straightening():
    rng = random.Random(2024)
    for d in (1, 2, 3):
        for _ in range(100):
            chain = Chain()
            for _ in range(3):
                simplex = tuple(rng.sample(range(9), d + 1))
                chain.add(rng.randrange(-4, 5), simplex)
            assert boundary(straighten(chain, d)) == straighten(
                boundary(chain), d - 1
            )
    base = straighten(Chain([(1, (0, 1, 2))]), 2)
    swapped = straighten(Chain([(1, (1, 0, 2))]), 2)
    assert swapped.terms == {k: -v for k, v in base.terms.items()}
    assert straighten(Chain([(1, (4, 4))]), 1).is_zero()
    assert straighten(Chain([(1, (0, 3, 3))]), 2).is_zero()
    for d in (1, 2, 3, 4):
        assert len(straighten_simplex_terms(tuple(range(d + 1)))) == math.factorial(
            d + 1
        )
    _pass(
        "criterion-9",
        "chain map on 300 random chains (d <= 3), signs, zeros, "
        "(d+1)! piece counts (d <= 4)",
    )


# ---------------------------------------------------------------------------
# criterion 10: end-to-end determinism


def test_criterion_10_determinism(tmp_path):
    fixtures = [
        ("circle", ["gen", "circle", "--nodes", "8", "--length", "4"]),
        ("torus", ["gen", "torus", "--side", "3"]),
    ]
    for name, gen_args in fixtures:
        source = tmp_path / f"{name}.json"
        assert cli_main(gen_args + ["-o", str(source)]) == 0
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{name}-{run}"
            code = cli_main(
                [
                    "run", str(source),
                    "--radius", "1.0" if name == "circle" else "0.8",
                    "--subdivision-depth", "1",
                    "--samples", "40",
                    "--seed", "5",
                    "--move-budget", "10",
                    "--out-dir", str(out_dir),
                ]
            )
            assert code == 0
            outputs.append(out_dir)
        for file_name in (
            "filtration.json", "report.json", "report_samples.csv",
            "manifest.json",
        ):
            first = (outputs[0] / file_name).read_bytes()
            second = (outputs[1] / file_name).read_bytes()
            assert first == second, f"{name}/{file_name} differs"
    _pass(
        "criterion-10",
        "byte-identical filtration, census, report, and manifest files "
        "across reruns on both fixtures",
    )
