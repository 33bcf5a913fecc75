"""End-to-end orchestration shared by the command line and the tests."""

from __future__ import annotations

import random
import reprlib
from dataclasses import asdict, dataclass

from .bounds import (
    bound_report,
    coarea_check,
    estimate_v1,
    greedy_packing,
    point_density_check,
)
from .errors import CensusMismatch, SeparationViolation
from .files import check_keys
from .filtration import build_filtration
from .rainbow import color_by_filtration, count_rainbow


def sample_radius_pairs(rng, radius, count):
    """Independent (r1, r2) pairs with 0 < r1 < r2 < radius."""
    pairs = []
    while len(pairs) < count:
        a = rng.uniform(0.02 * radius, 0.98 * radius)
        b = rng.uniform(0.02 * radius, 0.98 * radius)
        if a == b:
            continue
        pairs.append((min(a, b), max(a, b)))
    return pairs


# The keys of a filtration document (``RunArtifacts.filtration_document``):
# the complex, the keys of ``Filtration.to_json`` and the two sections that
# ``audit_document`` re-derives.
DOCUMENT_KEYS = ("complex", "config", "dimension", "levels", "census", "coloring")


def sweep_samples(filtration, samples, seed):
    """``(center, r1, r2)`` per sample, radius pairs drawn first, then the
    centers.  The ball table is named at R, so the checks' rows come from
    it."""
    rng = random.Random(seed)
    radius = filtration.config.radius
    pairs = sample_radius_pairs(rng, radius, samples)
    graph = filtration.geometry.graph
    centers = [rng.randrange(graph.n_nodes) for _ in pairs]
    graph.tabulate([], radius)
    return [(center, r1, r2) for center, (r1, r2) in zip(centers, pairs)]


def density_sweep(filtration, samples, seed):
    return point_density_check(filtration, sweep_samples(filtration, samples, seed))


def coarea_sweep(filtration, samples, seed):
    level = filtration.dim - 1
    return coarea_check(filtration, level, sweep_samples(filtration, samples, seed))


def inequality_sweep(filtration, samples, seed):
    """Density checks, then coarea checks on a quarter of the samples."""
    checks = density_sweep(filtration, samples, seed)
    if samples:
        checks.extend(coarea_sweep(filtration, max(1, samples // 4), seed + 1))
    return checks


def sweep_summary(checks):
    """The sample count, the violation count and the smallest residual
    (None without samples) of a sweep's checks."""
    return {
        "samples": len(checks),
        "violations": len([c for c in checks if c.violated]),
        "min_residual": min((c.residual for c in checks), default=None),
    }


@dataclass
class RunArtifacts:
    """Everything one pipeline run produces; its geometry is the filtration's."""

    filtration: object
    coloring: object
    census: object
    v1: object
    packing: object
    report: object
    checks: list

    def filtration_document(self):
        """Self-contained filtration file: complex, levels, census, colors."""
        payload = {"complex": self.filtration.geometry.base.to_json()}
        payload.update(self.filtration.to_json())
        payload["census"] = self.census.to_json()
        payload["coloring"] = self.coloring.to_json()
        return payload

    def report_document(self):
        """The report file: the bound report, the V1 estimate and the
        packing (its fields and its ``count``) and the sweep summary."""
        return {
            "bound_report": self.report.to_json(),
            "v1_estimate": asdict(self.v1),
            "packing": {**asdict(self.packing), "count": self.packing.count},
            "sweep_summary": sweep_summary(self.checks),
        }


def audit_document(filtration, payload):
    """Re-derive the coloring and the rainbow census of a filtration and
    compare them field by field with the ``coloring`` and ``census`` of
    its document.

    The document must carry exactly the keys ``DOCUMENT_KEYS`` and each
    section exactly the keys it re-derives: a missing or extra key raises
    ValueError before any field is compared.  No ball is searched: each
    color class lies in a complement component whose stored certificate
    ``Filtration.validate`` checks.  The first difference raises
    SeparationViolation (coloring) or CensusMismatch (census), naming the
    field.
    """
    check_keys("document", payload, DOCUMENT_KEYS)
    geometry = filtration.geometry
    coloring = color_by_filtration(geometry, filtration)
    census = count_rainbow(geometry, coloring, filtration)
    sections = (
        ("coloring", coloring.to_json(), SeparationViolation),
        ("census", census.to_json(), CensusMismatch),
    )
    for name, derived, _ in sections:
        check_keys(name, payload[name], derived)
    for name, derived, error in sections:
        for field, value in derived.items():
            found = payload[name][field]
            if found != value:
                raise error(f"{name}.{field}: stored {reprlib.repr(found)} "
                            f"(re-derived {reprlib.repr(value)})")


def run_pipeline(complex_, config, samples=100):
    """Build, color, count, verify, and report on one complex."""
    geometry = complex_.geometry(config.subdivision_depth)
    filtration = build_filtration(geometry, config)
    coloring = color_by_filtration(geometry, filtration)
    census = count_rainbow(geometry, coloring, filtration)
    v1 = estimate_v1(geometry)
    packing = greedy_packing(filtration.z0_nodes(), geometry)
    report = bound_report(filtration, census, v1.value, geometry.total_area())
    checks = inequality_sweep(filtration, samples, config.rng_seed)
    return RunArtifacts(filtration, coloring, census, v1, packing, report, checks)
