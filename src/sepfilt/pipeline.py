"""End-to-end orchestration shared by the command line and the tests."""

from __future__ import annotations

import os
import random
import reprlib
import threading
from dataclasses import asdict, dataclass

from .bounds import (
    bound_report,
    coarea_check,
    estimate_v1,
    greedy_packing,
    point_density_check,
)
from .errors import CensusMismatch, SepfiltError, SeparationViolation
from .files import check_keys, same_value
from .filtration import build_filtration
from .rainbow import color_by_filtration, count_rainbow


def sample_radius_pairs(rng, radius, count):
    """Independent (r1, r2) pairs with 0 < r1 < r2 < radius.  Each draw is
    ``low + span * rng.random()``, the float ``rng.uniform(low, high)``
    returns."""
    low = 0.02 * radius
    span = 0.98 * radius - low
    draw = rng.random
    pairs = []
    while len(pairs) < count:
        a = low + span * draw()
        b = low + span * draw()
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


# The fewest row entries, coarea samples times nodes, whose checks
# ``inequality_sweep`` runs in a forked child: below it the fork, the
# pages each process then copies on its first write and the pickled
# checks cost more than the child saves.  Whole sweeps timed forked and
# in-process on two CPUs: 12-26% slower forked at 107 K-288 K entries
# (2,000 samples of search-genus and search-torus, 200 of vanish-large),
# even at 428 K-576 K and about 30% faster at vanish-large's 2.7 M
# (2,000 samples), while the second CPU was free.
_FORK_ENTRIES = 1 << 19


def _forks(entries):
    """Whether coarea checks reading this many row entries run in a forked
    child: at least ``_FORK_ENTRIES``, only the main thread alive (a fork
    copies no other thread) and at least two usable CPUs.  Linux only:
    ``os.sched_getaffinity`` exists there."""
    return (entries >= _FORK_ENTRIES
            and threading.active_count() == 1 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _child(work, send):
    """The forked child's body: sends ``("ok", work())``, or ``("error",
    exception)`` for whatever ``work`` raised, down the ``send`` end of a
    pipe.  A reply it cannot send (an exception that does not pickle, or a
    pipe the killed parent left) ends it by ``os._exit(1)``, so it prints
    no traceback."""
    try:
        reply = ("ok", work())
    except BaseException as exc:  # raised again by the parent
        reply = ("error", exc)
    try:
        send.send(reply)
    except BaseException:
        os._exit(1)


def inequality_sweep(filtration, samples, seed):
    """Density checks, then coarea checks on a quarter of the samples.

    Both sample lists are drawn first and the ball table is filled once
    for the centers of both.  When ``_forks`` allows, a child forked by
    ``multiprocessing``'s fork context then runs the coarea checks while
    this process runs the density checks; the child's checks come back
    pickled over a one-way pipe, so the checks and their order are the
    same either way.  Otherwise (or when no child can be forked) both run
    here.  If the density checks raise, the child is killed; it is always
    joined.  An exception raised in the child is raised here, with its
    type; a child that sends nothing is a SepfiltError.
    """
    if not samples:
        return []
    share = max(1, samples // 4)
    level, graph = filtration.dim - 1, filtration.geometry.graph
    density = sweep_samples(filtration, samples, seed)
    coarea = sweep_samples(filtration, share, seed + 1)
    graph.tabulate([center for center, _, _ in density + coarea], graph.radius)
    child = None
    if _forks(share * graph.n_nodes):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        reply, send = context.Pipe(duplex=False)
        child = context.Process(target=_child, args=(
            lambda: coarea_check(filtration, level, coarea), send))
        try:
            child.start()
        except OSError:
            reply.close()
            child = None
        finally:
            send.close()  # so a dead child reads as EOF
    if child is None:
        return (point_density_check(filtration, density)
                + coarea_check(filtration, level, coarea))
    with reply:
        try:
            checks = point_density_check(filtration, density)
            try:
                # before the join: the reply outgrows the pipe's buffer
                kind, value = reply.recv()
            except EOFError:
                kind = None
        except BaseException:
            child.kill()
            raise
        finally:
            child.join()
    if kind is None:
        raise SepfiltError(f"the coarea sweep's child process failed "
                           f"(exit code {child.exitcode}) and sent no checks")
    if kind == "error":
        raise value
    return checks + value


def sweep_summary(checks):
    """The sample count, the violation count and the smallest residual
    (None without samples) of a sweep's checks, each residual computed
    once (a check is violated when its residual is below -budget)."""
    residuals = [c.residual for c in checks]
    return {
        "samples": len(checks),
        "violations": sum(r < -c.budget for r, c in zip(residuals, checks)),
        "min_residual": min(residuals, default=None),
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
    field; a stored 1.0 or true is not a derived 1 (``same_value``).
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
            if not same_value(found, value):
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
