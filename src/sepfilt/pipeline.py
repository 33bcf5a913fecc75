"""End-to-end orchestration shared by the command line and the tests."""

from __future__ import annotations

import os
import pickle
import random
import reprlib
import signal
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


def _fork(work):
    """Fork a child that runs ``work()``; returns its pid and the read end
    of a pipe, as a binary file, that carries its pickled reply:
    ``("ok", result)`` or ``("error", exception)``.  None when no process
    can be forked.

    The child leaves by ``os._exit`` on every path, so no exit handler of
    the parent's runs in it and no stdio buffer it inherited is flushed
    twice; its exit status is 0 only once the whole reply is written."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            reply = ("ok", work())
        except BaseException as exc:  # raised again by the parent
            reply = ("error", exc)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _reply(data, status):
    """The result a forked child sent, or its exception raised here."""
    if os.waitstatus_to_exitcode(status):
        raise SepfiltError(f"the coarea sweep's child process failed "
                           f"(wait status {status}) and sent no checks")
    kind, value = pickle.loads(data)  # bytes our own child wrote
    if kind == "error":
        raise value
    return value


def inequality_sweep(filtration, samples, seed):
    """Density checks, then coarea checks on a quarter of the samples.

    Both sample lists are drawn first and the ball table is filled once
    for the centers of both.  When ``_forks`` allows, a forked child then
    runs the coarea checks while this process runs the density checks;
    the child's checks come back pickled over a pipe, so the checks and
    their order are the same either way.  Otherwise (or when no child can
    be forked) both run here.  If the density checks raise, the child is
    killed; it is always reaped.  An exception raised in the child is
    raised here, with its type.
    """
    if not samples:
        return []
    share = max(1, samples // 4)
    level, graph = filtration.dim - 1, filtration.geometry.graph
    density = sweep_samples(filtration, samples, seed)
    coarea = sweep_samples(filtration, share, seed + 1)
    graph.tabulate([center for center, _, _ in density + coarea], graph.radius)
    child = _forks(share * graph.n_nodes) and _fork(
        lambda: coarea_check(filtration, level, coarea))
    if not child:
        return (point_density_check(filtration, density)
                + coarea_check(filtration, level, coarea))
    pid, pipe = child
    with pipe:
        try:
            checks = point_density_check(filtration, density)
            # to EOF before the wait: the reply outgrows the pipe's buffer
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    return checks + _reply(data, status)


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
