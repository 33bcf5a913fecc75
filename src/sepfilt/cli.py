"""Command line: fixture generation, pipeline runs, verification sweeps.

Exit codes: 0 on success, 2 for input errors, 3 for verification failures.
All randomness flows from the manifest seed.
"""

from __future__ import annotations

import gc
import os
import sys
from dataclasses import asdict

import click

from . import __version__
from .errors import (
    BadParams,
    CensusMismatch,
    Infeasible,
    NondegenerateViolation,
    SepfiltError,
    SeparationViolation,
)
from .complexes import WeightedComplex
from .filtration import Filtration, SeparationConfig
from .files import read_json, write_checks_csv, write_json, write_manifest
from .generators import circle, genus_surface, torus
from .pipeline import (audit_document, inequality_sweep, run_pipeline,
                       sweep_summary)

# The objects the imports above leave behind live as long as the process:
# move them out of the collector's reach, so that its full collections do
# not walk them again.  This happens once, at import: ``main`` can run
# several commands in one process, and a freeze there would also pin the
# cyclic garbage a finished command leaves for the collector.
gc.freeze()

INPUT_ERROR = 2
VERIFICATION_ERROR = 3


@click.group()
@click.version_option(version=__version__, prog_name="sepfilt")
def cli():
    """Separating filtrations, rainbow censuses, and volume bounds."""


@cli.command()
@click.argument("shape", type=click.Choice(["circle", "torus", "genus"]))
@click.option("--nodes", type=int, default=8, show_default=True,
              help="node count (circle)")
@click.option("--length", type=float, default=4.0, show_default=True,
              help="circumference (circle)")
@click.option("--side", type=int, default=4, show_default=True,
              help="side length (torus)")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="edge-length scale factor")
@click.option("--genus", "genus_", type=int, default=2, show_default=True,
              help="genus (genus surface)")
@click.option("--out", "-o", type=click.Path(), required=True,
              help="output complex file")
def gen(shape, nodes, length, side, scale, genus_, out):
    """Generate a complex fixture file."""
    if shape == "circle":
        complex_ = circle(nodes, length)
    elif shape == "torus":
        complex_ = torus(side, scale=scale)
    else:
        complex_ = genus_surface(genus_, scale=scale)
    write_json(out, complex_.to_json())
    click.echo(f"wrote {out}: dimension {complex_.dimension}, "
               f"{len(complex_.simplices)} maximal simplices")


@cli.command()
@click.argument("complex_file", type=click.Path())
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--subdivision-depth", type=int, default=2, show_default=True)
@click.option("--move-budget", type=click.IntRange(min=0), default=40,
              show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=100,
              show_default=True,
              help="inequality samples for the report CSV")
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def run(complex_file, radius, epsilon, seed, subdivision_depth, move_budget,
        samples, out_dir):
    """Build a filtration, census, and bound report for a complex file."""
    complex_ = WeightedComplex.from_json(read_json(complex_file))
    config = SeparationConfig(
        radius=radius,
        epsilon=epsilon,
        move_budget=move_budget,
        rng_seed=seed,
        subdivision_depth=subdivision_depth,
    )
    config.slacks(complex_.dimension)  # input errors before any output
    os.makedirs(out_dir, exist_ok=True)
    artifacts = run_pipeline(complex_, config, samples=samples)
    filtration_path = os.path.join(out_dir, "filtration.json")
    report_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report_samples.csv")
    report = artifacts.report_document()
    write_json(filtration_path, artifacts.filtration_document())
    write_json(report_path, report)
    write_checks_csv(csv_path, artifacts.checks)
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(
        manifest_path,
        "run",
        [complex_file],
        {**asdict(config), "samples": samples},
        [filtration_path, report_path, csv_path],
        __version__,
    )
    summary = report["sweep_summary"]
    click.echo(
        f"rainbow_bound={artifacts.report.rainbow_bound} "
        f"constant_bound={float(artifacts.report.constant_bound):.6g} "
        f"vanishing={artifacts.report.vanishing} "
        f"violations={summary['violations']}"
    )
    if summary["violations"]:
        raise SeparationViolation(
            f"{summary['violations']} unbudgeted inequality violations"
        )


@cli.command()
@click.argument("filtration_file", type=click.Path())
@click.option("--samples", type=click.IntRange(min=0), default=100,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="sweep CSV path (default: alongside the filtration)")
def verify(filtration_file, samples, seed, out):
    """Re-verify a filtration file, its coloring and census, and sweep the
    density/coarea inequalities."""
    # a directory, or a path in a missing one, fails before any loading,
    # not after the sweep
    if out is None:
        base = os.path.dirname(os.path.abspath(filtration_file))
        out = os.path.join(base, "sweep.csv")
    elif os.path.isdir(out):
        raise IsADirectoryError(f"--out {out} is a directory")
    elif not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise FileNotFoundError(f"--out {out}: no such directory")
    payload = read_json(filtration_file)
    complex_ = WeightedComplex.from_json(payload["complex"])
    config = SeparationConfig(**payload["config"])
    geometry = complex_.geometry(config.subdivision_depth)
    filtration = Filtration.from_json(geometry, payload)
    filtration.validate()
    audit_document(filtration, payload)
    checks = inequality_sweep(filtration, samples, seed)
    write_checks_csv(out, checks)
    summary = sweep_summary(checks)
    click.echo(
        f"samples={summary['samples']} min_residual={summary['min_residual']} "
        f"violations={summary['violations']}"
    )
    if summary["violations"]:
        raise SeparationViolation(
            f"{summary['violations']} unbudgeted inequality violations"
        )


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return INPUT_ERROR
    except (SeparationViolation, CensusMismatch, Infeasible) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFICATION_ERROR
    except (BadParams, KeyError, NondegenerateViolation, OSError,
            RecursionError, TypeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except SepfiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
