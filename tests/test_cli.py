import ast
import collections
import json
import math
import os

import pytest

import sepfilt.cli
from sepfilt.cli import main
from sepfilt.complexes import WeightedComplex
from sepfilt.errors import RadiusOrder
from sepfilt.files import canonical_dumps, read_json, write_json
from sepfilt.generators import circle, genus_surface, torus


def test_gen_circle(tmp_path):
    out = tmp_path / "circle.json"
    assert main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(out)]) == 0
    complex_ = WeightedComplex.from_json(read_json(out))
    assert complex_.dimension == 1
    assert len(complex_.simplices) == 8
    assert complex_.geometry(0).total_area() == pytest.approx(4.0)


def test_gen_torus(tmp_path):
    out = tmp_path / "torus.json"
    assert main(["gen", "torus", "--side", "4", "-o", str(out)]) == 0
    complex_ = WeightedComplex.from_json(read_json(out))
    assert len(complex_.simplices) == 32
    assert complex_.geometry(0).total_area() == pytest.approx(16.0)


def test_gen_genus_surface(tmp_path):
    out = tmp_path / "g2.json"
    assert main(["gen", "genus", "--genus", "2", "-o", str(out)]) == 0
    complex_ = WeightedComplex.from_json(read_json(out))
    expected = 2.0 * (1.0 + math.sqrt(2.0))  # octagon with unit sides
    assert complex_.geometry(0).total_area() == pytest.approx(expected)


@pytest.mark.parametrize(
    "args, complex_, radius",
    [
        (["circle", "--nodes", "8", "--length", "4"], circle(8, 4.0), "1.0"),
        (["torus", "--side", "4"], torus(4), "1.1"),
        (["genus", "--genus", "2"], genus_surface(2), "0.7"),
    ],
    ids=["circle", "torus", "genus"],
)
def test_gen_writes_the_canonical_document_that_run_reads(tmp_path, args,
                                                          complex_, radius):
    out = tmp_path / "complex.json"
    assert main(["gen", *args, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == canonical_dumps(complex_.to_json())
    assert main(["run", str(out), "--subdivision-depth", "1", "--radius", radius,
                 "--samples", "2", "--out-dir", str(tmp_path / "run")]) == 0
    document = read_json(tmp_path / "run" / "filtration.json")
    assert document["complex"] == complex_.to_json()


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "torus", "--side", "0"],
        ["gen", "torus", "--side", "2"],
        ["gen", "circle", "--nodes", "2"],
        ["gen", "circle", "--length", "0"],
        ["gen", "genus", "--genus", "1"],
    ],
)
def test_gen_bad_params(tmp_path, capsys, args):
    out = tmp_path / "bad.json"
    assert main(args + ["-o", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_run_infeasible_radius(tmp_path, capsys):
    # at depth 0 no single triangle of the unit grid fits in a 0.3-ball
    source = tmp_path / "torus.json"
    main(["gen", "torus", "--side", "3", "-o", str(source)])
    code = main(
        [
            "run", str(source),
            "--radius", "0.3",
            "--subdivision-depth", "0",
            "--samples", "5",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "verification failure" in capsys.readouterr().err


def test_run_circle_reports_rainbow_bound(tmp_path):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    out_dir = tmp_path / "run"
    code = main(
        [
            "run", str(source),
            "--radius", "1.0",
            "--subdivision-depth", "1",
            "--samples", "25",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    report = read_json(out_dir / "report.json")
    assert report["bound_report"]["rainbow_bound"] == 4
    filtration = read_json(out_dir / "filtration.json")
    assert filtration["census"]["total"] == 4
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "report_samples.csv").exists()


def test_run_refuses_a_depth_past_memory(tmp_path, capsys):
    # 8 segments split 2**40 times would need more memory than the machine
    # has for the cell array alone: refused before the geometry is built
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    out = tmp_path / "out"
    assert main(["run", str(source), "--subdivision-depth", "40",
                 "--out-dir", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not (out / "filtration.json").exists()


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "input error" in capsys.readouterr().err


def deep_list_file(root):
    path = root / "deep.json"
    path.write_text("[" * 200_000)
    return path


@pytest.mark.parametrize(
    "args",
    [
        ["run", "{root}"],
        ["run", "{circle}", "--out-dir", "{circle}"],
        ["gen", "torus", "-o", "{root}"],
        ["run", "{deep}"],
    ],
    ids=["run-directory", "out-dir-is-file", "gen-to-directory",
         "deeply-nested-json"],
)
def test_hostile_paths_are_input_errors(tmp_path, capsys, monkeypatch, args):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    paths = {"root": tmp_path, "circle": source,
             "deep": deep_list_file(tmp_path)}
    args = [arg.format(**paths) for arg in args]
    if args[0] == "run":
        args += ["--subdivision-depth", "1", "--samples", "2"]
    calls = []
    monkeypatch.setattr("sepfilt.cli.run_pipeline",
                        lambda *a, **k: calls.append(a))
    assert main(args) == 2
    assert "input error" in capsys.readouterr().err
    # a bad path fails before the search starts, not after it
    assert not calls


@pytest.mark.parametrize(
    "keys_and_value",
    [("simplices", 0, [0, 1.7]), ("simplices", 0, [0, "1"]),
     ("simplices", 0, [0, True]), ("edge_lengths", 0, [0, 1.0, 0.5]),
     ("edge_lengths", 0, [0, True, 0.5])],
    ids=["simplex-float", "simplex-str", "simplex-true", "edge-float",
         "edge-true"],
)
def test_non_integer_vertex_ids_are_input_errors(tmp_path, capsys,
                                                 keys_and_value):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    _set(source, *keys_and_value)
    out = tmp_path / "out"
    assert main(["run", str(source), "--subdivision-depth", "1",
                 "--samples", "2", "--out-dir", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_verify_zero_samples_header_only(tmp_path):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    out_dir = tmp_path / "run"
    main(
        [
            "run", str(source),
            "--subdivision-depth", "1",
            "--samples", "10",
            "--out-dir", str(out_dir),
        ]
    )
    csv_path = tmp_path / "empty.csv"
    code = main(
        [
            "verify", str(out_dir / "filtration.json"),
            "--samples", "0",
            "--out", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines == ["kind,center,r1,r2,lhs,rhs,residual,budget,violated"]


@pytest.fixture(scope="module")
def circle_run(tmp_path_factory):
    """A circle fixture and one successful run of it."""
    root = tmp_path_factory.mktemp("circle_run")
    source = root / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    assert main(["run", str(source), "--subdivision-depth", "1",
                 "--samples", "2", "--out-dir", str(root / "run")]) == 0
    return {"circle": str(source),
            "filtration": str(root / "run" / "filtration.json")}


@pytest.mark.parametrize(
    "args",
    [
        ["run", "{circle}", "--samples", "-3"],
        ["run", "{circle}", "--move-budget", "-5"],
        ["verify", "{filtration}", "--samples", "-3"],
    ],
    ids=["run-samples", "run-move-budget", "verify-samples"],
)
def test_negative_counts_are_input_errors(tmp_path, circle_run, args):
    args = [arg.format(**circle_run) for arg in args]
    out = tmp_path / "out"
    args += ["--out-dir" if args[0] == "run" else "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()


def test_zero_counts_are_valid(tmp_path, circle_run):
    out_dir = tmp_path / "run"
    assert main(["run", circle_run["circle"], "--subdivision-depth", "1",
                 "--samples", "0", "--move-budget", "0",
                 "--out-dir", str(out_dir)]) == 0
    assert read_json(out_dir / "manifest.json")["config"]["move_budget"] == 0
    assert main(["verify", circle_run["filtration"], "--samples", "0",
                 "--out", str(tmp_path / "sweep.csv")]) == 0


def test_negative_move_budget_in_file_is_input_error(tmp_path, capsys,
                                                     circle_run):
    path = tmp_path / "filtration.json"
    path.write_text(open(circle_run["filtration"]).read())
    _set(path, "config", "move_budget", -1)
    assert main(["verify", str(path), "--samples", "2",
                 "--out", str(tmp_path / "sweep.csv")]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_verify_refuses_an_unwritable_out_before_loading(tmp_path, capsys,
                                                         monkeypatch,
                                                         circle_run, where):
    # the path is checked before the filtration is read, so a bad --out
    # costs no validate, audit or sweep
    out = tmp_path / "absent" / "sweep.csv" if where == "missing-directory" \
        else tmp_path
    calls = []
    for name in ("read_json", "inequality_sweep"):
        monkeypatch.setattr(f"sepfilt.cli.{name}",
                            lambda *a, name=name: calls.append(name))
    assert main(["verify", circle_run["filtration"], "--samples", "2000",
                 "--out", str(out)]) == 2
    assert "input error" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("error", [RadiusOrder, ValueError])
def test_a_failure_in_the_forked_child_exits_as_in_process(tmp_path, capsys,
                                                           monkeypatch,
                                                           circle_run, error):
    # the child's exception reaches main with its type: the exit code and the
    # one-line message of the in-process sweep, no traceback, no child left
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the sweep forks only with two usable CPUs")

    def failing(*args):
        raise error("planted in the coarea checks")

    forks, fork = [], os.fork

    def recording():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr("sepfilt.pipeline.coarea_check", failing)
    monkeypatch.setattr(os, "fork", recording)
    argv = ["verify", circle_run["filtration"], "--out", str(tmp_path / "s.csv")]
    in_process = main(argv), capsys.readouterr()
    monkeypatch.setattr("sepfilt.pipeline._FORK_ENTRIES", 1)
    forked = main(argv), capsys.readouterr()
    assert len(forks) == 1
    assert forked == in_process
    assert in_process[0] == (3 if error is RadiusOrder else 2)
    assert "Traceback" not in forked[1].err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_tampered_filtration(tmp_path, capsys):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    out_dir = tmp_path / "run"
    main(
        [
            "run", str(source),
            "--subdivision-depth", "1",
            "--samples", "10",
            "--out-dir", str(out_dir),
        ]
    )
    payload = read_json(out_dir / "filtration.json")
    # delete a 0-level cell: the remaining point cannot separate the circle
    del payload["levels"][0]["cells"][0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    code = main(["verify", str(tampered), "--samples", "5"])
    assert code == 3
    assert "verification failure" in capsys.readouterr().err


@pytest.fixture(scope="module")
def torus_filtration(tmp_path_factory):
    """The filtration file of one successful run on a 2-D torus."""
    root = tmp_path_factory.mktemp("torus_run")
    source = root / "torus.json"
    main(["gen", "torus", "--side", "3", "-o", str(source)])
    assert main(["run", str(source), "--subdivision-depth", "1",
                 "--samples", "2", "--out-dir", str(root / "run")]) == 0
    return root / "run" / "filtration.json"


@pytest.mark.parametrize(
    "level, cell",
    [(0, [999999]), (0, [-1]), (1, [0, 999999])],
    ids=["z0-past-end", "z0-negative", "z1-past-end"],
)
def test_level_cell_outside_complex_fails_verification(
        tmp_path, capsys, torus_filtration, level, cell):
    # a level holds only faces of its parent, so a node id outside the
    # complex is rejected when the level is read back
    path = tmp_path / "filtration.json"
    path.write_text(torus_filtration.read_text())
    _set(path, "levels", level, "cells", 0, cell)
    sweep = tmp_path / "sweep.csv"
    assert main(["verify", str(path), "--samples", "2",
                 "--out", str(sweep)]) == 3
    err = capsys.readouterr().err
    assert "is not a face of the parent" in err
    assert "Traceback" not in err
    assert not sweep.exists()


CERTIFICATE_EDITS = {
    # the first level-0 component claims a ball far too small
    "tiny-ball": (0, 0, {"center": 0, "radius": 0.0001}, "radius 0.0001"),
    "one-ulp-radius": (
        1, 2, lambda c: {"radius": math.nextafter(c["radius"], math.inf)},
        "has eccentricity"),
    "radius-above-R": (0, 1, {"radius": 1.5}, "above R"),
    "cell-count": (1, 0, lambda c: {"cells": c["cells"] + 1}, "cells"),
    "center-none": (0, 3, {"center": None}, "not a node"),
    # true and false would read as nodes 1 and 0, these components' centers
    "center-true": (1, 3, {"center": True}, "not a node"),
    "center-false": (1, 0, {"center": False}, "not a node"),
    "cell-count-float": (1, 0, lambda c: {"cells": float(c["cells"])},
                         "cells 12.0 (recomputed 12)"),
    "center-past-end": (1, 1, {"center": 10**9}, "not a node"),
    "center-negative": (0, 2, {"center": -1}, "not a node"),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_EDITS))
def test_tampered_certificate_fails_verification(tmp_path, capsys,
                                                 torus_filtration, name):
    level, index, edit, field = CERTIFICATE_EDITS[name]
    payload = read_json(torus_filtration)
    component = payload["levels"][level]["components"][index]
    component.update(edit(component) if callable(edit) else edit)
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps(payload))
    sweep = tmp_path / "sweep.csv"
    assert main(["verify", str(path), "--samples", "2",
                 "--out", str(sweep)]) == 3
    err = capsys.readouterr().err
    assert f"level {level} component {index}: stored " in err
    assert field in err
    assert "Traceback" not in err
    assert not sweep.exists()


STORED_FIELD_EDITS = {
    # (keys to the edited value, new value, field named in the message)
    "unedited": None,
    "level-1-area": (("levels", 1, "area"), 0.001, "level 1: stored area 0.001"),
    "census-total": (("census", "total"), 999, "census.total: stored 999"),
    "level-0-slack": (("levels", 0, "slack"), -5, "level 0: stored slack -5"),
    "coloring-empty": (("coloring", "colors"), [], "coloring.colors: stored []"),
    "dimension": (("dimension",), 9, "dimension: stored 9"),
    "level-1-dim": (("levels", 1, "dim"), 5, "level 1: stored dim 5"),
    # equal to the derived value, but not of its type
    "dimension-float": (("dimension",), 2.0, "dimension: stored 2.0"),
    "level-1-dim-true": (("levels", 1, "dim"), True, "level 1: stored dim True"),
    "census-dimension-float": (("census", "dimension"), 2.0,
                               "census.dimension: stored 2.0"),
}


@pytest.mark.parametrize("name", sorted(STORED_FIELD_EDITS))
def test_stored_fields_are_re_derived(tmp_path, capsys, torus_filtration, name):
    path = tmp_path / "filtration.json"
    path.write_text(torus_filtration.read_text())
    edit = STORED_FIELD_EDITS[name]
    if edit is not None:
        _set(path, *edit[0], edit[1])
    code = main(["verify", str(path), "--samples", "2",
                 "--out", str(tmp_path / "sweep.csv")])
    err = capsys.readouterr().err
    if edit is None:
        assert code == 0
        return
    assert code == 3
    assert f"verification failure: {edit[2]} (re-derived " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change", ["dropped", "duplicated"])
def test_component_count_mismatch_fails_verification(tmp_path, capsys,
                                                     torus_filtration, change):
    payload = read_json(torus_filtration)
    components = payload["levels"][1]["components"]
    if change == "dropped":
        components.pop()
    else:
        components.append(components[0])
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path), "--samples", "2",
                 "--out", str(tmp_path / "sweep.csv")]) == 3
    assert "level 1: " in capsys.readouterr().err


def test_edited_level_cells_with_stale_certificates_fail_verification(
        tmp_path, capsys, torus_filtration):
    # drop a level-1 edge holding no level-0 point: the level stays nested
    # over Z_0, but its stored certificates no longer match its components
    payload = read_json(torus_filtration)
    points = {node for cell in payload["levels"][0]["cells"] for node in cell}
    cells = payload["levels"][1]["cells"]
    cells.remove(next(cell for cell in cells if not points & set(cell)))
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps(payload))
    sweep = tmp_path / "sweep.csv"
    assert main(["verify", str(path), "--samples", "2",
                 "--out", str(sweep)]) == 3
    err = capsys.readouterr().err
    assert "verification failure: level 1" in err
    assert "Traceback" not in err
    assert not sweep.exists()


def _set(path, *keys_and_value):
    *keys, value = keys_and_value
    payload = read_json(path)
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "command, keys_and_value",
    [
        ("run", ("dimension", "1")),
        ("run", ("dimension", 1.0)),
        ("run", ("simplices", None)),
        ("verify", ("levels", None)),
        ("verify", ("config", "radius", "1")),
        ("verify", ("config", "unknown", 1)),
    ],
    ids=["dimension-str", "dimension-float", "simplices-null", "levels-null",
         "radius-str", "config-unknown-key"],
)
def test_wrongly_typed_fields_are_input_errors(tmp_path, capsys, command,
                                               keys_and_value):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    out_dir = tmp_path / "run"
    if command == "run":
        _set(source, *keys_and_value)
        code = main(["run", str(source), "--out-dir", str(out_dir)])
    else:
        main(["run", str(source), "--subdivision-depth", "1",
              "--samples", "5", "--out-dir", str(out_dir)])
        _set(out_dir / "filtration.json", *keys_and_value)
        code = main(["verify", str(out_dir / "filtration.json"),
                     "--samples", "5"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_run_determinism(tmp_path):
    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        main(
            [
                "run", str(source),
                "--subdivision-depth", "1",
                "--samples", "30",
                "--seed", "11",
                "--out-dir", str(out_dir),
            ]
        )
    for name in ("filtration.json", "report.json", "report_samples.csv",
                 "manifest.json"):
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name


def test_process_level_determinism(tmp_path):
    # byte-identical outputs across separate interpreter processes, even
    # with different hash randomization
    import subprocess
    import sys

    source = tmp_path / "circle.json"
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o", str(source)])
    for run, hash_seed in (("a", "1"), ("b", "31337")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [
                sys.executable, "-m", "sepfilt.cli",
                "run", str(source),
                "--subdivision-depth", "1",
                "--samples", "30",
                "--seed", "4",
                "--out-dir", str(tmp_path / run),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
    for name in ("filtration.json", "report.json", "report_samples.csv",
                 "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


# sha256 of the records written from their fields (run_pipeline, seed 7,
# 20 samples, depth 1): canonical_dumps of the report document and of the
# filtration document's census and coloring, and the checks CSV text; the
# report and the CSV re-pinned once when the measures became exact sums of
# volumes rounded up to a quantum, and the report once more when its
# tolerances became the two it derives (V1's credit and warning are in
# its ``v1_estimate`` alone)
RECORD_DIGESTS = {
    "torus4": {
        "report": "35007df1fcf1f4e3172de740deae252b9c8862c7fe308da83a7cde3b2c93cc22",
        "census": "4d67e74fbff64f973d846b15094228b687a5b94501be7fde54f6f3d7a52462da",
        "coloring": "16d05fca43c0ad7f750bd27305bc1a82d2a571481e8f4b01e838b8fc65c1d7a5",
        "checks_csv": "93a91e29bf2dcb6d384314701a8dafd9a6c9c038dd5795156d0fb1d426ddf3fc",
    },
    "genus2": {
        "report": "2874ef5f081d4ab5cf0953be874f01a06587864bda2eb63c518b80ebf039bbbe",
        "census": "79fc2dca55a90ca549e8783b36fc058a5b09620f90dfebd9ff27a764e415ba77",
        "coloring": "c115190d85bf0d205ab6a1cdc137c02c0b6191953acd20f48f3797222f956ced",
        "checks_csv": "30b4c5bf1e7e32494d17aefb7175b2b518f956ad31205713e2a2e6b2d3cbbd74",
    },
}


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_record_digests_are_pinned(tmp_path, name):
    import hashlib

    from sepfilt.files import write_checks_csv
    from sepfilt.filtration import SeparationConfig
    from sepfilt.pipeline import run_pipeline

    complex_, radius = {"torus4": (torus(4), 1.1),
                        "genus2": (genus_surface(2), 0.7)}[name]
    config = SeparationConfig(radius=radius, rng_seed=7, subdivision_depth=1)
    artifacts = run_pipeline(complex_, config, samples=20)
    document = artifacts.filtration_document()
    write_checks_csv(tmp_path / "checks.csv", artifacts.checks)
    texts = {
        "report": canonical_dumps(artifacts.report_document()),
        "census": canonical_dumps(document["census"]),
        "coloring": canonical_dumps(document["coloring"]),
        "checks_csv": (tmp_path / "checks.csv").read_text(encoding="utf-8"),
    }
    digests = {key: hashlib.sha256(text.encode()).hexdigest()
               for key, text in texts.items()}
    assert digests == RECORD_DIGESTS[name]


def test_help_exits_zero():
    assert main(["--help"]) == 0


# Definitions only the tests call: reference implementations they compare
# the package's results with.
TEST_ORACLES = ["ComplexGeometry.node_barycentric", "Chain.is_zero",
                "boundary", "level_trace_checks", "straighten",
                # the public volume of one simplex, checked against Heron
                # and coordinate-determinant oracles; the package embeds
                # its simplices with ``_embed_simplices`` directly
                "simplex_volume"]


def referenced_names(node, bound=frozenset()):
    """How often each name is read in a syntax tree, as a name or an
    attribute.  A name a function binds (an assignment or loop target, or
    an argument) is that function's local, so it is no read there."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | {
            item.arg if isinstance(item, ast.arg) else item.id
            for item in ast.walk(node)
            if isinstance(item, ast.arg)
            or isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store)
        }
    counts = collections.Counter()
    if isinstance(node, ast.Name) and node.id not in bound:
        counts[node.id] += 1
    elif isinstance(node, ast.Attribute):
        counts[node.attr] += 1
    for child in ast.iter_child_nodes(node):
        counts += referenced_names(child, bound)
    return counts


def test_every_module_is_reached_from_the_cli():
    # Follow ``from .x import`` edges from cli.py; ``from . import`` only
    # reaches __init__, which re-exports and so proves nothing.
    package = os.path.dirname(sepfilt.cli.__file__)
    trees = {}
    pending = ["cli"]
    while pending:
        name = pending.pop()
        if name in trees:
            continue
        with open(os.path.join(package, name + ".py"), encoding="utf-8") as handle:
            trees[name] = tree = ast.parse(handle.read())
        pending.extend(
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        )
    modules = {
        name[:-3] for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    }
    assert sorted(modules - set(trees)) == []
    # Every top-level function and class, and every method, is read somewhere
    # in those modules outside its own definition.  Dunders run implicitly,
    # and the commands are registered by their ``cli.command()`` decorator.
    reads = sum(map(referenced_names, trees.values()), collections.Counter())
    unread = []
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for item, prefix in [(node, ""), *((m, node.name + ".") for m in methods)]:
                if (not isinstance(item, (ast.FunctionDef, ast.ClassDef))
                        or item.name.startswith("__")
                        or any(ast.unparse(d) == "cli.command()"
                               for d in item.decorator_list)):
                    continue
                if reads[item.name] == referenced_names(item)[item.name]:
                    unread.append(prefix + item.name)
    assert sorted(unread) == sorted(TEST_ORACLES)


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """Complex and filtration files that each carry one malformed number."""
    root = tmp_path_factory.mktemp("bad_inputs")
    paths = {"circle": root / "circle.json"}
    main(["gen", "circle", "--nodes", "8", "--length", "4", "-o",
          str(paths["circle"])])
    # the first edge of a unit-grid triangle, set to nan, inf, a length
    # that breaks the triangle inequality, one whose square overflows, or
    # true, which no length is (though it reads as this edge's 1.0)
    for name, length in [("nan_edge", math.nan), ("inf_edge", math.inf),
                         ("degenerate", 5.0), ("huge_edge", 1e100),
                         ("true_edge", True)]:
        payload = torus(3).to_json()
        payload["edge_lengths"][0][2] = length
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    # a complex lists each edge and each maximal simplex once, in any vertex
    # order, and carries exactly the keys a complex file is written with
    u, v, length = genus_surface(2).to_json()["edge_lengths"][0]
    simplex = genus_surface(2).to_json()["simplices"][0]
    for name, edit in [
        ("edge_twice", lambda doc: doc["edge_lengths"].append([u, v, 3 * length])),
        ("edge_twice_reversed",
         lambda doc: doc["edge_lengths"].append([v, u, 3 * length])),
        ("simplex_twice", lambda doc: doc["simplices"].append(simplex)),
        ("simplex_twice_reversed",
         lambda doc: doc["simplices"].append(simplex[::-1])),
        ("complex_extra_key", lambda doc: doc.update(note=1)),
    ]:
        payload = genus_surface(2).to_json()
        edit(payload)
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    main(["run", str(paths["circle"]), "--subdivision-depth", "1",
          "--samples", "2", "--out-dir", str(root / "run")])
    # a config key that no command writes: verify refuses it as an input
    # error, exit 2 with no traceback
    paths["nan_slack"] = root / "run" / "filtration.json"
    _set(paths["nan_slack"], "config", "slack_schedule", [math.nan])
    # a surface, whose slacks eps / (4 R^(2-i)) overflow or underflow for
    # a radius far from 1, and its filtration with such a radius or a
    # subdivision depth whose cells would not fit in memory
    paths["torus"] = root / "torus.json"
    write_json(paths["torus"], torus(3).to_json())
    main(["run", str(paths["torus"]), "--subdivision-depth", "1",
          "--samples", "2", "--out-dir", str(root / "torus_run")])
    document = (root / "torus_run" / "filtration.json").read_text()
    for name, key, value in [("huge_radius", "radius", 1e308),
                             ("deep", "subdivision_depth", 40)]:
        paths[name] = root / f"{name}.json"
        paths[name].write_text(document)
        _set(paths[name], "config", key, value)
    # levels and certificates carry exactly the keys a run writes: one
    # missing or one extra is an input error, not a default or a failure
    for name, edit in [
        ("no_slack_kind", lambda levels: [lv.pop("slack_kind") for lv in levels]),
        ("no_components", lambda levels: levels[1].pop("components")),
        ("cert_extra_key", lambda levels: levels[0]["components"][0].update(
            witness=0)),
        ("level_extra_key", lambda levels: levels[1].update(moves_used=3)),
        # a level lists each of its cells once, in any vertex order
        ("level_cell_twice",
         lambda levels: levels[0]["cells"].append(levels[0]["cells"][0])),
        ("level_cell_twice_reversed",
         lambda levels: levels[1]["cells"].append(levels[1]["cells"][0][::-1])),
    ]:
        payload = json.loads(document)
        edit(payload["levels"])
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    # so do the document and its census and coloring sections
    for name, edit in [
        ("census_extra_key", lambda doc: doc["census"].update(note=1)),
        ("census_no_dimension", lambda doc: doc["census"].pop("dimension")),
        ("coloring_extra_key", lambda doc: doc["coloring"].update(note=1)),
        ("coloring_no_colors", lambda doc: doc["coloring"].pop("colors")),
        ("document_extra_key", lambda doc: doc.update(note=1)),
        ("document_no_census", lambda doc: doc.pop("census")),
        ("document_complex_extra_key", lambda doc: doc["complex"].update(note=1)),
    ]:
        payload = json.loads(document)
        edit(payload)
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "torus", "--scale", "nan"],
        ["gen", "torus", "--scale", "inf"],
        ["gen", "circle", "--length", "inf"],
        ["gen", "circle", "--length", "1e300"],
        ["run", "{circle}", "--radius", "nan"],
        ["run", "{circle}", "--radius", "inf"],
        ["run", "{circle}", "--epsilon", "nan"],
        ["run", "{circle}", "--epsilon", "inf"],
        ["run", "{nan_edge}"],
        ["run", "{inf_edge}"],
        ["run", "{huge_edge}"],
        ["run", "{true_edge}"],
        ["run", "{degenerate}"],
        ["verify", "{nan_slack}"],
        ["run", "{torus}", "--radius", "1e200"],
        ["run", "{torus}", "--radius", "1e-200"],
        ["verify", "{huge_radius}"],
        ["verify", "{deep}"],
        ["verify", "{no_slack_kind}"],
        ["verify", "{no_components}"],
        ["verify", "{cert_extra_key}"],
        ["verify", "{level_extra_key}"],
        ["verify", "{level_cell_twice}"],
        ["verify", "{level_cell_twice_reversed}"],
        ["verify", "{census_extra_key}"],
        ["verify", "{census_no_dimension}"],
        ["verify", "{coloring_extra_key}"],
        ["verify", "{coloring_no_colors}"],
        ["verify", "{document_extra_key}"],
        ["verify", "{document_no_census}"],
        ["run", "{edge_twice}"],
        ["run", "{edge_twice_reversed}"],
        ["run", "{simplex_twice}"],
        ["run", "{simplex_twice_reversed}"],
        ["run", "{complex_extra_key}"],
        ["verify", "{document_complex_extra_key}"],
    ],
    ids=["gen-scale-nan", "gen-scale-inf", "gen-length-inf", "gen-length-huge",
         "radius-nan", "radius-inf", "epsilon-nan", "epsilon-inf", "edge-nan",
         "edge-inf", "edge-huge", "edge-true", "degenerate-simplex", "slack-nan",
         "radius-huge", "radius-tiny", "verify-radius-huge", "verify-depth-huge",
         "level-no-slack-kind", "level-no-components", "certificate-extra-key",
         "level-extra-key", "level-cell-twice", "level-cell-twice-reversed",
         "census-extra-key", "census-no-dimension",
         "coloring-extra-key", "coloring-no-colors", "document-extra-key",
         "document-no-census", "edge-twice", "edge-twice-reversed",
         "simplex-twice", "simplex-twice-reversed",
         "complex-extra-key", "document-complex-extra-key"],
)
def test_non_finite_and_degenerate_inputs_are_input_errors(tmp_path, capsys,
                                                           bad_inputs, args):
    args = [arg.format(**bad_inputs) for arg in args]
    out = tmp_path / "out"
    if args[0] == "gen":
        args += ["-o", str(out)]
    elif args[0] == "run":
        args += ["--subdivision-depth", "1", "--samples", "2",
                 "--out-dir", str(out)]
    else:
        args += ["--samples", "2", "--out", str(out)]
    assert main(args) == 2
    assert "input error" in capsys.readouterr().err
    assert not out.exists()
