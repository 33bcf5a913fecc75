"""Canonical file emission and the run manifest.

All documents are JSON with sorted keys and a trailing newline so reruns of
the same manifest are byte-identical; CSV rows use repr floats for the same
reason.
"""

from __future__ import annotations

import hashlib
import json
import os


def canonical_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(payload))


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_keys(name, found, written):
    """Raise ValueError unless ``found`` is a dict with exactly the keys
    ``written``: a record is read back with the keys it is written with."""
    keys = sorted(found) if isinstance(found, dict) else None
    if keys != sorted(written):
        raise ValueError(f"{name}: keys {keys} (written {sorted(written)})")


def same_value(found, derived):
    """Whether a value read from a file is the derived one, its JSON type
    included (1.0 and true are not 1), through nested lists and dicts."""
    return json.dumps(found, sort_keys=True) == json.dumps(derived, sort_keys=True)


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


CSV_HEADER = "kind,center,r1,r2,lhs,rhs,residual,budget,violated"


def write_checks_csv(path, checks):
    """One row per check: its fields, then its residual after rhs and its
    violated flag (0 or 1) last.  Floats are written by ``repr``, which is
    ``str`` for a Python float."""
    lines = [CSV_HEADER]
    lines.extend(f"{c.kind},{c.center},{c.r1!r},{c.r2!r},{c.lhs!r},{c.rhs!r},"
                 f"{c.residual!r},{c.budget!r},{c.violated:d}" for c in checks)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_manifest(path, command, inputs, config, outputs, version):
    """Record what ran: input paths plus digests of every file touched."""
    payload = {
        "command": command,
        "config": config,
        "input_paths": sorted(str(p) for p in inputs),
        "inputs": {os.path.basename(p): sha256_of(p) for p in inputs},
        "outputs": {os.path.basename(p): sha256_of(p) for p in outputs},
        "version": version,
    }
    write_json(path, payload)
    return payload
