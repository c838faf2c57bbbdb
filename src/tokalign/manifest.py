"""A finished sweep's manifest, so that rerunning it does nothing.

A sweep that finishes with no failures writes `manifest.json` into its
output directory, after every other file.  It records:

* the key: a schema tag, the sha256 of the config file's bytes and the
  sha256 of the program's own source (every `tokalign/*.py`);
* the sha256 of each input file, under the path string the config gives;
* the state of every output file that a rerun reads or tests, key files
  included (see `tokalign.sweep.rerun_files`), by path relative to the
  output directory;
* the summary counts, `rows` and `cells`.

`tokalign sweep` checks it before it loads the pipeline.  When all of it
still holds, a rerun would find every artefact fresh and write the bytes
that are on disk, so the sweep reads no point file and writes nothing.
Anything else, a missing or malformed manifest included, runs the full
sweep, which removes the manifest before it writes any file.  The check
uses file contents, not modification times, and nothing in the manifest
depends on `--jobs`, the output directory or the Python version.

This module imports only the standard library, `errors` and `files`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .files import Digests, atomic_write, resolve_path, sha256_hex

NAME = "manifest.json"
SCHEMA = "sweep-manifest/3"


def check(
    config_path: Path, config_data: bytes, out: Path | None, digests: Digests
) -> tuple[int, int] | None:
    """The (rows, cells) of the finished sweep under `out`, if a rerun has nothing to do.

    `config_data` is the config file's bytes; `digests` are the run's,
    which the sweep then reuses.  `out` is None when the config gives no
    usable output directory.  A missing or malformed manifest is a miss.
    """
    base = config_path.parent
    try:
        manifest = json.loads((out / NAME).read_text(encoding="utf-8"))
        inputs, outputs = manifest["inputs"].items(), manifest["outputs"].items()
        holds = (
            manifest["schema"] == SCHEMA
            and manifest["config"] == sha256_hex(config_data)
            and manifest["program"] == digests.program
            and all(digests[resolve_path(base, raw)] == sha for raw, sha in inputs)
            and all(sha256_hex((out / rel).read_bytes()) == sha for rel, sha in outputs)
            and all((out / rel).exists() for rel in manifest["present"])
            and not any((out / rel).exists() for rel in manifest["absent"])
        )
        counts = (manifest["rows"], manifest["cells"])
    # OSError: a file is missing.  ValueError: not JSON, or a path with a
    # NUL byte.  The rest: a field is missing or of the wrong type.
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return counts if holds and all(type(count) is int for count in counts) else None


def write(
    config_path: Path,
    config_data: bytes,
    inputs: list[str],
    digests: Digests,
    out: Path,
    files: tuple[list[str], list[str], list[str]],
    rows: int,
    cells: int,
) -> None:
    """Write the manifest of a sweep that finished with no failures.

    `inputs` are the config's input path strings, whose digests the run
    took already; `files` are the output files whose bytes, presence and
    absence a rerun depends on, as `tokalign.sweep.rerun_files` lists them.
    """
    hashed, present, absent = files
    base = config_path.parent
    doc = {
        "schema": SCHEMA,
        "config": sha256_hex(config_data),
        "program": digests.program,
        "inputs": {raw: digests[resolve_path(base, raw)] for raw in inputs},
        "outputs": {rel: sha256_hex((out / rel).read_bytes()) for rel in hashed},
        "present": sorted(present),
        "absent": sorted(absent),
        "rows": rows,
        "cells": cells,
    }
    atomic_write(out / NAME, json.dumps(doc, indent=1, sort_keys=True) + "\n")
