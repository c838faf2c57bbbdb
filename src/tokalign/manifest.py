"""A finished sweep's manifest, so that rerunning it does nothing.

A sweep that finishes with no failures writes `manifest.json` into its
output directory, after every other file.  It records:

* the key: a schema tag, the sha256 of the config file's bytes and the
  sha256 of the program's own source (every `tokalign/*.py`);
* the sha256 of each input file, under the path string the config gives;
* the state of every output file that a rerun reads or tests (see
  `tokalign.sweep.rerun_files`), by path relative to the output directory;
* the summary counts, `rows` and `cells`;
* `stale`: whether the run reused points computed before a change.

`tokalign sweep` checks it before it loads the pipeline.  When all of it
still holds, a rerun would write the same bytes that are on disk, so the
sweep reads no point file and writes nothing.  Anything else, a missing
or malformed manifest included, runs the full sweep, which removes the
manifest before it writes any file.  The check uses file contents, not
modification times, and nothing in the manifest depends on `--jobs`, the
output directory or the Python version.

A run that the check found changed, and that reused a point file from
before it, writes a stale manifest: it keeps the earlier digest of each
part that changed (the config, the program or an input), so that every
rerun warns again while that part still differs, and it is never a
finished run.  Once nothing differs, the rerun is a silent full sweep,
which writes a manifest that is not stale.

This module imports only the standard library, `errors` and `files`, and
loads a sha256 only once a manifest has been read or is written.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .files import atomic_write, resolve_path

NAME = "manifest.json"
SCHEMA = "sweep-manifest/2"


class Check(NamedTuple):
    """What a manifest says about a rerun.

    `finished` holds (rows, cells) when the rerun has nothing to do.
    `changed` names what differs from the run that wrote the manifest:
    "config", "program", or "input <path string>"; `earlier` is then
    that manifest.
    """

    finished: tuple[int, int] | None = None
    changed: tuple[str, ...] = ()
    earlier: dict | None = None


@cache
def _sha256_type():
    """The interpreter's own sha256, where it has one, else `hashlib`'s.

    `hashlib` loads OpenSSL: importing it raised a bare Python 3.11's
    peak memory from 13.4 to 17.1 MB on x86-64 Linux.  `random` takes its sha512 the
    same way.
    """
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _sha256(data: bytes) -> str:
    return _sha256_type()(data).hexdigest()


def _file_sha256(path: Path) -> str | None:
    try:
        return _sha256(path.read_bytes())
    except (OSError, ValueError):  # ValueError: a path with a NUL byte
        return None


def _program_digest() -> str:
    sha256 = _sha256_type()
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _is_map(value: object) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    )


def _is_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _read(path: Path) -> dict | None:
    """The manifest at `path`, or None if there is none or it is malformed."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    well_formed = (
        isinstance(doc, dict)
        and doc.get("schema") == SCHEMA
        and isinstance(doc.get("config"), str)
        and isinstance(doc.get("program"), str)
        and _is_map(doc.get("inputs"))
        and _is_map(doc.get("outputs"))
        and _is_list(doc.get("present"))
        and _is_list(doc.get("absent"))
        and all(type(doc.get(count)) is int for count in ("rows", "cells"))
        and type(doc.get("stale")) is bool
    )
    return doc if well_formed else None


def check(config_path: Path, config_data: bytes, out: Path | None) -> Check:
    """Compare the manifest under `out` with this config, program and tree.

    `config_data` is the config file's bytes.  `out` is None when the
    config gives no usable output directory, which is a miss.
    """
    manifest = None if out is None else _read(out / NAME)
    if manifest is None:
        return Check()
    changed = []
    if manifest["config"] != _sha256(config_data):
        changed.append("config")
    if manifest["program"] != _program_digest():
        changed.append("program")
    base = config_path.parent
    for raw, digest in sorted(manifest["inputs"].items()):
        if _file_sha256(resolve_path(base, raw)) != digest:
            changed.append(f"input {raw}")
    if changed:
        return Check(changed=tuple(changed), earlier=manifest)
    if manifest["stale"]:
        return Check()
    outputs_hold = (
        all(_file_sha256(out / rel) == digest for rel, digest in manifest["outputs"].items())
        and all((out / rel).exists() for rel in manifest["present"])
        and not any((out / rel).exists() for rel in manifest["absent"])
    )
    return Check(finished=(manifest["rows"], manifest["cells"])) if outputs_hold else Check()


def write(
    config_path: Path,
    config_data: bytes,
    inputs: list[str],
    out: Path,
    files: tuple[list[str], list[str], list[str]],
    rows: int,
    cells: int,
    earlier: dict | None = None,
) -> None:
    """Write the manifest of a sweep that finished with no failures.

    `inputs` are the config's input path strings; `files` are the output
    files whose bytes, presence and absence a rerun depends on, as
    `tokalign.sweep.rerun_files` lists them.  `earlier` is the manifest
    of `Check.earlier` when the run reused points computed before the
    change; the manifest is then stale and keeps its digests.
    """
    hashed, present, absent = files
    base = config_path.parent
    doc = {
        "schema": SCHEMA,
        "config": _sha256(config_data),
        "program": _program_digest(),
        "inputs": {raw: _sha256(resolve_path(base, raw).read_bytes()) for raw in inputs},
        "outputs": {rel: _sha256((out / rel).read_bytes()) for rel in hashed},
        "present": sorted(present),
        "absent": sorted(absent),
        "rows": rows,
        "cells": cells,
        "stale": earlier is not None,
    }
    if earlier is not None:
        # A part that did not change has the same digest either way.
        doc["config"], doc["program"] = earlier["config"], earlier["program"]
        kept = earlier["inputs"]
        doc["inputs"] = {raw: kept.get(raw, sha) for raw, sha in doc["inputs"].items()}
    atomic_write(out / NAME, json.dumps(doc, indent=1, sort_keys=True) + "\n")
