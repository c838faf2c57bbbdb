"""Streamed line reads, streamed atomic writes, sha256 digests and JSON value checks.

Every stage shares them; `json_typed` is the one type rule of the sweep config and model files.
"""

from __future__ import annotations

import os
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterator

from .errors import ConfigError, DataError


def write_rendered(path: Path, render: Callable[..., None], *args, **kwargs) -> None:
    """Write to `path` what ``render(*args, stream, **kwargs)`` writes.

    The text streams into a temporary file named for this process, so that
    two processes can write one path; it replaces `path` once `render`
    returns, and a failure removes it, leaving any earlier file whole.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as stream:
            render(*args, stream, **kwargs)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write(path: Path, text: str) -> None:
    write_rendered(path, lambda stream: stream.write(text))


def read_lines(path: Path) -> Iterator[str]:
    """The lines as they are read: ConfigError if unreadable, DataError at a non-UTF-8 byte."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            yield from handle
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def json_typed(value: Any, kind: type) -> Any:
    """`value`, read from JSON, if it has type `kind`; else a TypeError.

    A bool is not an int and a string is not a number; an int is read as
    a float where a float is wanted.
    """
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise TypeError(f"{value!r} is not of type {kind.__name__}")
    return value


def json_arrays(value: Any) -> list[list]:
    """`value`, read from JSON, if it is an array of arrays; else a TypeError.

    Unpacking an item then checks its length, where a string or an object
    would unpack as its characters or its keys.
    """
    return [json_typed(item, list) for item in json_typed(value, list)]


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
