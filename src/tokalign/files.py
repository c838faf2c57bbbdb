"""Whole-file reads and atomic writes, shared by every stage."""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Callable

from .errors import ConfigError


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


def resolve_path(base: Path, raw: str) -> Path:
    """A config's path string: absolute as given, or relative to `base`."""
    path = Path(raw)
    return path if path.is_absolute() else base / path


def read_lines(path: Path) -> list[str]:
    try:
        with path.open("r", encoding="utf-8") as handle:
            return handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
