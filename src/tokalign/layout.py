"""The sweep's configuration, the layout of its output tree, and the keys that decide reuse.

`FIELDS` is the one table of the sweep config's fields: each field's
JSON default, its parser, and whether a point's key covers it, so that
a new field is one new row.

A sweep reuses a file only while the `<file>.key` beside it holds the key
of the inputs that would make it now (`_keys`, `_fresh`, `_write_keyed`).
That covers each lexicon-built curated dataset, model and point, and the
combined `scores.csv` and `correlations.csv`, whose one key a run writes
only when it finishes with no failures.  `finished` asks the same keys
whether a rerun has anything to do, so `tokalign sweep` can answer
before it loads the pipeline.  Edits made by hand to an output file are
not detected: a key vouches for the inputs a file was made from, not for
its bytes.

This module imports only the standard library, `choices`, `errors` and
`files`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence

from .choices import BASELINE_KINDS, CURATED_KINDS, DEFAULT_EPOCHS, DEFAULT_THRESHOLDS
from .choices import Aggregation, FeatureMode, TokenizerKind, language_code
from .errors import ConfigError
from .files import Digests, atomic_write, sha256_hex

# The combined files of a sweep, in its output directory.
SCORES, CORRELATIONS, FAILURES = "scores.csv", "correlations.csv", "failures.csv"
_ROOT_FILES = {SCORES, CORRELATIONS, FAILURES}
_ROOT_FILES |= {f"{name}.key" for name in _ROOT_FILES}

DEFAULT_VOCAB_SIZES = (
    2000, 4000, 8000, 16000, 24000, 32000,
    40000, 48000, 56000, 64000, 72000, 80000,
)


def check_threshold(threshold: float) -> None:
    """Raise ConfigError unless the threshold lies in [0, 1)."""
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"threshold must be in [0, 1), got {threshold}")


def _integer(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _positive(value: object) -> int:
    if _integer(value) < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _threshold(value: object) -> float:
    threshold = _number(value)
    try:
        check_threshold(threshold)
    except ConfigError as exc:
        raise ValueError(exc) from None
    return threshold


def _boolean(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _path(value: object) -> Path:
    # An empty path would resolve to the config's own directory.
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValueError(f"{value!r} is not a non-empty path string without NUL")
    return Path(value)


def _trained_kind(value: object) -> TokenizerKind:
    kind = TokenizerKind(value)
    # A baseline has no vocabulary size: listed here, it would run once
    # per size under as many labels.
    if kind in BASELINE_KINDS:
        raise ValueError(f"{kind.value!r} is a baseline, which include_baselines adds")
    return kind


def _list_of(parse: Callable) -> Callable:
    # A repeated value would give two grid points or score rows one label.
    def parse_list(value: object) -> list:
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a list")
        items = [parse(item) for item in value]
        if not items:
            raise ValueError("the list is empty")
        if len(set(items)) != len(items):
            raise ValueError(f"{value!r} repeats a value")
        return items

    return parse_list


# One row per sweep config field but `languages`: its JSON default, its
# parser, which returns the value checked and converted or raises
# ValueError, and whether a point's key covers it.  The fields a key does
# not cover choose which points there are, or (`output_dir`) where they go.
FIELDS = {
    "kinds": (["bpe", "wordpiece", "unigram"], _list_of(_trained_kind), False),
    "vocab_sizes": (list(DEFAULT_VOCAB_SIZES), _list_of(_positive), False),
    "modes": (["joint", "split"], _list_of(FeatureMode), False),
    "aggregations": ([a.value for a in Aggregation], _list_of(Aggregation), True),
    "thresholds": (list(DEFAULT_THRESHOLDS), _list_of(_threshold), True),
    "epochs": (DEFAULT_EPOCHS, _positive, True),
    "seed": (0, _integer, True),
    "include_baselines": (True, _boolean, False),
    "include_null": (False, _boolean, True),
    "output_dir": ("out", _path, False),
}


def parse_field(name: str, value: object, label: str | None = None) -> object:
    """`value` checked and converted by field `name`'s row; a ConfigError names `label`."""
    try:
        return FIELDS[name][1](value)
    except ValueError as exc:
        raise ConfigError(f"{label or f'sweep config field {name}'}: {exc}") from None


# The input paths a language may give; each language needs a corpus, and
# a curated dataset or the lexicons to curate.
LANGUAGE_PATHS = ("corpus", "curated", "features", "segmentations")


# Plain classes: a dataclass or a `NamedTuple` costs a finished rerun
# start-up time, and `--output-dir` sets `SweepConfig.output_dir`.
class LanguageSpec:
    """One language's name, and one attribute per `LANGUAGE_PATHS` entry, None if not given."""

    def __init__(self, name: str, **paths: Path) -> None:
        self.name = name
        for key in LANGUAGE_PATHS:
            setattr(self, key, paths.get(key))


class SweepConfig:
    """A checked sweep config: its languages, and one attribute per row of `FIELDS`.

    `fields` are JSON values, and a field left out takes its row's
    default.  `tokalign.cli.load_sweep_config` reads one from a file.
    """

    def __init__(self, languages: list[LanguageSpec], **fields: object) -> None:
        # A name is one directory of the output tree; anything else would
        # put a language's files in the output root, outside it, or in
        # the place of one of the root's own files.
        for name in (spec.name for spec in languages):
            if name in ("", ".", "..") or "/" in name or os.sep in name or "\0" in name:
                raise ConfigError(f"language name {name!r} is not one plain path component")
            if name in _ROOT_FILES:
                raise ConfigError(f"language name {name!r} names a file of the output root")
            # A curated dataset's header holds the name as its language.
            try:
                language_code(name)
            except ValueError as exc:
                raise ConfigError(f"language name {exc}") from None
        self.languages = languages
        for name, (default, _, _) in FIELDS.items():
            setattr(self, name, parse_field(name, fields.get(name, default)))

    @property
    def grid(self) -> list[tuple[TokenizerKind, int]]:
        """Every (kind, vocab size) the sweep builds; a baseline's size is 0."""
        grid = [(kind, size) for kind in self.kinds for size in self.vocab_sizes]
        if self.include_baselines:
            grid.extend((kind, 0) for kind in BASELINE_KINDS)
        return grid


def _model_path(out: Path, lang: str, kind: TokenizerKind, size: int) -> Path:
    return out / lang / "models" / f"{kind.value}-{size}.json"


def _point_path(out: Path, lang: str, kind: TokenizerKind, size: int, mode: FeatureMode) -> Path:
    return out / lang / "points" / f"{kind.value}-{size}-{mode.value}.csv"


def _lexicon_curated_path(out: Path, lang: str) -> Path:
    return out / lang / "curated.tsv"


def _key(*parts: object) -> str:
    """The key of an artefact made from `parts`: the sha256 of their repr."""
    return sha256_hex(repr(parts).encode("utf-8"))


def _key_path(path: Path) -> Path:
    return path.with_name(f"{path.name}.key")


def _fresh(path: Path, key: str) -> bool:
    """Whether `path` exists and the key recorded beside it is `key`."""
    try:
        return _key_path(path).read_bytes() == f"{key}\n".encode() and path.exists()
    except OSError:
        return False


def _write_keyed(path: Path, key: str | None, write: Callable, *args, **kwargs):
    """Run ``write(*args, **kwargs)``, which writes `path`, then record `key` beside it.

    The earlier key goes first, so a crash in between leaves no key; a
    `key` of None leaves none at all.  Returns what `write` returns.
    """
    key_path = _key_path(path)
    key_path.unlink(missing_ok=True)
    result = write(*args, **kwargs)
    if key is not None:
        atomic_write(key_path, f"{key}\n")
    return result


def _dataset(out: Path, spec: LanguageSpec, digests: Digests) -> tuple[Path, str | None]:
    """The language's curated dataset and, if the sweep curates it, its key.

    The key of a dataset curated from lexicons covers the program, both
    lexicons and the language name; a curated file the config gives has
    none.
    """
    if spec.curated is not None:
        return spec.curated, None
    key = _key(digests.program, digests[spec.features], digests[spec.segmentations], spec.name)
    return _lexicon_curated_path(out, spec.name), key


def _keys(
    config: SweepConfig, curated_paths: Sequence[Path], digests: Digests
) -> dict[Path, str]:
    """The key of each model, point and combined CSV of the sweep, by path.

    `curated_paths` are the languages' datasets, in config order.  A
    model's key covers the program, its kind, size and seed, and the
    corpus (the dataset, for a kind built from it), so a merge kind's
    cut has the key of the training at its size.  A point's key covers
    its model's key, the dataset, its mode and language, and each field
    whose `FIELDS` row is marked covered, in table order.  `scores.csv`
    and `correlations.csv` share one key: that of every point in grid
    order, and the seed.
    """
    out = config.output_dir
    evaluation = [getattr(config, name) for name, (_, _, keyed) in FIELDS.items() if keyed]
    keys = {}
    point_keys = []
    for spec, curated_path in zip(config.languages, curated_paths):
        dataset = digests[curated_path]
        for kind, size in config.grid:
            source = dataset if kind in CURATED_KINDS else digests[spec.corpus]
            model_key = _key(digests.program, kind.value, size, config.seed, source)
            keys[_model_path(out, spec.name, kind, size)] = model_key
            for mode in config.modes:
                point_path = _point_path(out, spec.name, kind, size, mode)
                point_key = _key(model_key, dataset, mode.value, spec.name, *evaluation)
                keys[point_path] = point_key
                point_keys.append(point_key)
    combined = _key(*point_keys, config.seed)
    keys[out / SCORES] = keys[out / CORRELATIONS] = combined
    return keys


def finished(config: SweepConfig, digests: Digests) -> tuple[int, int] | None:
    """The (rows, cells) of the finished sweep the config describes, if a rerun has nothing to do.

    That is when every file `_keys` keys, and each curated dataset the
    sweep made, is fresh, and no `failures.csv` exists.  Reads only the
    inputs, the key files and `correlations.csv`, whose data lines are
    the report's cells, and writes nothing.
    """
    out = config.output_dir
    curated_paths = []
    for spec in config.languages:
        curated_path, key = _dataset(out, spec, digests)
        if key is not None and not _fresh(curated_path, key):
            return None
        curated_paths.append(curated_path)
    keys = _keys(config, curated_paths, digests)
    if (out / FAILURES).exists() or not all(_fresh(p, key) for p, key in keys.items()):
        return None
    try:
        report = (out / CORRELATIONS).read_bytes()
    except OSError:
        return None
    # A quoted cell may hold a line break; the full sweep counts its cells.
    if b'"' in report:
        return None
    # Comment lines come only above the header: a cell may start with "#".
    while report.startswith(b"#"):
        report = report.partition(b"\n")[2]
    cells = report.count(b"\n") - 1  # less the header
    points = len(config.languages) * len(config.grid) * len(config.modes)
    return points * len(config.aggregations) * len(config.thresholds), cells
