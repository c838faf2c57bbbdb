"""The sweep's configuration, the layout of its output tree, and the keys that decide reuse.

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

from .choices import BASELINE_KINDS, CURATED_KINDS
from .choices import Aggregation, FeatureMode, TokenizerKind
from .errors import ConfigError
from .files import Digests, atomic_write, sha256_hex

# The combined files of a sweep, in its output directory.
SCORES, CORRELATIONS, FAILURES = "scores.csv", "correlations.csv", "failures.csv"


def check_threshold(threshold: float) -> None:
    """Raise ConfigError unless the threshold lies in [0, 1)."""
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"threshold must be in [0, 1), got {threshold}")


def check_values(label: str, values: Sequence, check: Callable | None = None) -> None:
    """Reject an empty list of config values, a bad value, or a repeated one.

    A repeated value would give two grid points, score rows or languages
    one label.
    """
    if not values:
        raise ConfigError(f"{label} is empty")
    if check is not None:
        for value in values:
            check(value)
    if len(set(values)) != len(values):
        raise ConfigError(f"{label} repeats a value: {values}")


def _check_size(size: int) -> None:
    if size < 1:
        raise ConfigError(f"vocab sizes must be positive, got {size}")


def _check_language_name(name: str) -> None:
    # A name is one directory of the output tree; anything else would put
    # a language's files in the output root or outside it.
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise ConfigError(f"language name {name!r} is not one plain path component")


# Plain classes: a dataclass or a `NamedTuple` costs a finished rerun
# start-up time, and `--output-dir` sets `SweepConfig.output_dir`.
class LanguageSpec:
    """One language's input paths: a corpus, and a curated dataset or the lexicons to curate."""

    def __init__(
        self,
        name: str,
        corpus: Path,
        curated: Path | None = None,
        features: Path | None = None,
        segmentations: Path | None = None,
    ) -> None:
        self.name = name
        self.corpus = corpus
        self.curated = curated
        self.features = features
        self.segmentations = segmentations


class SweepConfig:
    """A checked sweep config; `tokalign.cli.load_sweep_config` reads one from JSON."""

    def __init__(
        self,
        languages: list[LanguageSpec],
        kinds: list[TokenizerKind],
        vocab_sizes: list[int],
        modes: list[FeatureMode],
        aggregations: list[Aggregation],
        thresholds: list[float],
        epochs: int,
        seed: int,
        include_baselines: bool,
        include_null: bool,
        output_dir: Path,
    ) -> None:
        check_values("sweep config languages", [s.name for s in languages], _check_language_name)
        for field_name, values, check in (
            ("kinds", kinds, None),
            ("vocab_sizes", vocab_sizes, _check_size),
            ("modes", modes, None),
            ("aggregations", aggregations, None),
            ("thresholds", thresholds, check_threshold),
        ):
            check_values(f"sweep config field {field_name}", values, check)
        if epochs < 1:
            raise ConfigError("epochs must be at least 1")
        self.languages = languages
        self.kinds = kinds
        self.vocab_sizes = vocab_sizes
        self.modes = modes
        self.aggregations = aggregations
        self.thresholds = thresholds
        self.epochs = epochs
        self.seed = seed
        self.include_baselines = include_baselines
        self.include_null = include_null
        self.output_dir = output_dir

    @property
    def grid(self) -> list[tuple[TokenizerKind, int]]:
        """Every (kind, vocab size) the sweep builds; a baseline's size is 0."""
        grid = [(kind, size) for kind in self.kinds for size in self.vocab_sizes]
        if self.include_baselines:
            grid.extend((kind, 0) for kind in BASELINE_KINDS)
        return grid


def _model_path(out: Path, lang: str, kind: TokenizerKind, size: int) -> Path:
    return out / lang / "models" / f"{kind.value}-{size}.json"


def _point_paths(
    out: Path, lang: str, kind: TokenizerKind, size: int, mode: FeatureMode
) -> tuple[Path, Path]:
    stem = f"{kind.value}-{size}-{mode.value}"
    return (
        out / lang / "points" / f"{stem}.csv",
        out / lang / "tables" / f"{stem}.json",
    )


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
    its model's key, the dataset and every setting of its evaluation.
    `scores.csv` and `correlations.csv` share one key: that of every
    point in grid order, and the seed.
    """
    out = config.output_dir
    aggregations = tuple(aggregation.value for aggregation in config.aggregations)
    evaluation = (config.epochs, config.include_null, aggregations)
    evaluation += (tuple(config.thresholds), config.seed)
    keys = {}
    point_keys = []
    for spec, curated_path in zip(config.languages, curated_paths):
        dataset = digests[curated_path]
        for kind, size in config.grid:
            source = dataset if kind in CURATED_KINDS else digests[spec.corpus]
            model_key = _key(digests.program, kind.value, size, config.seed, source)
            keys[_model_path(out, spec.name, kind, size)] = model_key
            for mode in config.modes:
                point_path = _point_paths(out, spec.name, kind, size, mode)[0]
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
    comments = report.startswith(b"#") + report.count(b"\n#")
    cells = report.count(b"\n") - comments - 1  # less the header
    points = len(config.languages) * len(config.grid) * len(config.modes)
    return points * len(config.aggregations) * len(config.thresholds), cells
