"""Lexicon parsing and dataset curation.

Two tab-separated inputs are joined into one curated dataset:

* a feature lexicon with ``lemma<TAB>form<TAB>feature;bundle`` rows, and
* a segmentation lexicon with ``form<TAB>seg|ment|s`` rows.

The join is exact on the surface form after Unicode NFC normalization.
A form may appear with several feature bundles; each match becomes its
own entry, so the curated dataset keeps one row per analysis.

:func:`curate_files` runs the join from the lexicon files to a curated
file.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

# FeatureMode is a public name of this module too.
from .choices import FeatureMode
from .errors import DataError
from .files import read_lines, write_rendered

FEATURE_SEP = ";"
SEGMENT_SEP = "|"
COMMENT_PREFIX = "#"
LANGUAGE_META_KEY = "language"


def normalize(text: str) -> str:
    """Return the NFC form; every surface string is normalized on entry."""
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True)
class WordEntry:
    """One curated word: surface form, gold segmentation, feature atoms."""

    form: str
    gold_segments: tuple[str, ...]
    features: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.form:
            raise DataError("word entry with empty form")
        if not self.gold_segments or any(not s for s in self.gold_segments):
            raise DataError(f"empty gold segment for form {self.form!r}")
        if "".join(self.gold_segments) != self.form:
            raise DataError(
                f"gold segments {list(self.gold_segments)!r} do not "
                f"concatenate to form {self.form!r}"
            )
        if not self.features or any(
            not f or FEATURE_SEP in f for f in self.features
        ):
            raise DataError(f"invalid feature atoms for form {self.form!r}")


@dataclass
class CuratedDataset:
    """Entries in input order, plus the language code."""

    entries: list[WordEntry]
    language: str = "und"

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WordEntry]:
        return iter(self.entries)


@dataclass
class ParseStats:
    """Counters for skipped or rejected input lines."""

    read: int = 0
    kept: int = 0
    skipped_columns: int = 0
    skipped_empty: int = 0
    rejected_mismatch: int = 0
    duplicate_forms: int = 0

    @property
    def skipped(self) -> int:
        return self.read - self.kept


@dataclass
class JoinStats:
    feature_rows: int = 0
    matched: int = 0
    dropped: int = 0


def parse_feature_lexicon(
    stream: Iterable[str],
) -> tuple[list[tuple[str, str]], ParseStats]:
    """Read (form, bundle) pairs from lemma/form/features rows.

    Blank lines and ``#`` comments are ignored.  Lines with fewer than
    three columns, or with an empty form or bundle, are skipped and
    counted.  Extra columns beyond the third are ignored.  Order and
    duplicates are preserved: one output pair per usable input row.
    """
    pairs: list[tuple[str, str]] = []
    stats = ParseStats()
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith(COMMENT_PREFIX):
            continue
        stats.read += 1
        cols = line.split("\t")
        if len(cols) < 3:
            stats.skipped_columns += 1
            continue
        form = normalize(cols[1].strip())
        bundle = normalize(cols[2].strip())
        if not form or not bundle:
            stats.skipped_empty += 1
            continue
        pairs.append((form, bundle))
        stats.kept += 1
    return pairs, stats


def parse_segmentation_lexicon(
    stream: Iterable[str],
) -> tuple[dict[str, list[str]], ParseStats]:
    """Read a form -> segments map from ``form<TAB>seg|ment`` rows.

    Segments must concatenate back to the form exactly; rows violating
    that are rejected and counted.  The first occurrence of a form wins
    and later duplicates are counted, so the result is deterministic for
    a given input order.
    """
    seg_map: dict[str, list[str]] = {}
    stats = ParseStats()
    for raw in stream:
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith(COMMENT_PREFIX):
            continue
        stats.read += 1
        cols = line.split("\t")
        if len(cols) < 2:
            stats.skipped_columns += 1
            continue
        form = normalize(cols[0].strip())
        seg_field = cols[1].strip()
        if not form or not seg_field:
            stats.skipped_empty += 1
            continue
        segments = [normalize(s) for s in seg_field.split(SEGMENT_SEP)]
        if any(not s for s in segments) or "".join(segments) != form:
            stats.rejected_mismatch += 1
            continue
        if form in seg_map:
            stats.duplicate_forms += 1
            continue
        seg_map[form] = segments
        stats.kept += 1
    return seg_map, stats


def curate(
    segmentations: dict[str, list[str]],
    features: list[tuple[str, str]],
    language: str = "und",
) -> tuple[CuratedDataset, JoinStats]:
    """Join feature rows with gold segmentations on the surface form.

    Feature rows whose form has no segmentation are dropped and counted.
    The output preserves feature-lexicon order, one entry per feature
    row, so forms with several analyses stay distinct entries.
    """
    entries: list[WordEntry] = []
    stats = JoinStats(feature_rows=len(features))
    for form, bundle in features:
        segments = segmentations.get(form)
        if segments is None:
            stats.dropped += 1
            continue
        atoms = tuple(a for a in bundle.split(FEATURE_SEP) if a)
        if not atoms:
            stats.dropped += 1
            continue
        entries.append(WordEntry(form, tuple(segments), atoms))
    stats.matched = len(entries)
    if not entries:
        raise DataError("curation produced no entries: the join is empty")
    return CuratedDataset(entries, language=language), stats


def feature_tokens(entry: WordEntry, mode: FeatureMode) -> list[str]:
    """Render an entry's bundle as alignment target tokens."""
    if mode is FeatureMode.JOINT:
        return [FEATURE_SEP.join(entry.features)]
    return list(entry.features)


def write_curated(dataset: CuratedDataset, stream: TextIO) -> None:
    """Serialize a curated dataset as a commented three-column TSV."""
    stream.write(f"# {LANGUAGE_META_KEY}: {dataset.language}\n")
    for entry in dataset.entries:
        segs = SEGMENT_SEP.join(entry.gold_segments)
        feats = FEATURE_SEP.join(entry.features)
        stream.write(f"{entry.form}\t{segs}\t{feats}\n")


def read_curated(stream: Iterable[str]) -> CuratedDataset:
    """Load a curated TSV written by :func:`write_curated`.

    Curated files are produced by this package, so malformed rows raise
    instead of being skipped.
    """
    entries: list[WordEntry] = []
    language = "und"
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line.lstrip().startswith(COMMENT_PREFIX):
            key, colon, value = line.lstrip()[len(COMMENT_PREFIX):].partition(":")
            if colon and key.strip() == LANGUAGE_META_KEY:
                language = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataError(f"curated line {lineno}: expected 3 columns")
        form = normalize(cols[0].strip())
        segments = tuple(normalize(s) for s in cols[1].strip().split(SEGMENT_SEP))
        atoms = tuple(a for a in normalize(cols[2].strip()).split(FEATURE_SEP) if a)
        entries.append(WordEntry(form, segments, atoms))
    if not entries:
        raise DataError("curated file contains no entries")
    return CuratedDataset(entries, language=language)


def curate_files(
    features: Path, segmentations: Path, language: str, out: Path
) -> tuple[CuratedDataset, ParseStats, ParseStats, JoinStats]:
    """Join the lexicons, write the dataset to `out`, and return it and the counts."""
    feature_rows, feat_stats = parse_feature_lexicon(read_lines(features))
    segmentation_map, seg_stats = parse_segmentation_lexicon(read_lines(segmentations))
    dataset, join_stats = curate(segmentation_map, feature_rows, language=language)
    write_rendered(out, write_curated, dataset)
    return dataset, feat_stats, seg_stats, join_stats
