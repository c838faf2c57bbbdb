"""Lexicon parsing and dataset curation.

Two tab-separated inputs are joined into one curated dataset:

* a feature lexicon with ``lemma<TAB>form<TAB>feature;bundle`` rows, and
* a segmentation lexicon with ``form<TAB>seg|ment|s`` rows.

The join is exact on the surface form after Unicode NFC normalization.
A form may appear with several feature bundles; each match becomes its
own entry, so the curated dataset keeps one row per analysis.

:func:`curate_files` runs the join from the lexicon files to a curated
file.  Its ``# language:`` header line reads back unchanged the codes
that `tokalign.choices.language_code` admits, the only ones
`tokalign curate` and a sweep config accept.

Each input row is checked once: the parsers check the lexicons' rows
and :func:`curate` trusts them, and :func:`read_curated` checks each
curated row and raises on a malformed one with a DataError that names
its line.
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

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


def _language(comment: str) -> str | None:
    """The value of a ``# language:`` comment line, or None for another comment."""
    key, colon, value = comment.lstrip()[len(COMMENT_PREFIX):].partition(":")
    return value.strip() if colon and key.strip() == LANGUAGE_META_KEY else None


def _lines(stream: Iterable[str]) -> Iterator[tuple[int, str, bool]]:
    """Each non-blank line, numbered from 1, without its line break, and
    whether it is a comment.

    The comments are the ``#`` lines at the top, down to the first row
    or the first ``# language:`` line, which :func:`write_curated` writes
    above its rows.  Below them, a line that starts with ``#`` is a row,
    such as one of the form ``#ab``.
    """
    header = True
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if line.strip():
            comment = header and line.lstrip().startswith(COMMENT_PREFIX)
            header = comment and _language(line) is None
            yield lineno, line, comment


def _entry_problem(
    form: str, gold_segments: tuple[str, ...], features: tuple[str, ...]
) -> str | None:
    """What makes these fields no word entry, or None if they make one."""
    if not form:
        return "word entry with empty form"
    if not gold_segments or "" in gold_segments:
        return f"empty gold segment for form {form!r}"
    if "".join(gold_segments) != form:
        return (
            f"gold segments {list(gold_segments)!r} do not "
            f"concatenate to form {form!r}"
        )
    if not features or any(not f or FEATURE_SEP in f for f in features):
        return f"invalid feature atoms for form {form!r}"
    return None


# The fields of `WordEntry`, which adds the checks: a `NamedTuple` class
# may not define `__new__` itself.
class _Entry(NamedTuple):
    form: str
    gold_segments: tuple[str, ...]
    features: tuple[str, ...]


class WordEntry(_Entry):
    """One curated word: surface form, gold segmentation, feature atoms.

    Built by a call, an entry is checked and a bad one raises DataError.
    :func:`curate` and :func:`read_curated` check each row once
    themselves and build their entries with ``WordEntry._make``, which
    checks nothing.
    """

    __slots__ = ()

    def __new__(
        cls, form: str, gold_segments: tuple[str, ...], features: tuple[str, ...]
    ) -> WordEntry:
        problem = _entry_problem(form, gold_segments, features)
        if problem is not None:
            raise DataError(problem)
        return super().__new__(cls, form, gold_segments, features)


# Plain classes: the standard library's module that generates record
# classes took most of this module's import time on its own, which
# `tokalign curate` pays (`tests/test_imports.py` keeps it unloaded).
class _Record:
    """Compared and shown by its attributes, in the order ``__init__`` sets them."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class CuratedDataset(_Record):
    """Entries in input order, plus the language code."""

    def __init__(self, entries: list[WordEntry], language: str = "und") -> None:
        self.entries = entries
        self.language = language

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[WordEntry]:
        return iter(self.entries)


class ParseStats(_Record):
    """Counters for skipped or rejected input lines."""

    def __init__(
        self,
        read: int = 0,
        kept: int = 0,
        skipped_columns: int = 0,
        skipped_empty: int = 0,
        rejected_mismatch: int = 0,
        duplicate_forms: int = 0,
    ) -> None:
        self.read = read
        self.kept = kept
        self.skipped_columns = skipped_columns
        self.skipped_empty = skipped_empty
        self.rejected_mismatch = rejected_mismatch
        self.duplicate_forms = duplicate_forms

    @property
    def skipped(self) -> int:
        return self.read - self.kept


class JoinStats(_Record):
    def __init__(self, feature_rows: int = 0, matched: int = 0, dropped: int = 0) -> None:
        self.feature_rows = feature_rows
        self.matched = matched
        self.dropped = dropped


def _feature_rows(stream: Iterable[str], stats: ParseStats) -> Iterator[tuple[str, str]]:
    """Yield `parse_feature_lexicon`'s pairs as the rows are read, counting into `stats`."""
    for _, line, comment in _lines(stream):
        if comment:
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
        stats.kept += 1
        yield form, bundle


def parse_feature_lexicon(
    stream: Iterable[str],
) -> tuple[list[tuple[str, str]], ParseStats]:
    """Read (form, bundle) pairs from lemma/form/features rows.

    Blank lines and the ``#`` comments at the top (see ``_lines``) are
    ignored.  Lines with fewer than three columns, or with an empty form
    or bundle, are skipped and counted.  Extra columns beyond the third
    are ignored.  Order and duplicates are preserved: one output pair per
    usable input row.
    """
    stats = ParseStats()
    return list(_feature_rows(stream, stats)), stats


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
    for _, line, comment in _lines(stream):
        if comment:
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
    features: Iterable[tuple[str, str]],
    language: str = "und",
) -> tuple[CuratedDataset, JoinStats]:
    """Join feature rows with gold segmentations on the surface form.

    Feature rows whose form has no segmentation, or whose bundle has no
    atom, are dropped and counted.  The output preserves feature-lexicon
    order, one entry per feature row, so forms with several analyses stay
    distinct entries.  The inputs are taken to be what the two parsers
    give, which have checked every form and segmentation, so the
    entries are not checked again; the feature rows are iterated once,
    so they may be parsed as the join goes.
    """
    entries: list[WordEntry] = []
    stats = JoinStats()
    # A lexicon repeats its bundles, so their entries share one tuple.
    atoms_of: dict[str, tuple[str, ...]] = {}
    for form, bundle in features:
        stats.feature_rows += 1
        segments = segmentations.get(form)
        if segments is None:
            stats.dropped += 1
            continue
        atoms = atoms_of.get(bundle)
        if atoms is None:
            atoms = atoms_of[bundle] = tuple(a for a in bundle.split(FEATURE_SEP) if a)
        if not atoms:
            stats.dropped += 1
            continue
        entries.append(WordEntry._make((form, tuple(segments), atoms)))
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

    Curated files are produced by this package, so a malformed row
    raises a DataError that starts ``curated line N:`` instead of being
    skipped: one without exactly three columns, or whose form is empty,
    whose segments are not all non-empty and concatenate to the form, or
    whose feature atoms include an empty one.
    """
    entries: list[WordEntry] = []
    atoms_of: dict[str, tuple[str, ...]] = {}  # as in `curate`
    language = "und"
    for lineno, line, comment in _lines(stream):
        if comment:
            value = _language(line)
            language = language if value is None else value
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise DataError(f"curated line {lineno}: expected 3 columns")
        form = normalize(cols[0].strip())
        segments = tuple(normalize(s) for s in cols[1].strip().split(SEGMENT_SEP))
        atoms = atoms_of.get(cols[2])
        if atoms is None:
            atoms = atoms_of[cols[2]] = tuple(normalize(cols[2].strip()).split(FEATURE_SEP))
        # `_entry_problem`'s checks, given that split gives at least one
        # segment and no atom that holds the separator.
        if not form or "" in segments or "".join(segments) != form or "" in atoms:
            problem = _entry_problem(form, segments, atoms)
            raise DataError(f"curated line {lineno}: {problem}")
        entries.append(WordEntry._make((form, segments, atoms)))
    if not entries:
        raise DataError("curated file contains no entries")
    return CuratedDataset(entries, language=language)


def curate_files(
    features: Path, segmentations: Path, language: str, out: Path
) -> tuple[CuratedDataset, ParseStats, ParseStats, JoinStats]:
    """Join the lexicons, write the dataset to `out`, and return it and the counts.

    The segmentation lexicon is parsed into its map first.  The feature
    lexicon is then joined a row at a time as it is read, so neither
    lexicon's lines, nor the feature rows, are held in memory.
    """
    segmentation_map, seg_stats = parse_segmentation_lexicon(read_lines(segmentations))
    feat_stats = ParseStats()
    feature_rows = _feature_rows(read_lines(features), feat_stats)
    dataset, join_stats = curate(segmentation_map, feature_rows, language=language)
    write_rendered(out, write_curated, dataset)
    return dataset, feat_stats, seg_stats, join_stats
