"""Alignment-based plausibility scores and boundary agreement metrics.

The alignment score of a tokenizer over a dataset is the mean over
words of the mean over that word's subwords of an aggregation applied
to the surviving translation probabilities: for each subword, the
probabilities of the word's feature tokens that exceed the threshold.
Boundary precision and recall compare predicted and gold segmentation
split points per word and are micro-averaged over the dataset.

:func:`alignment_scores` scores every aggregation × threshold in one
walk.  A subword's scores form a vector that depends only on the
subword and the word's feature tuple, so each distinct such key is
scored once per call, and the vectors of keys that occur more than once
are kept for their later occurrences.  Words and totals add vectors with
``map`` over ``operator.add`` instead of a Python loop per slot.  The
floats are bit for bit those of adding each slot in turn, because no
score or sum is ever -0.0 (see :func:`alignment_scores`).

:func:`write_csv` and :func:`read_csv` write and read every result CSV:
score rows, the correlation report and a sweep's failures, and
:func:`read_seed` reads the seed line that :func:`write_csv` writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import cache, reduce
from itertools import repeat
from operator import add, truediv
from typing import Iterable, Sequence, TextIO, get_type_hints

from .choices import Aggregation, FeatureMode
from .corpus import CuratedDataset
from .errors import DataError
from .ibm1 import NULL_TOKEN, ParallelPair, Segments, TranslationTable
from .ibm1 import segment_entries
from .layout import check_threshold
from .tokenizers import TokenizerModel


@dataclass(frozen=True)
class ScoreConfig:
    aggregation: Aggregation
    threshold: float = 0.01
    mode: FeatureMode = FeatureMode.SPLIT

    def __post_init__(self) -> None:
        check_threshold(self.threshold)


@dataclass
class BoundaryCounts:
    true_positive: int = 0
    predicted_total: int = 0
    gold_total: int = 0
    excluded: int = 0


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum.

    From Python 3.12 the builtin ``sum`` of floats compensates rounding
    error, so its result would depend on the interpreter version.
    """
    return reduce(add, values, 0.0)


def _log_sum(surviving: list[float]) -> float:
    return _sum(map(math.log, surviving))


def _mean(surviving: list[float]) -> float:
    return _sum(surviving) / len(surviving)


# Each aggregation of a non-empty survivor list.
_AGGREGATE = {
    Aggregation.SUM: _sum,
    Aggregation.LOG: _log_sum,
    Aggregation.MEAN: _mean,
    Aggregation.MIN: min,
    Aggregation.MAX: max,
}


# A subword and the feature tokens of its word.
_Key = tuple[str, tuple[str, ...]]


def _score_vector(
    row: dict[str, float],
    features: Sequence[str],
    levels: Sequence[float],
    aggregates: Sequence,
) -> tuple[float, ...]:
    """One subword's score under every (level, aggregation).

    ``levels`` are distinct thresholds in ascending order, and the vector
    is laid out level-major, one slot per aggregate.  The probabilities
    are looked up once.  Each level's survivors are filtered from the
    previous level's, which keeps them in feature order, and they are
    aggregated again only when a level drops one of them; the levels in
    between reference the same float objects.  An empty survivor list
    scores 0.0 under every aggregation, so the vector is cut after the
    last level that has survivors and is empty when none has.
    """
    level = levels[0]
    surviving = [p for p in map(row.get, features, repeat(0.0)) if p > level]
    vector: list[float] = []
    k = 1
    while surviving:
        values = [aggregate(surviving) for aggregate in aggregates]
        lowest = min(surviving)
        # Levels below the lowest survivor keep the same survivors.
        while True:
            vector += values
            if k == len(levels):
                return tuple(vector)
            level = levels[k]
            k += 1
            if level >= lowest:
                break
        surviving = [p for p in surviving if p > level]
    return tuple(vector)


def alignment_scores(
    table: TranslationTable,
    pairs: Sequence[ParallelPair],
    aggregations: Sequence[Aggregation],
    thresholds: Sequence[float],
) -> dict[tuple[Aggregation, float], float]:
    """Mean word score over prepared pairs for every aggregation × threshold.

    The score of a word is the mean of its subword scores.  One pass
    over the pairs scores the whole grid; each value equals
    :func:`alignment_score_from_pairs` under that configuration, bit for
    bit.  Thresholds may repeat or come in any order.  The null token
    never enters scoring; it exists only to absorb probability mass
    during training.

    A subword's score vector depends only on its key, the subword and
    the pair's feature tuple, so each distinct key is scored once per
    call.  A first pass finds the keys that repeat, and only their
    vectors are kept.  A word adds its vectors slot by slot with
    ``map``, in subword order, and the totals add each word's slots
    divided by its subword count.  The floats equal those of adding
    every slot into a zeroed vector: a missing or cut slot would add
    0.0, copying a vector equals adding it to 0.0, and ``x / 1 == x``.
    Those identities hold because no score or sum here is ever -0.0.
    """
    if not pairs:
        raise DataError("no scorable entries")
    for threshold in thresholds:
        check_threshold(threshold)
    levels = sorted(set(thresholds))
    kinds = list(dict.fromkeys(aggregations))
    aggregates = [_AGGREGATE[kind] for kind in kinds]
    size = len(levels) * len(kinds)
    if not size:
        return {}
    # Every occurrence of a key shares the tuple of its first occurrence,
    # so the word lists hold no tuple of their own.
    words = []
    first: dict[_Key, _Key] = {}
    repeated = set()
    for pair in pairs:
        target = pair.target
        keys = [(s, target) for s in pair.source if s != NULL_TOKEN]
        if not keys:
            raise DataError("word with no subwords")
        for i, key in enumerate(keys):
            known = first.setdefault(key, key)
            if known is not key:
                repeated.add(known)
                keys[i] = known
        words.append(keys)
    totals = [0.0] * size
    probs = table.probs
    vectors: dict[_Key, tuple[float, ...]] = {}
    for keys in words:
        word = None
        for key in keys:
            vector = vectors.get(key)
            if vector is None:
                row = probs.get(key[0])
                if row is None:
                    continue
                vector = _score_vector(row, key[1], levels, aggregates)
                if key in repeated:
                    vectors[key] = vector
            if not vector:
                continue
            if word is None:
                word = list(vector)
            else:
                filled = len(word)
                word[: len(vector)] = map(add, word, vector)
                if len(vector) > filled:
                    word += vector[filled:]
        if word is None:
            continue
        n = len(keys)
        if n == 1:
            totals[: len(word)] = map(add, totals, word)
        else:
            totals[: len(word)] = map(add, totals, map(truediv, word, repeat(n)))
    slot = {
        (kind, level): i * len(kinds) + j
        for i, level in enumerate(levels)
        for j, kind in enumerate(kinds)
    }
    return {
        (kind, threshold): totals[slot[kind, threshold]] / len(pairs)
        for kind in aggregations
        for threshold in thresholds
    }


def alignment_score_from_pairs(
    table: TranslationTable,
    pairs: Sequence[ParallelPair],
    config: ScoreConfig,
) -> float:
    """Mean word score over prepared parallel pairs, for one configuration."""
    key = (config.aggregation, config.threshold)
    return alignment_scores(table, pairs, [key[0]], [key[1]])[key]


def boundary_positions(segments: Sequence[str]) -> set[int]:
    """Internal split points as cumulative character offsets."""
    positions: set[int] = set()
    offset = 0
    for seg in segments[:-1]:
        offset += len(seg)
        positions.add(offset)
    return positions


def _ratio(numerator: int, denominator: int) -> float:
    # A segmentation task with nothing to find or nothing predicted is
    # scored as perfectly solved rather than failed.
    if denominator == 0:
        return 1.0
    return numerator / denominator


def boundary_prf(
    dataset: CuratedDataset, model: TokenizerModel
) -> tuple[float, float, float, BoundaryCounts]:
    """Micro-averaged boundary precision, recall, and F1."""
    return boundary_prf_from_segments(dataset, segment_entries(dataset, model))


def boundary_prf_from_segments(
    dataset: CuratedDataset, segments: Segments
) -> tuple[float, float, float, BoundaryCounts]:
    """Boundary precision, recall, and F1 of a segmented dataset.

    ``segments`` come from :func:`tokalign.ibm1.segment_entries`.
    Entries whose segmentation contains the unknown-token placeholder
    are excluded from all counts, mirroring the alignment-score
    exclusion, and reported in the returned counts.
    """
    if not dataset.entries:
        raise DataError("cannot score an empty dataset")
    counts = BoundaryCounts()
    scored = 0
    for entry, predicted in zip(dataset.entries, segments):
        if predicted is None:
            counts.excluded += 1
            continue
        gold = boundary_positions(entry.gold_segments)
        pred = boundary_positions(predicted)
        counts.true_positive += len(gold & pred)
        counts.predicted_total += len(pred)
        counts.gold_total += len(gold)
        scored += 1
    if scored == 0:
        raise DataError("every entry was excluded from boundary scoring")
    precision = _ratio(counts.true_positive, counts.predicted_total)
    recall = _ratio(counts.true_positive, counts.gold_total)
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1, counts


@dataclass(frozen=True)
class ScoreRow:
    """One evaluated grid point: tokenizer, scoring setup, and results."""

    language: str
    kind: str
    vocab_size: int
    mode: str
    aggregation: str
    threshold: float
    alignment: float
    precision: float
    recall: float
    f1: float
    excluded: int

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.vocab_size}"


SCORE_COLUMNS = (
    "language",
    "kind",
    "vocab_size",
    "mode",
    "aggregation",
    "threshold",
    "alignment_score",
    "precision",
    "recall",
    "f1",
    "excluded_count",
)


_SEED_LINE = "# seed:"


def write_csv(
    columns: Sequence[str], rows: Iterable, stream: TextIO, seed: int | None = None
) -> None:
    """Write an optional ``# seed:`` line, the header, then the rows as CSV.

    ``csv`` writes a float as its ``repr`` and ``None`` as an empty cell.
    """
    if seed is not None:
        stream.write(f"{_SEED_LINE} {seed}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def read_seed(lines: Iterable[str]) -> int | None:
    """The seed on the ``# seed:`` line that :func:`write_csv` wrote, or None.

    Only the comment lines before the header are searched.
    """
    for line in lines:
        if not line.startswith("#"):
            break
        if line.startswith(_SEED_LINE):
            text = line[len(_SEED_LINE):].strip()
            try:
                return int(text)
            except ValueError as exc:
                raise DataError(f"seed {text!r} is not an integer") from exc
    return None


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not a finite number")
    return value


# Cell parsers by field type.  No writer writes a non-finite float.
_PARSERS = {
    str: str, int: int, float: _finite, float | None: lambda c: _finite(c) if c else None
}


@cache
def _parsers(record: type) -> tuple:
    """The cell parser of each of `record`'s fields, resolved once per type."""
    hints = get_type_hints(record)
    return tuple(_PARSERS[hints[f.name]] for f in fields(record))


def read_csv(
    stream: Iterable[str], columns: Sequence[str], record: type, what: str
) -> list:
    """Parse a CSV written by :func:`write_csv` into one `record` dataclass per row.

    The comment lines above the header are skipped; below it, a line
    that starts with ``#`` is a row.  Each cell is parsed by its field's
    type.  Malformed input, a non-finite float included, raises DataError.
    """
    parsers = _parsers(record)
    lines = iter(stream)
    header = next((line for line in lines if not line.startswith("#")), "")
    reader = csv.reader(lines)
    if tuple(next(csv.reader([header]), ())) != tuple(columns):
        raise DataError(f"{what} header does not match the expected columns")
    records = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(columns):
            raise DataError(f"{what} row has {len(cells)} columns")
        try:
            records.append(record(*[parse(c) for parse, c in zip(parsers, cells)]))
        except ValueError as exc:
            raise DataError(f"{what} row is malformed: {exc}") from exc
    return records


def write_score_rows(
    rows: Iterable[ScoreRow], stream: TextIO, seed: int | None = None
) -> None:
    """Write rows as CSV with a comment header carrying the seed."""
    write_csv(SCORE_COLUMNS, (vars(row).values() for row in rows), stream, seed)


def read_score_rows(stream: Iterable[str]) -> list[ScoreRow]:
    """Parse a score CSV produced by :func:`write_score_rows`."""
    return read_csv(stream, SCORE_COLUMNS, ScoreRow, "score")
