"""Lexical translation table between subwords and features.

Each curated word entry becomes one parallel pair: the subword tokens
on the source side and the feature tokens on the target side.  An
expectation-maximization loop then estimates P(feature | subword).  The
table is sparse: only pairs that co-occur in some entry ever hold
probability mass, and entries falling below a floor are dropped after
each maximization step.

Training interns the corpus once.  Each co-occurring (subword, feature)
pair is a link, numbered in first-seen order; each pair of the corpus
becomes one tuple of link ids per feature token, one id per subword
position; and each subword keeps its link ids in first-seen order.  The
probabilities and the expected counts are flat lists indexed by link
id.  The tables that come back are dict rows, one per subword.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from json.encoder import encode_basestring
from operator import add
from pathlib import Path
from typing import Sequence

from .choices import DEFAULT_EPOCHS
from .corpus import CuratedDataset, FeatureMode, feature_tokens
from .errors import ConfigError, DataError, NumericalError, UncoverableWord
from .files import atomic_write
from .tokenizers import TokenizerModel, canonical_subwords, segment
from .tokenizers import json_array, json_arrays, json_floats, json_typed

NULL_TOKEN = "<null>"
PROB_FLOOR = 1e-12
# Rows lose at most the sub-floor entries maximization drops, far below
# this, so a larger gap means the file was not written by training.
ROW_SUM_TOLERANCE = 1e-6
TABLE_SCHEMA = "translation-table/1"

Probs = dict[str, dict[str, float]]


@dataclass(frozen=True)
class ParallelPair:
    """One aligned sentence pair: subwords on the source side."""

    source: tuple[str, ...]
    target: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise DataError("parallel pair with an empty side")


@dataclass
class TranslationTable:
    """Sparse conditional distributions P(target token | source token)."""

    probs: Probs
    source_vocab: list[str]
    target_vocab: list[str]
    epochs_trained: int
    loglik_trajectory: list[float] = field(default_factory=list)

    @property
    def final_loglik(self) -> float:
        if not self.loglik_trajectory:
            raise DataError("table has no recorded training trajectory")
        return self.loglik_trajectory[-1]

    def lookup(self, source: str, target: str) -> float:
        """Stored probability, 0.0 for any pair that never co-occurred."""
        row = self.probs.get(source)
        if row is None:
            return 0.0
        return row.get(target, 0.0)


Segments = list[list[str] | None]


def segment_entries(dataset: CuratedDataset, model: TokenizerModel) -> Segments:
    """Canonical subwords per entry, None where the model cannot cover it.

    One segmentation serves both the parallel corpus and the boundary
    metrics of a grid point.
    """
    segments: Segments = []
    for entry in dataset.entries:
        try:
            segments.append(canonical_subwords(model, segment(model, entry.form)))
        except UncoverableWord:
            segments.append(None)
    return segments


def build_parallel_corpus(
    dataset: CuratedDataset,
    model: TokenizerModel,
    mode: FeatureMode,
    include_null: bool = False,
) -> tuple[list[ParallelPair], int]:
    """Segment every entry and pair subwords with feature tokens."""
    return pairs_from_segments(
        dataset, segment_entries(dataset, model), mode, include_null
    )


def pairs_from_segments(
    dataset: CuratedDataset,
    segments: Segments,
    mode: FeatureMode,
    include_null: bool = False,
) -> tuple[list[ParallelPair], int]:
    """Pair each entry's subwords with its feature tokens.

    Entries whose segmentation contains the unknown-token placeholder
    are excluded and counted, so scoring and boundary metrics can apply
    the same exclusion.  With ``include_null`` a shared null token is
    appended to every source side to absorb unexplained features.
    """
    pairs: list[ParallelPair] = []
    excluded = 0
    for entry, subwords in zip(dataset.entries, segments):
        if subwords is None:
            excluded += 1
            continue
        source = tuple(subwords)
        if include_null:
            source = source + (NULL_TOKEN,)
        pairs.append(ParallelPair(source, tuple(feature_tokens(entry, mode))))
    if not pairs:
        raise DataError("parallel corpus is empty: every entry was uncoverable")
    return pairs, excluded


class _LinkCorpus:
    """A parallel corpus interned into link ids.

    A link is one co-occurring (source, target) token pair.  Links are
    numbered in first-seen order: pair by pair, source position by
    source position, target position by target position.  Tables over
    the corpus are flat lists indexed by link id.
    """

    def __init__(self, pairs: Sequence[ParallelPair]) -> None:
        # (source, target) tokens per link id.
        self.links: list[tuple[str, str]] = []
        ids: dict[str, dict[str, int]] = {}
        # Per pair, 1 / source length and one tuple of link ids per
        # target token, one id per source position.
        self.pairs: list[tuple[float, list[tuple[int, ...]]]] = []
        for pair in pairs:
            by_source = []
            for s in pair.source:
                row = ids.get(s)
                if row is None:
                    row = ids[s] = {}
                position = []
                for t in pair.target:
                    link = row.get(t)
                    if link is None:
                        link = row[t] = len(self.links)
                        self.links.append((s, t))
                    position.append(link)
                by_source.append(position)
            self.pairs.append((1.0 / len(pair.source), list(zip(*by_source))))
        # Per source token, its link ids in first-seen order.
        self.rows = {s: list(row.values()) for s, row in ids.items()}

    def uniform(self) -> list[float]:
        """Each source's probability spread evenly over its links."""
        probs = [0.0] * len(self.links)
        for row in self.rows.values():
            p = 1.0 / len(row)
            for i in row:
                probs[i] = p
        return probs

    def live_rows(self, probs: list[float]) -> dict[str, list[int]]:
        """Each source's links of positive probability; sources with none are left out."""
        rows = {}
        for s, row in self.rows.items():
            live = [i for i in row if probs[i] > 0.0]
            if live:
                rows[s] = live
        return rows

    def flatten(self, probs: Probs) -> list[float]:
        """The table's probability of every link, 0.0 where it has none."""
        empty: dict[str, float] = {}
        return [probs.get(s, empty).get(t, 0.0) for s, t in self.links]

    def table(self, probs: list[float], rows: dict[str, list[int]]) -> Probs:
        """Dict rows of the given links, in row order."""
        links = self.links
        return {s: {links[i][1]: probs[i] for i in row} for s, row in rows.items()}


def uniform_init(pairs: Sequence[ParallelPair]) -> Probs:
    """Uniform rows over each source token's co-occurring target tokens."""
    if not pairs:
        raise DataError("cannot initialize from an empty parallel corpus")
    corpus = _LinkCorpus(pairs)
    return corpus.table(corpus.uniform(), corpus.rows)


def _expectation(
    corpus: _LinkCorpus, probs: list[float], with_loglik: bool
) -> tuple[list[float], float]:
    """Expected counts per link, plus the corpus log likelihood under ``probs``.

    Each target token's count is distributed over the source tokens of
    its pair in proportion to the current probabilities.  The
    normalizing denominators are exactly the masses :func:`corpus_loglik`
    sums, in the same order, so with ``with_loglik`` the log likelihood
    of the incoming table comes out of the same pass, bit for bit.  Only
    the counts of links with positive probability are meaningful; the
    maximization step reads no other.
    """
    counts = [0.0] * len(probs)
    loglik = 0.0
    for inv_len, columns in corpus.pairs:
        for column in columns:
            denom = 0.0
            for i in column:
                denom += probs[i]
            if denom <= 0.0:
                raise NumericalError(
                    f"no source token explains target {corpus.links[column[0]][1]!r}; "
                    "the table has degenerated"
                )
            if with_loglik:
                loglik += math.log(inv_len * denom)
            for i in column:
                counts[i] += probs[i] / denom
    return counts, loglik


def _maximization(
    corpus: _LinkCorpus,
    probs: list[float],
    rows: dict[str, list[int]],
    counts: list[float],
) -> tuple[list[float], dict[str, list[int]]]:
    """Renormalize counts per source token, dropping sub-floor entries.

    ``rows`` are the live rows of ``probs`` (see ``_LinkCorpus.live_rows``), and
    the live rows of the new table come back with it.  A row adds its
    counts left to right in first-seen order, which is the order the
    E-step first adds to them; the builtin ``sum`` of floats would
    compensate rounding error from Python 3.12 on.  Dropped links keep
    probability 0.0.
    """
    new_probs = [0.0] * len(probs)
    new_rows: dict[str, list[int]] = {}
    failures: dict[str, str] = {}
    for s, row in rows.items():
        total = reduce(add, [counts[i] for i in row], 0.0)
        if total <= 0.0:
            failures[s] = f"source token {s!r} collected no counts"
            continue
        kept = []
        for i in row:
            p = counts[i] / total
            if p >= PROB_FLOOR:
                new_probs[i] = p
                kept.append(i)
        if kept:
            new_rows[s] = kept
        else:
            failures[s] = f"source token {s!r} lost all probability mass"
    if failures:
        # Name the row the E-step counted for first.  It visits pair by
        # pair, then target by target, which is not first-seen order.
        links = corpus.links
        first = next(
            links[i][0]
            for _, columns in corpus.pairs
            for column in columns
            for i in column
            if links[i][0] in failures and probs[i] > 0.0
        )
        raise NumericalError(failures[first])
    return new_probs, new_rows


def _loglik(corpus: _LinkCorpus, probs: list[float]) -> float:
    """:func:`corpus_loglik` over a link corpus."""
    total = 0.0
    for inv_len, columns in corpus.pairs:
        for column in columns:
            mass = 0.0
            for i in column:
                mass += probs[i]
            if mass <= 0.0:
                raise NumericalError(
                    f"target {corpus.links[column[0]][1]!r} has zero probability "
                    "under the table"
                )
            mean = inv_len * mass
            if mean == 0.0:
                raise NumericalError(
                    f"target {corpus.links[column[0]][1]!r} has a mean probability "
                    "that underflows to zero"
                )
            total += math.log(mean)
    return total


def em_epoch(
    pairs: Sequence[ParallelPair], probs: Probs
) -> tuple[Probs, float]:
    """One expectation-maximization step.

    Expectation distributes each target token's count over the source
    tokens of its pair in proportion to the current probabilities.
    Maximization renormalizes the counts per source token, dropping
    entries below the probability floor.  The returned log likelihood
    is computed under the updated table.
    """
    corpus = _LinkCorpus(pairs)
    flat = corpus.flatten(probs)
    counts, _ = _expectation(corpus, flat, with_loglik=False)
    new_probs, rows = _maximization(corpus, flat, corpus.live_rows(flat), counts)
    return corpus.table(new_probs, rows), _loglik(corpus, new_probs)


def corpus_loglik(pairs: Sequence[ParallelPair], probs: Probs) -> float:
    """Sum over target tokens of log of their mean source probability."""
    corpus = _LinkCorpus(pairs)
    return _loglik(corpus, corpus.flatten(probs))


def train_ibm1(
    pairs: Sequence[ParallelPair], epochs: int = DEFAULT_EPOCHS
) -> TranslationTable:
    """Run uniform initialization followed by ``epochs`` EM steps.

    The pairs are interned into link ids once (see ``_LinkCorpus``): each
    pair becomes one tuple of link ids per target token, one id per
    source position.  The probabilities and the expected counts are flat
    lists indexed by link id, and the table comes back as dict rows.  The
    result equals a chain of :func:`em_epoch` calls, but each epoch's log
    likelihood is folded into the next epoch's expectation pass, and only
    the last one takes a pass of its own: ``epochs + 1`` passes over the
    pairs instead of ``2 * epochs``.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    if not pairs:
        raise DataError("cannot train on an empty parallel corpus")
    corpus = _LinkCorpus(pairs)
    probs = corpus.uniform()
    rows = corpus.rows
    trajectory: list[float] = []
    for epoch in range(epochs):
        counts, loglik = _expectation(corpus, probs, with_loglik=epoch > 0)
        if epoch > 0:
            trajectory.append(loglik)
        probs, rows = _maximization(corpus, probs, rows, counts)
    trajectory.append(_loglik(corpus, probs))
    return TranslationTable(
        probs=corpus.table(probs, rows),
        source_vocab=sorted(corpus.rows),
        target_vocab=sorted({t for _, t in corpus.links}),
        epochs_trained=epochs,
        loglik_trajectory=trajectory,
    )


# The text `table_to_json` fills in: `json_array` renders each array,
# and `_ENTRY` each item of `entries`.
_TABLE = (
    '{\n "schema": %s,\n "epochs_trained": %s,\n "loglik_trajectory": %s,\n'
    ' "source_vocab": %s,\n "target_vocab": %s,\n "entries": %s\n}\n'
)
_ENTRY = "[\n   %s,\n   %s,\n   %s\n  ]"


def table_to_json(table: TranslationTable) -> str:
    """Canonical JSON rendering with sorted sparse entries.

    The bytes are ``json.dumps(doc, ensure_ascii=False, indent=1) + "\\n"``
    of the document in `_TABLE`, rendered by hand: the `json` module's
    indented output runs in Python, not in its C encoder.
    """
    enc = encode_basestring
    sources: list[str] = []
    targets: list[str] = []
    probs: list[float] = []
    for s in sorted(table.probs):
        row = table.probs[s]
        row_targets = sorted(row)
        sources += [enc(s)] * len(row_targets)
        targets += row_targets
        probs += map(row.__getitem__, row_targets)
    entries = map(_ENTRY.__mod__, zip(sources, map(enc, targets), json_floats(probs)))
    return _TABLE % (
        enc(TABLE_SCHEMA),
        int.__repr__(table.epochs_trained),
        json_array(json_floats(table.loglik_trajectory), 1),
        json_array(map(enc, table.source_vocab), 1),
        json_array(map(enc, table.target_vocab), 1),
        json_array(entries, 1),
    )


def save_table(table: TranslationTable, path: str | Path) -> None:
    atomic_write(Path(path), table_to_json(table))


def load_table(path: str | Path) -> TranslationTable:
    """Read a table file; a malformed one is a DataError.

    Besides the schema, types and probabilities, every (source, target)
    entry must be listed once, the trajectory must be finite and hold one
    log likelihood per epoch trained, as `train_ibm1` writes it, and
    each row must sum to 1.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"table file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != TABLE_SCHEMA:
        raise DataError(f"table file {path} has an unrecognized schema")
    try:
        probs: Probs = {}
        for s, t, p in json_arrays(doc["entries"]):
            row = probs.setdefault(json_typed(s, str), {})
            if json_typed(t, str) in row:
                raise ValueError(f"entry ({s!r}, {t!r}) is listed twice")
            row[t] = json_typed(p, float)
        table = TranslationTable(
            probs=probs,
            source_vocab=[json_typed(s, str) for s in json_typed(doc["source_vocab"], list)],
            target_vocab=[json_typed(t, str) for t in json_typed(doc["target_vocab"], list)],
            epochs_trained=json_typed(doc["epochs_trained"], int),
            loglik_trajectory=[
                json_typed(x, float) for x in json_typed(doc["loglik_trajectory"], list)
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"table file {path} is malformed: {exc}") from exc
    trajectory = table.loglik_trajectory
    if not trajectory or len(trajectory) != table.epochs_trained:
        raise DataError(
            f"table file {path}: {len(trajectory)} log likelihoods for "
            f"{table.epochs_trained!r} epochs trained"
        )
    if not all(map(math.isfinite, trajectory)):
        raise DataError(f"table file {path}: log likelihood trajectory is not finite")
    for s, row in probs.items():
        for t, p in row.items():
            # Written this way round, the comparison also rejects NaN.
            if not 0.0 <= p <= 1.0:
                raise DataError(
                    f"table file {path}: P({t!r} | {s!r}) = {p!r} is not a probability"
                )
    for s, total in row_sums(table).items():
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise DataError(
                f"table file {path}: row {s!r} sums to {total!r}, not 1"
            )
    return table


def row_sums(table: TranslationTable) -> dict[str, float]:
    """Per-source probability sums, summed left to right in sorted target order."""
    sums: dict[str, float] = {}
    for s in sorted(table.probs):
        row = table.probs[s]
        sums[s] = reduce(add, [row[t] for t in sorted(row)], 0.0)
    return sums
