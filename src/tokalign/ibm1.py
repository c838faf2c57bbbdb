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
from .tokenizers import json_array, json_floats

NULL_TOKEN = "<null>"
PROB_FLOOR = 1e-12
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

    def table(self, probs: list[float], rows: dict[str, list[int]]) -> Probs:
        """Dict rows of the given links, in row order."""
        links = self.links
        return {s: {links[i][1]: probs[i] for i in row} for s, row in rows.items()}


def _expectation(
    corpus: _LinkCorpus, probs: list[float], counts: list[float] | None
) -> float:
    """The corpus log likelihood under ``probs``; adds expected counts to ``counts``, if given.

    Each target token's count is distributed over the source tokens of
    its pair in proportion to the current probabilities; the
    normalizing denominators are the masses whose means the log
    likelihood sums, so with ``counts`` both come out of one pass.
    Only the counts of links with positive probability are meaningful;
    the maximization step reads no other.
    """
    loglik = 0.0
    for inv_len, columns in corpus.pairs:
        for column in columns:
            denom = 0.0
            for i in column:
                denom += probs[i]
            mean = inv_len * denom
            # No mass, or a mean that underflows to zero.
            if mean <= 0.0:
                raise NumericalError(
                    f"target {corpus.links[column[0]][1]!r} has a mean probability of "
                    "zero under the table; the table has degenerated"
                )
            loglik += math.log(mean)
            if counts is not None:
                for i in column:
                    counts[i] += probs[i] / denom
    return loglik


def _maximization(
    rows: dict[str, list[int]], counts: list[float]
) -> tuple[list[float], dict[str, list[int]]]:
    """Renormalize counts per source token, dropping sub-floor entries.

    ``rows`` hold each source token's links of positive probability, and
    those of the new table come back with it.  A row adds its counts left
    to right in first-seen order, which is the order the E-step first
    adds to them; the builtin ``sum`` of floats would compensate rounding
    error from Python 3.12 on.  Dropped links keep probability 0.0.  The
    first row, in row order, that keeps no probability raises.
    """
    new_probs = [0.0] * len(counts)
    new_rows: dict[str, list[int]] = {}
    for s, row in rows.items():
        total = reduce(add, [counts[i] for i in row], 0.0)
        if total <= 0.0:
            raise NumericalError(f"source token {s!r} collected no counts")
        kept = []
        for i in row:
            p = counts[i] / total
            if p >= PROB_FLOOR:
                new_probs[i] = p
                kept.append(i)
        if not kept:
            raise NumericalError(f"source token {s!r} lost all probability mass")
        new_rows[s] = kept
    return new_probs, new_rows


def train_ibm1(
    pairs: Sequence[ParallelPair], epochs: int = DEFAULT_EPOCHS
) -> TranslationTable:
    """Run uniform initialization followed by ``epochs`` EM steps.

    The pairs are interned into link ids once (see ``_LinkCorpus``): each
    pair becomes one tuple of link ids per target token, one id per
    source position.  The probabilities and the expected counts are flat
    lists indexed by link id, and the table comes back as dict rows.
    One pass (`_expectation`) gives both the expected counts and the log
    likelihood of the table it reads, so each epoch's log likelihood,
    under the table that epoch made, comes from the next epoch's pass,
    and only the last one takes a pass of its own, with no counts:
    ``epochs + 1`` passes over the pairs instead of ``2 * epochs``.
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
        counts = [0.0] * len(probs)
        loglik = _expectation(corpus, probs, counts)
        if epoch > 0:
            trajectory.append(loglik)
        probs, rows = _maximization(rows, counts)
    trajectory.append(_expectation(corpus, probs, None))
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

