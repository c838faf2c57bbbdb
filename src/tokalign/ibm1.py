"""Lexical translation table between subwords and features.

Each curated word entry becomes one parallel pair: the subword tokens
on the source side and the feature tokens on the target side.  An
expectation-maximization loop then estimates P(feature | subword).  The
table is sparse: only pairs that co-occur in some entry ever hold
probability mass, and entries falling below a floor are dropped after
each maximization step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import CuratedDataset, FeatureMode, feature_tokens
from .errors import ConfigError, DataError, NumericalError, UncoverableWord
from .tokenizers import TokenizerModel, canonical_subwords, segment

NULL_TOKEN = "<null>"
PROB_FLOOR = 1e-12
# Rows lose at most the sub-floor entries maximization drops, far below
# this, so a larger gap means the file was not written by training.
ROW_SUM_TOLERANCE = 1e-6
DEFAULT_EPOCHS = 10
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


def uniform_init(pairs: Sequence[ParallelPair]) -> Probs:
    """Uniform rows over each source token's co-occurring target tokens."""
    if not pairs:
        raise DataError("cannot initialize from an empty parallel corpus")
    cooc: dict[str, set[str]] = {}
    order: dict[str, list[str]] = {}
    for pair in pairs:
        for s in pair.source:
            seen = cooc.setdefault(s, set())
            kept = order.setdefault(s, [])
            for t in pair.target:
                if t not in seen:
                    seen.add(t)
                    kept.append(t)
    probs: Probs = {}
    for s, targets in order.items():
        p = 1.0 / len(targets)
        probs[s] = {t: p for t in targets}
    return probs


def _expectation(
    pairs: Sequence[ParallelPair], probs: Probs, with_loglik: bool
) -> tuple[dict[str, dict[str, float]], float]:
    """Expected counts, plus the corpus log likelihood under ``probs``.

    Each target token's count is distributed over the source tokens of
    its pair in proportion to the current probabilities.  The
    normalizing denominators are exactly the masses :func:`corpus_loglik`
    sums, in the same order, so with ``with_loglik`` the log likelihood
    of the incoming table comes out of the same pass, bit for bit.
    """
    counts: dict[str, dict[str, float]] = {}
    loglik = 0.0
    empty: dict[str, float] = {}
    for pair in pairs:
        rows = [(s, probs.get(s, empty)) for s in pair.source]
        inv_len = 1.0 / len(rows)
        for t in pair.target:
            denom = 0.0
            for _, row in rows:
                denom += row.get(t, 0.0)
            if denom <= 0.0:
                raise NumericalError(
                    f"no source token explains target {t!r}; "
                    "the table has degenerated"
                )
            if with_loglik:
                loglik += math.log(inv_len * denom)
            for s, row in rows:
                p = row.get(t, 0.0)
                if p > 0.0:
                    count_row = counts.get(s)
                    if count_row is None:
                        count_row = counts[s] = {}
                    count_row[t] = count_row.get(t, 0.0) + p / denom
    return counts, loglik


def _maximization(counts: dict[str, dict[str, float]]) -> Probs:
    """Renormalize counts per source token, dropping sub-floor entries."""
    new_probs: Probs = {}
    for s, row in counts.items():
        total = sum(row.values())
        if total <= 0.0:
            raise NumericalError(f"source token {s!r} collected no counts")
        new_row = {}
        for t, c in row.items():
            p = c / total
            if p >= PROB_FLOOR:
                new_row[t] = p
        if not new_row:
            raise NumericalError(f"source token {s!r} lost all probability mass")
        new_probs[s] = new_row
    return new_probs


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
    counts, _ = _expectation(pairs, probs, with_loglik=False)
    new_probs = _maximization(counts)
    return new_probs, corpus_loglik(pairs, new_probs)


def corpus_loglik(pairs: Sequence[ParallelPair], probs: Probs) -> float:
    """Sum over target tokens of log of their mean source probability."""
    total = 0.0
    for pair in pairs:
        inv_len = 1.0 / len(pair.source)
        for t in pair.target:
            mass = 0.0
            for s in pair.source:
                mass += probs.get(s, {}).get(t, 0.0)
            if mass <= 0.0:
                raise NumericalError(
                    f"target {t!r} has zero probability under the table"
                )
            total += math.log(inv_len * mass)
    return total


def train_ibm1(
    pairs: Sequence[ParallelPair], epochs: int = DEFAULT_EPOCHS
) -> TranslationTable:
    """Run uniform initialization followed by ``epochs`` EM steps.

    The result equals a chain of :func:`em_epoch` calls, but each
    epoch's log likelihood is folded into the next epoch's expectation
    pass, and only the last one takes a pass of its own: ``epochs + 1``
    passes over the pairs instead of ``2 * epochs``.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    if not pairs:
        raise DataError("cannot train on an empty parallel corpus")
    probs = uniform_init(pairs)
    trajectory: list[float] = []
    for epoch in range(epochs):
        counts, loglik = _expectation(pairs, probs, with_loglik=epoch > 0)
        if epoch > 0:
            trajectory.append(loglik)
        probs = _maximization(counts)
    trajectory.append(corpus_loglik(pairs, probs))
    source_vocab = sorted({s for pair in pairs for s in pair.source})
    target_vocab = sorted({t for pair in pairs for t in pair.target})
    return TranslationTable(
        probs=probs,
        source_vocab=source_vocab,
        target_vocab=target_vocab,
        epochs_trained=epochs,
        loglik_trajectory=trajectory,
    )


def table_to_json(table: TranslationTable) -> str:
    """Canonical JSON rendering with sorted sparse entries."""
    entries = []
    for s in sorted(table.probs):
        row = table.probs[s]
        for t in sorted(row):
            entries.append([s, t, row[t]])
    doc = {
        "schema": TABLE_SCHEMA,
        "epochs_trained": table.epochs_trained,
        "loglik_trajectory": table.loglik_trajectory,
        "source_vocab": table.source_vocab,
        "target_vocab": table.target_vocab,
        "entries": entries,
    }
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


def save_table(table: TranslationTable, path: str | Path) -> None:
    Path(path).write_text(table_to_json(table), encoding="utf-8")


def load_table(path: str | Path) -> TranslationTable:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"table file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != TABLE_SCHEMA:
        raise DataError(f"table file {path} has an unrecognized schema")
    try:
        probs: Probs = {}
        for s, t, p in doc["entries"]:
            probs.setdefault(s, {})[t] = float(p)
        table = TranslationTable(
            probs=probs,
            source_vocab=list(doc["source_vocab"]),
            target_vocab=list(doc["target_vocab"]),
            epochs_trained=int(doc["epochs_trained"]),
            loglik_trajectory=[float(x) for x in doc["loglik_trajectory"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"table file {path} is malformed: {exc}") from exc
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
    """Per-source probability sums, summed in sorted target order."""
    sums: dict[str, float] = {}
    for s in sorted(table.probs):
        row = table.probs[s]
        sums[s] = sum(row[t] for t in sorted(row))
    return sums
