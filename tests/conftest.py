"""Shared fixtures: small hand-checked datasets, tables, and corpora."""

from __future__ import annotations

import random

import pytest

from tokalign.corpus import CuratedDataset, WordEntry
from tokalign.ibm1 import ParallelPair, TranslationTable
from tokalign.metrics import read_csv
from tokalign.stats import REPORT_COLUMNS, CorrelationCell


@pytest.fixture
def czech_dataset() -> CuratedDataset:
    """Three real Czech forms with gold segments and feature bundles."""
    entries = [
        WordEntry(
            "rýžový",
            ("rýž", "ov", "ý"),
            ("ADJ", "ACC", "MASC", "INAN", "SG"),
        ),
        WordEntry("bázeň", ("báz", "eň"), ("N", "ACC", "SG", "FEM")),
        WordEntry(
            "projet",
            ("pro", "je", "t"),
            ("V", "V.PTCP", "MASC", "PASS", "SG"),
        ),
    ]
    return CuratedDataset(entries, language="ces")


@pytest.fixture
def em_pairs() -> list[ParallelPair]:
    """Two-pair corpus whose EM trajectory is known in closed form."""
    return [
        ParallelPair(("a", "b"), ("X", "Y")),
        ParallelPair(("a",), ("X",)),
    ]


@pytest.fixture
def toy_dataset() -> CuratedDataset:
    """Five entries over two stems, two suffixes, and one bare verb."""
    entries = [
        WordEntry("kamit", ("kam", "it"), ("N", "ACC")),
        WordEntry("kamol", ("kam", "ol"), ("N", "DAT")),
        WordEntry("vodit", ("vod", "it"), ("N", "ACC")),
        WordEntry("vodol", ("vod", "ol"), ("N", "DAT")),
        WordEntry("bura", ("bura",), ("V",)),
    ]
    return CuratedDataset(entries, language="toy")


@pytest.fixture
def toy_table() -> TranslationTable:
    """Hand-assigned distributions over the toy dataset's tokens."""
    # No entry reaches 0.99, so a 0.99 threshold silences every row.
    probs = {
        "kam": {"N": 0.55, "ACC": 0.25, "DAT": 0.2},
        "vod": {"N": 0.6, "ACC": 0.2, "DAT": 0.2},
        "it": {"ACC": 0.7, "N": 0.3},
        "ol": {"DAT": 0.65, "N": 0.35},
        "bura": {"V": 0.9, "N": 0.1},
    }
    return TranslationTable(
        probs=probs,
        source_vocab=sorted(probs),
        target_vocab=["ACC", "DAT", "N", "V"],
        epochs_trained=1,
        loglik_trajectory=[-1.0],
    )


def random_corpus(rng: random.Random, max_types: int = 20) -> dict[str, int]:
    """Random small word-frequency map over a lowercase alphabet."""
    alphabet = "abcdef"
    corpus: dict[str, int] = {}
    for _ in range(rng.randint(1, max_types)):
        length = rng.randint(1, 8)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        corpus[word] = corpus.get(word, 0) + rng.randint(1, 9)
    return corpus


def random_parallel_pairs(rng: random.Random) -> list[ParallelPair]:
    """Random tiny parallel corpus for EM fuzzing."""
    sources = ["s1", "s2", "s3", "s4", "s5", "s6"]
    targets = ["t1", "t2", "t3", "t4", "t5"]
    pairs = []
    for _ in range(rng.randint(1, 8)):
        source = tuple(
            rng.choice(sources) for _ in range(rng.randint(1, 4))
        )
        target = tuple(
            rng.choice(targets) for _ in range(rng.randint(1, 4))
        )
        pairs.append(ParallelPair(source, target))
    return pairs


def read_report_cells(lines) -> list[CorrelationCell]:
    """The cells of a correlation report file, read with the result-file codec."""
    return read_csv(lines, REPORT_COLUMNS, CorrelationCell, "report")


def cells_by_key(cells) -> dict[tuple, CorrelationCell]:
    """Cells keyed by (language, mode, aggregation, threshold, target_metric, scope)."""
    return {
        (c.language, c.mode, c.aggregation, c.threshold, c.target_metric, c.scope): c
        for c in cells
    }
