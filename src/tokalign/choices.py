"""The values the command line and the sweep config choose among, and defaults.

This module imports nothing but `enum`, so that the argument parser and
the sweep-config parser can name tokenizer kinds and aggregations, and
check a language code, without loading the pipeline modules.  The
pipeline modules import these same objects, and `tokalign.corpus`
re-exports `FeatureMode`.
"""

from enum import Enum


class TokenizerKind(Enum):
    BPE = "bpe"
    WORDPIECE = "wordpiece"
    UNIGRAM = "unigram"
    CHARACTER = "character"
    GOLD = "gold"


TRAINED_KINDS = (TokenizerKind.BPE, TokenizerKind.WORDPIECE, TokenizerKind.UNIGRAM)
BASELINE_KINDS = (TokenizerKind.CHARACTER, TokenizerKind.GOLD)
CURATED_KINDS = (TokenizerKind.GOLD,)  # built from the curated dataset, not the corpus


class FeatureMode(Enum):
    """How a feature bundle is rendered on the alignment target side.

    JOINT keeps the bundle as one composite token, SPLIT emits one token
    per feature atom.
    """

    JOINT = "joint"
    SPLIT = "split"


class Aggregation(Enum):
    SUM = "sum"
    LOG = "log"
    MEAN = "mean"
    MIN = "min"
    MAX = "max"


DEFAULT_THRESHOLDS = tuple(round(0.01 + i * 0.049, 3) for i in range(11))
DEFAULT_EPOCHS = 10


def language_code(text: str) -> str:
    """`text`, if it is a language code; else ValueError.

    A code is one non-empty line without whitespace at either end, so
    that a curated file's ``# language:`` line reads it back unchanged.
    `tokalign curate --language` and the sweep config's language names
    are held to this.
    """
    if not text or text != text.strip() or len(text.splitlines()) != 1:
        raise ValueError(
            f"{text!r} is not a language code: one non-empty line "
            "without whitespace at either end"
        )
    return text
