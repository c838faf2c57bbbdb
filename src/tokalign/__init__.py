"""Reference-free morphological plausibility scoring for subword tokenizers.

The pipeline joins a morphological lexicon with gold segmentations,
trains subword tokenizers, aligns subwords with morpho-syntactic
features through a lexical translation table, and aggregates the
alignment probabilities into a per-tokenizer score.  Boundary precision
and recall against the gold segmentation, plus rank correlation between
the two metric families, close the loop.

Importing the package loads none of its modules.  Each public name
below, and each module that defines one, is imported on first access
(PEP 562), so a process loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "choices": ("Aggregation", "FeatureMode", "TokenizerKind"),
    "corpus": (
        "CuratedDataset",
        "WordEntry",
        "curate",
        "feature_tokens",
        "parse_feature_lexicon",
        "parse_segmentation_lexicon",
        "read_curated",
        "write_curated",
    ),
    "errors": (
        "ConfigError",
        "DataError",
        "NumericalError",
        "TokalignError",
        "UncoverableWord",
    ),
    "ibm1": (
        "ParallelPair",
        "TranslationTable",
        "build_parallel_corpus",
        "em_epoch",
        "train_ibm1",
        "uniform_init",
    ),
    "metrics": (
        "ScoreConfig",
        "ScoreRow",
        "alignment_score",
        "boundary_prf",
        "subword_score",
    ),
    "stats": ("CorrelationReport", "build_report", "spearman"),
    "tokenizers": (
        "TokenizerModel",
        "TrainConfig",
        "canonical_subwords",
        "load_model",
        "save_model",
        "segment",
        "train",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
