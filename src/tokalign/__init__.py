"""Reference-free morphological plausibility scoring for subword tokenizers.

The pipeline joins a morphological lexicon with gold segmentations,
trains subword tokenizers, aligns subwords with morpho-syntactic
features through a lexical translation table, and aggregates the
alignment probabilities into a per-tokenizer score.  Boundary precision
and recall against the gold segmentation, plus rank correlation between
the two metric families, close the loop.

Importing the package loads none of its modules; import each one by
name, as in ``from tokalign import ibm1``.
"""

__version__ = "0.1.0"
