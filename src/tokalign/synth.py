"""Deterministic synthetic agglutinative language for desk-scale runs.

Every word is one stem plus one suffix.  The language is designed so
that morphological structure is visible at every granularity a
tokenizer might pick:

* each inflection class draws its stem consonants from its own
  inventory and each part of speech has its own vowels, so even single
  characters carry part-of-speech and class signal;
* suffixes are built from characters that never occur inside stems,
  with a dedicated plural marker per part of speech, so suffix
  characters predict case, tense, and number;
* a word's feature bundle has four atoms (part of speech, class, case
  or tense, number), which dilutes the alignment of whole-word tokens.

The generator emits the three files the pipeline consumes: a training
corpus with one sentence per line, a feature lexicon, and a gold
segmentation lexicon.  All sampling comes from one seeded generator, so
a given configuration always produces identical files.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

# (class atom, consonants, vowels) per inflection class; consonant
# inventories are disjoint across classes and vowels across POS.
NOUN_CLASSES = (("C1", "bdg", "ao"), ("C2", "kmn", "ao"))
VERB_CLASSES = (("D1", "prs", "iu"), ("D2", "tv", "iu"))

# Suffix characters are disjoint from every stem alphabet.
NOUN_SUFFIXES: list[tuple[str, tuple[str, str]]] = [
    ("y", ("NOM", "SG")),
    ("yc", ("NOM", "PL")),
    ("ex", ("ACC", "SG")),
    ("exc", ("ACC", "PL")),
    ("wq", ("DAT", "SG")),
    ("wqc", ("DAT", "PL")),
    ("je", ("GEN", "SG")),
    ("jec", ("GEN", "PL")),
]

VERB_SUFFIXES: list[tuple[str, tuple[str, str]]] = [
    ("fe", ("PRS", "SG")),
    ("feh", ("PRS", "PL")),
    ("zy", ("PST", "SG")),
    ("zyh", ("PST", "PL")),
    ("xe", ("FUT", "SG")),
    ("xeh", ("FUT", "PL")),
    ("jq", ("IMP", "SG")),
    ("jqh", ("IMP", "PL")),
]

# Stem lengths drawn per stem; stems alternate consonants and vowels,
# starting with a consonant.
STEM_LENGTHS = (4, 5, 6)


def stem_capacity(classes: tuple[tuple[str, str, str], ...]) -> int:
    """Most distinct stems :func:`build_language` can draw for a part of speech.

    Stem ``i`` goes to class ``i % k`` of the ``k`` classes, so a class
    ``j`` holding ``c`` distinct stems is first asked for one too many
    at index ``c * k + j``; the earliest such index is the capacity.
    """
    k = len(classes)
    return min(
        k * sum(
            len(consonants) ** ((n + 1) // 2) * len(vowels) ** (n // 2)
            for n in STEM_LENGTHS
        ) + j
        for j, (_atom, consonants, vowels) in enumerate(classes)
    )


@dataclass
class SynthConfig:
    noun_stems: int = 48
    verb_stems: int = 48
    sentences: int = 3000
    words_per_sentence: int = 8
    zipf_exponent: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noun_stems < 1 or self.verb_stems < 1:
            raise ConfigError("stem counts must be positive")
        if self.noun_stems + self.verb_stems < 40:
            raise ConfigError("need at least 40 stems in total")
        # Past capacity the stem sampler would never finish.
        for label, count, classes in (
            ("noun", self.noun_stems, NOUN_CLASSES),
            ("verb", self.verb_stems, VERB_CLASSES),
        ):
            capacity = stem_capacity(classes)
            if count > capacity:
                raise ConfigError(
                    f"{count} {label} stems exceed the generator's capacity of {capacity}"
                )
        if self.sentences < 1 or self.words_per_sentence < 1:
            raise ConfigError("corpus dimensions must be positive")


@dataclass
class SynthLanguage:
    """Fully enumerated lexicon plus the sampled training corpus."""

    # (form, stem, suffix, feature atoms) per inflected word
    lexicon: list[tuple[str, str, str, tuple[str, ...]]]
    sentences: list[str]


def _make_stem(rng: random.Random, consonants: str, vowels: str, length: int) -> str:
    parts = []
    for i in range(length):
        pool = consonants if i % 2 == 0 else vowels
        parts.append(rng.choice(pool))
    return "".join(parts)


def _make_stems(
    rng: random.Random,
    classes: tuple[tuple[str, str, str], ...],
    count: int,
    used: set[str],
) -> list[tuple[str, str]]:
    """Generate (stem, class atom) pairs, cycling through the classes."""
    stems: list[tuple[str, str]] = []
    while len(stems) < count:
        atom, consonants, vowels = classes[len(stems) % len(classes)]
        stem = _make_stem(rng, consonants, vowels, rng.choice(STEM_LENGTHS))
        if stem in used:
            continue
        used.add(stem)
        stems.append((stem, atom))
    return stems


def build_language(config: SynthConfig) -> SynthLanguage:
    rng = random.Random(config.seed)
    used: set[str] = set()
    noun_stems = _make_stems(rng, NOUN_CLASSES, config.noun_stems, used)
    verb_stems = _make_stems(rng, VERB_CLASSES, config.verb_stems, used)

    lexicon: list[tuple[str, str, str, tuple[str, ...]]] = []
    seen_forms: set[str] = set()
    for pos, stems, suffixes in (
        ("N", noun_stems, NOUN_SUFFIXES),
        ("V", verb_stems, VERB_SUFFIXES),
    ):
        for stem, class_atom in stems:
            for suffix, atoms in suffixes:
                form = stem + suffix
                if form in seen_forms:
                    continue
                seen_forms.add(form)
                bundle = (pos, class_atom) + atoms
                lexicon.append((form, stem, suffix, bundle))

    # Zipf-distributed stem choice, uniform suffix choice per word.
    by_stem: dict[str, list[str]] = {}
    for form, stem, _suffix, _bundle in lexicon:
        by_stem.setdefault(stem, []).append(form)
    stems = list(by_stem)
    weights = [1.0 / (rank + 1) ** config.zipf_exponent for rank in range(len(stems))]
    sentences = []
    for _ in range(config.sentences):
        words = []
        for _ in range(config.words_per_sentence):
            stem = rng.choices(stems, weights=weights, k=1)[0]
            words.append(rng.choice(by_stem[stem]))
        sentences.append(" ".join(words))
    return SynthLanguage(lexicon=lexicon, sentences=sentences)


def write_language(
    language: SynthLanguage, outdir: str | Path
) -> tuple[Path, Path, Path]:
    """Write corpus.txt, features.tsv, and segmentations.tsv."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.txt"
    features_path = out / "features.tsv"
    segments_path = out / "segmentations.tsv"
    with corpus_path.open("w", encoding="utf-8") as handle:
        for sentence in language.sentences:
            handle.write(sentence + "\n")
    with features_path.open("w", encoding="utf-8") as handle:
        for form, stem, _suffix, bundle in language.lexicon:
            handle.write(f"{stem}\t{form}\t{';'.join(bundle)}\n")
    with segments_path.open("w", encoding="utf-8") as handle:
        for form, stem, suffix, _bundle in language.lexicon:
            handle.write(f"{form}\t{stem}|{suffix}\n")
    return corpus_path, features_path, segments_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tokalign-synth",
        description="Generate a synthetic inflected language for pipeline runs.",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--noun-stems", type=int, default=48)
    parser.add_argument("--verb-stems", type=int, default=48)
    parser.add_argument("--sentences", type=int, default=3000)
    parser.add_argument("--words-per-sentence", type=int, default=8)
    parser.add_argument("--zipf-exponent", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        config = SynthConfig(
            noun_stems=args.noun_stems,
            verb_stems=args.verb_stems,
            sentences=args.sentences,
            words_per_sentence=args.words_per_sentence,
            zipf_exponent=args.zipf_exponent,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    language = build_language(config)
    paths = write_language(language, args.out)
    print(
        f"wrote {len(language.lexicon)} lexicon entries and "
        f"{len(language.sentences)} sentences under {args.out}"
    )
    for path in paths:
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
