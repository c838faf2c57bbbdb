"""Benchmark workloads and the inputs they generate from a seed.

Each workload is one `tokalign sweep` grid over a synthetic language
built by `tokalign.synth`.  The benchmark hands the program only the
generated files: the lexicons, the corpus and a sweep config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Stem lengths `synth._make_stems` draws from; the capacity guard below
# counts the distinct stems each inflection class can produce with them.
SYNTH_STEM_LENGTHS = (4, 5, 6)
LANGUAGE = "syn"
BASELINES = ("character", "gold")
ALL_AGGREGATIONS = ("sum", "log", "mean", "min", "max")
# The sweep's default threshold grid, spelled out so the workload stays
# fixed if the program's default changes.
ALL_THRESHOLDS = (
    0.01, 0.059, 0.108, 0.157, 0.206, 0.255, 0.304, 0.353, 0.402, 0.451, 0.5,
)


class BenchError(Exception):
    """A workload that cannot be built or run as specified."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    noun_stems: int
    verb_stems: int
    kinds: tuple[str, ...]
    vocab_sizes: tuple[int, ...]
    modes: tuple[str, ...]
    aggregations: tuple[str, ...]
    thresholds: tuple[float, ...]
    epochs: int
    jobs: int
    sentences: int = 3000
    # Rerun the sweep over a completed grid instead of a fresh directory.
    resume: bool = False

    @property
    def grid(self) -> list[tuple[str, int]]:
        """(kind, vocab size) per tokenizer, in the sweep's training order."""
        points = [(kind, size) for kind in self.kinds for size in self.vocab_sizes]
        return points + [(kind, 0) for kind in BASELINES]

    @property
    def points(self) -> int:
        """Grid points one sweep evaluates: one per tokenizer and mode."""
        return len(self.grid) * len(self.modes)


TRAIN_GRID = Workload(
    name="train-grid",
    why="acceptance grid at jobs 1: tokenizer training (BPE, WordPiece) is most of the run",
    noun_stems=48,
    verb_stems=48,
    kinds=("bpe", "wordpiece", "unigram"),
    vocab_sizes=(200, 400, 800),
    modes=("split",),
    aggregations=("mean",),
    thresholds=(0.01,),
    epochs=10,
    jobs=1,
)

EVAL_GRID = Workload(
    name="eval-grid",
    why="3,200 types, unigram only, 550 score rows at jobs 2: scoring and EM dominate and the process pool runs",
    noun_stems=200,
    verb_stems=200,
    kinds=("unigram",),
    vocab_sizes=(200, 400, 800),
    modes=("joint", "split"),
    aggregations=ALL_AGGREGATIONS,
    thresholds=ALL_THRESHOLDS,
    epochs=10,
    jobs=2,
)

RESUME_GRID = Workload(
    name="resume-grid",
    why="rerun over a completed eval-grid: every point is skipped, so start-up, score-row reads and the report do the work",
    noun_stems=200,
    verb_stems=200,
    kinds=("unigram",),
    vocab_sizes=(200, 400, 800),
    modes=("joint", "split"),
    aggregations=ALL_AGGREGATIONS,
    thresholds=ALL_THRESHOLDS,
    epochs=10,
    jobs=2,
    resume=True,
)

WORKLOADS = {w.name: w for w in (TRAIN_GRID, EVAL_GRID, RESUME_GRID)}


def class_capacity(classes: tuple[tuple[str, str, str], ...]) -> int:
    """Most stems `synth` can draw for a part of speech without repeating.

    Stems alternate consonants and vowels, starting with a consonant.
    Stem `i` goes to class `i % k` of the `k` classes, so class `j`,
    which holds `c` distinct stems, is first asked for one too many at
    index `c * k + j`.  The first such index is the capacity.
    """
    k = len(classes)
    return min(
        k * sum(
            len(consonants) ** ((n + 1) // 2) * len(vowels) ** (n // 2)
            for n in SYNTH_STEM_LENGTHS
        ) + j
        for j, (_atom, consonants, vowels) in enumerate(classes)
    )


def check_capacity(workload: Workload) -> None:
    """Fail fast where `synth._make_stems` would loop forever."""
    from tokalign import synth

    for label, count, classes in (
        ("noun", workload.noun_stems, synth.NOUN_CLASSES),
        ("verb", workload.verb_stems, synth.VERB_CLASSES),
    ):
        cap = class_capacity(classes)
        if count > cap:
            raise BenchError(
                f"workload {workload.name}: {count} {label} stems exceed the "
                f"synthetic generator's capacity of {cap}"
            )


def write_inputs(workload: Workload, seed: int, workdir: Path) -> Path:
    """Generate the language from `seed` and write a sweep config.

    Returns the config path.  The config points the sweep at the
    curated file that the set-up step (`tokalign curate`) writes.
    """
    from tokalign import synth

    check_capacity(workload)
    language = synth.build_language(
        synth.SynthConfig(
            noun_stems=workload.noun_stems,
            verb_stems=workload.verb_stems,
            sentences=workload.sentences,
            seed=seed,
        )
    )
    synth.write_language(language, workdir / LANGUAGE)
    config = {
        "seed": seed,
        "epochs": workload.epochs,
        "kinds": list(workload.kinds),
        "vocab_sizes": list(workload.vocab_sizes),
        "modes": list(workload.modes),
        "aggregations": list(workload.aggregations),
        "thresholds": list(workload.thresholds),
        "output_dir": "out",
        "languages": {
            LANGUAGE: {
                "corpus": f"{LANGUAGE}/corpus.txt",
                "curated": f"{LANGUAGE}/curated.tsv",
            }
        },
    }
    path = workdir / "sweep.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path
