"""Acceptance gate: one test per release criterion, one verdict line each.

Each test prints a single "criterion N: PASS/FAIL" line directly to the
terminal so the gate's outcome is readable even inside a long test run.
The checks pin numeric tolerances; anything looser lives in the unit
test modules.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import cells_by_key, random_corpus, random_parallel_pairs, read_report_cells
from oracles import (
    AGGREGATIONS,
    alignment_reference,
    best_segmentation_logprob,
    bpe_best_pair,
    em_reference,
    replay_merge,
    spearman_reference,
)
from tokalign import cli, sweep
from tokalign.corpus import CuratedDataset, FeatureMode, WordEntry, write_curated
from tokalign.errors import DataError
from tokalign.ibm1 import (
    ParallelPair,
    build_parallel_corpus,
    pairs_from_segments,
    segment_entries,
    train_ibm1,
)
from tokalign.metrics import (
    Aggregation,
    alignment_scores,
    boundary_prf,
    read_score_rows,
)
from tokalign.stats import SCOPE_ALL, STATUS_CONSTANT, build_report, spearman
from tokalign.synth import SynthConfig, build_language, write_language
from tokalign.tokenizers import (
    OOV_CHAR_LOGPROB,
    TokenizerKind,
    TokenizerModel,
    TrainConfig,
    build_gold_lookup,
    canonical_subwords,
    model_to_json,
    segment,
    train,
    train_bpe,
    train_character,
    train_unigram,
    train_wordpiece,
)


@contextmanager
def _criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {description}")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS - {description}")


def _em_fixture_corpora():
    # Each fixture stays within 5 pairs and 4 token types per side.
    return [
        [ParallelPair(("a", "b"), ("X", "Y")), ParallelPair(("a",), ("X",))],
        [
            ParallelPair(("s1", "s2"), ("t1",)),
            ParallelPair(("s2",), ("t2", "t3")),
            ParallelPair(("s3", "s1"), ("t1", "t4")),
            ParallelPair(("s4",), ("t3",)),
            ParallelPair(("s2", "s3"), ("t2",)),
        ],
        [ParallelPair(("s",), ("t",))],
    ]


def test_criterion_1_em_matches_brute_force_oracle(capsys):
    with _criterion(
        capsys, 1, "EM equals the brute-force oracle to 1e-10; loglik rises"
    ):
        started = time.perf_counter()
        for pairs in _em_fixture_corpora():
            raw = [(p.source, p.target) for p in pairs]
            for epochs in (1, 2, 10):
                want_probs, want_traj = em_reference(raw, epochs)
                table = train_ibm1(pairs, epochs=epochs)
                for got, want in zip(table.loglik_trajectory, want_traj):
                    assert got == pytest.approx(want, abs=1e-10)
                for s, row in want_probs.items():
                    for t, p in row.items():
                        assert table.probs[s].get(t, 0.0) == pytest.approx(p, abs=1e-10)
        for trial in range(100):
            rng = random.Random(20_000 + trial)
            pairs = random_parallel_pairs(rng)
            trajectory = train_ibm1(pairs, epochs=5).loglik_trajectory
            for prev, cur in zip(trajectory, trajectory[1:]):
                assert cur >= prev - 1e-9 * max(1.0, abs(prev))
        assert time.perf_counter() - started < 5.0


def test_criterion_2_rows_normalize_after_every_epoch(capsys):
    with _criterion(capsys, 2, "translation rows sum to 1 within 1e-9"):
        for trial in range(30):
            rng = random.Random(21_000 + trial)
            pairs = random_parallel_pairs(rng)
            for epochs in range(1, 6):
                for row in train_ibm1(pairs, epochs=epochs).probs.values():
                    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_criterion_3_score_matches_direct_evaluation(
    capsys, toy_dataset, toy_table
):
    with _criterion(
        capsys, 3, "alignment score equals its direct evaluation to 1e-12"
    ):
        model = build_gold_lookup(toy_dataset)
        items = [
            (list(e.gold_segments), list(e.features)) for e in toy_dataset.entries
        ]
        segments = segment_entries(toy_dataset, model)
        pairs, _ = pairs_from_segments(toy_dataset, segments, FeatureMode.SPLIT)
        thresholds = (0.01, 0.3, 0.5)
        scores = alignment_scores(toy_table, pairs, list(Aggregation), thresholds)
        for name in AGGREGATIONS:
            for threshold in thresholds:
                want = alignment_reference(
                    toy_table.probs, items, name, threshold
                )
                got = scores[Aggregation(name), threshold]
                assert got == pytest.approx(want, abs=1e-12)


def _random_gold_dataset(rng):
    entries = []
    used = set()
    for _ in range(rng.randint(2, 10)):
        word = "".join(
            rng.choice("abcdef") for _ in range(rng.randint(1, 10))
        )
        if word in used:
            continue
        used.add(word)
        cuts = sorted(
            rng.sample(range(1, len(word)), rng.randint(0, len(word) - 1))
        ) if len(word) > 1 else []
        bounds = [0] + cuts + [len(word)]
        segments = tuple(
            word[a:b] for a, b in zip(bounds, bounds[1:])
        )
        features = tuple(
            rng.choice(("N", "V", "ACC", "SG", "PL"))
            for _ in range(rng.randint(1, 3))
        )
        entries.append(WordEntry(word, segments, features))
    return CuratedDataset(entries, language="fuzz")


def test_criterion_4_boundary_identities(capsys, czech_dataset, toy_dataset):
    with _criterion(
        capsys, 4, "gold scores exactly 1, characters recall exactly 1"
    ):
        datasets = [czech_dataset, toy_dataset]
        for trial in range(20):
            datasets.append(_random_gold_dataset(random.Random(22_000 + trial)))
        for dataset in datasets:
            gold = build_gold_lookup(dataset)
            assert boundary_prf(dataset, gold)[:3] == (1.0, 1.0, 1.0)
            chars = train_character({e.form: 1 for e in dataset.entries})
            recall = boundary_prf(dataset, chars)[1]
            assert recall == 1.0
        # Every predicted boundary misses the single gold one.
        dataset = CuratedDataset(
            [WordEntry("bázeň", ("báz", "eň"), ("N",))], language="ces"
        )
        model = TokenizerModel(
            kind=TokenizerKind.GOLD,
            vocab=["bá", "zeň"],
            gold_map={"bázeň": ["bá", "zeň"]},
        )
        assert boundary_prf(dataset, model)[:3] == (0.0, 0.0, 0.0)


def test_criterion_5_tokenizers_are_correct_and_deterministic(capsys):
    with _criterion(
        capsys, 5, "merges match argmax oracle; Viterbi exact; round trips hold"
    ):
        for trial in range(20):
            rng = random.Random(23_000 + trial)
            corpus = random_corpus(rng, max_types=50)
            alphabet = sorted({ch for word in corpus for ch in word})
            budget = len(alphabet) + rng.randint(0, 10)
            model = train_bpe(
                corpus, TrainConfig(kind=TokenizerKind.BPE, vocab_size=budget)
            )
            seqs = [(list(w), f) for w, f in sorted(corpus.items())]
            vocab = set(alphabet)
            expected = []
            while len(vocab) < budget:
                best = bpe_best_pair(seqs)
                if best is None:
                    break
                expected.append(best[0])
                vocab.add(best[0][0] + best[0][1])
                seqs = [(replay_merge(s, best[0]), f) for s, f in seqs]
            assert model.merges == expected

        for trial in range(8):
            rng = random.Random(24_000 + trial)
            corpus = random_corpus(rng, max_types=20)
            alphabet = sorted({ch for word in corpus for ch in word})
            model = train_unigram(
                corpus,
                TrainConfig(
                    kind=TokenizerKind.UNIGRAM, vocab_size=len(alphabet) + 5
                ),
            )
            words = set(corpus) | {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                for _ in range(10)
            }
            for word in words:
                tokens = segment(model, word)
                got = sum(
                    model.token_logprob.get(t, OOV_CHAR_LOGPROB) for t in tokens
                )
                want = best_segmentation_logprob(
                    word, model.token_logprob, oov_char_logprob=OOV_CHAR_LOGPROB
                )
                assert got == pytest.approx(want, abs=1e-9)

        rng = random.Random(404)
        corpus = random_corpus(rng, max_types=40)
        alphabet = sorted({ch for word in corpus for ch in word})
        budget = len(alphabet) + 8
        models = [
            train(corpus, TrainConfig(kind=kind, vocab_size=budget))
            for kind in (
                TokenizerKind.BPE,
                TokenizerKind.WORDPIECE,
                TokenizerKind.UNIGRAM,
            )
        ]
        models.append(train_character(corpus))
        per_model = 2500
        for model in models:
            for _ in range(per_model):
                word = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(1, 12))
                )
                pieces = canonical_subwords(model, segment(model, word))
                assert "".join(pieces) == word

        for trainer in (train_bpe, train_wordpiece, train_unigram):
            kind = {
                train_bpe: TokenizerKind.BPE,
                train_wordpiece: TokenizerKind.WORDPIECE,
                train_unigram: TokenizerKind.UNIGRAM,
            }[trainer]
            config = TrainConfig(kind=kind, vocab_size=budget)
            assert model_to_json(trainer(corpus, config)) == model_to_json(
                trainer(corpus, config)
            )


def test_criterion_6_rank_correlation_fixed_points(capsys):
    with _criterion(
        capsys, 6, "rank correlation hits 0.8, +/-1.0, and the tie oracle"
    ):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0
        ties_x = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0]
        ties_y = [2.0, 1.0, 4.0, 4.0, 4.0, 6.0]
        assert spearman(ties_x, ties_y) == pytest.approx(
            spearman_reference(ties_x, ties_y), abs=1e-12
        )


def test_criterion_7_synthetic_language_end_to_end(capsys, tmp_path):
    with _criterion(
        capsys, 7, "sweep on the synthetic language: rho >= 0.7, gold > characters"
    ):
        started = time.perf_counter()
        lang_dir = tmp_path / "lang"
        write_language(build_language(SynthConfig(seed=0)), lang_dir)
        doc = {
            "seed": 0,
            "epochs": 10,
            "kinds": ["bpe", "wordpiece", "unigram"],
            "vocab_sizes": [200, 400, 800],
            "modes": ["split"],
            "aggregations": ["mean"],
            "thresholds": [0.01],
            "output_dir": "out",
            "languages": {
                "synth": {
                    "corpus": "lang/corpus.txt",
                    "features": "lang/features.tsv",
                    "segmentations": "lang/segmentations.tsv",
                }
            },
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        rows = read_score_rows(
            (out / "scores.csv").read_text(encoding="utf-8").splitlines(True)
        )
        assert len(rows) == 11
        rho = spearman([r.alignment for r in rows], [r.recall for r in rows])
        assert rho >= 0.7
        by_kind = {r.kind: r for r in rows if r.vocab_size == 0}
        assert by_kind["gold"].alignment > by_kind["character"].alignment
        cells = cells_by_key(read_report_cells(
            (out / "correlations.csv").read_text(encoding="utf-8").splitlines(True)
        ))
        cell = cells["synth", "split", "mean", 0.01, "recall", SCOPE_ALL]
        assert cell.status == "ok"
        assert cell.rho == pytest.approx(rho, abs=1e-12)
        assert time.perf_counter() - started < 120.0


def test_criterion_8_degenerate_inputs_fail_loudly_or_count(
    capsys, tmp_path, toy_dataset, toy_table
):
    with _criterion(
        capsys, 8, "degenerate inputs error or count; no crash, no NaN"
    ):
        # Empty join: library raises, command exits with the data code.
        features = tmp_path / "features.tsv"
        features.write_text("lemma\tkamit\tN;ACC\n", encoding="utf-8")
        segments = tmp_path / "segments.tsv"
        segments.write_text("other\tot|her\n", encoding="utf-8")
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(tmp_path / "curated.tsv"),
            ]
        )
        assert code == 2

        # Constant series: the report carries a missing cell, not a zero.
        gold_toy = build_gold_lookup(toy_dataset)
        rows, _ = sweep.run_evaluation(
            toy_dataset,
            gold_toy,
            sweep.segment_dataset(toy_dataset, gold_toy),
            FeatureMode.SPLIT,
            [Aggregation.MEAN],
            [0.01],
            epochs=2,
            include_null=False,
            language="toy",
        )
        report = build_report(rows)
        for cell in report.cells:
            # One tokenizer gives a single point per group.
            assert cell.rho is None
        with pytest.raises(DataError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        constant = build_report(
            [
                rows[0],
                *(
                    type(rows[0])(
                        language=r.language,
                        kind="bpe",
                        vocab_size=size,
                        mode=r.mode,
                        aggregation=r.aggregation,
                        threshold=r.threshold,
                        alignment=0.5,
                        precision=r.precision,
                        recall=r.recall,
                        f1=r.f1,
                        excluded=0,
                    )
                    for size, r in ((200, rows[0]), (400, rows[0]))
                ),
            ]
        )
        assert all(c.status == STATUS_CONSTANT for c in constant.cells)

        # Nothing in the hand-built table exceeds 0.99, so that
        # threshold zeroes the score under every aggregation.
        pairs, _ = pairs_from_segments(
            toy_dataset, segment_entries(toy_dataset, gold_toy), FeatureMode.SPLIT
        )
        scores = alignment_scores(toy_table, pairs, list(Aggregation), [0.99])
        assert scores == {(aggregation, 0.99): 0.0 for aggregation in Aggregation}

        # The same happens on a trained table when a single spread-out
        # epoch leaves no concentrated probabilities: zero, never NaN.
        spread = CuratedDataset(
            [
                WordEntry("kamit", ("kam", "it"), ("N", "ACC")),
                WordEntry("kamol", ("kam", "ol"), ("N", "DAT")),
                WordEntry("vodit", ("vod", "it"), ("N", "ACC")),
                WordEntry("vodol", ("vod", "ol"), ("N", "DAT")),
            ],
            language="toy",
        )
        gold = build_gold_lookup(spread)
        rows, _ = sweep.run_evaluation(
            spread,
            gold,
            sweep.segment_dataset(spread, gold),
            FeatureMode.SPLIT,
            list(Aggregation),
            [0.99],
            epochs=1,
            include_null=False,
            language="toy",
        )
        assert len(rows) == len(Aggregation)
        for row in rows:
            assert row.alignment == 0.0
            for value in (row.alignment, row.precision, row.recall, row.f1):
                assert not math.isnan(value)

        # Unknown-token exclusion shows up consistently in both metrics.
        partial = TokenizerModel(
            kind=TokenizerKind.WORDPIECE,
            vocab=sorted(set("kamitolvd")),
            continuation_marker="##",
        )
        pairs, excluded = build_parallel_corpus(
            toy_dataset, partial, FeatureMode.SPLIT
        )
        assert excluded == 1
        assert len(pairs) == 4
        _, _, _, counts = boundary_prf(toy_dataset, partial)
        assert counts.excluded == 1
        rows, _ = sweep.run_evaluation(
            toy_dataset,
            partial,
            sweep.segment_dataset(toy_dataset, partial),
            FeatureMode.SPLIT,
            [Aggregation.MEAN],
            [0.01],
            epochs=2,
            include_null=False,
            language="toy",
        )
        assert rows[0].excluded == 1
        assert not math.isnan(rows[0].alignment)
