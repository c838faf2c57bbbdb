"""Alignment scores, boundary agreement, and score-row CSV files."""

import functools
import io
import math
import operator

import pytest

from oracles import AGGREGATIONS, alignment_reference, alignment_scores_reference
from tokalign import metrics
from tokalign.choices import DEFAULT_THRESHOLDS
from tokalign.corpus import (
    CuratedDataset,
    FeatureMode,
    WordEntry,
    curate,
    feature_tokens,
    parse_feature_lexicon,
    parse_segmentation_lexicon,
)
from tokalign.errors import ConfigError, DataError
from tokalign.metrics import (
    Aggregation,
    BoundaryCounts,
    ScoreConfig,
    ScoreRow,
    alignment_score_from_pairs,
    alignment_scores,
    boundary_positions,
    boundary_prf,
    read_score_rows,
    write_score_rows,
)
from tokalign.ibm1 import (
    NULL_TOKEN,
    ParallelPair,
    TranslationTable,
    build_parallel_corpus,
    pairs_from_segments,
    segment_entries,
    train_ibm1,
)
from tokalign.synth import SynthConfig, build_language, write_language
from tokalign.tokenizers import (
    TokenizerKind,
    TokenizerModel,
    TrainConfig,
    build_gold_lookup,
    train,
    train_character,
    word_frequencies,
)


def _table(probs):
    targets = sorted({t for row in probs.values() for t in row})
    return TranslationTable(
        probs=probs,
        source_vocab=sorted(probs),
        target_vocab=targets,
        epochs_trained=1,
        loglik_trajectory=[-1.0],
    )


def _config(aggregation, threshold=0.01):
    return ScoreConfig(aggregation=aggregation, threshold=threshold)


def _score(table, subwords, features, aggregation, threshold=0.01):
    """The score of a corpus of one word: the mean of its subwords' scores."""
    pairs = [ParallelPair(tuple(subwords), tuple(features))]
    return alignment_scores(table, pairs, [aggregation], [threshold])[aggregation, threshold]


def _toy_scores(dataset, table, aggregations, thresholds):
    """The toy dataset scored over its gold segmentation, as a sweep point scores it."""
    model = build_gold_lookup(dataset)
    segments = segment_entries(dataset, model)
    pairs, _ = pairs_from_segments(dataset, segments, FeatureMode.SPLIT)
    return alignment_scores(table, pairs, aggregations, thresholds)


class TestSubwordScore:
    table = None

    def setup_method(self):
        self.table = _table({"s": {"A": 0.6, "B": 0.4}})

    def test_each_aggregation_on_two_survivors(self):
        features = ["A", "B"]
        cases = {
            Aggregation.SUM: 1.0,
            Aggregation.MEAN: 0.5,
            Aggregation.MIN: 0.4,
            Aggregation.MAX: 0.6,
            Aggregation.LOG: math.log(0.6) + math.log(0.4),
        }
        for aggregation, want in cases.items():
            got = _score(self.table, ["s"], features, aggregation)
            assert got == pytest.approx(want, abs=1e-12)

    def test_threshold_comparison_is_strict(self):
        got = _score(self.table, ["s"], ["A", "B"], Aggregation.SUM, 0.4)
        assert got == pytest.approx(0.6, abs=1e-12)

    def test_no_survivors_scores_zero_for_every_aggregation(self):
        # The log aggregation also returns 0.0 rather than a log of
        # nothing.
        for aggregation in Aggregation:
            assert _score(self.table, ["s"], ["A", "B"], aggregation, 0.6) == 0.0

    def test_duplicate_features_count_twice(self):
        got = _score(self.table, ["s"], ["A", "A"], Aggregation.SUM)
        assert got == pytest.approx(1.2, abs=1e-12)
        got = _score(self.table, ["s"], ["A", "A"], Aggregation.LOG)
        assert got == pytest.approx(2 * math.log(0.6), abs=1e-12)

    def test_sum_and_mean_add_left_to_right(self):
        # Compensated summation (the builtin `sum` of floats from Python
        # 3.12) gives 1.0 here; adding in turn gives 0.9999999999999999.
        values = [0.1] * 10
        in_turn = functools.reduce(operator.add, values, 0.0)
        assert in_turn != math.fsum(values)
        table = _table({"s": {f"F{i}": p for i, p in enumerate(values)}})
        features = [f"F{i}" for i in range(len(values))]
        got = _score(table, ["s"], features, Aggregation.SUM, 0.0)
        assert repr(got) == repr(in_turn)
        got = _score(table, ["s"], features, Aggregation.MEAN, 0.0)
        assert repr(got) == repr(in_turn / len(values))

    def test_unknown_subword_scores_zero(self):
        assert _score(self.table, ["x"], ["A"], Aggregation.MAX) == 0.0

    def test_word_score_averages_over_subwords(self):
        table = _table({"s": {"A": 0.6}, "u": {"A": 0.2}})
        got = _score(table, ["s", "u"], ["A"], Aggregation.MAX)
        assert got == pytest.approx(0.4, abs=1e-12)
        # The null token is dropped, which leaves this word empty.
        with pytest.raises(DataError, match="word with no subwords"):
            _score(table, [NULL_TOKEN], ["A"], Aggregation.MAX)


class TestAlignmentScore:
    def test_toy_dataset_mean_score_is_hand_checked(self, toy_dataset, toy_table):
        got = _toy_scores(toy_dataset, toy_table, [Aggregation.MEAN], [0.01])
        # Word scores 0.45, 0.4375, 0.45, 0.45, 0.9.
        assert got[Aggregation.MEAN, 0.01] == pytest.approx(0.5375, abs=1e-12)

    def test_matches_reference_over_aggregations_and_thresholds(
        self, toy_dataset, toy_table
    ):
        items = [
            (list(e.gold_segments), list(feature_tokens(e, FeatureMode.SPLIT)))
            for e in toy_dataset.entries
        ]
        thresholds = (0.01, 0.3, 0.5)
        got = _toy_scores(toy_dataset, toy_table, list(Aggregation), thresholds)
        for name in AGGREGATIONS:
            for threshold in thresholds:
                want = alignment_reference(
                    toy_table.probs, items, name, threshold
                )
                assert got[Aggregation(name), threshold] == pytest.approx(want, abs=1e-12)

    def test_trained_table_round_trip(self, toy_dataset):
        # Scores computed from a trained table stay in [0, 1] for the
        # mean aggregation, since each subword averages probabilities.
        model = build_gold_lookup(toy_dataset)
        from tokalign.ibm1 import build_parallel_corpus

        pairs, _ = build_parallel_corpus(toy_dataset, model, FeatureMode.SPLIT)
        table = train_ibm1(pairs, epochs=5)
        got = alignment_score_from_pairs(
            table, pairs, _config(Aggregation.MEAN)
        )
        assert 0.0 <= got <= 1.0

    def test_null_token_is_never_scored(self):
        table = _table({"s": {"A": 0.5}, NULL_TOKEN: {"A": 0.5}})
        pairs = [ParallelPair(("s", NULL_TOKEN), ("A",))]
        got = alignment_score_from_pairs(table, pairs, _config(Aggregation.SUM))
        # Only "s" contributes; the null token is dropped before the
        # per-word mean.
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_empty_pair_list_is_rejected(self, toy_table):
        with pytest.raises(DataError):
            alignment_score_from_pairs(
                toy_table, [], _config(Aggregation.MEAN)
            )


def _repr_grid(scores):
    return {key: repr(value) for key, value in scores.items()}


class TestScoreGrid:
    def test_equals_the_per_slot_scorer_on_a_synthetic_language(self, tmp_path):
        paths = write_language(
            build_language(
                SynthConfig(noun_stems=20, verb_stems=20, sentences=120, words_per_sentence=6)
            ),
            tmp_path,
        )
        corpus_lines, feature_lines, segment_lines = (
            path.read_text(encoding="utf-8").splitlines(True) for path in paths
        )
        dataset, _ = curate(
            parse_segmentation_lexicon(segment_lines)[0],
            parse_feature_lexicon(feature_lines)[0],
        )
        freqs = word_frequencies(corpus_lines)
        models = [
            train(freqs, TrainConfig(kind=kind, vocab_size=60))
            for kind in (TokenizerKind.BPE, TokenizerKind.WORDPIECE, TokenizerKind.UNIGRAM)
        ] + [train_character(freqs), build_gold_lookup(dataset)]
        aggregations = list(Aggregation)
        for model in models:
            for mode in FeatureMode:
                pairs, _ = build_parallel_corpus(dataset, model, mode, include_null=True)
                table = train_ibm1(pairs, epochs=3)
                got = alignment_scores(table, pairs, aggregations, DEFAULT_THRESHOLDS)
                want = alignment_scores_reference(
                    table, pairs, aggregations, DEFAULT_THRESHOLDS
                )
                assert len(got) == 55
                assert _repr_grid(got) == _repr_grid(want), (model.kind, mode)

    def test_scores_each_distinct_key_with_a_row_once(self, monkeypatch):
        built = []
        score_vector = metrics._score_vector

        def counting(row, features, levels, aggregates):
            built.append((id(row), tuple(features)))
            return score_vector(row, features, levels, aggregates)

        monkeypatch.setattr(metrics, "_score_vector", counting)
        # "b" has no survivor at any level, "x" has no row, and the
        # null token is dropped.
        table = _table({"a": {"A": 0.6, "B": 0.4}, "b": {"A": 0.001}, NULL_TOKEN: {"A": 1.0}})
        pairs = [
            ParallelPair(("a", "b", NULL_TOKEN), ("A", "B")),
            ParallelPair(("a", "a", "x", NULL_TOKEN), ("A", "B")),
            ParallelPair(("b", "a"), ("A",)),
            ParallelPair(("a", "b", NULL_TOKEN), ("A", "B")),
            ParallelPair(("x",), ("B",)),
        ]
        got = alignment_scores(table, pairs, list(Aggregation), DEFAULT_THRESHOLDS)
        keys = {("a", ("A", "B")), ("b", ("A", "B")), ("a", ("A",)), ("b", ("A",))}
        assert len(built) == len(keys)
        assert len(set(built)) == len(keys)
        monkeypatch.undo()
        want = alignment_scores_reference(
            table, pairs, list(Aggregation), DEFAULT_THRESHOLDS
        )
        assert _repr_grid(got) == _repr_grid(want)


class TestBoundaries:
    def test_positions_are_cumulative_offsets(self):
        assert boundary_positions(["rýž", "ov", "ý"]) == {3, 5}
        assert boundary_positions(["kamit"]) == set()
        assert boundary_positions(["a", "b", "c"]) == {1, 2}

    def test_gold_model_scores_perfectly(self, czech_dataset):
        model = build_gold_lookup(czech_dataset)
        precision, recall, f1, counts = boundary_prf(czech_dataset, model)
        assert precision == 1.0
        assert recall == 1.0
        assert f1 == 1.0
        assert counts.excluded == 0

    def test_character_model_has_perfect_recall(self, czech_dataset):
        model = train_character({e.form: 1 for e in czech_dataset.entries})
        precision, recall, f1, counts = boundary_prf(czech_dataset, model)
        assert recall == 1.0
        assert precision == pytest.approx(counts.true_positive / counts.predicted_total)
        assert precision < 1.0

    def test_all_boundaries_wrong_scores_zero(self):
        # Predicted bá|zeň against gold báz|eň shares no split point.
        dataset = CuratedDataset(
            [WordEntry("bázeň", ("báz", "eň"), ("N",))], language="ces"
        )
        model = TokenizerModel(
            kind=TokenizerKind.GOLD,
            vocab=["bá", "zeň"],
            gold_map={"bázeň": ["bá", "zeň"]},
        )
        precision, recall, f1, _ = boundary_prf(dataset, model)
        assert precision == 0.0
        assert recall == 0.0
        assert f1 == 0.0

    def test_nothing_to_find_and_nothing_predicted_is_perfect(self):
        dataset = CuratedDataset(
            [WordEntry("bura", ("bura",), ("V",))], language="toy"
        )
        model = TokenizerModel(
            kind=TokenizerKind.GOLD, vocab=["bura"], gold_map={"bura": ["bura"]}
        )
        precision, recall, f1, _ = boundary_prf(dataset, model)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    def test_empty_prediction_side_only(self):
        # No predicted boundaries: precision is vacuously perfect while
        # recall catches the miss.
        dataset = CuratedDataset(
            [WordEntry("kamit", ("kam", "it"), ("N",))], language="toy"
        )
        model = TokenizerModel(
            kind=TokenizerKind.GOLD, vocab=["kamit"], gold_map={"kamit": ["kamit"]}
        )
        precision, recall, f1, _ = boundary_prf(dataset, model)
        assert precision == 1.0
        assert recall == 0.0
        assert f1 == 0.0

    def test_micro_average_pools_counts_across_entries(self, toy_dataset):
        # kamit -> kam|i|t adds a spurious boundary; others match gold.
        gold_map = {e.form: list(e.gold_segments) for e in toy_dataset.entries}
        gold_map["kamit"] = ["kam", "i", "t"]
        vocab = sorted({s for segs in gold_map.values() for s in segs})
        model = TokenizerModel(
            kind=TokenizerKind.GOLD, vocab=vocab, gold_map=gold_map
        )
        precision, recall, f1, counts = boundary_prf(toy_dataset, model)
        assert counts.gold_total == 4
        assert counts.predicted_total == 5
        assert counts.true_positive == 4
        assert precision == pytest.approx(0.8)
        assert recall == 1.0

    def test_uncoverable_entries_leave_both_metrics(self, toy_dataset):
        # Wordpiece without b/u/r cannot cover "bura": the entry is
        # excluded rather than scored as all-wrong.
        vocab = ["kam", "it", "ol", "vod"] + sorted(set("kamitolvd"))
        model = TokenizerModel(
            kind=TokenizerKind.WORDPIECE,
            vocab=sorted(set(vocab)),
            continuation_marker="##",
        )
        precision, recall, f1, counts = boundary_prf(toy_dataset, model)
        assert counts.excluded == 1
        assert counts.gold_total == 4

    def test_degenerate_datasets_are_rejected(self, toy_dataset):
        with pytest.raises(DataError):
            boundary_prf(CuratedDataset([], language="ces"), None)
        model = TokenizerModel(
            kind=TokenizerKind.WORDPIECE, vocab=["z"], continuation_marker="##"
        )
        with pytest.raises(DataError):
            boundary_prf(toy_dataset, model)


class TestScoreConfig:
    def test_threshold_bounds(self):
        ScoreConfig(aggregation=Aggregation.MEAN, threshold=0.0)
        with pytest.raises(ConfigError):
            ScoreConfig(aggregation=Aggregation.MEAN, threshold=1.0)
        with pytest.raises(ConfigError):
            ScoreConfig(aggregation=Aggregation.MEAN, threshold=-0.1)

    def test_default_threshold_grid(self):
        assert len(DEFAULT_THRESHOLDS) == 11
        assert DEFAULT_THRESHOLDS[0] == 0.01
        assert DEFAULT_THRESHOLDS[-1] == 0.5
        steps = [
            round(b - a, 3)
            for a, b in zip(DEFAULT_THRESHOLDS, DEFAULT_THRESHOLDS[1:])
        ]
        assert set(steps) == {0.049}


class TestScoreRows:
    def _rows(self):
        return [
            ScoreRow(
                language="toy",
                kind="bpe",
                vocab_size=200,
                mode="split",
                aggregation="mean",
                threshold=0.01,
                alignment=0.36803743715576037,
                precision=0.6806083650190115,
                recall=0.9322916666666666,
                f1=0.7868131868131868,
                excluded=0,
            ),
            ScoreRow(
                language="toy",
                kind="character",
                vocab_size=0,
                mode="split",
                aggregation="max",
                threshold=0.5,
                alignment=0.1,
                precision=0.25,
                recall=1.0,
                f1=0.4,
                excluded=2,
            ),
        ]

    def test_round_trip_preserves_every_float_exactly(self):
        rows = self._rows()
        buf = io.StringIO()
        write_score_rows(rows, buf, seed=7)
        text = buf.getvalue()
        assert text.startswith("# seed: 7\n")
        assert read_score_rows(io.StringIO(text)) == rows

    def test_label_property(self):
        rows = self._rows()
        assert rows[0].label == "bpe-200"
        assert rows[1].label == "character-0"

    def test_reader_rejects_wrong_header(self):
        with pytest.raises(DataError):
            read_score_rows(io.StringIO("a,b,c\n1,2,3\n"))

    def test_reader_rejects_malformed_rows(self):
        buf = io.StringIO()
        write_score_rows(self._rows(), buf)
        broken = buf.getvalue() + "toy,bpe,200\n"
        with pytest.raises(DataError):
            read_score_rows(io.StringIO(broken))

    def test_boundary_counts_default_to_zero(self):
        counts = BoundaryCounts()
        assert (
            counts.true_positive,
            counts.predicted_total,
            counts.gold_total,
            counts.excluded,
        ) == (0, 0, 0, 0)
