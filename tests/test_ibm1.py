"""EM training of the subword-to-feature translation table."""

import functools
import json
import math
import operator
import random

import pytest

from conftest import random_parallel_pairs
from oracles import em_reference, train_ibm1_reference
from tokalign.corpus import (
    FeatureMode,
    curate,
    parse_feature_lexicon,
    parse_segmentation_lexicon,
)
from tokalign.errors import ConfigError, DataError, NumericalError
from tokalign.ibm1 import (
    NULL_TOKEN,
    ParallelPair,
    TranslationTable,
    _expectation,
    _LinkCorpus,
    _maximization,
    build_parallel_corpus,
    save_table,
    table_to_json,
    train_ibm1,
)
from tokalign.synth import SynthConfig, build_language
from tokalign.tokenizers import (
    TokenizerKind,
    TokenizerModel,
    TrainConfig,
    build_gold_lookup,
    train,
    train_character,
    word_frequencies,
)


class TestFixedPoints:
    def test_first_epoch_matches_hand_computation(self, em_pairs):
        # Uniform start, one count-and-normalize step: "a" explains "X"
        # in both pairs while "b" stays undecided.
        table = train_ibm1(em_pairs, epochs=1)
        assert table.probs["a"]["X"] == pytest.approx(0.75, abs=1e-12)
        assert table.probs["a"]["Y"] == pytest.approx(0.25, abs=1e-12)
        assert table.probs["b"]["X"] == pytest.approx(0.5, abs=1e-12)
        assert table.probs["b"]["Y"] == pytest.approx(0.5, abs=1e-12)
        assert table.final_loglik == pytest.approx(
            math.log(0.625 * 0.375 * 0.75), abs=1e-12
        )

    def test_second_epoch_matches_hand_computation(self, em_pairs):
        table = train_ibm1(em_pairs, epochs=2)
        assert table.probs["a"]["X"] == pytest.approx(24 / 29, abs=1e-12)
        assert table.probs["b"]["Y"] == pytest.approx(0.625, abs=1e-12)

    def test_ten_epochs_nearly_resolve_the_alignment(self, em_pairs):
        table = train_ibm1(em_pairs, epochs=10)
        assert table.probs["a"]["X"] > 0.99
        assert table.probs["a"]["X"] == pytest.approx(
            0.9970352732178555, abs=1e-12
        )
        assert table.probs["b"]["Y"] == pytest.approx(
            0.9289996121524242, abs=1e-12
        )

    def test_single_pair_concentrates_immediately(self):
        table = train_ibm1([ParallelPair(("s",), ("t",))], epochs=1)
        assert table.probs["s"]["t"] == 1.0
        assert table.final_loglik == pytest.approx(0.0, abs=1e-12)


class TestOracleAgreement:
    def _assert_matches_reference(self, pairs, epochs):
        raw = [(p.source, p.target) for p in pairs]
        want_probs, want_traj = em_reference(raw, epochs)
        table = train_ibm1(pairs, epochs=epochs)
        assert len(table.loglik_trajectory) == epochs
        for got, want in zip(table.loglik_trajectory, want_traj):
            assert got == pytest.approx(want, abs=1e-10)
        for s, row in want_probs.items():
            for t, p in row.items():
                assert table.probs[s].get(t, 0.0) == pytest.approx(p, abs=1e-10)

    def test_fixture_corpus_at_several_epoch_counts(self, em_pairs):
        for epochs in (1, 2, 10):
            self._assert_matches_reference(em_pairs, epochs)

    def test_random_corpora(self):
        for trial in range(30):
            rng = random.Random(8000 + trial)
            pairs = random_parallel_pairs(rng)
            self._assert_matches_reference(pairs, rng.choice((1, 3, 7)))


class TestDictReference:
    def test_every_kind_and_mode_trains_the_dict_reference_table(self):
        # Real segmentations of every kind, against the dict-of-dict EM
        # that the link layout replaced.
        language = build_language(
            SynthConfig(noun_stems=20, verb_stems=20, sentences=200, words_per_sentence=6)
        )
        features, _ = parse_feature_lexicon(
            f"{stem}\t{form}\t{';'.join(bundle)}"
            for form, stem, _suffix, bundle in language.lexicon
        )
        segmentations, _ = parse_segmentation_lexicon(
            f"{form}\t{stem}|{suffix}" for form, stem, suffix, _bundle in language.lexicon
        )
        dataset, _ = curate(segmentations, features, language="syn")
        freqs = dict(word_frequencies(language.sentences))
        models = [
            train(freqs, TrainConfig(kind=kind, vocab_size=60))
            for kind in (TokenizerKind.BPE, TokenizerKind.WORDPIECE, TokenizerKind.UNIGRAM)
        ]
        models += [train_character(freqs), build_gold_lookup(dataset)]
        assert {m.kind for m in models} == set(TokenizerKind)
        for model in models:
            for mode in FeatureMode:
                pairs, _ = build_parallel_corpus(dataset, model, mode)
                table = train_ibm1(pairs, epochs=10)
                probs, trajectory = train_ibm1_reference(pairs, 10)
                want = TranslationTable(
                    probs=probs,
                    source_vocab=sorted({s for p in pairs for s in p.source}),
                    target_vocab=sorted({t for p in pairs for t in p.target}),
                    epochs_trained=10,
                    loglik_trajectory=trajectory,
                )
                assert table_to_json(table) == table_to_json(want), (model.kind, mode)


class TestInvariants:
    def test_loglik_never_decreases(self):
        for trial in range(100):
            rng = random.Random(9000 + trial)
            pairs = random_parallel_pairs(rng)
            table = train_ibm1(pairs, epochs=6)
            trajectory = table.loglik_trajectory
            for prev, cur in zip(trajectory, trajectory[1:]):
                assert cur >= prev - 1e-9 * max(1.0, abs(prev))

    def test_rows_stay_normalized_after_every_epoch(self):
        for trial in range(25):
            rng = random.Random(10_000 + trial)
            pairs = random_parallel_pairs(rng)
            for epochs in range(1, 6):
                for row in train_ibm1(pairs, epochs=epochs).probs.values():
                    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_row_totals_add_left_to_right(self):
        # One epoch from the uniform start gives "a" the counts 0.5 (Y),
        # 0.5 + 0.4 (Z) and 0.4 (X), in first-seen order.  Compensated
        # summation (the builtin `sum` of floats from Python 3.12) totals
        # them to 1.8; adding in turn gives 1.7999999999999998.
        pairs = [
            ParallelPair(("a", "c"), ("Y", "Z")),
            ParallelPair(("c",), ("W",)),
            ParallelPair(("d", "a"), ("Z", "X")),
            ParallelPair(("b",), ("Y",)),
        ]
        counts = [0.5, 0.5 + 0.4, 0.4]
        in_turn = functools.reduce(operator.add, counts, 0.0)
        assert in_turn != math.fsum(counts)
        row = train_ibm1(pairs, epochs=1).probs["a"]
        assert list(row) == ["Y", "Z", "X"]
        assert [repr(p) for p in row.values()] == [repr(c / in_turn) for c in counts]

    def test_pair_order_does_not_change_the_result(self):
        rng = random.Random(42)
        pairs = random_parallel_pairs(rng)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        first = train_ibm1(pairs, epochs=5)
        second = train_ibm1(shuffled, epochs=5)
        assert first.source_vocab == second.source_vocab
        for s in first.source_vocab:
            row = first.probs.get(s, {})
            for t, p in row.items():
                assert second.probs[s].get(t, 0.0) == pytest.approx(p, abs=1e-12)

    def test_vocabularies_are_sorted_and_complete(self, em_pairs):
        table = train_ibm1(em_pairs, epochs=1)
        assert table.source_vocab == ["a", "b"]
        assert table.target_vocab == ["X", "Y"]


class TestParallelCorpus:
    def test_gold_segments_become_source_tokens(self, toy_dataset):
        model = build_gold_lookup(toy_dataset)
        pairs, excluded = build_parallel_corpus(
            toy_dataset, model, FeatureMode.SPLIT
        )
        assert excluded == 0
        assert pairs[0] == ParallelPair(("kam", "it"), ("N", "ACC"))
        assert pairs[4] == ParallelPair(("bura",), ("V",))

    def test_joint_mode_keeps_bundles_whole(self, toy_dataset):
        model = build_gold_lookup(toy_dataset)
        pairs, _ = build_parallel_corpus(toy_dataset, model, FeatureMode.JOINT)
        assert pairs[0].target == ("N;ACC",)

    def test_uncoverable_entries_are_counted_and_skipped(self, toy_dataset):
        # A wordpiece vocabulary lacking b/u/r makes "bura" uncoverable.
        vocab = sorted(set("kamitolvd"))
        model = TokenizerModel(
            kind=TokenizerKind.WORDPIECE, vocab=vocab, continuation_marker="##"
        )
        pairs, excluded = build_parallel_corpus(
            toy_dataset, model, FeatureMode.SPLIT
        )
        assert excluded == 1
        assert len(pairs) == 4
        assert all("bura" not in "".join(p.source) for p in pairs)

    def test_all_entries_uncoverable_is_an_error(self, toy_dataset):
        model = TokenizerModel(
            kind=TokenizerKind.WORDPIECE, vocab=["z"], continuation_marker="##"
        )
        with pytest.raises(DataError):
            build_parallel_corpus(toy_dataset, model, FeatureMode.SPLIT)

    def test_null_token_joins_every_source_side(self, toy_dataset):
        model = build_gold_lookup(toy_dataset)
        pairs, _ = build_parallel_corpus(
            toy_dataset, model, FeatureMode.SPLIT, include_null=True
        )
        assert all(p.source[-1] == NULL_TOKEN for p in pairs)
        table = train_ibm1(pairs, epochs=3)
        assert NULL_TOKEN in table.probs
        assert sum(table.probs[NULL_TOKEN].values()) == pytest.approx(
            1.0, abs=1e-9
        )


class TestValidation:
    def test_empty_pair_side_is_rejected(self):
        with pytest.raises(DataError):
            ParallelPair((), ("t",))
        with pytest.raises(DataError):
            ParallelPair(("s",), ())

    def test_training_validations(self, em_pairs):
        with pytest.raises(ConfigError):
            train_ibm1(em_pairs, epochs=0)
        with pytest.raises(DataError):
            train_ibm1([], epochs=1)

    def test_degenerate_table_raises_numerical_error(self):
        # Training from the uniform start never reaches this check; it
        # guards the E-step, with counts or without, against a table
        # with no mass where a pair needs it.
        corpus = _LinkCorpus([ParallelPair(("s",), ("t",))])
        for counts in ([0.0], None):
            with pytest.raises(NumericalError, match="'t' has a mean probability of zero"):
                _expectation(corpus, [0.0], counts)

    def test_underflowing_mean_probability_raises_numerical_error(self):
        # 5e-324 / 2 rounds to 0.0, and log(0.0) is a domain error.
        corpus = _LinkCorpus([ParallelPair(("a", "b"), ("X",))])
        for counts in ([0.0, 0.0], None):
            with pytest.raises(NumericalError, match="'X' has a mean probability of zero"):
                _expectation(corpus, [5e-324, 0.0], counts)

    def test_maximization_names_the_first_failing_row(self):
        rows = {"a": [0], "b": [1]}
        with pytest.raises(NumericalError, match="'a' collected no counts"):
            _maximization(rows, [0.0, 0.0])
        # An infinite count leaves no finite probability in its row.
        with pytest.raises(NumericalError, match="'a' lost all probability mass"):
            _maximization(rows, [math.inf, 0.0])

    def test_final_loglik_requires_a_trajectory(self):
        table = TranslationTable(
            probs={}, source_vocab=[], target_vocab=[], epochs_trained=0
        )
        with pytest.raises(DataError):
            table.final_loglik


class TestTableFiles:
    def test_save_load_round_trip(self, tmp_path, em_pairs):
        table = train_ibm1(em_pairs, epochs=3)
        path = tmp_path / "table.json"
        save_table(table, path)
        text = path.read_text(encoding="utf-8")
        assert text == table_to_json(table)
        doc = json.loads(text)
        probs = {}
        for s, t, p in doc["entries"]:
            probs.setdefault(s, {})[t] = p
        assert probs == table.probs
        assert doc["source_vocab"] == table.source_vocab
        assert doc["target_vocab"] == table.target_vocab
        assert doc["epochs_trained"] == table.epochs_trained
        assert doc["loglik_trajectory"] == table.loglik_trajectory
