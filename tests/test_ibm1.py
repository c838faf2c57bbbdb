"""EM training of the subword-to-feature translation table."""

import functools
import json
import math
import operator
import random
import re

import pytest

from conftest import random_parallel_pairs
from oracles import em_epoch_reference, em_reference, train_ibm1_reference
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
    build_parallel_corpus,
    corpus_loglik,
    em_epoch,
    load_table,
    row_sums,
    save_table,
    table_to_json,
    train_ibm1,
    uniform_init,
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
        assert table.lookup("a", "X") == pytest.approx(0.75, abs=1e-12)
        assert table.lookup("a", "Y") == pytest.approx(0.25, abs=1e-12)
        assert table.lookup("b", "X") == pytest.approx(0.5, abs=1e-12)
        assert table.lookup("b", "Y") == pytest.approx(0.5, abs=1e-12)
        assert table.final_loglik == pytest.approx(
            math.log(0.625 * 0.375 * 0.75), abs=1e-12
        )

    def test_second_epoch_matches_hand_computation(self, em_pairs):
        table = train_ibm1(em_pairs, epochs=2)
        assert table.lookup("a", "X") == pytest.approx(24 / 29, abs=1e-12)
        assert table.lookup("b", "Y") == pytest.approx(0.625, abs=1e-12)

    def test_ten_epochs_nearly_resolve_the_alignment(self, em_pairs):
        table = train_ibm1(em_pairs, epochs=10)
        assert table.lookup("a", "X") > 0.99
        assert table.lookup("a", "X") == pytest.approx(
            0.9970352732178555, abs=1e-12
        )
        assert table.lookup("b", "Y") == pytest.approx(
            0.9289996121524242, abs=1e-12
        )

    def test_single_pair_concentrates_immediately(self):
        table = train_ibm1([ParallelPair(("s",), ("t",))], epochs=1)
        assert table.lookup("s", "t") == 1.0
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
                assert table.lookup(s, t) == pytest.approx(p, abs=1e-10)

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
        # that the link layout replaced.  Folded training and an epoch
        # chain both run the link code, so comparing them cannot catch a
        # defect they share.
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

    def test_of_several_failing_rows_the_first_counted_is_named(self):
        # Each count of "a" and "b" underflows to zero.  The E-step counts
        # "b" first, at target X, though "a" comes first in the pair.
        pairs = [ParallelPair(("a", "b", "c", "c", "c", "c", "c"), ("X", "Y"))]
        probs = {"a": {"Y": 5e-324}, "b": {"X": 5e-324}, "c": {"X": 0.5, "Y": 0.5}}
        with pytest.raises(NumericalError) as want:
            em_epoch_reference(pairs, probs)
        with pytest.raises(NumericalError) as got:
            em_epoch(pairs, probs)
        assert str(got.value) == str(want.value) == "source token 'b' collected no counts"


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
            probs = uniform_init(pairs)
            for _ in range(5):
                probs, _ = em_epoch(pairs, probs)
                for s, row in probs.items():
                    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)

    def test_row_totals_add_left_to_right(self):
        # "s" collects 0.1 from each of ten targets.  Compensated
        # summation (the builtin `sum` of floats from Python 3.12) totals
        # those to 1.0; adding in turn gives 0.9999999999999999.
        targets = tuple(f"T{i}" for i in range(10))
        in_turn = functools.reduce(operator.add, [0.1] * 10, 0.0)
        assert in_turn != math.fsum([0.1] * 10)
        pairs = [ParallelPair(("s", "u"), targets)]
        probs = {"s": dict.fromkeys(targets, 0.1), "u": dict.fromkeys(targets, 0.9)}
        new_probs, _ = em_epoch(pairs, probs)
        assert [repr(p) for p in new_probs["s"].values()] == [repr(0.1 / in_turn)] * 10
        table = TranslationTable(probs, ["s", "u"], sorted(targets), 1)
        assert repr(row_sums(table)["s"]) == repr(in_turn)

    def test_row_sums_helper_reports_unit_mass(self, em_pairs):
        table = train_ibm1(em_pairs, epochs=4)
        for s, total in row_sums(table).items():
            assert total == pytest.approx(1.0, abs=1e-9)

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
                assert second.lookup(s, t) == pytest.approx(p, abs=1e-12)

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
        with pytest.raises(DataError):
            uniform_init([])

    def test_degenerate_table_raises_numerical_error(self):
        pairs = [ParallelPair(("s",), ("t",))]
        with pytest.raises(NumericalError):
            em_epoch(pairs, {"s": {"u": 1.0}})
        with pytest.raises(NumericalError):
            corpus_loglik(pairs, {"s": {"u": 1.0}})

    def test_underflowing_mean_probability_raises_numerical_error(self):
        # 5e-324 / 2 rounds to 0.0, and log(0.0) is a domain error.
        pairs = [ParallelPair(("a", "b"), ("X",))]
        with pytest.raises(NumericalError, match="underflows"):
            corpus_loglik(pairs, {"a": {"X": 5e-324}})

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
        loaded = load_table(path)
        assert loaded.probs == table.probs
        assert loaded.source_vocab == table.source_vocab
        assert loaded.target_vocab == table.target_vocab
        assert loaded.epochs_trained == table.epochs_trained
        assert loaded.loglik_trajectory == table.loglik_trajectory
        assert table_to_json(loaded) == table_to_json(table)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope/0"}', encoding="utf-8")
        with pytest.raises(DataError):
            load_table(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[", encoding="utf-8")
        with pytest.raises(DataError):
            load_table(path)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda doc: doc["loglik_trajectory"].__setitem__(0, math.nan),
             "log likelihood trajectory is not finite"),
            (lambda doc: doc.update(loglik_trajectory=[]), "0 log likelihoods for 2 epochs"),
            (lambda doc: doc.update(epochs_trained=3), "2 log likelihoods for 3 epochs"),
            (lambda doc: doc.update(epochs_trained=-2), "2 log likelihoods for -2 epochs"),
            (lambda doc: doc.update(epochs_trained=2.0), "2.0 is not of type int"),
            (lambda doc: doc.update(epochs_trained=True), "True is not of type int"),
            (lambda doc: doc["entries"][0].__setitem__(2, "0.5"), "'0.5' is not of type float"),
            (lambda doc: doc["entries"][0].__setitem__(1, 7), "7 is not of type str"),
            (lambda doc: doc["source_vocab"].append(None), "None is not of type str"),
            (lambda doc: doc["entries"].append(doc["entries"][0]),
             "entry ('a', 'X') is listed twice"),
            # An object or a string would read as its keys or characters.
            (lambda doc: doc.update(source_vocab={"a": 0, "b": 1}),
             "{'a': 0, 'b': 1} is not of type list"),
            (lambda doc: doc.update(target_vocab="XY"), "'XY' is not of type list"),
            (lambda doc: doc.update(entries={"aX": 1.0}), "{'aX': 1.0} is not of type list"),
            (lambda doc: doc["entries"].__setitem__(0, "aX"), "'aX' is not of type list"),
        ],
        ids=["nan-loglik", "no-loglik", "epochs-above-trajectory", "negative-epochs",
             "float-epochs", "bool-epochs", "string-probability", "number-token",
             "null-token", "repeated-entry", "object-vocab", "string-vocab",
             "object-entries", "string-entry"],
    )
    def test_load_rejects_what_training_cannot_write(self, tmp_path, em_pairs, edit, error):
        path = tmp_path / "table.json"
        save_table(train_ibm1(em_pairs, epochs=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["entries"][0][:2] == ["a", "X"]
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(error)):
            load_table(path)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), -0.25, 1.5, 0.5],
        ids=["nan", "negative", "above-one", "row-off-one"],
    )
    def test_load_rejects_invalid_probabilities(self, tmp_path, em_pairs, value):
        path = tmp_path / "table.json"
        save_table(train_ibm1(em_pairs, epochs=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        # P(X | a) is 24/29 here; 0.5 leaves the row "a" summing to 0.67.
        assert doc["entries"][0][:2] == ["a", "X"]
        doc["entries"][0][2] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="not a probability|sums to"):
            load_table(path)
