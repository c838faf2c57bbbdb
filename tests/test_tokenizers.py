"""Tokenizer training, segmentation, and model file round trips."""

import json
import math
import random

import pytest

from oracles import (
    best_segmentation_logprob,
    bpe_best_pair,
    replay_merge,
    wordpiece_best_pair,
)
from conftest import random_corpus
from tokalign.errors import ConfigError, DataError, UncoverableWord
from tokalign.synth import SynthConfig, build_language
from tokalign.tokenizers import (
    OOV_CHAR_LOGPROB,
    PROB_FLOOR,
    UNK,
    TokenizerKind,
    TokenizerModel,
    TrainConfig,
    build_gold_lookup,
    canonical_subwords,
    load_model,
    model_to_json,
    save_model,
    segment,
    train,
    train_bpe,
    train_character,
    train_unigram,
    train_wordpiece,
    word_frequencies,
)


def _config(kind, vocab_size):
    return TrainConfig(kind=kind, vocab_size=vocab_size)


def _oracle_cases(first_seed):
    """(corpus, budget) pairs that the merge-order oracles replay.

    25 random small corpora, then inputs aimed at the incremental
    bookkeeping: budgets that run out of merges, runs of one symbol
    whose pair occurrences overlap, two routes to the join "abc"
    (("ab","c") and ("a","bc")), and the seed-0 synthetic language.
    """
    cases = []
    for trial in range(25):
        rng = random.Random(first_seed + trial)
        corpus = random_corpus(rng, max_types=50)
        alphabet = sorted({ch for word in corpus for ch in word})
        cases.append((corpus, len(alphabet) + rng.randint(0, 12)))
    for trial in range(5):
        cases.append((random_corpus(random.Random(4000 + trial), max_types=30), 1000))
    cases.append(({"aaaa": 3, "aaaaaaa": 2, "aaab": 1, "baaaab": 2, "a": 4}, 100))
    cases.append(({"abc": 4, "xab": 3, "bcy": 3}, 100))
    cases.append(({"abc": 4, "xab": 2, "bcy": 3}, 100))
    synth = word_frequencies(build_language(SynthConfig(seed=0)).sentences)
    cases.append((dict(synth), 200))
    return cases


class TestWordFrequencies:
    def test_counts_whitespace_separated_words(self):
        freqs = word_frequencies(["a b  a", "b\tc", "a"])
        assert freqs == {"a": 3, "b": 2, "c": 1}

    def test_composed_and_decomposed_forms_count_together(self):
        freqs = word_frequencies(["café", "café"])
        assert freqs == {"café": 2}


class TestBpe:
    def test_overlapping_pair_occurrences_all_count(self):
        # "aaab" holds ("a","a") twice and ("a","b") once, so the
        # frequency criterion picks ("a","a") first.
        model = train_bpe({"aaab": 1}, _config(TokenizerKind.BPE, 3))
        assert model.merges == [("a", "a")]
        assert model.vocab == ["a", "aa", "b"]
        assert segment(model, "aaab") == ["aa", "a", "b"]

    def test_merges_chain_onto_earlier_merges(self):
        model = train_bpe({"abab": 3}, _config(TokenizerKind.BPE, 4))
        assert model.merges == [("a", "b"), ("ab", "ab")]
        assert segment(model, "abab") == ["abab"]
        assert segment(model, "aba") == ["ab", "a"]

    def test_singleton_pairs_never_merge(self):
        model = train_bpe({"ab": 1}, _config(TokenizerKind.BPE, 4))
        assert model.merges == []
        assert segment(model, "ab") == ["a", "b"]

    def test_budget_stops_before_any_merge(self):
        model = train_bpe({"ab": 5}, _config(TokenizerKind.BPE, 2))
        assert model.merges == []
        assert model.vocab == ["a", "b"]

    def test_count_ties_break_lexicographically(self):
        model = train_bpe({"ab": 2, "cd": 2}, _config(TokenizerKind.BPE, 6))
        assert model.merges == [("a", "b"), ("c", "d")]

    def test_vocab_budget_below_alphabet_is_rejected(self):
        with pytest.raises(ConfigError):
            train_bpe({"abc": 1}, _config(TokenizerKind.BPE, 2))

    def test_merge_sequence_matches_argmax_oracle(self):
        # Replays training with the independent best-pair oracle and
        # expects the identical merge list.
        for corpus, budget in _oracle_cases(1000):
            alphabet = sorted({ch for word in corpus for ch in word})
            model = train_bpe(corpus, _config(TokenizerKind.BPE, budget))

            seqs = [(list(w), f) for w, f in sorted(corpus.items())]
            vocab = set(alphabet)
            expected = []
            while len(vocab) < budget:
                best = bpe_best_pair(seqs)
                if best is None:
                    break
                pair = best[0]
                expected.append(pair)
                vocab.add(pair[0] + pair[1])
                seqs = [(replay_merge(s, pair), f) for s, f in seqs]
            assert model.merges == expected

    def test_rank_loop_segmentation_equals_ordered_replay(self):
        # The lowest-rank-first loop must agree with applying all merges
        # in learned order.
        for trial in range(15):
            rng = random.Random(2000 + trial)
            corpus = random_corpus(rng, max_types=30)
            alphabet = sorted({ch for word in corpus for ch in word})
            model = train_bpe(
                corpus, _config(TokenizerKind.BPE, len(alphabet) + 10)
            )
            words = list(corpus) + [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
                for _ in range(20)
            ]
            for word in words:
                replayed = list(word)
                for pair in model.merges:
                    replayed = replay_merge(replayed, pair)
                assert segment(model, word) == replayed

    def test_unseen_characters_pass_through_as_singletons(self):
        model = train_bpe({"abab": 3}, _config(TokenizerKind.BPE, 4))
        assert segment(model, "axb") == ["a", "x", "b"]


class TestWordPiece:
    def test_pair_likelihood_prefers_rare_units(self):
        # Counts a=3 b=1 give ("a","a") score 2/9 and ("a","b") score
        # 1/3, so the likelihood criterion merges the rarer pair.
        model = train_wordpiece({"aaab": 1}, _config(TokenizerKind.WORDPIECE, 3))
        assert model.merges == [("a", "b")]
        assert model.vocab == ["a", "ab", "b"]

    def test_marker_decorates_word_internal_tokens_only(self):
        model = train_wordpiece({"aaab": 1}, _config(TokenizerKind.WORDPIECE, 3))
        assert segment(model, "aaab") == ["a", "##a", "##ab"]
        assert segment(model, "ab") == ["ab"]
        assert segment(model, "ba") == ["b", "##a"]

    def test_canonical_subwords_reconstruct_the_word(self):
        model = train_wordpiece({"aaab": 1}, _config(TokenizerKind.WORDPIECE, 3))
        pieces = canonical_subwords(model, segment(model, "aaab"))
        assert pieces == ["a", "a", "ab"]
        assert "".join(pieces) == "aaab"

    def test_unseen_character_yields_unknown_placeholder(self):
        model = train_wordpiece({"aaab": 1}, _config(TokenizerKind.WORDPIECE, 3))
        assert segment(model, "axb") == [UNK]
        with pytest.raises(UncoverableWord):
            canonical_subwords(model, [UNK])

    def test_score_ties_break_lexicographically(self):
        model = train_wordpiece(
            {"ab": 1, "cd": 1}, _config(TokenizerKind.WORDPIECE, 6)
        )
        assert model.merges == [("a", "b"), ("c", "d")]

    def test_merge_sequence_matches_score_oracle(self):
        for corpus, budget in _oracle_cases(3000):
            alphabet = sorted({ch for word in corpus for ch in word})
            model = train_wordpiece(
                corpus, _config(TokenizerKind.WORDPIECE, budget)
            )

            seqs = [(list(w), f) for w, f in sorted(corpus.items())]
            vocab = set(alphabet)
            expected = []
            while len(vocab) < budget:
                best = wordpiece_best_pair(seqs)
                if best is None:
                    break
                pair = best[0]
                expected.append(pair)
                vocab.add(pair[0] + pair[1])
                seqs = [(replay_merge(s, pair), f) for s, f in seqs]
            assert model.merges == expected

    def test_longest_match_is_greedy(self):
        # Vocabulary {a, b, ab, aab} must take "aab" over "a"+"ab".
        model = TokenizerModel(
            kind=TokenizerKind.WORDPIECE,
            vocab=["a", "aab", "ab", "b"],
            continuation_marker="##",
        )
        assert segment(model, "aabab") == ["aab", "##ab"]
        assert segment(model, "baab") == ["b", "##aab"]


class TestUnigram:
    def test_merged_token_takes_all_probability_mass(self):
        model = train_unigram({"aa": 10}, _config(TokenizerKind.UNIGRAM, 3))
        assert model.vocab == ["a", "aa"]
        assert segment(model, "aa") == ["aa"]
        assert model.token_logprob["aa"] == pytest.approx(0.0, abs=1e-12)
        assert model.token_logprob["a"] == pytest.approx(math.log(PROB_FLOOR))

    def test_single_characters_survive_pruning(self):
        for trial in range(10):
            rng = random.Random(4000 + trial)
            corpus = random_corpus(rng, max_types=25)
            alphabet = sorted({ch for word in corpus for ch in word})
            budget = len(alphabet) + rng.randint(0, 4)
            model = train_unigram(corpus, _config(TokenizerKind.UNIGRAM, budget))
            assert set(alphabet) <= set(model.vocab)
            assert len(model.vocab) <= budget

    def test_budget_equal_to_alphabet_prunes_to_characters(self):
        model = train_unigram({"abc": 2}, _config(TokenizerKind.UNIGRAM, 3))
        assert model.vocab == ["a", "b", "c"]
        assert segment(model, "abc") == ["a", "b", "c"]

    def test_viterbi_matches_exhaustive_search(self):
        for trial in range(10):
            rng = random.Random(5000 + trial)
            corpus = random_corpus(rng, max_types=20)
            alphabet = sorted({ch for word in corpus for ch in word})
            model = train_unigram(
                corpus, _config(TokenizerKind.UNIGRAM, len(alphabet) + 6)
            )
            words = list(corpus) + [
                "".join(rng.choice(alphabet + ["z"]) for _ in range(rng.randint(1, 8)))
                for _ in range(10)
            ]
            for word in words:
                tokens = segment(model, word)
                got = sum(
                    model.token_logprob.get(t, OOV_CHAR_LOGPROB) for t in tokens
                )
                want = best_segmentation_logprob(
                    word, model.token_logprob, oov_char_logprob=OOV_CHAR_LOGPROB
                )
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_unseen_character_is_emitted_at_penalty(self):
        model = train_unigram({"aa": 10}, _config(TokenizerKind.UNIGRAM, 3))
        assert segment(model, "ab") == ["a", "b"]
        assert "b" not in model.token_logprob


class TestBaselines:
    def test_character_model_splits_into_characters(self):
        model = train_character({"abc": 2, "cb": 1})
        assert model.kind is TokenizerKind.CHARACTER
        assert model.vocab == ["a", "b", "c"]
        assert segment(model, "abc") == ["a", "b", "c"]
        assert segment(model, "xy") == ["x", "y"]

    def test_gold_lookup_replays_curated_segments(self, czech_dataset):
        model = build_gold_lookup(czech_dataset)
        assert segment(model, "rýžový") == ["rýž", "ov", "ý"]
        assert segment(model, "bázeň") == ["báz", "eň"]
        with pytest.raises(DataError):
            segment(model, "novotvar")

    def test_train_dispatch_rejects_baseline_kinds(self):
        with pytest.raises(ConfigError):
            train({"ab": 2}, _config(TokenizerKind.CHARACTER, 2))
        with pytest.raises(ConfigError):
            train({"ab": 2}, _config(TokenizerKind.GOLD, 2))


class TestValidation:
    def test_train_config_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(kind=TokenizerKind.BPE, vocab_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(
                kind=TokenizerKind.UNIGRAM, vocab_size=5, unigram_seed_vocab_factor=0
            )
        with pytest.raises(ConfigError):
            TrainConfig(
                kind=TokenizerKind.UNIGRAM, vocab_size=5, unigram_prune_fraction=1.0
            )

    def test_empty_corpus_is_rejected(self):
        with pytest.raises(DataError):
            train_bpe({}, _config(TokenizerKind.BPE, 4))

    def test_empty_word_cannot_be_segmented(self):
        model = train_character({"ab": 1})
        with pytest.raises(DataError):
            segment(model, "")


class TestProperties:
    def test_vocabulary_respects_budget_and_covers_training_words(self):
        for trial in range(8):
            rng = random.Random(6000 + trial)
            corpus = random_corpus(rng, max_types=30)
            alphabet = sorted({ch for word in corpus for ch in word})
            budget = len(alphabet) + rng.randint(0, 8)
            for kind in (
                TokenizerKind.BPE,
                TokenizerKind.WORDPIECE,
                TokenizerKind.UNIGRAM,
            ):
                model = train(corpus, _config(kind, budget))
                assert len(model.vocab) <= budget
                for word in corpus:
                    pieces = canonical_subwords(model, segment(model, word))
                    assert "".join(pieces) == word

    def test_retraining_is_byte_identical_regardless_of_input_order(self):
        rng = random.Random(7)
        corpus = random_corpus(rng, max_types=30)
        items = list(corpus.items())
        rng.shuffle(items)
        shuffled = dict(items)
        for kind in (
            TokenizerKind.BPE,
            TokenizerKind.WORDPIECE,
            TokenizerKind.UNIGRAM,
        ):
            alphabet = {ch for word in corpus for ch in word}
            config = _config(kind, len(alphabet) + 6)
            first = model_to_json(train(corpus, config))
            second = model_to_json(train(shuffled, config))
            assert first == second


class TestModelFiles:
    def test_save_load_round_trip(self, tmp_path, czech_dataset):
        rng = random.Random(11)
        corpus = random_corpus(rng, max_types=20)
        alphabet = {ch for word in corpus for ch in word}
        models = [
            train(corpus, _config(kind, len(alphabet) + 4))
            for kind in (
                TokenizerKind.BPE,
                TokenizerKind.WORDPIECE,
                TokenizerKind.UNIGRAM,
            )
        ]
        models.append(train_character(corpus))
        models.append(build_gold_lookup(czech_dataset))
        for i, model in enumerate(models):
            path = tmp_path / f"model-{i}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.kind is model.kind
            assert loaded.vocab == model.vocab
            assert loaded.merges == model.merges
            assert loaded.token_logprob == model.token_logprob
            assert loaded.gold_map == model.gold_map
            assert loaded.continuation_marker == model.continuation_marker
            assert model_to_json(loaded) == model_to_json(model)
            words = list(model.gold_map) or list(corpus)
            for word in words[:5]:
                assert segment(loaded, word) == segment(model, word)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something-else/9"}', encoding="utf-8")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("kind", [TokenizerKind.BPE, TokenizerKind.WORDPIECE])
    def test_load_rejects_merge_whose_join_is_not_in_vocab(self, tmp_path, kind):
        model = train({"abab": 3, "ab": 2}, _config(kind, 4))
        doc = json.loads(model_to_json(model))
        left, right = doc["merges"][-1]
        doc["vocab"].remove(left + right)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="not in the vocabulary"):
            load_model(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("-inf"), 5.0], ids=["nan", "infinite", "positive"]
    )
    def test_load_rejects_invalid_unigram_logprob(self, tmp_path, value):
        model = train({"abab": 3, "ab": 2, "ba": 1}, _config(TokenizerKind.UNIGRAM, 3))
        doc = json.loads(model_to_json(model))
        doc["token_logprob"][0][1] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="log-probability"):
            load_model(path)
