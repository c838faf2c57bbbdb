"""Property tests: one-pass routes equal their one-at-a-time definitions.

The grid scorer must give every (aggregation, threshold) value bit for
bit what scoring that configuration alone gives, and what the per-slot
scorer it replaced gives.  EM over interned link ids, folded or not, must
give bit for bit the floats of a chain of single epochs of the
dict-of-dict EM it replaced, and a permutation of the pairs may change a
trained table only by the rounding of reordered sums.  The unigram
trainer's span lattice must give byte for byte the model of one Viterbi
call per word.  Every tokenizer kind must segment a training word into
subwords that concatenate back to the word.  Training keeps rows
normalized after every epoch and never loses likelihood, and rank
correlation agrees with scipy on series with ties.
WordPiece's integer pair key orders and ties pairs exactly as the
cross-multiplied ratio it replaced.  The model and table writers render
byte for byte what `json.dumps(doc, ensure_ascii=False, indent=1)`
renders, for any strings and floats; a saved model loads back equal, and
a saved table holds what the writer renders.  Curation writes byte for
byte, and counts exactly, what a row-by-row reading of the two lexicons
gives, and the curated file reads back as the dataset.
"""

import io
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Likelihood,
    alignment_reference,
    alignment_scores_reference,
    corpus_loglik_reference,
    curate_reference,
    em_epoch_reference,
    em_reference,
    model_json_reference,
    spearman_reference,
    table_json_reference,
    train_ibm1_reference,
    uniform_init_reference,
    unigram_reference,
)
from tokalign.corpus import (
    CuratedDataset,
    FeatureMode,
    WordEntry,
    curate,
    parse_feature_lexicon,
    parse_segmentation_lexicon,
    read_curated,
    write_curated,
)
from tokalign.errors import DataError, TokalignError, UncoverableWord
from tokalign.ibm1 import (
    NULL_TOKEN,
    ParallelPair,
    TranslationTable,
    build_parallel_corpus,
    save_table,
    table_to_json,
    train_ibm1,
)
from tokalign.metrics import (
    Aggregation,
    ScoreConfig,
    alignment_score_from_pairs,
    alignment_scores,
)
from tokalign import tokenizers
from tokalign.choices import TRAINED_KINDS
from tokalign.stats import MIN_POINTS, spearman
from tokalign.synth import SynthConfig, build_language
from tokalign.tokenizers import (
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
    _likelihood_key,
    train_character,
    train_unigram,
    word_frequencies,
)

SUBWORDS = ("a", "b", "c", "d", "e")
FEATURES = ("V", "W", "X", "Y", "Z")
# Probabilities and thresholds share values, so strict ">" ties occur.
LEVELS = (0.0, 0.01, 0.059, 0.25, 0.5, 0.75, 0.9999)

probabilities = st.one_of(
    st.sampled_from(LEVELS + (1.0,)),
    st.floats(min_value=0.0, max_value=1.0),
)
thresholds = st.one_of(
    st.sampled_from(LEVELS),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)


@st.composite
def scoring_cases(draw):
    # Rows for a subset of the subwords; the rest are missing from the
    # table and score zero.
    probs = {
        s: draw(st.dictionaries(st.sampled_from(FEATURES), probabilities, max_size=5))
        for s in draw(st.sets(st.sampled_from(SUBWORDS + (NULL_TOKEN,))))
    }
    include_null = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        source = tuple(draw(st.lists(st.sampled_from(SUBWORDS), min_size=1, max_size=4)))
        if include_null:
            source += (NULL_TOKEN,)
        target = tuple(draw(st.lists(st.sampled_from(FEATURES), min_size=1, max_size=4)))
        pairs.append(ParallelPair(source, target))
    table = TranslationTable(
        probs=probs,
        source_vocab=sorted(probs),
        target_vocab=list(FEATURES),
        epochs_trained=1,
    )
    aggregations = draw(st.lists(st.sampled_from(list(Aggregation)), min_size=1, max_size=7))
    # Unsorted, possibly repeated, and often holding 0.0.
    levels = draw(st.lists(thresholds, min_size=1, max_size=12))
    return table, pairs, aggregations, levels


@settings(max_examples=200, deadline=None)
@given(scoring_cases())
def test_grid_scores_equal_one_configuration_at_a_time(case):
    table, pairs, aggregations, levels = case
    grid = alignment_scores(table, pairs, aggregations, levels)
    assert set(grid) == {(a, t) for a in aggregations for t in levels}
    assert alignment_scores(table, pairs, aggregations, []) == {}
    assert alignment_scores(table, pairs, [], levels) == {}
    items = [
        ([s for s in pair.source if s != NULL_TOKEN], list(pair.target))
        for pair in pairs
    ]
    for aggregation in aggregations:
        for threshold in levels:
            config = ScoreConfig(aggregation, threshold)
            got = grid[aggregation, threshold]
            assert repr(got) == repr(alignment_score_from_pairs(table, pairs, config))
            want = alignment_reference(table.probs, items, aggregation.value, threshold)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_memoized_grid_scores_equal_the_per_slot_scorer_bit_for_bit(case):
    table, pairs, aggregations, levels = case
    got = alignment_scores(table, pairs, aggregations, levels)
    want = alignment_scores_reference(table, pairs, aggregations, levels)
    assert {key: repr(value) for key, value in got.items()} == {
        key: repr(value) for key, value in want.items()
    }


parallel_pairs = st.lists(
    st.builds(
        ParallelPair,
        st.lists(st.sampled_from(SUBWORDS), min_size=1, max_size=4).map(tuple),
        st.lists(st.sampled_from(FEATURES), min_size=1, max_size=4).map(tuple),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(parallel_pairs, st.integers(min_value=1, max_value=8))
def test_folded_training_equals_an_epoch_chain(pairs, epochs):
    table = train_ibm1(pairs, epochs=epochs)
    probs = uniform_init_reference(pairs)
    trajectory = []
    for _ in range(epochs):
        probs, loglik = em_epoch_reference(pairs, probs)
        trajectory.append(loglik)
    assert table.probs == probs
    assert [repr(x) for x in table.loglik_trajectory] == [repr(x) for x in trajectory]
    assert table.final_loglik == corpus_loglik_reference(pairs, probs)
    # The oracle divides by the source length where training multiplies
    # by its inverse, and it sums each row in sorted rather than first-seen
    # order, so it agrees to rounding, not to the bit.
    want_probs, want_trajectory = em_reference(
        [(p.source, p.target) for p in pairs], epochs
    )
    assert table.loglik_trajectory == pytest.approx(want_trajectory, rel=1e-12, abs=1e-10)
    for s, row in want_probs.items():
        for t, p in row.items():
            assert table.probs[s].get(t, 0.0) == pytest.approx(p, abs=1e-10)


# Rows lose at most the sub-floor entries maximization drops, far below
# this.
ROW_SUM_TOLERANCE = 1e-6


@settings(max_examples=100, deadline=None)
@given(parallel_pairs, st.integers(min_value=1, max_value=8))
def test_epoch_chain_keeps_rows_normalized_and_never_loses_likelihood(pairs, epochs):
    previous = corpus_loglik_reference(pairs, uniform_init_reference(pairs))
    for k in range(1, epochs + 1):
        table = train_ibm1(pairs, epochs=k)
        for row in table.probs.values():
            assert abs(sum(row.values()) - 1.0) <= ROW_SUM_TOLERANCE
    for loglik in table.loglik_trajectory:
        # EM cannot lower the likelihood; rounding and the probability
        # floor may, by far less than this relative tolerance.
        assert loglik >= previous - 1e-9 * max(1.0, abs(previous))
        previous = loglik


def _bits(value):
    """Floats as their repr, so that equal means equal to the bit."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


@st.composite
def em_cases(draw):
    # Three subwords and three features, so that pairs often repeat one;
    # the null token joins some source sides or every one of them.
    sources = st.sampled_from(SUBWORDS[:3] + (NULL_TOKEN,))
    include_null = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        source = tuple(draw(st.lists(sources, min_size=1, max_size=5)))
        if include_null:
            source += (NULL_TOKEN,)
        target = tuple(draw(st.lists(st.sampled_from(FEATURES[:3]), min_size=1, max_size=4)))
        pairs.append(ParallelPair(source, target))
    return pairs, draw(st.integers(min_value=1, max_value=8))


@settings(max_examples=300, deadline=None)
@given(em_cases())
def test_link_em_equals_the_dict_reference_bit_for_bit(case):
    pairs, epochs = case
    trained = train_ibm1(pairs, epochs=epochs)
    assert _bits((trained.probs, trained.loglik_trajectory)) == _bits(
        train_ibm1_reference(pairs, epochs)
    )


# Reordering the pairs reorders every sum of expected counts.  Over
# 20,000 random corpora of this shape the largest change seen was 4.4e-16
# in a probability and 8.3e-16, relative, in a log likelihood; 1e-12 on
# both leaves that rounding three orders of magnitude and still fails a
# real dependence on pair order.
PERMUTATION_TOLERANCE = 1e-12


@settings(max_examples=100, deadline=None)
@given(
    parallel_pairs.flatmap(lambda pairs: st.tuples(st.just(pairs), st.permutations(pairs))),
    st.integers(min_value=1, max_value=8),
)
def test_pair_order_changes_training_only_by_reassociation(case, epochs):
    pairs, permuted = case
    first = train_ibm1(pairs, epochs=epochs)
    second = train_ibm1(permuted, epochs=epochs)
    assert second.source_vocab == first.source_vocab
    assert second.target_vocab == first.target_vocab
    assert second.loglik_trajectory == pytest.approx(
        first.loglik_trajectory, rel=PERMUTATION_TOLERANCE
    )
    for s in first.source_vocab:
        for t in first.target_vocab:
            assert second.probs[s].get(t, 0.0) == pytest.approx(
                first.probs[s].get(t, 0.0), abs=PERMUTATION_TOLERANCE
            )


# Few distinct values, so most drawn series hold ties.
rank_values = st.one_of(
    st.sampled_from((0.0, 1.0, 2.0, 2.5, -3.0)),
    st.floats(min_value=-1e6, max_value=1e6),
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=MIN_POINTS, max_value=15).flatmap(
        lambda n: st.tuples(
            st.lists(rank_values, min_size=n, max_size=n),
            st.lists(rank_values, min_size=n, max_size=n),
        )
    )
)
def test_spearman_equals_scipy_on_series_with_ties(series):
    xs, ys = series
    if min(xs) == max(xs) or min(ys) == max(ys):
        with pytest.raises(DataError):
            spearman(xs, ys)
        return
    assert spearman(xs, ys) == pytest.approx(spearman_reference(xs, ys), abs=1e-12)


def _unigram_outcome(trainer, corpus, config):
    try:
        return model_to_json(trainer(corpus, config))
    except TokalignError as exc:
        return type(exc), str(exc)


@st.composite
def unigram_cases(draw):
    corpus = draw(
        st.dictionaries(
            # Longer than the smallest caps drawn below, so the cap binds.
            st.text(alphabet="abcd", min_size=1, max_size=12),
            st.integers(min_value=1, max_value=9),
            max_size=20,
        )
    )
    alphabet = len({ch for word in corpus for ch in word})
    # From one below the alphabet, which both trainers reject.
    budget = alphabet - 1 + draw(st.integers(min_value=0, max_value=30))
    config = TrainConfig(kind=TokenizerKind.UNIGRAM, vocab_size=max(1, budget))
    factor = draw(st.integers(min_value=1, max_value=6))
    # Bounded away from 0: where 1 - fraction rounds to 1, a round
    # removes no token and training never ends.
    fraction = draw(st.floats(min_value=0.01, max_value=0.99))
    max_len = draw(
        st.integers(min_value=2, max_value=6)
        | st.just(tokenizers.MAX_SEED_TOKEN_LEN)
    )
    return corpus, config, factor, fraction, max_len


@settings(max_examples=200, deadline=None)
@given(unigram_cases())
def test_lattice_unigram_training_equals_per_call_viterbi(case):
    corpus, config, factor, fraction, max_len = case
    # Patched here: hypothesis runs every example in one test call, so a
    # function-scoped fixture could not vary them.
    with (
        mock.patch.object(tokenizers, "UNIGRAM_SEED_VOCAB_FACTOR", factor),
        mock.patch.object(tokenizers, "UNIGRAM_PRUNE_FRACTION", fraction),
        mock.patch.object(tokenizers, "MAX_SEED_TOKEN_LEN", max_len),
    ):
        got = _unigram_outcome(train_unigram, corpus, config)
        assert got == _unigram_outcome(unigram_reference, corpus, config)


@st.composite
def training_cases(draw):
    words = draw(
        st.dictionaries(
            st.text(alphabet="abcde", min_size=1, max_size=8),
            st.integers(min_value=1, max_value=9),
            min_size=1,
            max_size=20,
        )
    )
    # Gold segments: each word cut at a drawn set of inner positions.
    gold = {}
    for word in words:
        inner = st.integers(min_value=1, max_value=max(1, len(word) - 1))
        cuts = sorted(draw(st.sets(inner))) if len(word) > 1 else []
        bounds = [0, *cuts, len(word)]
        gold[word] = tuple(word[i:j] for i, j in zip(bounds, bounds[1:]))
    extra = draw(st.integers(min_value=0, max_value=20))
    return words, gold, extra


@settings(max_examples=60, deadline=None)
@given(training_cases())
def test_canonical_subwords_concatenate_to_the_word(case):
    words, gold, extra = case
    alphabet = len({ch for word in words for ch in word})
    models = [
        train(words, TrainConfig(kind=kind, vocab_size=alphabet + extra))
        for kind in (TokenizerKind.BPE, TokenizerKind.WORDPIECE, TokenizerKind.UNIGRAM)
    ]
    models.append(train_character(words))
    models.append(
        build_gold_lookup(
            CuratedDataset([WordEntry(w, segs, ("X",)) for w, segs in gold.items()])
        )
    )
    assert {m.kind for m in models} == set(TokenizerKind)
    for model in models:
        for word in words:
            try:
                subwords = canonical_subwords(model, segment(model, word))
            except UncoverableWord:
                # A WordPiece [UNK] stands for the word, not its spelling.
                continue
            assert "".join(subwords) == word, (model.kind, word, subwords)


@st.composite
def likelihood_cases(draw):
    """A symbol total and two (pair, left, right) count triples within it.

    The second triple is often the first scaled, so that equal ratios
    from different counts, the ties that matter, are drawn often.
    """
    total = draw(st.one_of(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=10**12),
    ))
    count = st.integers(min_value=1, max_value=total)
    first = (draw(count), draw(count), draw(count))
    factor = draw(st.integers(min_value=1, max_value=4))
    scaled = (first[0] * factor, first[1] * factor, first[2])
    if draw(st.booleans()) and max(scaled) <= total:
        second = scaled
    else:
        second = (draw(count), draw(count), draw(count))
    return total, first, second


@settings(max_examples=500, deadline=None)
@given(likelihood_cases())
def test_integer_likelihood_key_orders_and_ties_like_the_ratio(case):
    total, first, second = case
    key = _likelihood_key(total)
    assert (key(*first) < key(*second)) == (Likelihood(*first) < Likelihood(*second))
    assert (key(*first) == key(*second)) == (Likelihood(*first) == Likelihood(*second))


# Characters `json` escapes (quote, backslash, control characters) or
# writes as they are (DEL, U+2028, non-ASCII), among any others, and the
# empty string.
json_text = st.text(
    st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u2028é語'), st.characters()), max_size=4
)
json_float = st.one_of(st.sampled_from((5e-324, 1e-12, 1.0, -0.0)), st.floats())


@st.composite
def any_models(draw):
    """A model of any kind with any strings and floats, empty lists among them."""
    return TokenizerModel(
        kind=draw(st.sampled_from(TokenizerKind)),
        vocab=draw(st.lists(json_text, max_size=5)),
        vocab_size=draw(st.integers(min_value=0)),
        seed=draw(st.integers()),
        merges=draw(st.lists(st.tuples(json_text, json_text), max_size=3)),
        token_logprob=draw(st.dictionaries(json_text, json_float, max_size=3)),
        gold_map=draw(st.dictionaries(json_text, st.lists(json_text, max_size=3), max_size=3)),
        continuation_marker=draw(json_text),
    )


@st.composite
def any_tables(draw):
    """A table with any strings and floats, empty rows and lists among them."""
    row = st.dictionaries(json_text, json_float, max_size=3)
    return TranslationTable(
        probs=draw(st.dictionaries(json_text, row, max_size=3)),
        source_vocab=draw(st.lists(json_text, max_size=3)),
        target_vocab=draw(st.lists(json_text, max_size=3)),
        epochs_trained=draw(st.integers(min_value=0)),
        loglik_trajectory=draw(st.lists(json_float, max_size=3)),
    )


@settings(max_examples=300, deadline=None)
@given(any_models())
def test_model_writer_renders_what_json_renders(model):
    assert model_to_json(model) == model_json_reference(model)


@settings(max_examples=300, deadline=None)
@given(any_tables())
def test_table_writer_renders_what_json_renders(table):
    assert table_to_json(table) == table_json_reference(table)


def _synth_models():
    """A trained model of every kind on a small synthetic language, and its dataset."""
    language = build_language(
        SynthConfig(noun_stems=20, verb_stems=20, sentences=200, words_per_sentence=6)
    )
    features, _ = parse_feature_lexicon(
        f"{stem}\t{form}\t{';'.join(bundle)}" for form, stem, _suffix, bundle in language.lexicon
    )
    segmentations, _ = parse_segmentation_lexicon(
        f"{form}\t{stem}|{suffix}" for form, stem, suffix, _bundle in language.lexicon
    )
    dataset, _ = curate(segmentations, features, language="syn")
    freqs = dict(word_frequencies(language.sentences))
    models = [train(freqs, TrainConfig(kind, 60)) for kind in TRAINED_KINDS]
    return models + [train_character(freqs), build_gold_lookup(dataset)], dataset


def test_saved_models_and_tables_of_every_kind_render_and_load_back_equal(tmp_path):
    models, dataset = _synth_models()
    assert {model.kind for model in models} == set(TokenizerKind)
    for model in models:
        assert model_to_json(model) == model_json_reference(model), model.kind
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json") == model, model.kind
        pairs, _ = build_parallel_corpus(dataset, model, FeatureMode.SPLIT)
        table = train_ibm1(pairs, epochs=3)
        assert table_to_json(table) == table_json_reference(table), model.kind
        save_table(table, tmp_path / "table.json")
        assert (tmp_path / "table.json").read_text(encoding="utf-8") == table_to_json(table)


# A decomposed `á` and a lone combining accent, so that some fields are
# not NFC and some segments only spell their form once normalized.
_FORM_PIECES = st.sampled_from(["a", "b", "\u00e1", "a\u0301", "\u0301", "#", " "])
_ATOMS = st.sampled_from(["N", "SG", "PL", ""])


@st.composite
def lexicon_cases(draw):
    """Feature and segmentation lexicon lines with every kind of row the parsers skip."""
    feature_rows, segmentation_rows = [], []
    for pieces in draw(st.lists(st.lists(_FORM_PIECES, max_size=4), max_size=8)):
        form = "".join(pieces)
        segments, segment = [], ""
        for piece in pieces:
            segment += piece
            if draw(st.booleans()):
                segments.append(segment)
                segment = ""
        segments.append(segment)  # empty if the last piece ended a segment
        field = draw(st.sampled_from(["|".join(segments), "|".join(segments) + "b", ""]))
        spelled = draw(st.sampled_from([form, unicodedata.normalize("NFD", form), f" {form} "]))
        segmentation_rows += draw(st.sampled_from([
            [f"{spelled}\t{field}"], [spelled], [f"{spelled}\t{field}\textra"],
            [f"{spelled}\t{field}", f"{spelled}\t{form}"],  # a duplicate form
        ]))
        bundle = ";".join(draw(st.lists(_ATOMS, max_size=3)))
        feature_rows += draw(st.sampled_from([
            [f"l\t{form}\t{bundle}"], [f"l\t{form}"], [f"l\t{form}\t{bundle}\tx"],
            [f"l\t{form}\t{bundle}", f"m\t{form}\tN"],  # a second analysis
        ]))

    def lines(rows):
        comments = draw(st.lists(st.sampled_from(["# note", " # x: y", "# language: zz"]),
                                 max_size=2))
        blanks = st.sampled_from(["", " ", "\t"])
        body = [line for row in rows for line in [row, *draw(st.lists(blanks, max_size=1))]]
        end = draw(st.sampled_from(["\n", "\r\n"]))
        return [line + end for line in comments + body]

    return lines(feature_rows), lines(segmentation_rows)


@settings(max_examples=300, deadline=None)
@given(lexicon_cases())
def test_curation_writes_and_counts_what_the_row_by_row_reference_does(case):
    feature_lines, segmentation_lines = case
    text, feature_counts, segmentation_counts, join_counts = curate_reference(
        feature_lines, segmentation_lines, "xx"
    )
    features, feature_stats = parse_feature_lexicon(feature_lines)
    segmentations, segmentation_stats = parse_segmentation_lexicon(segmentation_lines)
    assert vars(feature_stats) == feature_counts
    assert vars(segmentation_stats) == segmentation_counts
    for stats, counts in ((feature_stats, feature_counts),
                          (segmentation_stats, segmentation_counts)):
        assert stats.skipped == counts["read"] - counts["kept"]
    if text is None:
        with pytest.raises(DataError, match="the join is empty"):
            curate(segmentations, features, language="xx")
        return
    dataset, join_stats = curate(segmentations, features, language="xx")
    assert vars(join_stats) == join_counts
    buffer = io.StringIO()
    write_curated(dataset, buffer)
    assert buffer.getvalue() == text
    loaded = read_curated(io.StringIO(text))
    assert loaded == dataset
    # Entries built unchecked still pass the checks of a direct build.
    assert [WordEntry(e.form, e.gold_segments, e.features) for e in loaded] == loaded.entries
