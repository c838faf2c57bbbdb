"""Property tests: one-pass routes equal their one-at-a-time definitions.

The grid scorer must give every (aggregation, threshold) value bit for
bit what scoring that configuration alone gives, and folded EM training
must give bit for bit what a chain of single epochs gives.  Every
tokenizer kind must segment a training word into subwords that
concatenate back to the word.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import alignment_reference, em_reference
from tokalign.corpus import CuratedDataset, WordEntry
from tokalign.errors import UncoverableWord
from tokalign.ibm1 import (
    NULL_TOKEN,
    ParallelPair,
    TranslationTable,
    corpus_loglik,
    em_epoch,
    train_ibm1,
    uniform_init,
)
from tokalign.metrics import (
    Aggregation,
    ScoreConfig,
    alignment_score_from_pairs,
    alignment_scores,
)
from tokalign.tokenizers import (
    TokenizerKind,
    TrainConfig,
    build_gold_lookup,
    canonical_subwords,
    segment,
    train,
    train_character,
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
    probs = uniform_init(pairs)
    trajectory = []
    for _ in range(epochs):
        probs, loglik = em_epoch(pairs, probs)
        trajectory.append(loglik)
    assert table.probs == probs
    assert [repr(x) for x in table.loglik_trajectory] == [repr(x) for x in trajectory]
    assert table.final_loglik == corpus_loglik(pairs, probs)
    # The oracle divides by the source length where training multiplies
    # by its inverse, and it sums each row in sorted rather than first-seen
    # order, so it agrees to rounding, not to the bit.
    want_probs, want_trajectory = em_reference(
        [(p.source, p.target) for p in pairs], epochs
    )
    assert table.loglik_trajectory == pytest.approx(want_trajectory, rel=1e-12, abs=1e-10)
    for s, row in want_probs.items():
        for t, p in row.items():
            assert table.lookup(s, t) == pytest.approx(p, abs=1e-10)


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
