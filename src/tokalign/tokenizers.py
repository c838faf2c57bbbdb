"""Subword tokenizer training and segmentation.

Five model kinds share a single serializable container:

* ``bpe``: greedy merges of the most frequent adjacent symbol pair.
* ``wordpiece``: the same merge loop scored by pair likelihood, with
  greedy longest-match segmentation that falls back to an unknown-token
  placeholder and decorates word-internal tokens with ``##``.
* ``unigram``: a unigram language model fitted with Viterbi EM and
  pruned to the vocabulary budget by removal utility.
* ``character``: split into single characters.
* ``gold``: look up the curated gold segmentation.

Only the trained kinds, the first three, take a vocabulary size, and
only ``gold`` is built from the curated dataset instead of a corpus
(the groups of ``tokalign.choices``).  All else that differs between
kinds is one row each of ``KINDS``: its build and segment functions,
its cut (``truncate_merges`` for the merge kinds), the check
``load_model`` runs on its model files, and which of the fields that
only some kinds use (merges, log-probabilities, the gold map and the
continuation marker) its models set; ``load_model`` rejects the rest
when they are not empty.

BPE and WordPiece share one incremental merge loop, ``_train_merges``.
It keeps pair counts, symbol counts, an index from each pair to the
words holding it and a lazy heap of pair scores.  Each merge rewrites
only the words that hold the merged pair and re-scores only the pairs
it touched, instead of recounting the corpus.  The vocabulary budget
decides only when the loop stops, so a smaller budget's merges are a
prefix of a larger one's: ``truncate_merges`` cuts the smaller model
from the larger, which lets a sweep train each merge kind once.

Each pruning round of the unigram trainer makes two hard EM passes over
the corpus, then one Viterbi pass per word for each multi-character
token on the word's best path.  The trainer slices and looks up each
word's substrings once, into a span lattice: a tuple of ``(end, start,
id)`` triples in the order the segmenter, ``_segment_unigram``, visits
them, with one object per distinct triple across the corpus.  Every
pass walks those tuples with list-indexed log-probabilities.  Token ids
stay fixed, and pruning only drops the removed ids' spans, so later
rounds never slice again.

All training is deterministic: corpora are handled in sorted order and
score ties break lexicographically, so retraining on the same input
yields byte-identical model files.

A model file is rendered from a template, ``_MODEL``, to the bytes
that ``json.dumps(doc, ensure_ascii=False, indent=1)`` writes, since
every sweep writes models.  ``load_model`` checks each value it reads
with ``tokalign.files.json_typed``, the rule the sweep config shares.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import reduce
from json.encoder import encode_basestring
from operator import add
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .choices import TRAINED_KINDS, TokenizerKind
from .corpus import CuratedDataset, normalize
from .errors import ConfigError, DataError, NumericalError, UncoverableWord
from .files import atomic_write, json_arrays, json_typed

UNK = "[UNK]"
WORDPIECE_MARKER = "##"
MAX_SEED_TOKEN_LEN = 20
# Log-probability charged for a single character never seen in training.
OOV_CHAR_LOGPROB = -100.0
PROB_FLOOR = 1e-12
MODEL_SCHEMA = "subword-model/1"
# The unigram seed vocabulary holds at most this many times the budget,
# and a pruning round keeps at most 1 - this share of the tokens.
UNIGRAM_SEED_VOCAB_FACTOR = 4
UNIGRAM_PRUNE_FRACTION = 0.25


@dataclass
class TrainConfig:
    kind: TokenizerKind
    vocab_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")


@dataclass
class TokenizerModel:
    """Trained tokenizer state, treated as immutable once built."""

    kind: TokenizerKind
    vocab: list[str]
    vocab_size: int = 0
    seed: int = 0
    merges: list[tuple[str, str]] = field(default_factory=list)
    token_logprob: dict[str, float] = field(default_factory=dict)
    gold_map: dict[str, list[str]] = field(default_factory=dict)
    continuation_marker: str = ""

    def __post_init__(self) -> None:
        self._vocab_set = set(self.vocab)
        self._max_token_len = max((len(t) for t in self.vocab), default=1)


def word_frequencies(lines: Iterable[str]) -> Counter:
    """Count whitespace-separated words over one-sentence-per-line text."""
    freqs: Counter = Counter()
    for line in lines:
        for word in normalize(line).split():
            freqs[word] += 1
    return freqs


def _sorted_corpus(corpus: Mapping[str, int]) -> list[tuple[str, int]]:
    if not corpus:
        raise DataError("empty training corpus")
    items = []
    for word, freq in sorted(corpus.items()):
        if not word:
            raise DataError("training corpus contains an empty word")
        if freq < 1:
            raise DataError(f"non-positive frequency for {word!r}")
        items.append((word, freq))
    return items


def _check_alphabet_budget(alphabet_size: int, vocab_size: int) -> None:
    if vocab_size < alphabet_size:
        raise ConfigError(
            f"vocab_size {vocab_size} is below the initial symbol count "
            f"{alphabet_size}"
        )


def _merge_sequence(
    symbols: list[str], pair: tuple[str, str], joined: str
) -> list[str]:
    """Replace every non-overlapping left-to-right occurrence of pair."""
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(joined)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _likelihood_key(total: int) -> Callable[[int, int, int], int]:
    """WordPiece's pair key, best first, for a corpus of `total` symbols.

    The key of count(ab) / (count(a) * count(b)) is the negated floor of
    that ratio times ``S = (total**2 + 1)**2``: a plain int, which the
    heap compares in C.  It orders and ties pairs exactly as the ratios
    do.  No count exceeds `total`, so two distinct ratios p/q and r/s
    differ by at least 1/(qs) >= 1/total**4 > 1/S, and their scaled
    floors differ in the same direction; equal ratios give equal keys.
    """
    scale = (total * total + 1) ** 2

    def key(count: int, left_count: int, right_count: int) -> int:
        return -((count * scale) // (left_count * right_count))

    return key


def _frequency_key(count: int, left_count: int, right_count: int) -> int | None:
    # Only pairs seen at least twice (by weighted count) may merge.
    return -count if count >= 2 else None


def _train_merges(
    corpus: Mapping[str, int],
    vocab_size: int,
    score: Callable[[int, int, int], Any],
    scores_symbols: bool,
) -> tuple[list[str], list[tuple[str, str]]]:
    """Shared merge loop; returns the alphabet and the learned merges.

    Each step merges the pair with the smallest ``(key, pair)``, where
    ``score(pair count, left count, right count)`` gives the key, or
    None for a pair that may not merge.  Counts are weighted by word
    frequency, and overlapping occurrences all count: "aaa" holds
    ("a","a") twice.  The loop stops when the vocabulary (alphabet plus
    joined tokens) reaches vocab_size or no pair may merge.

    The loop is incremental, after Sennrich et al. (2016): it keeps the
    pair counts, an index from each pair to the words that hold it, and
    a lazy heap of keys.  A merge of (a, b) rewrites only the words
    indexed under (a, b) and re-scores the pairs whose count changed.
    Symbol counts are kept only for a key that reads them
    (`scores_symbols`; any other is given 0s), and such a merge also
    re-scores every pair that holds a, b or ab, found through an index
    from each symbol to the pairs that hold it.  A heap entry is stale
    once its pair's key has changed and is skipped when popped.

    Nothing here depends on vocab_size except when the loop stops, so
    the merges for a smaller budget are a prefix of those for a larger
    one (see truncate_merges).
    """
    items = _sorted_corpus(corpus)
    words = [list(word) for word, _ in items]
    freqs = [freq for _, freq in items]
    alphabet = sorted({sym for symbols in words for sym in symbols})
    _check_alphabet_budget(len(alphabet), vocab_size)
    pair_counts: Counter = Counter()
    symbol_counts: defaultdict[str, int] = defaultdict(int)
    words_with: dict[tuple[str, str], set[int]] = defaultdict(set)
    pairs_with: dict[str, set[tuple[str, str]]] = defaultdict(set)
    for index, (symbols, freq) in enumerate(zip(words, freqs)):
        for sym in symbols if scores_symbols else ():
            symbol_counts[sym] += freq
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freq
            words_with[pair].add(index)
    for pair in pair_counts if scores_symbols else ():
        pairs_with[pair[0]].add(pair)
        pairs_with[pair[1]].add(pair)

    keys: dict[tuple[str, str], Any] = {}
    heap: list[tuple[Any, tuple[str, str]]] = []

    def rescore(pair: tuple[str, str]) -> None:
        count = pair_counts.get(pair, 0)
        key = None
        if count:
            key = score(count, symbol_counts[pair[0]], symbol_counts[pair[1]])
        if key is None:
            keys.pop(pair, None)
        elif keys.get(pair) != key:
            keys[pair] = key
            heapq.heappush(heap, (key, pair))

    for pair in pair_counts:
        rescore(pair)

    vocab = set(alphabet)
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        while heap and keys.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        _, best = heapq.heappop(heap)
        left, right = best
        joined = left + right
        merges.append(best)
        vocab.add(joined)
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for index in words_with.pop(best):
            symbols = words[index]
            merged = _merge_sequence(symbols, best, joined)
            freq = freqs[index]
            if scores_symbols:
                times = (len(symbols) - len(merged)) * freq
                symbol_counts[left] -= times
                symbol_counts[right] -= times
                symbol_counts[joined] += times
            for pair in zip(symbols, symbols[1:]):
                delta[pair] -= freq
            for pair in zip(merged, merged[1:]):
                delta[pair] += freq
                if joined in pair:
                    words_with[pair].add(index)
                    if scores_symbols:
                        pairs_with[pair[0]].add(pair)
                        pairs_with[pair[1]].add(pair)
            words[index] = merged
        # A pair of a rewritten word may end with the count it had.
        changed = {pair for pair, change in delta.items() if change}
        for pair in changed:
            pair_counts[pair] += delta[pair]
            if not pair_counts[pair]:
                del pair_counts[pair]
        for sym in (left, right, joined) if scores_symbols else ():
            live = {pair for pair in pairs_with[sym] if pair in pair_counts}
            pairs_with[sym] = live
            changed |= live
        for pair in changed:
            rescore(pair)
    return alphabet, merges


def train_bpe(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Learn merges by joining the most frequent adjacent symbol pair.

    Training stops when the vocabulary reaches the budget or no pair
    occurs at least twice (weighted by word frequency).  Count ties
    break on the lexicographically smallest (left, right) pair.
    """
    alphabet, merges = _train_merges(corpus, config.vocab_size, _frequency_key, scores_symbols=False)
    return _merge_model(TokenizerKind.BPE, alphabet, merges, config)


def train_wordpiece(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Merge loop over raw symbols scored by pair likelihood.

    Pairs are ranked by count(pair) / (count(left) * count(right)),
    compared exactly through an integer key (see ``_likelihood_key``),
    so ties are platform independent and break on the lexicographically
    smallest pair.  Any observed pair is eligible, so even singleton
    pairs merge once frequent pairs are exhausted.  The continuation marker
    decorates word-internal tokens at segmentation time only; training
    symbols and the stored vocabulary are marker-free.
    """
    total = sum(len(word) * freq for word, freq in corpus.items())
    score = _likelihood_key(total)
    alphabet, merges = _train_merges(corpus, config.vocab_size, score, scores_symbols=True)
    return _merge_model(TokenizerKind.WORDPIECE, alphabet, merges, config, WORDPIECE_MARKER)


def _merge_model(
    kind: TokenizerKind,
    alphabet: Iterable[str],
    merges: list[tuple[str, str]],
    config: TrainConfig,
    marker: str = "",
) -> TokenizerModel:
    return TokenizerModel(
        kind=kind,
        vocab=sorted(set(alphabet).union(left + right for left, right in merges)),
        vocab_size=config.vocab_size,
        seed=config.seed,
        merges=merges,
        continuation_marker=marker,
    )


def truncate_merges(model: TokenizerModel, config: TrainConfig) -> TokenizerModel:
    """The model ``train(corpus, config)`` gives, cut from a larger budget's.

    ``model`` must be a BPE or WordPiece model trained on the same
    corpus at a budget of at least config.vocab_size.  The merge loop
    depends on the budget only in when it stops, so the smaller
    budget's merges are a prefix of the larger one's.  The prefix ends
    where the trainer would have stopped: where the vocabulary
    (alphabet plus joined tokens) first reaches config.vocab_size.  If
    the larger model ran out of merges first, all of them are kept.
    """
    joins = [left + right for left, right in model.merges]
    alphabet = set(model.vocab).difference(joins)
    _check_alphabet_budget(len(alphabet), config.vocab_size)
    vocab = set(alphabet)
    cut = 0
    while len(vocab) < config.vocab_size and cut < len(joins):
        vocab.add(joins[cut])
        cut += 1
    return _merge_model(
        model.kind, alphabet, model.merges[:cut], config, model.continuation_marker
    )


def _segment_unigram(model: TokenizerModel, word: str) -> list[str]:
    """Best-scoring (Viterbi) segmentation of ``word`` under a unigram model.

    Single characters outside the vocabulary are admitted at
    OOV_CHAR_LOGPROB, which makes coverage total.
    """
    logprob = model.token_logprob
    n = len(word)
    best_score: list[float | None] = [None] * (n + 1)
    back: list[tuple[int, str] | None] = [None] * (n + 1)
    best_score[0] = 0.0
    for end in range(1, n + 1):
        for start in range(max(0, end - model._max_token_len), end):
            prev = best_score[start]
            if prev is None:
                continue
            token = word[start:end]
            lp = logprob.get(token)
            if lp is None:
                if end - start > 1:
                    continue
                lp = OOV_CHAR_LOGPROB
            cand = prev + lp
            if best_score[end] is None or cand > best_score[end]:
                best_score[end] = cand
                back[end] = (start, token)
    tokens: list[str] = []
    pos = n
    while pos > 0:
        start, token = back[pos]
        tokens.append(token)
        pos = start
    tokens.reverse()
    return tokens


def _unigram_seed(
    words: list[tuple[str, int]],
    spans: dict[int, list[tuple[int, int]]],
    config: TrainConfig,
) -> tuple[list[str], dict[str, float]]:
    """Initial vocabulary: all characters plus top-scoring substrings.

    ``spans`` holds each word length's ``(end, start)`` spans up to
    MAX_SEED_TOKEN_LEN characters.  The substring candidates, those of
    two characters or more, are ranked by frequency times length, ties
    by token, and capped so the seed vocabulary holds at most
    UNIGRAM_SEED_VOCAB_FACTOR * vocab_size items.  Scores are normalized
    into the starting unigram distribution.
    """
    counts: defaultdict[str, int] = defaultdict(int)
    for word, freq in words:
        for end, start in spans[len(word)]:
            counts[word[start:end]] += freq
    chars = sorted(t for t in counts if len(t) == 1)
    _check_alphabet_budget(len(chars), config.vocab_size)
    budget = UNIGRAM_SEED_VOCAB_FACTOR * config.vocab_size - len(chars)
    score = {t: c * len(t) for t, c in counts.items()}
    ranked = sorted(t for t in counts if len(t) > 1)
    # Stable, so equal scores keep token order.
    ranked.sort(key=score.__getitem__, reverse=True)
    scores = {t: float(score[t]) for t in chars + ranked[: max(budget, 0)]}
    # Left to right: the builtin `sum` of floats compensates from Python 3.12.
    total = reduce(add, scores.values(), 0.0)
    return chars, {t: math.log(scores[t] / total) for t in sorted(scores)}


def _unigram_em_round(
    words: list[tuple[str, int]],
    lattices: list[tuple[tuple[int, int, int], ...]],
    logprob: list[float],
) -> tuple[list[float], list[tuple[list[int], float]]]:
    """Two iterations of hard EM: Viterbi-count tokens, renormalize.

    Works on token ids: ``logprob`` and the returned table are indexed
    like the ids in ``lattices``.  Also returns each word's best path and
    score from the last iteration, taken under the table that iteration
    started from.  Tokens with zero count keep a floor probability so
    every vocabulary item stays usable by the segmenter.  The corpus
    negative log likelihood must not increase between iterations at
    fixed vocabulary.
    """
    floor = math.log(PROB_FLOOR)
    paths: list[tuple[list[int], float]] = []
    prev_nll: float | None = None
    for _ in range(2):
        counts = [0] * len(logprob)
        nll = 0.0
        paths = []
        for (word, freq), lattice in zip(words, lattices):
            n = len(word)
            # -inf marks an unreached position: it never wins the strict
            # `>`, so the walk skips what `_segment_unigram` skips.
            best = [-math.inf] * (n + 1)
            best[0] = 0.0
            back: list[Any] = [None] * (n + 1)
            for span in lattice:
                end, start, token_id = span
                cand = best[start] + logprob[token_id]
                if cand > best[end]:
                    best[end] = cand
                    back[end] = span
            lp = best[n]
            if lp == -math.inf:
                raise NumericalError(f"vocabulary no longer covers {word!r}")
            path = []
            while n:
                _, n, token_id = back[n]
                path.append(token_id)
                counts[token_id] += freq
            paths.append((path, lp))
            nll -= freq * lp
        if prev_nll is not None and nll > prev_nll + 1e-9 * max(1.0, abs(prev_nll)):
            raise NumericalError(
                f"unigram EM loss increased from {prev_nll} to {nll}"
            )
        prev_nll = nll
        total = sum(counts)
        if total <= 0:
            raise NumericalError("unigram EM produced an empty segmentation count")
        logprob = [math.log(c / total) if c else floor for c in counts]
    return logprob, paths


def train_unigram(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Fit a unigram language model and prune it to the budget.

    Each round re-estimates probabilities with two hard EM iterations,
    then removes the multi-character tokens whose removal would increase
    the Viterbi corpus loss the least, keeping at least
    vocab_size and at most (1 - UNIGRAM_PRUNE_FRACTION) of the current
    vocabulary.  Single characters are never pruned, so segmentation
    stays total over the training alphabet.

    Spans up to MAX_SEED_TOKEN_LEN characters are enumerated once per
    word length, end ascending and then start ascending as
    ``_segment_unigram`` visits them.  The seed counts its substrings
    over them, and each word's lattice keeps the in-vocabulary ones as
    interned ``(end, start, id)`` triples.  Ids follow sorted seed-token
    order and stay fixed: a removal re-run sets the banned token's
    log-probability to -inf for its walk, and pruning drops the removed
    ids' spans from each lattice.  The candidates, their order and the
    strict ``>`` tie rule are those of ``_segment_unigram``, so the
    models are the ones a per-call Viterbi gives.
    """
    words = _sorted_corpus(corpus)
    spans: dict[int, list[tuple[int, int]]] = {}
    for word, _ in words:
        n = len(word)
        if n not in spans:
            spans[n] = [
                (end, start)
                for end in range(1, n + 1)
                for start in range(max(0, end - MAX_SEED_TOKEN_LEN), end)
            ]
    chars, seed_logprob = _unigram_seed(words, spans, config)
    tokens = sorted(seed_logprob)
    logprob = [seed_logprob[t] for t in tokens]
    ids = {token: i for i, token in enumerate(tokens)}
    interned: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    lattices = []
    for word, _ in words:
        lattice = []
        for end, start in spans[len(word)]:
            token_id = ids.get(word[start:end])
            if token_id is not None:
                span = (end, start, token_id)
                lattice.append(interned.setdefault(span, span))
        lattices.append(tuple(lattice))
    live = list(range(len(tokens)))
    while len(live) > config.vocab_size:
        logprob, paths = _unigram_em_round(words, lattices, logprob)
        # Only multi-character tokens compete; characters always stay.
        utility = {i: 0.0 for i in live if len(tokens[i]) > 1}
        for (word, freq), lattice, (path, lp) in zip(words, lattices, paths):
            for banned in set(path):
                if banned not in utility:
                    continue
                saved = logprob[banned]
                logprob[banned] = -math.inf
                best = [-math.inf] * (len(word) + 1)
                best[0] = 0.0
                for end, start, token_id in lattice:
                    cand = best[start] + logprob[token_id]
                    if cand > best[end]:
                        best[end] = cand
                logprob[banned] = saved
                if best[-1] == -math.inf:
                    # Only this token covers some stretch of the word.
                    utility[banned] = math.inf
                else:
                    utility[banned] += freq * (lp - best[-1])
        target = max(
            config.vocab_size,
            int(len(live) * (1.0 - UNIGRAM_PRUNE_FRACTION)),
        )
        keep = target - len(chars)
        # Ids ascend in `utility` and follow sorted token order, and the
        # sort is stable, so ties break like tokens.
        ranked = sorted(utility, key=utility.__getitem__, reverse=True)
        pruned = set(ranked[max(keep, 0):])
        live = [i for i in live if i not in pruned]
        lattices = [
            tuple([span for span in lattice if span[2] not in pruned])
            for lattice in lattices
        ]
    logprob, _ = _unigram_em_round(words, lattices, logprob)
    return TokenizerModel(
        kind=TokenizerKind.UNIGRAM,
        vocab=[tokens[i] for i in live],
        vocab_size=config.vocab_size,
        seed=config.seed,
        token_logprob={tokens[i]: logprob[i] for i in live},
    )


def train_character(corpus: Mapping[str, int]) -> TokenizerModel:
    """Baseline that splits every word into single characters."""
    words = _sorted_corpus(corpus)
    vocab = sorted({ch for word, _ in words for ch in word})
    return TokenizerModel(kind=TokenizerKind.CHARACTER, vocab=vocab)


def build_gold_lookup(dataset: CuratedDataset) -> TokenizerModel:
    """Baseline that replays the curated gold segmentation."""
    gold_map: dict[str, list[str]] = {}
    for entry in dataset.entries:
        gold_map.setdefault(entry.form, list(entry.gold_segments))
    vocab = sorted({seg for segs in gold_map.values() for seg in segs})
    return TokenizerModel(kind=TokenizerKind.GOLD, vocab=vocab, gold_map=gold_map)


def _segment_bpe(model: TokenizerModel, word: str) -> list[str]:
    # Applying the lowest-ranked applicable merge first is equivalent to
    # replaying all merges in learned order, because a merge can only
    # create adjacencies for pairs learned later.
    ranks = getattr(model, "_merge_ranks", None)
    if ranks is None:
        ranks = {pair: i for i, pair in enumerate(model.merges)}
        model._merge_ranks = ranks
    symbols = list(word)
    while len(symbols) > 1:
        best_rank: int | None = None
        best_pair: tuple[str, str] | None = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        symbols = _merge_sequence(symbols, best_pair, best_pair[0] + best_pair[1])
    return symbols


def _segment_wordpiece(model: TokenizerModel, word: str) -> list[str]:
    marker = model.continuation_marker
    tokens: list[str] = []
    pos = 0
    n = len(word)
    while pos < n:
        matched = None
        for stop in range(min(n, pos + model._max_token_len), pos, -1):
            candidate = word[pos:stop]
            if candidate in model._vocab_set:
                matched = (candidate, stop)
                break
        if matched is None:
            return [UNK]
        tokens.append(matched[0] if pos == 0 else marker + matched[0])
        pos = matched[1]
    return tokens


def _segment_gold(model: TokenizerModel, word: str) -> list[str]:
    segs = model.gold_map.get(word)
    if segs is None:
        raise DataError(f"form {word!r} is not in the gold lookup table")
    return list(segs)


def _check_merges(model: TokenizerModel, path: str | Path) -> None:
    for left, right in model.merges:
        if left + right not in model._vocab_set:
            raise DataError(
                f"model file {path} has merge ({left!r}, {right!r}) "
                "whose join is not in the vocabulary"
            )


def _check_unigram(model: TokenizerModel, path: str | Path) -> None:
    if model.token_logprob.keys() != model._vocab_set:
        raise DataError(
            f"model file {path}: the vocabulary is not the set of tokens with a log-probability"
        )


def _check_gold(model: TokenizerModel, path: str | Path) -> None:
    for form, segs in model.gold_map.items():
        if not segs or not all(segs):
            raise DataError(f"model file {path}: empty gold segment for form {form!r}")
        if "".join(segs) != form:
            raise DataError(
                f"model file {path}: gold segments {segs!r} do not concatenate "
                f"to form {form!r}"
            )


class Kind(NamedTuple):
    """One row of ``KINDS``: what differs between tokenizer kinds beyond their groups."""

    build: Callable[..., TokenizerModel]  # (corpus or curated dataset[, TrainConfig])
    segment: Callable[[TokenizerModel, str], list[str]]
    cut: Callable[[TokenizerModel, TrainConfig], TokenizerModel] | None = None
    check: Callable[[TokenizerModel, str | Path], None] | None = None  # on load
    uses: tuple[str, ...] = ()  # the fields of `_KIND_FIELDS` its models set


# The model fields that only some kinds use; `load_model` requires the
# others to be empty, since `canonical_subwords` strips any marker.
_KIND_FIELDS = ("merges", "token_logprob", "gold_map", "continuation_marker")


KINDS: dict[TokenizerKind, Kind] = {
    TokenizerKind.BPE: Kind(
        train_bpe, _segment_bpe, cut=truncate_merges, check=_check_merges, uses=("merges",)
    ),
    TokenizerKind.WORDPIECE: Kind(
        train_wordpiece, _segment_wordpiece, cut=truncate_merges, check=_check_merges,
        uses=("merges", "continuation_marker"),
    ),
    TokenizerKind.UNIGRAM: Kind(
        train_unigram, _segment_unigram, check=_check_unigram, uses=("token_logprob",)
    ),
    TokenizerKind.CHARACTER: Kind(train_character, lambda model, word: list(word)),
    TokenizerKind.GOLD: Kind(
        build_gold_lookup, _segment_gold, check=_check_gold, uses=("gold_map",)
    ),
}


def train(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Train config.kind's model on the corpus; only a trained kind trains."""
    if config.kind not in TRAINED_KINDS:
        raise ConfigError(f"kind {config.kind.value!r} is not trainable from a corpus")
    return KINDS[config.kind].build(corpus, config)


def segment(model: TokenizerModel, word: str) -> list[str]:
    """Split one word into subword tokens under the model's strategy.

    WordPiece may return ``[UNK]`` for uncoverable words; the gold
    baseline raises for forms outside its lookup table.  Every other
    kind covers any word whose characters it has seen, with the unigram
    model extending coverage to unseen characters at a fixed penalty.
    """
    if not word:
        raise DataError("cannot segment an empty word")
    return KINDS[model.kind].segment(model, word)


def canonical_subwords(model: TokenizerModel, tokens: list[str]) -> list[str]:
    """Strip continuation markers so tokens concatenate to the word.

    Raises UncoverableWord when the unknown-token placeholder is
    present, because such output no longer corresponds to the surface
    string.
    """
    if UNK in tokens:
        raise UncoverableWord("unknown-token placeholder in segmentation")
    # Only word-internal tokens are decorated, so only those are stripped.
    return tokens[:1] + [t.removeprefix(model.continuation_marker) for t in tokens[1:]]


# The text `model_to_json` fills in: `_json_array` renders each array,
# and `_PAIR` each item of `merges`, `token_logprob` and `gold_map`.
_MODEL = (
    '{\n "schema": %s,\n "kind": %s,\n "vocab_size": %s,\n "seed": %s,\n'
    ' "continuation_marker": %s,\n "vocab": %s,\n "merges": %s,\n'
    ' "token_logprob": %s,\n "gold_map": %s\n}\n'
)
_PAIR = "[\n   %s,\n   %s\n  ]"
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_array(items: Iterable[str], depth: int) -> str:
    """A JSON array of rendered `items`, nested `depth` levels deep.

    Laid out as ``json.dumps(..., indent=1)`` lays it out: one item a
    line, indented one space deeper than the brackets.
    """
    inner = "\n" + " " * (depth + 1)
    body = ("," + inner).join(items)
    return f"[{inner}{body}\n{' ' * depth}]" if body else "[]"


def _json_floats(values: list[float]) -> list[str]:
    """Each float as `json` writes it: its repr, or NaN, Infinity or -Infinity."""
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def model_to_json(model: TokenizerModel) -> str:
    """Canonical JSON rendering; equal models serialize byte-identically.

    The bytes are ``json.dumps(doc, ensure_ascii=False, indent=1) + "\\n"``
    of the document in `_MODEL`, rendered by hand because every sweep
    writes models: the `json` module's indented output runs in Python,
    not in its C encoder, and took about three times as long on the
    benchmark's models.
    """
    enc = encode_basestring
    tokens = sorted(model.token_logprob)
    logprobs = _json_floats([model.token_logprob[token] for token in tokens])
    forms = sorted(model.gold_map)
    segments = [_json_array(map(enc, model.gold_map[form]), 3) for form in forms]
    return _MODEL % (
        enc(MODEL_SCHEMA),
        enc(model.kind.value),
        int.__repr__(model.vocab_size),
        int.__repr__(model.seed),
        enc(model.continuation_marker),
        _json_array(map(enc, sorted(model.vocab)), 1),
        _json_array([_PAIR % (enc(left), enc(right)) for left, right in model.merges], 1),
        _json_array(map(_PAIR.__mod__, zip(map(enc, tokens), logprobs)), 1),
        _json_array(map(_PAIR.__mod__, zip(map(enc, forms), segments)), 1),
    )


def save_model(model: TokenizerModel, path: str | Path) -> None:
    atomic_write(Path(path), model_to_json(model))


def load_model(path: str | Path) -> TokenizerModel:
    """Read a model file; a malformed one, or one its kind's check rejects, is a DataError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
        raise DataError(f"model file {path} has an unrecognized schema")
    try:
        kind = TokenizerKind(doc["kind"])
        model = TokenizerModel(
            kind=kind,
            vocab=[json_typed(token, str) for token in json_typed(doc["vocab"], list)],
            vocab_size=json_typed(doc["vocab_size"], int),
            seed=json_typed(doc["seed"], int),
            merges=[
                (json_typed(left, str), json_typed(right, str))
                for left, right in json_arrays(doc["merges"])
            ],
            token_logprob={
                json_typed(t, str): json_typed(lp, float)
                for t, lp in json_arrays(doc["token_logprob"])
            },
            gold_map={
                json_typed(form, str): [json_typed(seg, str) for seg in json_typed(segs, list)]
                for form, segs in json_arrays(doc["gold_map"])
            },
            continuation_marker=json_typed(doc["continuation_marker"], str),
        )
        if model.vocab_size < 0:
            raise ValueError(f"vocab_size {model.vocab_size} is negative")
        for name in _KIND_FIELDS:
            if name not in KINDS[kind].uses and getattr(model, name):
                raise ValueError(f"a {kind.value} model sets {name}, which it does not use")
        kept = {"vocab": model._vocab_set, "token_logprob": model.token_logprob,
                "gold_map": model.gold_map}
        for name, tokens in kept.items():
            if len(tokens) < len(doc[name]):
                raise ValueError(f"{name} lists a token twice")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc
    check = KINDS[kind].check
    if check is not None:
        check(model, path)
    for token, lp in model.token_logprob.items():
        # Written this way round, the comparison also rejects NaN.
        if not -math.inf < lp <= 0.0:
            raise DataError(
                f"model file {path}: log-probability {lp!r} of {token!r} "
                "is not a finite value at most 0"
            )
    return model
