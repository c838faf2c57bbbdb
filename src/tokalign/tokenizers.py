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

BPE and WordPiece share one incremental merge loop, ``_train_merges``.
It keeps pair counts, symbol counts, an index from each pair to the
words holding it and a lazy heap of pair scores.  Each merge rewrites
only the words that hold the merged pair and re-scores only the pairs
it touched, instead of recounting the corpus.  The vocabulary budget
decides only when the loop stops, so a smaller budget's merges are a
prefix of a larger one's: ``truncate_merges`` cuts the smaller model
from the larger, which lets a sweep train each merge kind once.

All training is deterministic: corpora are handled in sorted order and
score ties break lexicographically, so retraining on the same input
yields byte-identical model files.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .corpus import CuratedDataset, normalize
from .errors import ConfigError, DataError, NumericalError, UncoverableWord

UNK = "[UNK]"
WORDPIECE_MARKER = "##"
MAX_SEED_TOKEN_LEN = 20
# Log-probability charged for a single character never seen in training.
OOV_CHAR_LOGPROB = -100.0
PROB_FLOOR = 1e-12
MODEL_SCHEMA = "subword-model/1"


class TokenizerKind(Enum):
    BPE = "bpe"
    WORDPIECE = "wordpiece"
    UNIGRAM = "unigram"
    CHARACTER = "character"
    GOLD = "gold"


TRAINED_KINDS = (TokenizerKind.BPE, TokenizerKind.WORDPIECE, TokenizerKind.UNIGRAM)
MERGE_KINDS = (TokenizerKind.BPE, TokenizerKind.WORDPIECE)


@dataclass
class TrainConfig:
    kind: TokenizerKind
    vocab_size: int
    seed: int = 0
    unigram_seed_vocab_factor: int = 4
    unigram_prune_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.unigram_seed_vocab_factor < 1:
            raise ConfigError("unigram_seed_vocab_factor must be at least 1")
        if not 0.0 < self.unigram_prune_fraction < 1.0:
            raise ConfigError("unigram_prune_fraction must be in (0, 1)")


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


class _Likelihood:
    """Pair likelihood count(ab) / (count(a) * count(b)), best first.

    Compared exactly by integer cross-multiplication, so the order is
    platform independent and equal ratios tie.
    """

    __slots__ = ("count", "denominator")

    def __init__(self, count: int, left_count: int, right_count: int) -> None:
        self.count = count
        self.denominator = left_count * right_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Likelihood):
            return NotImplemented
        return self.count * other.denominator == other.count * self.denominator

    def __lt__(self, other: _Likelihood) -> bool:
        return self.count * other.denominator > other.count * self.denominator


def _frequency_key(count: int, left_count: int, right_count: int) -> int | None:
    # Only pairs seen at least twice (by weighted count) may merge.
    return -count if count >= 2 else None


def _train_merges(
    corpus: Mapping[str, int],
    vocab_size: int,
    score: Callable[[int, int, int], Any],
) -> tuple[list[str], list[tuple[str, str]]]:
    """Shared merge loop; returns the alphabet and the learned merges.

    Each step merges the pair with the smallest ``(key, pair)``, where
    ``score(pair count, left count, right count)`` gives the key, or
    None for a pair that may not merge.  Counts are weighted by word
    frequency, and overlapping occurrences all count: "aaa" holds
    ("a","a") twice.  The loop stops when the vocabulary (alphabet plus
    joined tokens) reaches vocab_size or no pair may merge.

    The loop is incremental, after Sennrich et al. (2016): it keeps the
    pair and symbol counts, an index from each pair to the words that
    hold it and from each symbol to the pairs that hold it, and a lazy
    heap of keys.  A merge of (a, b) rewrites only the words indexed
    under (a, b).  It then re-scores the pairs whose count changed and
    every pair that holds a, b or ab, whose symbol counts changed.  A
    heap entry is stale once its pair's key has changed and is skipped
    when popped.

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
    symbol_counts: Counter = Counter()
    words_with: dict[tuple[str, str], set[int]] = defaultdict(set)
    pairs_with: dict[str, set[tuple[str, str]]] = defaultdict(set)
    for index, (symbols, freq) in enumerate(zip(words, freqs)):
        for sym in symbols:
            symbol_counts[sym] += freq
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += freq
            words_with[pair].add(index)
    for pair in pair_counts:
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
        changed: set[tuple[str, str]] = set()
        for index in words_with.pop(best):
            symbols = words[index]
            merged = _merge_sequence(symbols, best, joined)
            freq = freqs[index]
            times = len(symbols) - len(merged)
            symbol_counts[left] -= times * freq
            symbol_counts[right] -= times * freq
            symbol_counts[joined] += times * freq
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] -= freq
                changed.add(pair)
            for pair in zip(merged, merged[1:]):
                pair_counts[pair] += freq
                changed.add(pair)
                if joined in pair:
                    words_with[pair].add(index)
                    pairs_with[pair[0]].add(pair)
                    pairs_with[pair[1]].add(pair)
            words[index] = merged
        for pair in changed:
            if not pair_counts[pair]:
                del pair_counts[pair]
        for sym in (left, right, joined):
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
    alphabet, merges = _train_merges(corpus, config.vocab_size, _frequency_key)
    return _merge_model(TokenizerKind.BPE, alphabet, merges, config)


def _strip_marker(token: str, marker: str) -> str:
    if marker and token.startswith(marker):
        return token[len(marker):]
    return token


def train_wordpiece(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Merge loop over raw symbols scored by pair likelihood.

    Pairs are ranked by count(pair) / (count(left) * count(right)),
    compared exactly by integer cross-multiplication so ties are
    platform independent and break on the lexicographically smallest
    pair.  Any observed pair is eligible, so even singleton pairs merge
    once frequent pairs are exhausted.  The continuation marker
    decorates word-internal tokens at segmentation time only; training
    symbols and the stored vocabulary are marker-free.
    """
    alphabet, merges = _train_merges(corpus, config.vocab_size, _Likelihood)
    return _merge_model(TokenizerKind.WORDPIECE, alphabet, merges, config)


def _merge_model(
    kind: TokenizerKind,
    alphabet: Iterable[str],
    merges: list[tuple[str, str]],
    config: TrainConfig,
) -> TokenizerModel:
    return TokenizerModel(
        kind=kind,
        vocab=sorted(set(alphabet).union(left + right for left, right in merges)),
        vocab_size=config.vocab_size,
        seed=config.seed,
        merges=merges,
        continuation_marker=WORDPIECE_MARKER if kind is TokenizerKind.WORDPIECE else "",
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
    return _merge_model(model.kind, alphabet, model.merges[:cut], config)


def _viterbi(
    word: str,
    logprob: Mapping[str, float],
    max_token_len: int,
    banned: str | None = None,
    oov_char_logprob: float | None = None,
) -> tuple[list[str], float] | None:
    """Best-scoring segmentation of ``word`` under a unigram model.

    Returns None when no segmentation covers the word.  With
    ``oov_char_logprob`` set, single characters outside the vocabulary
    are admitted at that penalty, which makes coverage total.
    """
    n = len(word)
    best_score: list[float | None] = [None] * (n + 1)
    back: list[tuple[int, str] | None] = [None] * (n + 1)
    best_score[0] = 0.0
    for end in range(1, n + 1):
        for start in range(max(0, end - max_token_len), end):
            prev = best_score[start]
            if prev is None:
                continue
            token = word[start:end]
            if banned is not None and token == banned:
                continue
            lp = logprob.get(token)
            if lp is None:
                if oov_char_logprob is not None and end - start == 1:
                    lp = oov_char_logprob
                else:
                    continue
            cand = prev + lp
            if best_score[end] is None or cand > best_score[end]:
                best_score[end] = cand
                back[end] = (start, token)
    if best_score[n] is None:
        return None
    tokens: list[str] = []
    pos = n
    while pos > 0:
        start, token = back[pos]
        tokens.append(token)
        pos = start
    tokens.reverse()
    return tokens, best_score[n]


def _unigram_seed(
    words: list[tuple[str, int]], config: TrainConfig
) -> tuple[list[str], dict[str, float]]:
    """Initial vocabulary: all characters plus top-scoring substrings.

    Substring candidates up to MAX_SEED_TOKEN_LEN characters are ranked
    by frequency times length and capped so the seed vocabulary holds at
    most unigram_seed_vocab_factor * vocab_size items.  Scores are
    normalized into the starting unigram distribution.
    """
    char_counts: Counter = Counter()
    substr_counts: Counter = Counter()
    for word, freq in words:
        for ch in word:
            char_counts[ch] += freq
        n = len(word)
        for i in range(n):
            top = min(n, i + MAX_SEED_TOKEN_LEN)
            for j in range(i + 2, top + 1):
                substr_counts[word[i:j]] += freq
    chars = sorted(char_counts)
    _check_alphabet_budget(len(chars), config.vocab_size)
    budget = config.unigram_seed_vocab_factor * config.vocab_size - len(chars)
    ranked = sorted(
        substr_counts.items(), key=lambda kv: (-kv[1] * len(kv[0]), kv[0])
    )
    seeds = [token for token, _ in ranked[: max(budget, 0)]]
    scores: dict[str, float] = {}
    for ch in chars:
        scores[ch] = float(char_counts[ch])
    for token in seeds:
        scores[token] = float(substr_counts[token] * len(token))
    total = sum(scores.values())
    logprob = {t: math.log(scores[t] / total) for t in sorted(scores)}
    return chars, logprob


def _unigram_em_round(
    words: list[tuple[str, int]],
    vocab: set[str],
    logprob: dict[str, float],
    iterations: int = 2,
) -> tuple[dict[str, float], dict[str, tuple[list[str], float]]]:
    """Hard EM: Viterbi-count tokens, renormalize, repeat.

    Tokens with zero count keep a floor probability so every vocabulary
    item stays usable by the segmenter.  The corpus negative log
    likelihood must not increase between iterations at fixed vocabulary.
    """
    max_len = max(len(t) for t in vocab)
    seg_cache: dict[str, tuple[list[str], float]] = {}
    prev_nll: float | None = None
    for _ in range(iterations):
        counts: Counter = Counter()
        nll = 0.0
        seg_cache = {}
        for word, freq in words:
            result = _viterbi(word, logprob, max_len)
            if result is None:
                raise NumericalError(f"vocabulary no longer covers {word!r}")
            tokens, lp = result
            seg_cache[word] = (tokens, lp)
            nll -= freq * lp
            for token in tokens:
                counts[token] += freq
        if prev_nll is not None and nll > prev_nll + 1e-9 * max(1.0, abs(prev_nll)):
            raise NumericalError(
                f"unigram EM loss increased from {prev_nll} to {nll}"
            )
        prev_nll = nll
        total = sum(counts.values())
        if total <= 0:
            raise NumericalError("unigram EM produced an empty segmentation count")
        logprob = {}
        for token in sorted(vocab):
            c = counts.get(token, 0)
            p = c / total if c else PROB_FLOOR
            logprob[token] = math.log(p)
    return logprob, seg_cache


def train_unigram(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Fit a unigram language model and prune it to the budget.

    Each round re-estimates probabilities with two hard EM iterations,
    then removes the multi-character tokens whose removal would increase
    the Viterbi corpus loss the least, keeping at least
    vocab_size and at most (1 - prune_fraction) of the current
    vocabulary.  Single characters are never pruned, so segmentation
    stays total over the training alphabet.
    """
    words = _sorted_corpus(corpus)
    chars, logprob = _unigram_seed(words, config)
    vocab = set(logprob)
    char_set = set(chars)
    while len(vocab) > config.vocab_size:
        logprob, segs = _unigram_em_round(words, vocab, logprob)
        max_len = max(len(t) for t in vocab)
        utility: dict[str, float] = {}
        for token in vocab:
            if token not in char_set:
                utility[token] = 0.0
        for word, freq in words:
            tokens, lp = segs[word]
            for token in set(tokens):
                if token in char_set:
                    continue
                alt = _viterbi(word, logprob, max_len, banned=token)
                if alt is None:
                    # Only this token covers some stretch of the word.
                    utility[token] = math.inf
                else:
                    utility[token] += freq * (lp - alt[1])
        target = max(
            config.vocab_size,
            int(len(vocab) * (1.0 - config.unigram_prune_fraction)),
        )
        keep = target - len(char_set)
        survivors = sorted(utility, key=lambda t: (-utility[t], t))[: max(keep, 0)]
        vocab = char_set | set(survivors)
        logprob = {t: lp for t, lp in logprob.items() if t in vocab}
    logprob, _ = _unigram_em_round(words, vocab, logprob)
    return TokenizerModel(
        kind=TokenizerKind.UNIGRAM,
        vocab=sorted(vocab),
        vocab_size=config.vocab_size,
        seed=config.seed,
        token_logprob=logprob,
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


def train(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Dispatch to the trainer for config.kind."""
    if config.kind is TokenizerKind.BPE:
        return train_bpe(corpus, config)
    if config.kind is TokenizerKind.WORDPIECE:
        return train_wordpiece(corpus, config)
    if config.kind is TokenizerKind.UNIGRAM:
        return train_unigram(corpus, config)
    raise ConfigError(f"kind {config.kind.value!r} is not trainable from a corpus")


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


def _segment_unigram(model: TokenizerModel, word: str) -> list[str]:
    result = _viterbi(
        word,
        model.token_logprob,
        model._max_token_len,
        oov_char_logprob=OOV_CHAR_LOGPROB,
    )
    return result[0]


def segment(model: TokenizerModel, word: str) -> list[str]:
    """Split one word into subword tokens under the model's strategy.

    WordPiece may return ``[UNK]`` for uncoverable words; the gold
    baseline raises for forms outside its lookup table.  Every other
    kind covers any word whose characters it has seen, with the unigram
    model extending coverage to unseen characters at a fixed penalty.
    """
    if not word:
        raise DataError("cannot segment an empty word")
    if model.kind is TokenizerKind.CHARACTER:
        return list(word)
    if model.kind is TokenizerKind.GOLD:
        segs = model.gold_map.get(word)
        if segs is None:
            raise DataError(f"form {word!r} is not in the gold lookup table")
        return list(segs)
    if model.kind is TokenizerKind.BPE:
        return _segment_bpe(model, word)
    if model.kind is TokenizerKind.WORDPIECE:
        return _segment_wordpiece(model, word)
    if model.kind is TokenizerKind.UNIGRAM:
        return _segment_unigram(model, word)
    raise ConfigError(f"unknown tokenizer kind {model.kind!r}")


def canonical_subwords(model: TokenizerModel, tokens: list[str]) -> list[str]:
    """Strip continuation markers so tokens concatenate to the word.

    Raises UncoverableWord when the unknown-token placeholder is
    present, because such output no longer corresponds to the surface
    string.
    """
    if UNK in tokens:
        raise UncoverableWord("unknown-token placeholder in segmentation")
    marker = model.continuation_marker
    if not marker or not tokens:
        return list(tokens)
    # Only word-internal tokens are decorated, so only those are stripped.
    return [tokens[0]] + [_strip_marker(t, marker) for t in tokens[1:]]


def model_to_json(model: TokenizerModel) -> str:
    """Canonical JSON rendering; equal models serialize byte-identically."""
    doc = {
        "schema": MODEL_SCHEMA,
        "kind": model.kind.value,
        "vocab_size": model.vocab_size,
        "seed": model.seed,
        "continuation_marker": model.continuation_marker,
        "vocab": sorted(model.vocab),
        "merges": [[left, right] for left, right in model.merges],
        "token_logprob": [
            [token, model.token_logprob[token]]
            for token in sorted(model.token_logprob)
        ],
        "gold_map": [
            [form, model.gold_map[form]] for form in sorted(model.gold_map)
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


def save_model(model: TokenizerModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> TokenizerModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != MODEL_SCHEMA:
        raise DataError(f"model file {path} has an unrecognized schema")
    try:
        kind = TokenizerKind(doc["kind"])
        model = TokenizerModel(
            kind=kind,
            vocab=list(doc["vocab"]),
            vocab_size=int(doc["vocab_size"]),
            seed=int(doc["seed"]),
            merges=[(left, right) for left, right in doc["merges"]],
            token_logprob={t: float(lp) for t, lp in doc["token_logprob"]},
            gold_map={form: list(segs) for form, segs in doc["gold_map"]},
            continuation_marker=str(doc["continuation_marker"]),
        )
        if kind in MERGE_KINDS:
            for left, right in model.merges:
                if left + right not in model._vocab_set:
                    raise DataError(
                        f"model file {path} has merge ({left!r}, {right!r}) "
                        "whose join is not in the vocabulary"
                    )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc}") from exc
    for token, lp in model.token_logprob.items():
        # Written this way round, the comparison also rejects NaN.
        if not -math.inf < lp <= 0.0:
            raise DataError(
                f"model file {path}: log-probability {lp!r} of {token!r} "
                "is not a finite value at most 0"
            )
    return model
