"""Independent reference implementations used as test oracles.

Each oracle favors directness over efficiency and is written separately
from the package code: tests compare the two routes numerically instead
of asserting that an implementation agrees with itself.  scipy appears
only here, as a second opinion on rank statistics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import unicodedata
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from tokalign import tokenizers
from tokalign.errors import ConfigError, DataError, NumericalError
from tokalign.ibm1 import NULL_TOKEN, TABLE_SCHEMA, ParallelPair, TranslationTable
from tokalign.ibm1 import PROB_FLOOR as IBM1_PROB_FLOOR
from tokalign.metrics import _AGGREGATE, Aggregation, check_threshold
from tokalign.tokenizers import (
    MODEL_SCHEMA,
    PROB_FLOOR,
    TokenizerKind,
    TokenizerModel,
    TrainConfig,
    _sorted_corpus,
)


def em_reference(
    pairs: list[tuple[tuple[str, ...], tuple[str, ...]]], epochs: int
) -> tuple[dict[str, dict[str, float]], list[float]]:
    """Plain EM for the lexical alignment model.

    Starts uniform over each source token's co-occurring targets, then
    alternates count collection and per-row renormalization.  The log
    likelihood recorded for an epoch is evaluated under that epoch's
    updated table.
    """
    cooc: dict[str, set[str]] = {}
    for source, target in pairs:
        for s in source:
            cooc.setdefault(s, set()).update(target)
    probs = {
        s: {t: 1.0 / len(targets) for t in sorted(targets)}
        for s, targets in cooc.items()
    }
    trajectory: list[float] = []
    for _ in range(epochs):
        counts = {s: {t: 0.0 for t in row} for s, row in probs.items()}
        for source, target in pairs:
            for t in target:
                z = sum(probs[s][t] for s in source)
                for s in source:
                    counts[s][t] += probs[s][t] / z
        probs = {}
        for s, row in counts.items():
            total = sum(row.values())
            probs[s] = {t: c / total for t, c in row.items()}
        loglik = 0.0
        for source, target in pairs:
            for t in target:
                mass = sum(probs[s].get(t, 0.0) for s in source)
                loglik += math.log(mass / len(source))
        trajectory.append(loglik)
    return probs, trajectory


AGGREGATIONS = ("sum", "log", "mean", "min", "max")


def alignment_reference(
    probs: dict[str, dict[str, float]],
    items: list[tuple[list[str], list[str]]],
    aggregation: str,
    threshold: float,
) -> float:
    """Direct evaluation of the score definition.

    items holds (subwords, feature tokens) per word.  For each subword
    the probabilities of the word's feature tokens that exceed the
    threshold are aggregated; an empty survivor list scores zero.  Word
    scores average the subword values and the corpus score averages the
    word values.
    """
    word_scores = []
    for subwords, features in items:
        subword_values = []
        for s in subwords:
            values = [probs.get(s, {}).get(f, 0.0) for f in features]
            values = [v for v in values if v > threshold]
            if not values:
                subword_values.append(0.0)
            elif aggregation == "sum":
                subword_values.append(sum(values))
            elif aggregation == "log":
                subword_values.append(sum(math.log(v) for v in values))
            elif aggregation == "mean":
                subword_values.append(sum(values) / len(values))
            elif aggregation == "min":
                subword_values.append(min(values))
            elif aggregation == "max":
                subword_values.append(max(values))
            else:
                raise ValueError(aggregation)
        word_scores.append(sum(subword_values) / len(subword_values))
    return sum(word_scores) / len(word_scores)


# The grid scorer before score vectors were memoized: one Python loop
# per slot and per occurrence.  It pins the floats of the memoized
# scorer bit for bit, since the one-configuration route runs the same
# code as the grid and cannot catch a defect the two share.
def _add_subword_scores(
    sums: list[float],
    row: dict[str, float],
    features: Sequence[str],
    levels: Sequence[float],
    aggregates: Sequence,
) -> None:
    """Add one subword's score under every (level, aggregation) to sums.

    ``levels`` are distinct thresholds in ascending order; ``sums`` is
    laid out level-major, one slot per aggregate.  The probabilities are
    looked up once.  Each level's survivors are filtered from the
    previous level's, which keeps them in feature order, and they are
    aggregated again only when a level drops one of them.  An empty
    survivor list scores 0.0 under every aggregation, and no sum here is
    ever -0.0, so adding that 0.0 is skipped without changing a bit.
    """
    level = levels[0]
    surviving = []
    for feature in features:
        p = row.get(feature, 0.0)
        if p > level:
            surviving.append(p)
    slot = 0
    k = 1
    while surviving:
        values = [aggregate(surviving) for aggregate in aggregates]
        lowest = min(surviving)
        # Levels below the lowest survivor keep the same survivors.
        while True:
            for value in values:
                sums[slot] += value
                slot += 1
            if k == len(levels):
                return
            level = levels[k]
            k += 1
            if level >= lowest:
                break
        surviving = [p for p in surviving if p > level]


def alignment_scores_reference(
    table: TranslationTable,
    pairs: Sequence[ParallelPair],
    aggregations: Sequence[Aggregation],
    thresholds: Sequence[float],
) -> dict[tuple[Aggregation, float], float]:
    """Mean word score over prepared pairs for every aggregation × threshold.

    The score of a word is the mean of its subword scores.  One pass
    over the pairs scores the whole grid; each value equals
    :func:`alignment_score_from_pairs` under that configuration, bit for
    bit.  Thresholds may repeat or come in any order.  The null token
    never enters scoring; it exists only to absorb probability mass
    during training.
    """
    if not pairs:
        raise DataError("no scorable entries")
    for threshold in thresholds:
        check_threshold(threshold)
    levels = sorted(set(thresholds))
    kinds = list(dict.fromkeys(aggregations))
    aggregates = [_AGGREGATE[kind] for kind in kinds]
    size = len(levels) * len(kinds)
    if not size:
        return {}
    totals = [0.0] * size
    probs = table.probs
    for pair in pairs:
        subwords = [s for s in pair.source if s != NULL_TOKEN]
        if not subwords:
            raise DataError("word with no subwords")
        word = [0.0] * size
        for subword in subwords:
            row = probs.get(subword)
            if row is not None:
                _add_subword_scores(word, row, pair.target, levels, aggregates)
        n = len(subwords)
        for i in range(size):
            totals[i] += word[i] / n
    slot = {
        (kind, level): i * len(kinds) + j
        for i, level in enumerate(levels)
        for j, kind in enumerate(kinds)
    }
    return {
        (kind, threshold): totals[slot[kind, threshold]] / len(pairs)
        for kind in aggregations
        for threshold in thresholds
    }


def bpe_best_pair(
    seqs: list[tuple[list[str], int]]
) -> tuple[tuple[str, str], int] | None:
    """Most frequent adjacent pair with weighted count at least 2.

    Ties keep the lexicographically smallest pair.  Overlapping
    occurrences each count once.
    """
    counts: dict[tuple[str, str], int] = {}
    for symbols, freq in seqs:
        for i in range(len(symbols) - 1):
            pair = (symbols[i], symbols[i + 1])
            counts[pair] = counts.get(pair, 0) + freq
    best = None
    for pair in sorted(counts):
        count = counts[pair]
        if count >= 2 and (best is None or count > best[1]):
            best = (pair, count)
    return best


def wordpiece_best_pair(
    seqs: list[tuple[list[str], int]]
) -> tuple[tuple[str, str], Fraction] | None:
    """Highest pair likelihood count(ab) / (count(a) * count(b)).

    Every observed pair qualifies; ties keep the lexicographically
    smallest pair.  Scores are exact fractions.
    """
    pair_counts: dict[tuple[str, str], int] = {}
    unit_counts: dict[str, int] = {}
    for symbols, freq in seqs:
        for sym in symbols:
            unit_counts[sym] = unit_counts.get(sym, 0) + freq
        for i in range(len(symbols) - 1):
            pair = (symbols[i], symbols[i + 1])
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
    best = None
    for pair in sorted(pair_counts):
        count = pair_counts[pair]
        score = Fraction(count, unit_counts[pair[0]] * unit_counts[pair[1]])
        if best is None or score > best[1]:
            best = (pair, score)
    return best


class Likelihood:
    """Pair likelihood count(ab) / (count(a) * count(b)), best first.

    Compared exactly by integer cross-multiplication, so equal ratios
    tie.  This was WordPiece's heap key before the integer key
    ``tokenizers._likelihood_key``, which must order and tie as it does.
    """

    __slots__ = ("count", "denominator")

    def __init__(self, count: int, left_count: int, right_count: int) -> None:
        self.count = count
        self.denominator = left_count * right_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Likelihood):
            return NotImplemented
        return self.count * other.denominator == other.count * self.denominator

    def __lt__(self, other: Likelihood) -> bool:
        return self.count * other.denominator > other.count * self.denominator


def replay_merge(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """Left-to-right non-overlapping replacement of one pair."""
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if (
            i + 1 < len(symbols)
            and symbols[i] == pair[0]
            and symbols[i + 1] == pair[1]
        ):
            out.append(pair[0] + pair[1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def all_segmentations(word: str) -> list[list[str]]:
    """Every split of a word into non-empty contiguous pieces."""
    if not word:
        return []
    result = []
    for bits in itertools.product((0, 1), repeat=len(word) - 1):
        pieces = []
        start = 0
        for position, bit in enumerate(bits, start=1):
            if bit:
                pieces.append(word[start:position])
                start = position
        pieces.append(word[start:])
        result.append(pieces)
    return result


def best_segmentation_logprob(
    word: str,
    logprob: dict[str, float],
    oov_char_logprob: float | None = None,
) -> float | None:
    """Exhaustive maximum of total log probability over all splits."""
    best = None
    for pieces in all_segmentations(word):
        total = 0.0
        usable = True
        for piece in pieces:
            if piece in logprob:
                total += logprob[piece]
            elif oov_char_logprob is not None and len(piece) == 1:
                total += oov_char_logprob
            else:
                usable = False
                break
        if usable and (best is None or total > best):
            best = total
    return best


def spearman_reference(xs: list[float], ys: list[float]) -> float:
    """Rank correlation via scipy, as an external second opinion."""
    from scipy import stats as scipy_stats

    result = scipy_stats.spearmanr(xs, ys)
    return float(result.statistic)


def ranks_reference(values: list[float]) -> list[float]:
    from scipy import stats as scipy_stats

    return [float(r) for r in scipy_stats.rankdata(values)]


# Reference unigram trainer: one dictionary-driven Viterbi call per word
# for each EM iteration and for each banned token, slicing and hashing
# every substring each time.  tokenizers.train_unigram walks a per-round
# span lattice instead and must give byte-identical models.  The seed
# vocabulary comes from the package: both routes start from it.


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
    most UNIGRAM_SEED_VOCAB_FACTOR * vocab_size items.  Scores are
    normalized into the starting unigram distribution.  Both constants
    are read when called, so that a test can patch them.
    """
    max_len = tokenizers.MAX_SEED_TOKEN_LEN
    char_counts: Counter = Counter()
    substr_counts: Counter = Counter()
    for word, freq in words:
        for ch in word:
            char_counts[ch] += freq
        n = len(word)
        for i in range(n):
            for j in range(i + 2, min(n, i + max_len) + 1):
                substr_counts[word[i:j]] += freq
    chars = sorted(char_counts)
    if config.vocab_size < len(chars):
        raise ConfigError(
            f"vocab_size {config.vocab_size} is below the initial symbol count "
            f"{len(chars)}"
        )
    budget = tokenizers.UNIGRAM_SEED_VOCAB_FACTOR * config.vocab_size - len(chars)
    ranked = sorted(
        substr_counts.items(), key=lambda kv: (-kv[1] * len(kv[0]), kv[0])
    )
    scores: dict[str, float] = {ch: float(char_counts[ch]) for ch in chars}
    for token, count in ranked[: max(budget, 0)]:
        scores[token] = float(count * len(token))
    # Left to right, as the package adds: Python 3.12's `sum` compensates.
    total = functools.reduce(operator.add, scores.values(), 0.0)
    return chars, {t: math.log(scores[t] / total) for t in sorted(scores)}


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


def unigram_reference(corpus: Mapping[str, int], config: TrainConfig) -> TokenizerModel:
    """Fit a unigram language model and prune it to the budget.

    Each round re-estimates probabilities with two hard EM iterations,
    then removes the multi-character tokens whose removal would increase
    the Viterbi corpus loss the least, keeping at least
    vocab_size and at most (1 - UNIGRAM_PRUNE_FRACTION) of the current
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
            # Read when called, so that a test can patch it.
            int(len(vocab) * (1.0 - tokenizers.UNIGRAM_PRUNE_FRACTION)),
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


# Reference IBM-1 EM over dict-of-dict tables.  ibm1 trains over interned
# link ids and flat lists instead and must give the same floats, bit for
# bit, and the same errors.  The bodies below are the package's dict code
# as it stood before the link layout replaced it.

Probs = dict[str, dict[str, float]]


def uniform_init_reference(pairs: Sequence[ParallelPair]) -> Probs:
    """Uniform rows over each source token's co-occurring target tokens."""
    if not pairs:
        raise DataError("cannot initialize from an empty parallel corpus")
    cooc: dict[str, set[str]] = {}
    order: dict[str, list[str]] = {}
    for pair in pairs:
        for s in pair.source:
            seen = cooc.setdefault(s, set())
            kept = order.setdefault(s, [])
            for t in pair.target:
                if t not in seen:
                    seen.add(t)
                    kept.append(t)
    probs: Probs = {}
    for s, targets in order.items():
        p = 1.0 / len(targets)
        probs[s] = {t: p for t in targets}
    return probs


def _expectation(
    pairs: Sequence[ParallelPair], probs: Probs, with_loglik: bool
) -> tuple[dict[str, dict[str, float]], float]:
    """Expected counts, plus the corpus log likelihood under ``probs``."""
    counts: dict[str, dict[str, float]] = {}
    loglik = 0.0
    empty: dict[str, float] = {}
    for pair in pairs:
        rows = [(s, probs.get(s, empty)) for s in pair.source]
        inv_len = 1.0 / len(rows)
        for t in pair.target:
            denom = 0.0
            for _, row in rows:
                denom += row.get(t, 0.0)
            if denom <= 0.0:
                raise NumericalError(
                    f"no source token explains target {t!r}; "
                    "the table has degenerated"
                )
            if with_loglik:
                loglik += math.log(inv_len * denom)
            for s, row in rows:
                p = row.get(t, 0.0)
                if p > 0.0:
                    count_row = counts.get(s)
                    if count_row is None:
                        count_row = counts[s] = {}
                    count_row[t] = count_row.get(t, 0.0) + p / denom
    return counts, loglik


def _maximization(counts: dict[str, dict[str, float]]) -> Probs:
    """Renormalize counts per source token, dropping sub-floor entries."""
    new_probs: Probs = {}
    for s, row in counts.items():
        # Left to right, as ibm1 adds; the builtin `sum` of floats
        # compensates rounding error from Python 3.12 on.
        total = functools.reduce(operator.add, row.values(), 0.0)
        if total <= 0.0:
            raise NumericalError(f"source token {s!r} collected no counts")
        new_row = {}
        for t, c in row.items():
            p = c / total
            if p >= IBM1_PROB_FLOOR:
                new_row[t] = p
        if not new_row:
            raise NumericalError(f"source token {s!r} lost all probability mass")
        new_probs[s] = new_row
    return new_probs


def em_epoch_reference(
    pairs: Sequence[ParallelPair], probs: Probs
) -> tuple[Probs, float]:
    """One expectation-maximization step; the log likelihood is the new table's."""
    counts, _ = _expectation(pairs, probs, with_loglik=False)
    new_probs = _maximization(counts)
    return new_probs, corpus_loglik_reference(pairs, new_probs)


def corpus_loglik_reference(pairs: Sequence[ParallelPair], probs: Probs) -> float:
    """Sum over target tokens of log of their mean source probability."""
    total = 0.0
    for pair in pairs:
        inv_len = 1.0 / len(pair.source)
        for t in pair.target:
            mass = 0.0
            for s in pair.source:
                mass += probs.get(s, {}).get(t, 0.0)
            if mass <= 0.0:
                raise NumericalError(
                    f"target {t!r} has zero probability under the table"
                )
            total += math.log(inv_len * mass)
    return total


def train_ibm1_reference(
    pairs: Sequence[ParallelPair], epochs: int
) -> tuple[Probs, list[float]]:
    """Uniform initialization, then ``epochs`` folded EM steps.

    Returns the table's probabilities and its log likelihood trajectory.
    """
    probs = uniform_init_reference(pairs)
    trajectory: list[float] = []
    for epoch in range(epochs):
        counts, loglik = _expectation(pairs, probs, with_loglik=epoch > 0)
        if epoch > 0:
            trajectory.append(loglik)
        probs = _maximization(counts)
    trajectory.append(corpus_loglik_reference(pairs, probs))
    return probs, trajectory


def model_json_reference(model: TokenizerModel) -> str:
    """The model file's text, as the `json` module renders its document."""
    doc = {
        "schema": MODEL_SCHEMA,
        "kind": model.kind.value,
        "vocab_size": model.vocab_size,
        "seed": model.seed,
        "continuation_marker": model.continuation_marker,
        "vocab": sorted(model.vocab),
        "merges": [list(pair) for pair in model.merges],
        "token_logprob": [[t, model.token_logprob[t]] for t in sorted(model.token_logprob)],
        "gold_map": [[form, model.gold_map[form]] for form in sorted(model.gold_map)],
    }
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


def table_json_reference(table: TranslationTable) -> str:
    """The table file's text, as the `json` module renders its document."""
    doc = {
        "schema": TABLE_SCHEMA,
        "epochs_trained": table.epochs_trained,
        "loglik_trajectory": table.loglik_trajectory,
        "source_vocab": table.source_vocab,
        "target_vocab": table.target_vocab,
        "entries": [
            [s, t, table.probs[s][t]] for s in sorted(table.probs) for t in sorted(table.probs[s])
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=1) + "\n"


def _lexicon_rows(lines: Sequence[str]) -> list[str]:
    """The rows of a lexicon: its lines but blank ones and the `#` comments at the top.

    The comments run down to the first row or the first `# language:`
    line, which is the last of them.
    """
    rows, header = [], True
    for raw in lines:
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if header and line.lstrip().startswith("#"):
            key, colon, _ = line.lstrip()[1:].partition(":")
            header = not (colon and key.strip() == "language")
            continue
        header = False
        rows.append(line)
    return rows


def curate_reference(
    feature_lines: Sequence[str], segmentation_lines: Sequence[str], language: str
) -> tuple[str | None, dict[str, int], dict[str, int], dict[str, int]]:
    """The curated file's text, or None for an empty join, and each parser's and the join's counters.

    One row at a time: a row is read, then kept or counted under the
    first rule it breaks.  A feature row needs three columns and a
    non-empty form and bundle; a segmentation row needs two columns, a
    non-empty form and segment field, non-empty segments that spell the
    form, and a form not seen before.  Each field is stripped and then
    NFC-normalized, each segment on its own.  A feature row joins if its
    form has a segmentation and its bundle a non-empty atom.
    """
    nfc = functools.partial(unicodedata.normalize, "NFC")
    counters = ("read", "kept", "skipped_columns", "skipped_empty",
                "rejected_mismatch", "duplicate_forms")
    feature_counts = dict.fromkeys(counters, 0)
    features = []
    for row in _lexicon_rows(feature_lines):
        feature_counts["read"] += 1
        cols = row.split("\t")
        if len(cols) < 3:
            feature_counts["skipped_columns"] += 1
        elif not nfc(cols[1].strip()) or not nfc(cols[2].strip()):
            feature_counts["skipped_empty"] += 1
        else:
            feature_counts["kept"] += 1
            features.append((nfc(cols[1].strip()), nfc(cols[2].strip())))
    segmentation_counts = dict.fromkeys(counters, 0)
    segmentations = {}
    for row in _lexicon_rows(segmentation_lines):
        segmentation_counts["read"] += 1
        cols = row.split("\t")
        if len(cols) < 2:
            segmentation_counts["skipped_columns"] += 1
            continue
        form, field = nfc(cols[0].strip()), cols[1].strip()
        segments = [nfc(segment) for segment in field.split("|")]
        if not form or not field:
            segmentation_counts["skipped_empty"] += 1
        elif not all(segments) or "".join(segments) != form:
            segmentation_counts["rejected_mismatch"] += 1
        elif form in segmentations:
            segmentation_counts["duplicate_forms"] += 1
        else:
            segmentation_counts["kept"] += 1
            segmentations[form] = segments
    lines = [f"# language: {language}\n"]
    for form, bundle in features:
        atoms = [atom for atom in bundle.split(";") if atom]
        if form in segmentations and atoms:
            lines.append(f"{form}\t{'|'.join(segmentations[form])}\t{';'.join(atoms)}\n")
    matched = len(lines) - 1
    join_counts = {"feature_rows": len(features), "matched": matched,
                   "dropped": len(features) - matched}
    text = "".join(lines) if matched else None
    return text, feature_counts, segmentation_counts, join_counts
