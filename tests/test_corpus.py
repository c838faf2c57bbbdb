"""Lexicon parsing, curation joins, and curated-file round trips."""

import io
import unicodedata

import pytest

from tokalign.corpus import (
    CuratedDataset,
    FeatureMode,
    JoinStats,
    ParseStats,
    WordEntry,
    curate,
    feature_tokens,
    parse_feature_lexicon,
    parse_segmentation_lexicon,
    read_curated,
    write_curated,
)
from tokalign.errors import DataError

FEATURES_TSV = """\
# a comment line
lemma1\trýžový\tADJ;ACC;MASC;INAN;SG

lemma2\tbázeň\tN;ACC;SG;FEM
shortline
lemma3\tprojet\tV;V.PTCP;MASC;PASS;SG
lemma4\t\tN;SG
lemma5\tуниград\t
"""

SEGMENTS_TSV = """\
rýžový\trýž|ov|ý
bázeň\tbáz|eň
projet\tpro|je|t
badrow\tba|xx
projet\tp|rojet
"""


def test_parse_feature_lexicon_keeps_order_and_counts_skips():
    pairs, stats = parse_feature_lexicon(io.StringIO(FEATURES_TSV))
    assert [form for form, _ in pairs] == ["rýžový", "bázeň", "projet"]
    assert pairs[0][1] == "ADJ;ACC;MASC;INAN;SG"
    assert stats.read == 6
    assert stats.kept == 3
    assert stats.skipped_columns == 1
    assert stats.skipped_empty == 2
    assert stats.skipped == 3


def test_parse_feature_lexicon_preserves_duplicate_forms():
    text = "l\tform\tA;B\nl\tform\tC\n"
    pairs, stats = parse_feature_lexicon(io.StringIO(text))
    assert pairs == [("form", "A;B"), ("form", "C")]
    assert stats.kept == 2


def test_parse_segmentation_lexicon_validates_concatenation():
    seg_map, stats = parse_segmentation_lexicon(io.StringIO(SEGMENTS_TSV))
    assert seg_map["rýžový"] == ["rýž", "ov", "ý"]
    assert seg_map["projet"] == ["pro", "je", "t"]
    assert stats.rejected_mismatch == 1
    assert stats.duplicate_forms == 1
    assert stats.kept == 3


def test_parse_segmentation_first_occurrence_wins():
    text = "aa\ta|a\naa\taa\n"
    seg_map, stats = parse_segmentation_lexicon(io.StringIO(text))
    assert seg_map["aa"] == ["a", "a"]
    assert stats.duplicate_forms == 1


def test_parsers_normalize_to_nfc():
    decomposed = unicodedata.normalize("NFD", "bázeň")
    assert decomposed != "bázeň"
    pairs, _ = parse_feature_lexicon(io.StringIO(f"l\t{decomposed}\tN;SG\n"))
    assert pairs[0][0] == "bázeň"
    seg_map, _ = parse_segmentation_lexicon(
        io.StringIO(f"{decomposed}\t{unicodedata.normalize('NFD', 'báz')}|eň\n")
    )
    assert seg_map["bázeň"] == ["báz", "eň"]


def test_curate_joins_on_form_and_counts_drops():
    features = [("rýžový", "ADJ;SG"), ("bázeň", "N;SG"), ("chybí", "N;PL")]
    segmentations = {"rýžový": ["rýž", "ov", "ý"], "bázeň": ["báz", "eň"]}
    dataset, stats = curate(segmentations, features, language="ces")
    assert len(dataset) == 2
    assert stats.matched == 2
    assert stats.dropped == 1
    assert dataset.entries[0].gold_segments == ("rýž", "ov", "ý")
    assert dataset.entries[0].features == ("ADJ", "SG")
    assert dataset.language == "ces"


def test_curate_keeps_multiple_analyses_per_form():
    features = [("forma", "N;SG"), ("forma", "V;IMP")]
    segmentations = {"forma": ["form", "a"]}
    dataset, stats = curate(segmentations, features)
    assert len(dataset) == 2
    assert dataset.entries[0].features == ("N", "SG")
    assert dataset.entries[1].features == ("V", "IMP")
    assert stats.dropped == 0


def test_curate_empty_join_raises():
    with pytest.raises(DataError):
        curate({"a": ["a"]}, [("b", "N")])


def test_word_entry_validates_segments_and_features():
    with pytest.raises(DataError):
        WordEntry("ab", ("a", "c"), ("N",))
    with pytest.raises(DataError):
        WordEntry("ab", ("ab",), ())
    with pytest.raises(DataError):
        WordEntry("ab", ("ab",), ("N;SG",))
    with pytest.raises(DataError):
        WordEntry("ab", ("a", "", "b"), ("N",))


def test_feature_tokens_modes():
    entry = WordEntry("abc", ("abc",), ("N", "ACC", "SG"))
    assert feature_tokens(entry, FeatureMode.JOINT) == ["N;ACC;SG"]
    assert feature_tokens(entry, FeatureMode.SPLIT) == ["N", "ACC", "SG"]


def test_curated_round_trip(czech_dataset):
    buffer = io.StringIO()
    write_curated(czech_dataset, buffer)
    loaded = read_curated(io.StringIO(buffer.getvalue()))
    assert loaded.language == "ces"
    assert loaded.entries == czech_dataset.entries
    again = io.StringIO()
    write_curated(loaded, again)
    assert again.getvalue() == buffer.getvalue()


def test_forms_that_start_with_a_hash_are_rows_below_the_comments():
    features = "# features\nl\tcd\tV\n#a\t#ab\tN\n"
    segments = "# segments\n\ncd\tc|d\n#ab\t#a|b\n"
    pairs, feature_stats = parse_feature_lexicon(io.StringIO(features))
    seg_map, seg_stats = parse_segmentation_lexicon(io.StringIO(segments))
    assert pairs == [("cd", "V"), ("#ab", "N")]
    assert seg_map == {"cd": ["c", "d"], "#ab": ["#a", "b"]}
    assert (feature_stats.read, seg_stats.read) == (2, 2)


def test_curated_round_trip_keeps_forms_that_start_with_a_hash():
    # The first row too: the language line ends the comments.
    dataset = CuratedDataset(
        [
            WordEntry("#ab", ("#a", "b"), ("N",)),
            WordEntry("cd", ("c", "d"), ("V",)),
            WordEntry("#", ("#",), ("X",)),
        ],
        language="xx",
    )
    buffer = io.StringIO()
    write_curated(dataset, buffer)
    assert read_curated(io.StringIO(buffer.getvalue())) == dataset
    loaded = read_curated(io.StringIO("# note\n\n# language: yy\n#ab\t#a|b\tN\n"))
    assert (loaded.language, [e.form for e in loaded]) == ("yy", ["#ab"])


def test_read_curated_rejects_malformed_rows():
    with pytest.raises(DataError):
        read_curated(io.StringIO("only two\tcolumns\n"))
    with pytest.raises(DataError):
        read_curated(io.StringIO("ab\ta|c\tN\n"))
    with pytest.raises(DataError):
        read_curated(io.StringIO("# language: xx\n"))


@pytest.mark.parametrize(
    "row, problem",
    [
        ("ab\ta|b|c", "expected 3 columns"),
        ("\tx\tN", "word entry with empty form"),
        ("ab\ta||b\tN", "empty gold segment for form 'ab'"),
        ("ab\ta|c\tN", "gold segments ['a', 'c'] do not concatenate to form 'ab'"),
        ("ab\ta|b\tN;;SG;", "invalid feature atoms for form 'ab'"),
        ("ab\ta|b\t", "invalid feature atoms for form 'ab'"),
    ],
)
def test_read_curated_names_the_line_of_a_malformed_row(row, problem):
    text = f"# language: xx\nab\ta|b\tN\n\n{row}\n"
    with pytest.raises(DataError) as caught:
        read_curated(io.StringIO(text))
    assert str(caught.value) == f"curated line 4: {problem}"


def test_records_compare_and_show_their_fields():
    entry = WordEntry("ab", ("a", "b"), ("N",))
    assert repr(entry) == "WordEntry(form='ab', gold_segments=('a', 'b'), features=('N',))"
    assert WordEntry._make(entry) == entry
    dataset = CuratedDataset([entry], language="xx")
    assert dataset == CuratedDataset([entry], "xx") != CuratedDataset([entry])
    assert repr(dataset) == f"CuratedDataset(entries=[{entry!r}], language='xx')"
    assert repr(ParseStats(3, 1)) == (
        "ParseStats(read=3, kept=1, skipped_columns=0, skipped_empty=0, "
        "rejected_mismatch=0, duplicate_forms=0)"
    )
    assert ParseStats(3, 1).skipped == 2
    assert JoinStats(2, 1, 1) == JoinStats(feature_rows=2, matched=1, dropped=1)
    assert JoinStats() != ParseStats()
    assert repr(JoinStats()) == "JoinStats(feature_rows=0, matched=0, dropped=0)"


def test_dataset_iteration_and_length(czech_dataset):
    assert len(czech_dataset) == 3
    assert [e.form for e in czech_dataset] == ["rýžový", "bázeň", "projet"]
