"""Command line wiring: exit codes, output files, and sweep behavior."""

import concurrent.futures
import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from concurrent.futures.process import BrokenProcessPool

import pytest

from conftest import random_corpus, read_report_cells
from tokalign import cli, corpus, files, layout, sweep, tokenizers
from tokalign.corpus import CuratedDataset, WordEntry, write_curated
from tokalign.files import Digests
from tokalign.metrics import read_score_rows, write_score_rows, ScoreRow
from tokalign.choices import TRAINED_KINDS
from tokalign.synth import SynthConfig, build_language, write_language
from tokalign.tokenizers import (
    TokenizerKind,
    TrainConfig,
    build_gold_lookup,
    load_model,
    model_to_json,
    save_model,
    train,
)

FEATURES = """\
lemma1\tkamit\tN;ACC
lemma2\tkamol\tN;DAT
lemma3\tbura\tV
"""

SEGMENTS = """\
kamit\tkam|it
kamol\tkam|ol
"""


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _curated_file(tmp_path):
    entries = [
        WordEntry("kamit", ("kam", "it"), ("N", "ACC")),
        WordEntry("kamol", ("kam", "ol"), ("N", "DAT")),
        WordEntry("vodit", ("vod", "it"), ("N", "ACC")),
        WordEntry("bura", ("bura",), ("V",)),
    ]
    dataset = CuratedDataset(entries, language="toy")
    path = tmp_path / "curated.tsv"
    with path.open("w", encoding="utf-8") as handle:
        write_curated(dataset, handle)
    return path, dataset


def _no_read(path):
    raise AssertionError(f"{path} was read")


class TestCurate:
    def test_reports_join_statistics(self, tmp_path, capsys):
        features = _write(tmp_path / "features.tsv", FEATURES)
        segments = _write(tmp_path / "segments.tsv", SEGMENTS)
        out = tmp_path / "curated.tsv"
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(out),
                "--language", "toy",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "matched: 2 dropped: 1" in captured.out
        assert out.exists()
        text = out.read_text(encoding="utf-8")
        assert "# language: toy" in text
        assert "kamit\tkam|it\tN;ACC" in text

    def test_keeps_forms_that_start_with_a_hash(self, tmp_path, capsys):
        features = _write(tmp_path / "features.tsv", FEATURES + "#a\t#ab\tN\n")
        segments = _write(tmp_path / "segments.tsv", SEGMENTS + "#ab\t#a|b\n")
        out = tmp_path / "curated.tsv"
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "segmentation rows: 3 kept, 0 skipped" in printed
        assert "matched: 3 dropped: 1" in printed
        dataset = corpus.read_curated(out.read_text(encoding="utf-8").splitlines())
        assert [e.form for e in dataset] == ["kamit", "kamol", "#ab"]

    @pytest.mark.parametrize("escaped", [False, True])
    def test_first_row_that_starts_with_a_hash_needs_a_language_line_above(
        self, tmp_path, capsys, escaped
    ):
        # A `#` line above the first row is a comment, unless a
        # `# language:` line has already ended the comments.
        top = "# language: toy\n" if escaped else ""
        features = _write(tmp_path / "features.tsv", top + "#a\t#ab\tN\n" + FEATURES)
        segments = _write(tmp_path / "segments.tsv", top + "#ab\t#a|b\n" + SEGMENTS)
        out = tmp_path / "curated.tsv"
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(out),
            ]
        )
        assert code == 0
        kept = 3 if escaped else 2
        assert f"segmentation rows: {kept} kept, 0 skipped" in capsys.readouterr().out
        dataset = corpus.read_curated(out.read_text(encoding="utf-8").splitlines())
        forms = [e.form for e in dataset]
        assert forms == (["#ab", "kamit", "kamol"] if escaped else ["kamit", "kamol"])

    def test_empty_join_exits_with_data_error(self, tmp_path, capsys):
        features = _write(tmp_path / "features.tsv", FEATURES)
        segments = _write(tmp_path / "segments.tsv", "zzz\tz|zz\n")
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(tmp_path / "curated.tsv"),
            ]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("language", ["", " de", "de ", "x\ny", "x\ry", "x\u2028y"])
    def test_language_that_the_header_cannot_hold_exits_1_before_reading(
        self, tmp_path, capsys, monkeypatch, language
    ):
        # Written into `# language:`, a line break would split the header
        # and outer whitespace would read back stripped.
        monkeypatch.setattr("tokalign.corpus.read_lines", _no_read)
        out = tmp_path / "curated.tsv"
        code = cli.main(
            [
                "curate",
                "--features", str(tmp_path / "features.tsv"),
                "--segmentations", str(tmp_path / "segments.tsv"),
                "--out", str(out),
                "--language", language,
            ]
        )
        assert code == 1
        assert f"--language {language!r} is not a language code" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_leaves_existing_file_whole(
        self, tmp_path, monkeypatch, capsys
    ):
        features = _write(tmp_path / "features.tsv", FEATURES)
        segments = _write(tmp_path / "segments.tsv", SEGMENTS)
        out, _ = _curated_file(tmp_path)
        before = out.read_bytes()

        def write_half(dataset, stream):
            stream.write(f"# language: {dataset.language}\n")
            raise OSError("no space left on device")

        monkeypatch.setattr("tokalign.corpus.write_curated", write_half)
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "no space left" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curated.tsv", "features.tsv", "segments.tsv"
        ]

    def test_segmentation_lexicon_is_read_first(self, tmp_path, capsys):
        # The feature rows are joined as they are read, against the map
        # that the whole segmentation lexicon makes.
        features = tmp_path / "features.tsv"
        segments = tmp_path / "segments.tsv"
        for lexicon in (features, segments):
            lexicon.write_bytes(b"\xff\n")
        out = tmp_path / "curated.tsv"
        code = cli.main(
            [
                "curate",
                "--features", str(features),
                "--segmentations", str(segments),
                "--out", str(out),
            ]
        )
        assert code == 2
        assert f"{segments} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestTrainAndSegment:
    def test_train_write_and_retrain_identically(self, tmp_path, capsys):
        corpus = _write(tmp_path / "corpus.txt", "abab abab\nabab ab\n")
        out = tmp_path / "bpe.json"
        args = [
            "train-tokenizer",
            "--corpus", str(corpus),
            "--kind", "bpe",
            "--vocab-size", "4",
            "--out", str(out),
        ]
        assert cli.main(args) == 0
        assert "trained bpe model" in capsys.readouterr().out
        first = out.read_bytes()
        assert cli.main(args) == 0
        assert out.read_bytes() == first
        model = load_model(out)
        assert model.kind.value == "bpe"
        assert len(model.vocab) <= 4

    def test_gold_kind_requires_curated_input(self, tmp_path, capsys):
        corpus = _write(tmp_path / "corpus.txt", "kamit kamol\n")
        code = cli.main(
            [
                "train-tokenizer",
                "--corpus", str(corpus),
                "--kind", "gold",
                "--out", str(tmp_path / "gold.json"),
            ]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_vocab_budget_below_alphabet_exits_1(self, tmp_path, capsys):
        corpus = _write(tmp_path / "corpus.txt", "abcdef\n")
        code = cli.main(
            [
                "train-tokenizer",
                "--corpus", str(corpus),
                "--kind", "bpe",
                "--vocab-size", "2",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1

    def test_missing_vocab_size_for_trained_kind_exits_1(self, tmp_path):
        corpus = _write(tmp_path / "corpus.txt", "abab\n")
        code = cli.main(
            [
                "train-tokenizer",
                "--corpus", str(corpus),
                "--kind", "unigram",
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "kind, flag, inputs",
        [("character", "-3", "--corpus"), ("gold", "50", "--curated")],
    )
    def test_vocab_size_for_a_kind_that_takes_none_exits_1(
        self, tmp_path, capsys, kind, flag, inputs
    ):
        # The input does not exist: the size is rejected before it is read.
        out = tmp_path / "m.json"
        argv = ["train-tokenizer", inputs, str(tmp_path / "missing"), "--kind", kind,
                "--vocab-size", flag, "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: --vocab-size is for trained kinds only, not kind {kind}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "segments, error",
        [
            (["zzz", "q"], "gold segments ['zzz', 'q'] do not concatenate to form 'kamit'"),
            ([], "empty gold segment for form 'kamit'"),
            (["kam", ""], "empty gold segment for form 'kamit'"),
        ],
        ids=["misspelt", "no-segments", "empty-segment"],
    )
    def test_gold_model_whose_segments_do_not_spell_the_form_exits_2(
        self, tmp_path, capsys, segments, error
    ):
        curated, dataset = _curated_file(tmp_path)
        model = tmp_path / "gold.json"
        doc = json.loads(model_to_json(build_gold_lookup(dataset)))
        doc["gold_map"] = [[form, segments if form == "kamit" else segs]
                           for form, segs in doc["gold_map"]]
        _write(model, json.dumps(doc))
        out = tmp_path / "scores.csv"
        for argv in (
            ["segment", "--model", str(model), "kamit"],
            ["evaluate", "--curated", str(curated), "--model", str(model),
             "--out", str(out)],
        ):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"data error: model file {model}: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, edit, error",
        [
            ("bpe", lambda doc: doc.update(vocab_size=-5), "vocab_size -5 is negative"),
            ("bpe", lambda doc: doc.update(vocab_size=3.9), "3.9 is not of type int"),
            ("bpe", lambda doc: doc.update(seed="7"), "'7' is not of type int"),
            ("bpe", lambda doc: doc["vocab"].append(doc["vocab"][0]), "vocab lists a token twice"),
            ("unigram", lambda doc: doc["token_logprob"][0].__setitem__(1, "-1.5"),
             "'-1.5' is not of type float"),
            # A field its kind does not use; a marker would be stripped from
            # the word-internal tokens, so "k am it" would read as "k am t".
            ("bpe", lambda doc: doc.update(continuation_marker="i"),
             "a bpe model sets continuation_marker, which it does not use"),
            ("unigram", lambda doc: doc.update(continuation_marker="##"),
             "a unigram model sets continuation_marker, which it does not use"),
            ("character", lambda doc: doc.update(continuation_marker="##"),
             "a character model sets continuation_marker, which it does not use"),
            ("bpe", lambda doc: doc.update(token_logprob=[["a", -0.5]]),
             "a bpe model sets token_logprob, which it does not use"),
            ("wordpiece", lambda doc: doc.update(token_logprob=[["a", -0.5]]),
             "a wordpiece model sets token_logprob, which it does not use"),
            ("unigram", lambda doc: doc.update(merges=[["a", "b"]]),
             "a unigram model sets merges, which it does not use"),
            ("character", lambda doc: doc.update(merges=[["a", "b"]]),
             "a character model sets merges, which it does not use"),
            ("bpe", lambda doc: doc.update(gold_map=[["ab", ["a", "b"]]]),
             "a bpe model sets gold_map, which it does not use"),
            # An object or a string would read as its keys or characters.
            ("bpe", lambda doc: doc.update(merges=["ab"]), "'ab' is not of type list"),
            ("bpe", lambda doc: doc.update(vocab={"a": 0, "b": 1}),
             "{'a': 0, 'b': 1} is not of type list"),
            ("character", lambda doc: doc.update(vocab="ab"), "'ab' is not of type list"),
            ("unigram", lambda doc: doc.update(token_logprob={"ab": -0.5}),
             "{'ab': -0.5} is not of type list"),
            ("unigram", lambda doc: doc["token_logprob"].__setitem__(0, "a"),
             "'a' is not of type list"),
        ],
        ids=["negative-size", "fractional-size", "string-seed", "repeated-token",
             "string-logprob", "bpe-marker", "unigram-marker", "character-marker",
             "bpe-logprob", "wordpiece-logprob", "unigram-merges", "character-merges",
             "bpe-gold-map", "string-merge", "object-vocab", "string-vocab",
             "object-logprobs", "string-logprob-pair"],
    )
    def test_malformed_model_exits_2(self, tmp_path, capsys, kind, edit, error):
        model = tmp_path / "model.json"
        corpus = {"abab": 3, "ab": 2, "ba": 1}
        kind = TokenizerKind(kind)
        built = (
            train(corpus, TrainConfig(kind, 3))
            if kind in TRAINED_KINDS
            else tokenizers.KINDS[kind].build(corpus)
        )
        doc = json.loads(model_to_json(built))
        edit(doc)
        _write(model, json.dumps(doc))
        assert cli.main(["segment", "--model", str(model), "abab"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: model file {model} is malformed: {error}\n"

    @pytest.mark.parametrize("drop", ["vocab", "token_logprob"])
    def test_unigram_model_whose_vocab_is_not_its_logprob_tokens_exits_2(
        self, tmp_path, capsys, drop
    ):
        model = tmp_path / "model.json"
        doc = json.loads(model_to_json(train({"abab": 3, "ab": 2, "ba": 1},
                                             TrainConfig(TokenizerKind.UNIGRAM, 4))))
        doc[drop].pop()
        _write(model, json.dumps(doc))
        assert cli.main(["segment", "--model", str(model), "abab"]) == 2
        assert capsys.readouterr().err == (
            f"data error: model file {model}: the vocabulary is not the set of tokens "
            "with a log-probability\n"
        )

    def test_segment_prints_word_and_pieces(self, tmp_path, capsys):
        corpus = _write(tmp_path / "corpus.txt", "abab abab\n")
        out = tmp_path / "bpe.json"
        cli.main(
            [
                "train-tokenizer",
                "--corpus", str(corpus),
                "--kind", "bpe",
                "--vocab-size", "4",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert cli.main(["segment", "--model", str(out), "abab", "aba"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "abab\tabab"
        assert lines[1] == "aba\tab a"
        assert captured.err == ""

    def test_segment_flags_out_of_vocabulary_singletons(self, tmp_path, capsys):
        corpus = _write(tmp_path / "corpus.txt", "abab abab\n")
        out = tmp_path / "bpe.json"
        cli.main(
            [
                "train-tokenizer",
                "--corpus", str(corpus),
                "--kind", "bpe",
                "--vocab-size", "4",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert cli.main(["segment", "--model", str(out), "axb"]) == 0
        captured = capsys.readouterr()
        assert "axb\ta x b" in captured.out
        assert "out-of-vocabulary" in captured.err

    def test_segment_unknown_placeholder_is_not_flagged(self, tmp_path, capsys):
        corpus = _write(tmp_path / "corpus.txt", "abab abab\n")
        out = tmp_path / "wp.json"
        cli.main(
            [
                "train-tokenizer",
                "--corpus", str(corpus),
                "--kind", "wordpiece",
                "--vocab-size", "4",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert cli.main(["segment", "--model", str(out), "axb"]) == 0
        captured = capsys.readouterr()
        assert "axb\t[UNK]" in captured.out
        assert captured.err == ""


class TestEvaluate:
    def _gold_model(self, tmp_path, dataset):
        path = tmp_path / "gold.json"
        save_model(build_gold_lookup(dataset), path)
        return path

    def test_writes_scores_and_table(self, tmp_path, capsys):
        curated, dataset = _curated_file(tmp_path)
        model = self._gold_model(tmp_path, dataset)
        out = tmp_path / "scores.csv"
        table_out = tmp_path / "table.json"
        code = cli.main(
            [
                "evaluate",
                "--curated", str(curated),
                "--model", str(model),
                "--aggregations", "mean,max",
                "--thresholds", "0.01,0.3",
                "--epochs", "3",
                "--out", str(out),
                "--table-out", str(table_out),
            ]
        )
        assert code == 0
        assert "wrote 4 score rows" in capsys.readouterr().out
        rows = read_score_rows(out.read_text(encoding="utf-8").splitlines(True))
        assert len(rows) == 4
        assert {r.aggregation for r in rows} == {"mean", "max"}
        assert {r.threshold for r in rows} == {0.01, 0.3}
        for row in rows:
            assert row.kind == "gold"
            assert row.precision == 1.0
            assert row.recall == 1.0
            assert 0.0 <= row.alignment <= 1.0
        table = json.loads(table_out.read_text(encoding="utf-8"))
        assert len(table["loglik_trajectory"]) == 3

    def test_epochs_control_trajectory_length(self, tmp_path):
        curated, dataset = _curated_file(tmp_path)
        model = self._gold_model(tmp_path, dataset)
        for epochs in (1, 10):
            table_out = tmp_path / f"table-{epochs}.json"
            code = cli.main(
                [
                    "evaluate",
                    "--curated", str(curated),
                    "--model", str(model),
                    "--aggregations", "mean",
                    "--thresholds", "0.01",
                    "--epochs", str(epochs),
                    "--out", str(tmp_path / f"scores-{epochs}.csv"),
                    "--table-out", str(table_out),
                ]
            )
            assert code == 0
            table = json.loads(table_out.read_text(encoding="utf-8"))
            assert len(table["loglik_trajectory"]) == epochs

    def test_joint_mode_is_recorded_in_rows(self, tmp_path):
        curated, dataset = _curated_file(tmp_path)
        model = self._gold_model(tmp_path, dataset)
        out = tmp_path / "scores.csv"
        code = cli.main(
            [
                "evaluate",
                "--curated", str(curated),
                "--model", str(model),
                "--mode", "joint",
                "--aggregations", "mean",
                "--thresholds", "0.01",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_score_rows(out.read_text(encoding="utf-8").splitlines(True))
        assert all(r.mode == "joint" for r in rows)

    @pytest.mark.parametrize(
        "aggregations, thresholds",
        [("max,log,sum,log", "0.01"), ("mean", "0.3,0.01,0.30")],
        ids=["aggregation", "threshold"],
    )
    def test_repeated_value_exits_1(self, tmp_path, capsys, aggregations, thresholds):
        # A repeat would write duplicate rows, which `report` rejects.
        curated, dataset = _curated_file(tmp_path)
        model = self._gold_model(tmp_path, dataset)
        out = tmp_path / "scores.csv"
        code = cli.main(
            [
                "evaluate",
                "--curated", str(curated),
                "--model", str(model),
                "--aggregations", aggregations,
                "--thresholds", thresholds,
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "repeats a value" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_aggregation_list_exits_1(self, tmp_path, capsys):
        curated, dataset = _curated_file(tmp_path)
        model = self._gold_model(tmp_path, dataset)
        out = tmp_path / "scores.csv"
        code = cli.main(
            [
                "evaluate",
                "--curated", str(curated),
                "--model", str(model),
                "--aggregations", ",",
                "--thresholds", "0.01",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "--aggregations: the list is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_aggregation_exits_1(self, tmp_path):
        curated, dataset = _curated_file(tmp_path)
        model = self._gold_model(tmp_path, dataset)
        code = cli.main(
            [
                "evaluate",
                "--curated", str(curated),
                "--model", str(model),
                "--aggregations", "median",
                "--thresholds", "0.01",
                "--out", str(tmp_path / "scores.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("table_name", ["scores.csv", "sub/../scores.csv"])
    def test_table_out_naming_the_out_file_exits_1_before_reading_inputs(
        self, tmp_path, capsys, table_name
    ):
        out = tmp_path / "scores.csv"
        code = cli.main(
            [
                "evaluate",
                # Neither input exists: the check of the outputs comes first.
                "--curated", str(tmp_path / "missing.tsv"),
                "--model", str(tmp_path / "missing.json"),
                "--out", str(out),
                "--table-out", str(tmp_path / table_name),
            ]
        )
        assert code == 1
        assert "--table-out names the same file as --out" in capsys.readouterr().err
        assert not out.exists()

    def test_reproduces_a_sweep_point_and_writes_its_table(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        lang = tmp_path / "out" / "toy"
        out = tmp_path / "scores.csv"
        table_out = tmp_path / "table.json"
        # The sweep config's settings (see `_sweep_setup`).
        code = cli.main(
            [
                "evaluate",
                "--curated", str(lang / "curated.tsv"),
                "--model", str(lang / "models" / "bpe-60.json"),
                "--mode", "split",
                "--aggregations", "mean,max",
                "--thresholds", "0.01,0.3",
                "--epochs", "2",
                "--seed", "0",
                "--out", str(out),
                "--table-out", str(table_out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (lang / "points" / "bpe-60-split.csv").read_bytes()
        table = json.loads(table_out.read_text(encoding="utf-8"))
        assert len(table["loglik_trajectory"]) == 2

    def test_epochs_below_one_exits_1_before_reading_inputs(self, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = cli.main(
            [
                "evaluate",
                # Neither input exists: the epochs check comes first.
                "--curated", str(tmp_path / "missing.tsv"),
                "--model", str(tmp_path / "missing.json"),
                "--epochs", "0",
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "--epochs: 0 is below 1" in capsys.readouterr().err
        assert not out.exists()


def _sweep_setup(tmp_path, vocab_sizes=(60, 80), **fields):
    """Write the toy language and a sweep config over it; `fields` override the config's."""
    lang_dir = tmp_path / "lang"
    config = SynthConfig(
        noun_stems=20, verb_stems=20, sentences=120, words_per_sentence=6
    )
    write_language(build_language(config), lang_dir)
    doc = {
        "seed": 0,
        "epochs": 2,
        "kinds": ["bpe", "wordpiece"],
        "vocab_sizes": list(vocab_sizes),
        "modes": ["split"],
        "aggregations": ["mean", "max"],
        "thresholds": [0.01, 0.3],
        "output_dir": "out",
        "languages": {
            "toy": {
                "corpus": "lang/corpus.txt",
                "features": "lang/features.tsv",
                "segmentations": "lang/segmentations.tsv",
            }
        },
        **fields,
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    return config_path


def _edit_config(tmp_path, **fields):
    config_path = tmp_path / "sweep.json"
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    _write(config_path, json.dumps(dict(doc, **fields)))


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _record_pools(monkeypatch):
    """The worker count of each process pool a sweep starts, in order."""
    workers = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return workers


def _rebuild_models_with_fresh_points(tmp_path, kinds):
    """Finish a sweep, delete the models of `kinds`, and rerun it at `--jobs 2`.

    The rerun must write the tree back byte for byte and rewrite no point.
    """
    config_path = _sweep_setup(tmp_path)
    assert cli.main(["sweep", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    finished = _tree(out)

    def written(path):
        return path.stat().st_ino, path.stat().st_mtime_ns

    points = {path: written(path) for path in (out / "toy" / "points").iterdir()}
    for kind in kinds:
        for path in (out / "toy" / "models").glob(f"{kind}-*"):
            path.unlink()
    assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
    assert _tree(out) == finished
    assert {path: written(path) for path in points} == points


def _kinds_sweep_setup(tmp_path):
    """All three trained kinds, with one vocab size below the alphabet."""
    config_path = _sweep_setup(tmp_path)
    corpus = (tmp_path / "lang" / "corpus.txt").read_text(encoding="utf-8")
    alphabet = len(set(corpus) - set(" \n"))
    kinds = ["bpe", "wordpiece", "unigram"]
    _edit_config(tmp_path, kinds=kinds, vocab_sizes=[60, alphabet - 1, 80])
    return config_path


def _record_submissions(monkeypatch):
    """Record (function, kind, sizes) of each job the sweep submits, to its pool or none.

    Also returns the evaluate jobs submitted before the build job of
    their model had returned.
    """
    submitted, early = [], []
    builds = []
    submit = sweep._submit

    def record(executor, fn, job, config):
        submitted.append((fn.__name__, job.kind.value, job.sizes))
        if fn is sweep._evaluate and not all(
            future.done() for build, future in builds
            if (build.kind, build.language) == (job.kind, job.language)
            and job.sizes[0] in build.sizes
        ):
            early.append(submitted[-1])
        future = submit(executor, fn, job, config)
        if fn is sweep._build:
            builds.append((job, future))
        return future

    monkeypatch.setattr(sweep, "_submit", record)
    return submitted, early


def _record_trainings(monkeypatch):
    """Record (kind, size) of each `tokenizers.train` call in this process."""
    trained = []
    train = tokenizers.train

    def counting(corpus, config):
        trained.append((config.kind.value, config.vocab_size))
        return train(corpus, config)

    monkeypatch.setattr(tokenizers, "train", counting)
    return trained


# The output root's own files, which no language directory may replace.
_ROOT_FILES = [f"{name}{suffix}" for name in ("scores.csv", "correlations.csv", "failures.csv")
               for suffix in ("", ".key")]


class TestSweep:
    def test_grid_products_and_report(self, tmp_path, capsys):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        captured = capsys.readouterr()
        # (2 kinds x 2 sizes + 2 baselines) points x 2 aggs x 2 thresholds.
        assert "24 score rows" in captured.out
        rows = read_score_rows(
            (out / "scores.csv").read_text(encoding="utf-8").splitlines(True)
        )
        assert len(rows) == 24
        kinds = {(r.kind, r.vocab_size) for r in rows}
        assert ("character", 0) in kinds
        assert ("gold", 0) in kinds
        assert ("bpe", 60) in kinds
        cells = read_report_cells(
            (out / "correlations.csv").read_text(encoding="utf-8").splitlines(True)
        )
        # 4 (aggregation, threshold) groups x 3 target metrics, "all"
        # scope only: no kind reaches three grid points.
        assert len(cells) == 12
        for cell in cells:
            assert cell.n_points == 6
            if cell.status == "ok":
                assert -1.0 <= cell.rho <= 1.0
        assert not (out / "failures.csv").exists()
        gold_rows = [r for r in rows if r.kind == "gold"]
        assert all(r.precision == 1.0 and r.recall == 1.0 for r in gold_rows)
        char_rows = [r for r in rows if r.kind == "character"]
        assert all(r.recall == 1.0 for r in char_rows)

    def test_tree_holds_no_tables(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        lang = tmp_path / "out" / "toy"
        assert sorted(path.name for path in lang.iterdir()) == [
            "curated.tsv", "curated.tsv.key", "models", "points",
        ]
        assert not list(tmp_path.glob("out/**/tables"))

    def test_two_runs_are_byte_identical(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        assert (
            cli.main(
                [
                    "sweep",
                    "--config", str(config_path),
                    "--output-dir", str(tmp_path / "out2"),
                ]
            )
            == 0
        )
        for name in ("scores.csv", "correlations.csv"):
            first = (tmp_path / "out" / name).read_bytes()
            second = (tmp_path / "out2" / name).read_bytes()
            assert first == second

    def test_resume_after_deleting_a_point_reproduces_outputs(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        scores_before = (out / "scores.csv").read_bytes()
        report_before = (out / "correlations.csv").read_bytes()
        removed = out / "toy" / "points" / "bpe-60-split.csv"
        assert removed.exists()
        removed.unlink()
        (out / "scores.csv").unlink()
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        assert (out / "scores.csv").read_bytes() == scores_before
        assert (out / "correlations.csv").read_bytes() == report_before

    def test_training_failures_are_recorded_not_fatal(self, tmp_path, capsys):
        config_path = _sweep_setup(tmp_path, vocab_sizes=(2, 60))
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        captured = capsys.readouterr()
        assert "2 grid points failed" in captured.out
        failures = (out / "failures.csv").read_text(encoding="utf-8")
        assert "ConfigError" in failures
        assert "bpe-2" in failures and "wordpiece-2" in failures
        rows = read_score_rows(
            (out / "scores.csv").read_text(encoding="utf-8").splitlines(True)
        )
        # The two surviving trained points plus both baselines.
        assert len(rows) == 16

    def test_jobs_do_not_change_outputs(self, tmp_path):
        config_path = _kinds_sweep_setup(tmp_path)
        for jobs in ("1", "2", "3"):
            out = str(tmp_path / f"out{jobs}")
            argv = ["sweep", "--config", str(config_path), "--output-dir", out]
            assert cli.main(argv + ["--jobs", jobs]) == 0
        serial = _tree(tmp_path / "out1")
        assert "failures.csv" in serial
        assert "toy/models/unigram-80.json" in serial
        assert _tree(tmp_path / "out2") == serial
        assert _tree(tmp_path / "out3") == serial

    def test_resume_with_jobs_reproduces_outputs(self, tmp_path):
        config_path = _kinds_sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path), "--jobs", "2"]
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        serial = _tree(out)
        (out / "toy" / "models" / "unigram-80.json").unlink()
        (out / "toy" / "points" / "wordpiece-60-split.csv").unlink()
        assert cli.main(argv) == 0
        assert _tree(out) == serial

    def test_each_model_is_segmented_once_for_all_its_modes(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path, modes=["joint", "split"])
        segment = sweep.segment_dataset
        segmented = []

        def counting(dataset, model):
            segmented.append((model.kind.value, model.vocab_size))
            return segment(dataset, model)

        monkeypatch.setattr(sweep, "segment_dataset", counting)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        # bpe and wordpiece at two sizes, plus the two baselines.
        assert len(segmented) == len(set(segmented)) == 6
        assert len(list((tmp_path / "out" / "toy" / "points").glob("*.csv"))) == 12

    def test_merge_kind_points_are_jobs_of_their_own(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path, kinds=["bpe"], include_baselines=False)
        submitted, early = _record_submissions(monkeypatch)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        # One build trains the largest size and cuts the smaller one; once
        # it has returned, each size's evaluation goes in, in its size order.
        assert submitted == [
            ("_build", "bpe", (80, 60)),
            ("_evaluate", "bpe", (80,)),
            ("_evaluate", "bpe", (60,)),
        ]
        assert early == []
        assert len(list((tmp_path / "out" / "toy" / "points").glob("*.csv"))) == 2

    def test_jobs_go_merge_trainings_first_and_their_cut_sizes_last(
        self, tmp_path, monkeypatch
    ):
        config_path = _kinds_sweep_setup(tmp_path)
        below = json.loads(config_path.read_text(encoding="utf-8"))["vocab_sizes"][1]
        submitted, early = _record_submissions(monkeypatch)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        # Builds first: the merge kinds', largest size first, then the rest
        # in grid order.
        assert submitted[:7] == [
            ("_build", "bpe", (80, 60, below)),
            ("_build", "wordpiece", (80, 60, below)),
            ("_build", "unigram", (60,)),
            ("_build", "unigram", (below,)),
            ("_build", "unigram", (80,)),
            ("_build", "character", (0,)),
            ("_build", "gold", (0,)),
        ]
        # Then the evaluation of every size whose model was made, each once
        # its build has returned, in the order the builds return; no size
        # below the alphabet has a model.
        sizes = [(kind, size) for kind in ("bpe", "wordpiece", "unigram") for size in (60, 80)]
        sizes += [("character", 0), ("gold", 0)]
        assert len(submitted) == 7 + 8
        assert sorted(submitted[7:]) == sorted(("_evaluate", kind, (size,)) for kind, size in sizes)
        assert early == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing cut reaches workers only through fork",
    )
    def test_failed_cut_size_gets_no_evaluation_and_the_written_sizes_do(
        self, tmp_path, monkeypatch
    ):
        config_path = _sweep_setup(
            tmp_path, vocab_sizes=(60, 70, 80), kinds=["bpe"], include_baselines=False
        )
        cut = tokenizers.KINDS[TokenizerKind.BPE].cut

        def failing(model, config):
            if config.vocab_size == 70:
                raise RuntimeError("no cut at 70")
            return cut(model, config)

        row = tokenizers.KINDS[TokenizerKind.BPE]._replace(cut=failing)
        monkeypatch.setitem(tokenizers.KINDS, TokenizerKind.BPE, row)
        submitted, early = _record_submissions(monkeypatch)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        assert submitted == [
            ("_build", "bpe", (80, 70, 60)),
            ("_evaluate", "bpe", (80,)),
            ("_evaluate", "bpe", (60,)),
        ]
        assert early == []
        out = tmp_path / "out"
        assert (out / "failures.csv").read_text(encoding="utf-8") == (
            "point,error\ntoy/bpe-70/train,RuntimeError: no cut at 70\n"
        )
        assert sorted(path.name for path in (out / "toy" / "points").glob("*.csv")) == [
            "bpe-60-split.csv", "bpe-80-split.csv",
        ]

    def test_one_job_submits_the_jobs_of_two(self, tmp_path, monkeypatch):
        config_path = _kinds_sweep_setup(tmp_path)
        below = json.loads(config_path.read_text(encoding="utf-8"))["vocab_sizes"][1]
        runs = {}
        for jobs in ("1", "2"):
            submitted, early = _record_submissions(monkeypatch)
            argv = ["sweep", "--config", str(config_path), "--output-dir", str(tmp_path / jobs)]
            assert cli.main(argv + ["--jobs", jobs]) == 0
            assert early == []
            runs[jobs] = list(submitted)
        assert sorted(runs["1"]) == sorted(runs["2"])
        # In this process every build runs first, then each build's
        # evaluations, in build order.
        assert runs["1"][:7] == runs["2"][:7]
        assert runs["1"][7:] == [("_evaluate", kind, (size,)) for kind, size in [
            ("bpe", 80), ("bpe", 60), ("wordpiece", 80), ("wordpiece", 60),
            ("unigram", 60), ("unigram", 80), ("character", 0), ("gold", 0),
        ]]
        assert below not in {sizes[0] for run, _, sizes in runs["1"] if run == "_evaluate"}

    def test_rebuilding_models_whose_points_are_fresh_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a build job whose points are fresh started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        # One build job makes both bpe sizes, and no size gets an evaluation.
        _rebuild_models_with_fresh_points(tmp_path, ["bpe"])

    def test_rebuilding_two_kinds_whose_points_are_fresh_starts_two_workers(
        self, tmp_path, monkeypatch
    ):
        workers = _record_pools(monkeypatch)
        # Two build jobs, each with no size to evaluate, can run at once.
        _rebuild_models_with_fresh_points(tmp_path, ["bpe", "wordpiece"])
        assert workers == [2]

    def test_pool_has_no_more_workers_than_the_plan_can_run(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path, kinds=["bpe"], include_baselines=False)
        workers = _record_pools(monkeypatch)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "8"]) == 0
        # One build of two sizes, then one evaluation per size.
        assert workers == [2]

    def test_sizes_below_the_alphabet_are_cut_not_trained(self, tmp_path, monkeypatch):
        config_path = _kinds_sweep_setup(tmp_path)
        below = json.loads(config_path.read_text(encoding="utf-8"))["vocab_sizes"][1]
        trained = _record_trainings(monkeypatch)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "1"]) == 0
        # A merge kind's cut below the alphabet fails as its training would.
        assert trained == [
            ("bpe", 80), ("wordpiece", 80), ("unigram", 60), ("unigram", below), ("unigram", 80),
        ]
        failures = (tmp_path / "out" / "failures.csv").read_text(encoding="utf-8")
        assert failures == "point,error\n" + "".join(
            f"toy/{kind}-{below}/train,ConfigError: vocab_size {below} "
            f"is below the initial symbol count {below + 1}\n"
            for kind in ("bpe", "wordpiece", "unigram")
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the waiting evaluation reaches workers only through fork",
    )
    def test_cut_sizes_are_evaluated_beside_the_largest(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path, kinds=["bpe"], include_baselines=False)
        smaller = tmp_path / "out" / "toy" / "points" / "bpe-60-split.csv"
        evaluate = sweep.run_evaluation

        def waiting(dataset, model, *args):
            # The largest size's evaluation holds its worker until the cut
            # size's point is written, which only the other worker can do.
            deadline = time.monotonic() + 30
            while model.vocab_size == 80 and not smaller.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("bpe-60 was not evaluated beside bpe-80")
                time.sleep(0.01)
            return evaluate(dataset, model, *args)

        monkeypatch.setattr(sweep, "run_evaluation", waiting)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        assert not (tmp_path / "out" / "failures.csv").exists()

    def test_serial_sweep_trains_each_merge_kind_once(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path, vocab_sizes=(60, 80, 70))
        trained = _record_trainings(monkeypatch)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "1"]) == 0
        assert trained == [("bpe", 80), ("wordpiece", 80)]
        # Three sizes of two merge kinds, plus both baselines.
        assert len(list((tmp_path / "out" / "toy" / "models").glob("*.json"))) == 8

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the counting trainer reaches workers only through fork",
    )
    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_pool_sweep_trains_each_merge_kind_once(self, tmp_path, monkeypatch, jobs):
        sizes = [50, 55, 60, 70, 80, 90]
        config_path = _sweep_setup(
            tmp_path, vocab_sizes=sizes, kinds=["bpe"], include_baselines=False
        )
        log = tmp_path / "trainings.log"
        train = tokenizers.train

        def logging_train(corpus, config):
            # Appended from whichever process trains, worker or not.
            with log.open("a", encoding="utf-8") as handle:
                handle.write(f"{config.kind.value}-{config.vocab_size}\n")
            return train(corpus, config)

        monkeypatch.setattr(tokenizers, "train", logging_train)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", jobs]) == 0
        assert log.read_text(encoding="utf-8") == "bpe-90\n"
        models = tmp_path / "out" / "toy" / "models"
        assert sorted(path.name for path in models.glob("*.json")) == sorted(
            f"bpe-{size}.json" for size in sizes
        )

    def test_cut_size_job_alone_trains_the_bytes_of_its_cut(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "1"]) == 0
        out = tmp_path / "out" / "toy"
        model = out / "models" / "bpe-60.json"
        cut = model.read_bytes()
        model.unlink()
        (out / "points" / "bpe-60-split.csv").unlink()
        config = cli.load_sweep_config(config_path)
        spec = config.languages[0]
        curated = out / "curated.tsv"
        keys = layout._keys(config, [curated], Digests())
        job = sweep._Job("toy", TokenizerKind.BPE, (60,), spec.corpus, curated, keys)
        trained = _record_trainings(monkeypatch)
        assert sweep._build(job, config) == {}
        assert trained == [("bpe", 60)]
        assert model.read_bytes() == cut
        assert sweep._evaluate(job, config) == {}
        assert (out / "points" / "bpe-60-split.csv").exists()

    def test_finished_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path), "--jobs", "2"]
        assert cli.main(argv) == 0
        finished = _tree(tmp_path / "out")

        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep with nothing to do started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert cli.main(argv) == 0
        assert _tree(tmp_path / "out") == finished

    def test_finished_sweep_does_not_import_the_process_pool(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path), "--jobs", "2"]
        assert cli.main(argv) == 0
        code = (
            "import sys\n"
            "from tokalign import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "assert 'concurrent.futures.process' not in sys.modules\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_malformed_point_file_on_resume_names_it_and_removes_combined_files(
        self, tmp_path, capsys
    ):
        config_path = _sweep_setup(tmp_path, vocab_sizes=(2, 60))
        argv = ["sweep", "--config", str(config_path)]
        assert cli.main(argv) == 0
        out = tmp_path / "out"
        point = out / "toy" / "points" / "bpe-60-split.csv"
        seed_line, header, row, *rest = point.read_text(encoding="utf-8").splitlines(True)
        cells = row.split(",")
        cells[header.split(",").index("alignment_score")] = "nan"
        _write(point, "".join([seed_line, header, ",".join(cells), *rest]))
        combined = ("scores.csv", "failures.csv", "correlations.csv")
        assert all((out / name).exists() for name in combined)
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"point file {point}: score row is malformed" in err
        assert "'nan' is not a finite number" in err
        assert not any((out / name).exists() for name in combined)

    def test_crashed_training_job_is_recorded_not_fatal(
        self, tmp_path, capsys, monkeypatch
    ):
        def crash(corpus, config):
            raise RuntimeError(f"no {config.kind.value} today")

        monkeypatch.setattr(tokenizers, "train", crash)
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "1"]) == 0
        out = tmp_path / "out"
        failures = (out / "failures.csv").read_text(encoding="utf-8")
        # The largest size fails to train, so the build trains the smaller
        # one on its own, which fails alike.
        assert failures == (
            "point,error\n"
            "toy/bpe-60/train,RuntimeError: no bpe today\n"
            "toy/bpe-80/train,RuntimeError: no bpe today\n"
            "toy/wordpiece-60/train,RuntimeError: no wordpiece today\n"
            "toy/wordpiece-80/train,RuntimeError: no wordpiece today\n"
        )
        assert "4 grid points failed" in capsys.readouterr().out
        rows = read_score_rows(
            (out / "scores.csv").read_text(encoding="utf-8").splitlines(True)
        )
        assert {r.kind for r in rows} == {"character", "gold"}

    def test_job_raising_in_this_process_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        def crash(model, config):
            raise RuntimeError("no cuts today")

        for kind in (TokenizerKind.BPE, TokenizerKind.WORDPIECE):
            row = tokenizers.KINDS[kind]._replace(cut=crash)
            monkeypatch.setitem(tokenizers.KINDS, kind, row)
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "1"]) == 0
        out = tmp_path / "out"
        failures = (out / "failures.csv").read_text(encoding="utf-8")
        # A failed cut fails its own size alone; the largest size's model
        # and points are written.
        assert failures == (
            "point,error\n"
            "toy/bpe-60/train,RuntimeError: no cuts today\n"
            "toy/wordpiece-60/train,RuntimeError: no cuts today\n"
        )
        assert len(list((out / "toy" / "models").glob("*.json"))) == 4

        monkeypatch.undo()
        evaluate = sweep._evaluate

        def escaping(job, config):
            if job.kind is TokenizerKind.BPE:
                raise RuntimeError("no evaluation today")
            return evaluate(job, config)

        # An exception that escapes an evaluate job fails its points.
        monkeypatch.setattr(sweep, "_evaluate", escaping)
        argv = ["sweep", "--config", str(config_path), "--output-dir", str(tmp_path / "out2")]
        assert cli.main(argv + ["--jobs", "1"]) == 0
        assert (tmp_path / "out2" / "failures.csv").read_text(encoding="utf-8") == (
            "point,error\n"
            "toy/bpe-60-split,RuntimeError: no evaluation today\n"
            "toy/bpe-80-split,RuntimeError: no evaluation today\n"
        )

    def test_crashed_evaluation_job_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        evaluate = sweep.run_evaluation

        def crash_on_bpe(dataset, model, *args):
            if model.kind is TokenizerKind.BPE:
                raise ZeroDivisionError("bad point")
            return evaluate(dataset, model, *args)

        monkeypatch.setattr(sweep, "run_evaluation", crash_on_bpe)
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        failures = (tmp_path / "out" / "failures.csv").read_text(encoding="utf-8")
        assert failures == (
            "point,error\n"
            "toy/bpe-60-split,ZeroDivisionError: bad point\n"
            "toy/bpe-80-split,ZeroDivisionError: bad point\n"
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing trainer reaches workers only through fork",
    )
    def test_dead_worker_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        # Two training jobs, so that they run in a pool; both kill their worker.
        for kind in ("bpe", "wordpiece"):
            (out / "toy" / "models" / f"{kind}-60.json").unlink()
        monkeypatch.setattr(tokenizers, "train", lambda corpus, config: os._exit(1))
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        failures = (out / "failures.csv").read_text(encoding="utf-8").splitlines()
        broken = (
            "BrokenProcessPool: A process in the process pool was terminated "
            "abruptly while the future was running or pending."
        )
        assert failures[1:] == [f"toy/{kind}-60/train,{broken}" for kind in ("bpe", "wordpiece")]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing evaluation reaches workers only through fork",
    )
    def test_worker_dying_in_evaluation_fails_its_point_and_keeps_its_model(
        self, tmp_path, monkeypatch
    ):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        models = out / "toy" / "models"
        finished = _tree(out)
        # Two trainings, so that they run in a pool: bpe-60 trains and its
        # evaluation then kills its worker; wordpiece-80 only trains.
        (models / "bpe-60.json").unlink()
        (out / "toy" / "points" / "bpe-60-split.csv").unlink()
        other = models / "wordpiece-80.json"
        other.unlink()

        def die(*args):
            # Once the other job's model is on disk, so that the broken
            # pool cuts nothing else short.
            deadline = time.monotonic() + 60
            while not other.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(1)

        monkeypatch.setattr(sweep, "run_evaluation", die)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "2"]) == 0
        failures = (out / "failures.csv").read_text(encoding="utf-8").splitlines()
        broken = (
            "BrokenProcessPool: A process in the process pool was terminated "
            "abruptly while the future was running or pending."
        )
        assert failures[1:] == [f"toy/bpe-60-split,{broken}"]
        for name in ("bpe-60.json", "wordpiece-80.json"):
            assert (models / name).read_bytes() == finished[f"toy/models/{name}"]

    def test_corrupt_model_on_resume_fails_its_points_not_training(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        model = out / "toy" / "models" / "bpe-60.json"
        model.write_text("{", encoding="utf-8")
        (out / "toy" / "points" / "bpe-60-split.csv").unlink()
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        failures = (out / "failures.csv").read_text(encoding="utf-8").splitlines()
        assert len(failures) == 2
        assert failures[1].startswith(
            f"toy/bpe-60-split,DataError: model file {model} is not valid JSON"
        )
        assert model.read_text(encoding="utf-8") == "{"

    def test_submit_to_a_broken_pool_fails_the_job(self):
        with ProcessPoolExecutor(1) as pool:
            assert isinstance(pool.submit(os._exit, 1).exception(), BrokenProcessPool)
            future = sweep._submit(pool, abs, -1)
        assert isinstance(future.exception(), BrokenProcessPool)

    def test_failures_are_written_when_no_point_is_left(self, tmp_path, capsys):
        config_path = _sweep_setup(tmp_path, vocab_sizes=(2,), include_baselines=False)
        assert cli.main(["sweep", "--config", str(config_path)]) == 2
        assert "zero score rows" in capsys.readouterr().err
        failures = (tmp_path / "out" / "failures.csv").read_text(encoding="utf-8")
        assert "toy/bpe-2/train,ConfigError" in failures
        assert "toy/wordpiece-2/train,ConfigError" in failures

    def test_failed_report_removes_stale_correlations(self, tmp_path, capsys):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "correlations.csv").exists()
        config_path = _sweep_setup(tmp_path, vocab_sizes=(2,), include_baselines=False)
        assert cli.main(["sweep", "--config", str(config_path)]) == 2
        assert "zero score rows" in capsys.readouterr().err
        assert not (out / "correlations.csv").exists()

    def test_clean_rerun_removes_stale_failures(self, tmp_path):
        config_path = _sweep_setup(tmp_path, vocab_sizes=(2, 60))
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "failures.csv").exists()
        config_path = _sweep_setup(tmp_path, vocab_sizes=(30, 60))
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        assert not (tmp_path / "out" / "failures.csv").exists()

    def test_language_whose_name_starts_with_a_hash_is_in_every_result(
        self, tmp_path, capsys, monkeypatch
    ):
        # "#" opens a comment line only above a CSV's header.
        config_path = _sweep_setup(tmp_path)
        toy = json.loads(config_path.read_text(encoding="utf-8"))["languages"]["toy"]
        _edit_config(tmp_path, languages={"#x": toy, "y": toy})
        argv = ["sweep", "--config", str(config_path)]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        out = tmp_path / "out"
        assert first == f"sweep complete: 48 score rows, 24 report cells under {out}\n"
        rows = read_score_rows((out / "scores.csv").read_text(encoding="utf-8").splitlines(True))
        assert Counter(row.language for row in rows) == {"#x": 24, "y": 24}
        cells = read_report_cells(
            (out / "correlations.csv").read_text(encoding="utf-8").splitlines(True)
        )
        assert Counter(cell.language for cell in cells) == {"#x": 12, "y": 12}
        # The finished rerun counts the same rows and cells.
        monkeypatch.setattr(sweep, "run_sweep", _no_sweep)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("trial", range(3))
    def test_models_cut_from_one_training_equal_direct_training(self, tmp_path, trial):
        # The sweep trains each merge kind once, at its largest size, and
        # cuts the smaller sizes from that model.
        rng = random.Random(5000 + trial)
        corpus = random_corpus(rng, max_types=40)
        lines = [" ".join([word] * freq) for word, freq in sorted(corpus.items())]
        _write(tmp_path / "corpus.txt", "\n".join(lines) + "\n")
        dataset = CuratedDataset(
            [WordEntry(word, (word,), ("X",)) for word in sorted(corpus)],
            language="rnd",
        )
        with (tmp_path / "curated.tsv").open("w", encoding="utf-8") as handle:
            write_curated(dataset, handle)
        alphabet = len({ch for word in corpus for ch in word})
        # Unsorted, with a size below the alphabet and one past the point
        # where merges run out.
        sizes = [alphabet + 6, alphabet - 1, 1000, alphabet, alphabet + 2]
        doc = {
            "seed": 3,
            "epochs": 1,
            "kinds": ["bpe", "wordpiece"],
            "vocab_sizes": sizes,
            "modes": ["split"],
            "aggregations": ["mean"],
            "thresholds": [0.01],
            "include_baselines": False,
            "output_dir": "out",
            "languages": {"rnd": {"corpus": "corpus.txt", "curated": "curated.tsv"}},
        }
        config_path = _write(tmp_path / "sweep.json", json.dumps(doc))
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        failures = (out / "failures.csv").read_text(encoding="utf-8")
        for kind in ("bpe", "wordpiece"):
            config = TrainConfig(kind=TokenizerKind(kind), vocab_size=1000)
            assert len(train(corpus, config).vocab) < 1000
            for size in sizes:
                path = out / "rnd" / "models" / f"{kind}-{size}.json"
                if size < alphabet:
                    assert f"rnd/{kind}-{size}/train" in failures
                    assert not path.exists()
                    continue
                config = TrainConfig(kind=TokenizerKind(kind), vocab_size=size, seed=3)
                direct = model_to_json(train(corpus, config))
                assert path.read_text(encoding="utf-8") == direct
        assert failures.count("/train") == 2

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("thresholds", [0.01, 0.3, 0.01], "[0.01, 0.3, 0.01] repeats a value"),
            ("aggregations", ["mean", "max", "mean"], "['mean', 'max', 'mean'] repeats a value"),
            ("vocab_sizes", [60, 80, 60], "[60, 80, 60] repeats a value"),
            ("thresholds", [0.01, 1.5], "threshold must be in [0, 1), got 1.5"),
            ("thresholds", [-0.1, 0.3], "threshold must be in [0, 1), got -0.1"),
            ("epochs", "x", "'x' is not of type int"),
            ("epochs", 0, "0 is below 1"),
            ("vocab_sizes", [60, 0], "0 is below 1"),
            ("modes", [], "the list is empty"),
            ("output_dir", "out\0", "'out\\x00' is not a non-empty path without NUL"),
            ("thresholds", 0.3, "0.3 is not of type list"),
            # A baseline in kinds would train once per size, under as
            # many labels of one model.
            ("kinds", ["character"], "'character' is a baseline"),
            ("kinds", ["gold", "bpe"], "'gold' is a baseline"),
            # JSON types follow the rule of model files (`files.json_typed`):
            # a bool is no number, and a float no integer.
            ("seed", True, "True is not of type int"),
            ("epochs", 2.0, "2.0 is not of type int"),
            ("include_null", "yes", "'yes' is not of type bool"),
            ("include_baselines", 1, "1 is not of type bool"),
            ("output_dir", 7, "7 is not of type str"),
            ("kinds", "bpe", "'bpe' is not of type list"),
            ("thresholds", [True], "True is not of type float"),
        ],
        ids=[
            "duplicate-threshold",
            "duplicate-aggregation",
            "duplicate-vocab-size",
            "threshold-above-range",
            "threshold-below-range",
            "epochs-not-integer",
            "epochs-below-one",
            "vocab-size-below-one",
            "modes-empty",
            "output-dir-with-nul",
            "thresholds-not-list",
            "baseline-kind",
            "baseline-among-kinds",
            "seed-bool",
            "epochs-float",
            "include-null-string",
            "include-baselines-integer",
            "output-dir-number",
            "kinds-string",
            "threshold-bool",
        ],
    )
    def test_invalid_config_exits_1_before_training(
        self, tmp_path, capsys, field, value, reason
    ):
        config_path = _sweep_setup(tmp_path, **{field: value})
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        assert f"config error: sweep config field {field}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["top", "language"])
    def test_unknown_key_exits_1_before_any_output(self, tmp_path, capsys, where):
        config_path = _sweep_setup(tmp_path)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        if where == "top":
            # Ignored, it would leave vocab_sizes at the twelve defaults.
            doc["vocab_size"] = [200]
            key = "vocab_size"
        else:
            doc["languages"]["toy"]["curatd"] = "lang/curated.tsv"
            key = "curatd"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        assert f"unknown keys: {key!r}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name", ["", ".", "..", "../escape", "a/b", "a\0b", *_ROOT_FILES])
    def test_language_name_not_one_path_component_exits_1(self, tmp_path, capsys, name):
        # The name is a directory under output_dir; these would share the
        # output root, write outside it, take the place of a combined file,
        # or be no path at all.
        config_path = _sweep_setup(tmp_path)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["languages"] = {name: doc["languages"]["toy"]}
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        reason = ("names a file of the output root" if name in _ROOT_FILES
                  else "is not one plain path component")
        assert f"language name {name!r} {reason}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name", [" toy", "toy ", "a\nb", "a\rb"])
    def test_language_name_a_curated_header_cannot_hold_exits_1(
        self, tmp_path, capsys, monkeypatch, name
    ):
        # The name is the language of the dataset curated from its
        # lexicons, which no lexicon is read to find out.
        monkeypatch.setattr("tokalign.corpus.read_lines", _no_read)
        config_path = _sweep_setup(tmp_path)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["languages"] = {name: doc["languages"]["toy"]}
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        assert f"language name {name!r} is not a language code" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "field", ["corpus", "curated", "features", "segmentations", "output_dir"]
    )
    def test_empty_path_exits_1_before_any_output(self, tmp_path, capsys, field):
        config_path = _sweep_setup(tmp_path)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        spec = doc["languages"]["toy"]
        if field == "output_dir":
            doc["output_dir"] = ""
        elif field == "curated":
            # Without lexicons, the curated path is the only dataset source.
            doc["languages"]["toy"] = {"corpus": spec["corpus"], "curated": ""}
        else:
            spec[field] = ""
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        assert "non-empty path" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("lexicon", ["features", "segmentations"])
    def test_curated_path_with_a_lexicon_exits_1_before_any_output(
        self, tmp_path, capsys, lexicon
    ):
        config_path = _sweep_setup(tmp_path)
        curated, _ = _curated_file(tmp_path)
        toy = {"corpus": "lang/corpus.txt", "curated": curated.name}
        toy[lexicon] = f"lang/{lexicon}.tsv"
        _edit_config(tmp_path, languages={"toy": toy})
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "language 'toy' needs either a curated path or both" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_1_before_reading_the_config(
        self, tmp_path, capsys, jobs
    ):
        # The config does not exist: the flag check comes first.
        code = cli.main(["sweep", "--config", str(tmp_path / "nope.json"), "--jobs", jobs])
        assert code == 1
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_dir_flag_exits_1_before_reading_the_config(
        self, tmp_path, capsys
    ):
        code = cli.main(
            ["sweep", "--config", str(tmp_path / "nope.json"), "--output-dir", ""]
        )
        assert code == 1
        assert "--output-dir must be a non-empty path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_input_path_exits_1(self, tmp_path, capsys):
        doc = {
            "languages": {
                "toy": {
                    "corpus": "missing.txt",
                    "curated": "missing.tsv",
                }
            }
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        assert "does not exist" in capsys.readouterr().err


def _mtimes(root):
    return {path: path.stat().st_mtime_ns for path in sorted(root.rglob("*"))}


def _edit_point(tmp_path, out):
    point = out / "toy" / "points" / "bpe-60-split.csv"
    seed_line, header, row, *rest = point.read_text(encoding="utf-8").splitlines(True)
    cells = row.split(",")
    cells[header.split(",").index("alignment_score")] = "0.5"
    _write(point, "".join([seed_line, header, ",".join(cells), *rest]))


def _append(path, text):
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)


# Each edit to a finished tree, its config or its inputs after which a
# rerun must run the full sweep.
_MISSES = {
    "input": lambda tmp_path, out: _append(tmp_path / "lang" / "corpus.txt", "kamit\n"),
    "point-deleted": lambda tmp_path, out: (
        out / "toy" / "points" / "bpe-60-split.csv"
    ).unlink(),
    "model-deleted": lambda tmp_path, out: (out / "toy" / "models" / "bpe-60.json").unlink(),
    "correlations-deleted": lambda tmp_path, out: (out / "correlations.csv").unlink(),
    "failures-present": lambda tmp_path, out: _write(out / "failures.csv", "point,error\n"),
    "key-deleted": lambda tmp_path, out: (
        out / "toy" / "points" / "bpe-60-split.csv.key"
    ).unlink(),
}
# Each edit that no key covers, after which a rerun does nothing: a
# reformatted config means the same sweep, and a key vouches for the
# inputs a file was made from, not for the bytes an editor left in it.
_HITS = {
    "config-byte": lambda tmp_path, out: _append(tmp_path / "sweep.json", "\n"),
    "point-edited": _edit_point,
    "scores-edited": lambda tmp_path, out: _append(out / "scores.csv", "\n"),
}


def _combined_keys(out):
    return [layout._key_path(out / name) for name in ("scores.csv", "correlations.csv")]


def _no_sweep(*args):
    raise AssertionError("a finished sweep ran again")


class TestFinishedSweep:
    """A sweep that finished with no failures keys its combined CSVs; a rerun checks every key."""

    def test_rerun_prints_the_summary_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        config_path = _sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path)]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        out = tmp_path / "out"
        assert all(path.exists() for path in _combined_keys(out))
        before = _mtimes(out)
        monkeypatch.setattr(sweep, "run_sweep", _no_sweep)
        assert cli.main(argv + ["--jobs", "2"]) == 0
        again = capsys.readouterr()
        assert again.out == first.out
        assert again.err == ""
        assert _mtimes(out) == before

    @pytest.mark.parametrize("edit", [*_MISSES, "program"])
    def test_any_change_runs_the_full_sweep(self, tmp_path, capsys, monkeypatch, edit):
        config_path = _sweep_setup(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        argv = ["sweep", "--config", str(config_path), "--output-dir"]
        assert cli.main(argv + [str(out)]) == 0
        if edit == "program":
            monkeypatch.setattr(files, "_program_digest", lambda: "0" * 64)
        else:
            _MISSES[edit](tmp_path, out)
        capsys.readouterr()
        runs = []
        run_sweep = sweep.run_sweep
        monkeypatch.setattr(sweep, "run_sweep", lambda *a: runs.append(1) or run_sweep(*a))
        assert cli.main(argv + [str(out)]) == 0
        rerun_out = capsys.readouterr().out
        # A sweep from nothing, after the same edit, is what the rerun must match.
        assert cli.main(argv + [str(fresh)]) == 0
        assert capsys.readouterr().out == rerun_out.replace(str(out), str(fresh))
        assert runs == [1, 1]
        assert _tree(out) == _tree(fresh)

    @pytest.mark.parametrize("edit", _HITS)
    def test_edit_that_no_key_covers_reruns_nothing(self, tmp_path, capsys, monkeypatch, edit):
        config_path = _sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path)]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        out = tmp_path / "out"
        _HITS[edit](tmp_path, out)
        before = _mtimes(out)
        monkeypatch.setattr(sweep, "run_sweep", _no_sweep)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert _mtimes(out) == before

    def test_combined_key_bytes_do_not_depend_on_jobs_or_output_dir(self, tmp_path, capsys):
        config_path = _sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path), "--output-dir"]
        for name, jobs in (("a", "1"), ("b", "2")):
            assert cli.main(argv + [str(tmp_path / name), "--jobs", jobs]) == 0
        key_bytes = [path.read_bytes() for path in _combined_keys(tmp_path / "a")]
        assert [path.read_bytes() for path in _combined_keys(tmp_path / "b")] == key_bytes
        assert key_bytes[0] == key_bytes[1]
        assert str(tmp_path).encode() not in key_bytes[0]
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
        capsys.readouterr()
        # The summary names the output directory as given.
        assert cli.main(argv + [str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == (
            f"sweep complete: 24 score rows, 12 report cells under {tmp_path / 'b'}\n"
        )

    @pytest.mark.parametrize(
        "vocab_sizes, include_baselines, code",
        [((2, 60), True, 0), ((2,), False, 2)],
        ids=["failures", "no-report"],
    )
    def test_run_with_failures_leaves_no_combined_key(
        self, tmp_path, vocab_sizes, include_baselines, code
    ):
        config_path = _sweep_setup(tmp_path)
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        keys = _combined_keys(tmp_path / "out")
        assert all(path.exists() for path in keys)
        config_path = _sweep_setup(tmp_path, vocab_sizes, include_baselines=include_baselines)
        assert cli.main(["sweep", "--config", str(config_path)]) == code
        assert not any(path.exists() for path in keys)

    def test_resume_after_deleting_a_point_does_not_warn(self, tmp_path, capsys):
        config_path = _sweep_setup(tmp_path)
        argv = ["sweep", "--config", str(config_path)]
        assert cli.main(argv) == 0
        (tmp_path / "out" / "toy" / "points" / "bpe-60-split.csv").unlink()
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out" / "toy" / "points" / "bpe-60-split.csv").exists()

    @pytest.mark.parametrize("where", ["out", "out/toy"])
    def test_output_path_that_is_a_file_exits_1_before_any_job(
        self, tmp_path, capsys, where
    ):
        config_path = _sweep_setup(tmp_path)
        blocker = tmp_path / where
        blocker.parent.mkdir(exist_ok=True)
        _write(blocker, "not a directory\n")
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: output path {blocker} exists and is not a directory\n"
        assert [p.name for p in tmp_path.rglob("*.json")] == ["sweep.json"]
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"


# ROADMAP item 1's stale-resume reproduction changes the config this way.
_BUG_2 = {"thresholds": [0.01, 0.3], "epochs": 1}


def _bug_2_without_combined_keys(tmp_path):
    # As after a run with failures, which keys neither combined CSV.
    _edit_config(tmp_path, **_BUG_2)
    for path in _combined_keys(tmp_path / "out"):
        path.unlink()


def _bug_2_undone(tmp_path, crash=False):
    """Delete a point and rerun under the Bug 2 config, then restore the config.

    With `crash`, the rerun stops between writing its first point and
    writing that point's key.
    """
    (tmp_path / "out" / "toy" / "points" / "bpe-60-split.csv").unlink()
    original = (tmp_path / "sweep.json").read_bytes()
    _edit_config(tmp_path, **_BUG_2)

    class Crash(BaseException):
        pass

    def write(path, text, atomic_write=layout.atomic_write):
        if crash and path.name.endswith(".csv.key"):
            raise Crash
        atomic_write(path, text)

    with pytest.MonkeyPatch.context() as patch, pytest.raises(Crash) if crash else nullcontext():
        patch.setattr(layout, "atomic_write", write)
        assert cli.main(["sweep", "--config", str(tmp_path / "sweep.json")]) == 0
    (tmp_path / "sweep.json").write_bytes(original)


def _halve(path):
    lines = path.read_text(encoding="utf-8").splitlines(True)
    _write(path, "".join(lines[: len(lines) // 2]))


_GRID = {(kind, size, "split") for kind in ("bpe", "unigram") for size in (60, 80)}
_GRID |= {("character", 0, "split"), ("gold", 0, "split")}
# Each edit to a swept tree or its inputs (config fields, or a function of
# the test directory), and the (kind, size, mode) of every point that a
# rerun must evaluate again.
_EDITS = {
    "kind-added": (
        {"kinds": ["bpe", "unigram", "wordpiece"]},
        {("wordpiece", 60, "split"), ("wordpiece", 80, "split")},
    ),
    "vocab-size-added": (
        {"vocab_sizes": [60, 80, 100]}, {("bpe", 100, "split"), ("unigram", 100, "split")}
    ),
    "mode-added": (
        {"modes": ["split", "joint"]}, {(kind, size, "joint") for kind, size, _ in _GRID}
    ),
    "aggregation-order": ({"aggregations": ["max", "mean"]}, _GRID),
    "thresholds": ({"thresholds": [0.01, 0.3]}, _GRID),
    "epochs": ({"epochs": 1}, _GRID),
    "seed": ({"seed": 1}, _GRID),
    "baselines-dropped": ({"include_baselines": False}, set()),
    "include-null": ({"include_null": True}, _GRID),
    "config-no-combined-key": (_bug_2_without_combined_keys, _GRID),
    "config-undone": (_bug_2_undone, _GRID),
    # The crashed run's point has no key, so it alone is made again.
    "crash-at-a-key": (
        lambda tmp_path: _bug_2_undone(tmp_path, crash=True), {("bpe", 60, "split")}
    ),
    "corpus": (
        lambda tmp_path: _append(tmp_path / "lang" / "corpus.txt", "kamit kamol\n" * 50),
        _GRID - {("gold", 0, "split")},
    ),
    "lexicon": (lambda tmp_path: _halve(tmp_path / "lang" / "features.tsv"), _GRID),
}


class TestResumeKeys:
    """A rerun reuses a curated file, model or point only under its inputs' key."""

    @pytest.mark.parametrize("edit", _EDITS)
    def test_rerun_after_an_edit_matches_a_fresh_sweep(self, tmp_path, monkeypatch, edit):
        kinds = ["bpe", "unigram"]
        config_path = _sweep_setup(tmp_path, kinds=kinds, thresholds=[0.01], epochs=10)
        argv = ["sweep", "--config", str(config_path)]
        assert cli.main(argv) == 0
        change, expected = _EDITS[edit]
        if isinstance(change, dict):
            _edit_config(tmp_path, **change)
        else:
            change(tmp_path)
        evaluated = set()
        evaluate = sweep.run_evaluation

        def recording(dataset, model, segmented, mode, *args):
            evaluated.add((model.kind.value, model.vocab_size, mode.value))
            return evaluate(dataset, model, segmented, mode, *args)

        monkeypatch.setattr(sweep, "run_evaluation", recording)
        assert cli.main(argv) == 0
        assert evaluated == expected
        assert cli.main(argv + ["--output-dir", str(tmp_path / "fresh")]) == 0
        # A dropped baseline's files stay behind, in no combined CSV.
        left = ("/character-0", "/gold-0") if edit == "baselines-dropped" else ()
        out = {path: data for path, data in _tree(tmp_path / "out").items()
               if not any(stem in path for stem in left)}
        assert out == _tree(tmp_path / "fresh")

    def test_every_config_field_has_an_edit(self):
        # A field that no edit changes could be left out of the point keys
        # unseen.  `output_dir` places the tree and makes none of its
        # contents: the combined-key test runs one sweep into two of them.
        edited = {field for change, _ in _EDITS.values()
                  if isinstance(change, dict) for field in change}
        assert edited == set(layout.FIELDS) - {"output_dir"}


class TestReadOnce:
    """A sweep reads each input once per process, and only within that sweep."""

    def test_jobs_1_sweep_reads_each_language_once(self, tmp_path, monkeypatch):
        config_path = _sweep_setup(tmp_path)
        shutil.copytree(tmp_path / "lang", tmp_path / "lang2")
        toy = json.loads(config_path.read_text(encoding="utf-8"))["languages"]["toy"]
        two = {key: path.replace("lang/", "lang2/") for key, path in toy.items()}
        _edit_config(tmp_path, languages={"toy": toy, "two": two})
        calls = Counter()
        for module, name in ((corpus, "read_curated"), (tokenizers, "word_frequencies")):
            def counted(*args, _read=getattr(module, name), _name=name):
                calls[_name] += 1
                return _read(*args)

            monkeypatch.setattr(module, name, counted)
        assert cli.main(["sweep", "--config", str(config_path), "--jobs", "1"]) == 0
        # Each language has six jobs, of which three train from the corpus.
        assert calls == {"read_curated": 2, "word_frequencies": 2}
        scores = (tmp_path / "out" / "scores.csv").read_text(encoding="utf-8")
        rows = read_score_rows(scores.splitlines(True))
        assert {row.language for row in rows} == {"toy", "two"}

    def test_sweep_after_the_curated_file_changes_reads_it_again(self, tmp_path):
        config_path = _sweep_setup(tmp_path)
        lang = tmp_path / "lang"
        curated = lang / "curated.tsv"
        assert cli.main(["curate", "--features", str(lang / "features.tsv"),
                         "--segmentations", str(lang / "segmentations.tsv"),
                         "--out", str(curated), "--language", "toy"]) == 0
        _edit_config(tmp_path, languages={
            "toy": {"corpus": "lang/corpus.txt", "curated": "lang/curated.tsv"}})
        argv = ["sweep", "--config", str(config_path), "--jobs", "1"]
        scores = tmp_path / "out" / "scores.csv"
        assert cli.main(argv) == 0
        first = scores.read_bytes()
        lines = curated.read_text(encoding="utf-8").splitlines(keepends=True)
        _write(curated, "".join(lines[:1] + lines[1::2]))
        assert cli.main(argv) == 0
        second = scores.read_bytes()
        assert second != first
        # A fresh process has read nothing before.
        shutil.rmtree(tmp_path / "out")
        result = subprocess.run([sys.executable, "-m", "tokalign.cli", *argv],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert scores.read_bytes() == second

    def test_train_tokenizer_twice_reads_the_edited_corpus(self, tmp_path):
        corpus_path = _write(tmp_path / "corpus.txt", "abab abab\nabab ab\n")
        out = tmp_path / "bpe.json"
        argv = ["train-tokenizer", "--corpus", str(corpus_path), "--kind", "bpe",
                "--vocab-size", "4", "--out", str(out)]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        _write(corpus_path, "cdcd cdcd\ncdcd cd\n")
        assert cli.main(argv) == 0
        assert out.read_bytes() != first
        want = train({"cdcd": 3, "cd": 1}, TrainConfig(TokenizerKind.BPE, 4))
        assert out.read_text(encoding="utf-8") == model_to_json(want)


class TestReportCommand:
    def test_builds_report_from_scores(self, tmp_path, capsys):
        rows = [
            ScoreRow("toy", "bpe", 200, "split", "mean", 0.01, 0.1, 0.9, 0.3, 0.5, 0),
            ScoreRow("toy", "bpe", 400, "split", "mean", 0.01, 0.2, 0.8, 0.2, 0.5, 0),
            ScoreRow("toy", "bpe", 800, "split", "mean", 0.01, 0.3, 0.7, 0.1, 0.5, 0),
        ]
        scores = tmp_path / "scores.csv"
        with scores.open("w", encoding="utf-8") as handle:
            write_score_rows(rows, handle, seed=0)
        out = tmp_path / "correlations.csv"
        assert cli.main(["report", "--scores", str(scores), "--out", str(out)]) == 0
        assert "report cells" in capsys.readouterr().out
        cells = read_report_cells(out.read_text(encoding="utf-8").splitlines(True))
        assert len(cells) == 6

    def test_reads_the_scores_of_a_language_that_starts_with_a_hash(self, tmp_path, capsys):
        # Only the lines above a CSV's header are comments.
        curated, dataset = _curated_file(tmp_path)
        model = tmp_path / "gold.json"
        save_model(build_gold_lookup(dataset), model)
        scores, out = tmp_path / "scores.csv", tmp_path / "correlations.csv"
        assert cli.main(["evaluate", "--curated", str(curated), "--model", str(model),
                         "--language", "#z", "--out", str(scores)]) == 0
        assert cli.main(["report", "--scores", str(scores), "--out", str(out)]) == 0
        assert "wrote 165 report cells" in capsys.readouterr().out
        cells = read_report_cells(out.read_text(encoding="utf-8").splitlines(True))
        assert {cell.language for cell in cells} == {"#z"}

    def test_failed_report_removes_earlier_output(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        with scores.open("w", encoding="utf-8") as handle:
            write_score_rows([], handle, seed=0)
        out = _write(tmp_path / "r.csv", "an earlier report\n")
        code = cli.main(["report", "--scores", str(scores), "--out", str(out)])
        assert code == 2
        assert "zero score rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_rejects_a_non_finite_alignment_score(self, tmp_path, capsys, cell):
        rows = [
            ScoreRow("toy", "bpe", size, "split", "mean", 0.01, 0.1 * i, 0.9, 0.3, 0.5, 0)
            for i, size in enumerate((200, 400, 800))
        ]
        scores = tmp_path / "scores.csv"
        with scores.open("w", encoding="utf-8") as handle:
            write_score_rows(rows, handle, seed=0)
        text = scores.read_text(encoding="utf-8")
        _write(scores, text.replace(",0.1,0.9,", f",{cell},0.9,"))
        out = tmp_path / "r.csv"
        code = cli.main(["report", "--scores", str(scores), "--out", str(out)])
        assert code == 2
        assert f"{cell!r} is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def _scores(self, tmp_path, seed):
        rows = [
            ScoreRow("toy", "bpe", size, "split", "mean", 0.01, 0.1 * i, 0.9, 0.3, 0.5, 0)
            for i, size in enumerate((200, 400, 800))
        ]
        scores = tmp_path / "scores.csv"
        with scores.open("w", encoding="utf-8") as handle:
            write_score_rows(rows, handle, seed=seed)
        return scores

    @pytest.mark.parametrize(
        "file_seed, flag, report_seed",
        [(5, [], 5), (5, ["--seed", "5"], 5), (None, [], 0), (None, ["--seed", "4"], 4)],
    )
    def test_report_carries_the_seed_of_its_scores(
        self, tmp_path, file_seed, flag, report_seed
    ):
        scores = self._scores(tmp_path, file_seed)
        out = tmp_path / "r.csv"
        assert cli.main(["report", "--scores", str(scores), "--out", str(out), *flag]) == 0
        assert out.read_text(encoding="utf-8").startswith(f"# seed: {report_seed}\n")

    def test_seed_flag_contradicting_the_scores_exits_1(self, tmp_path, capsys):
        scores = self._scores(tmp_path, 5)
        out = tmp_path / "r.csv"
        argv = ["report", "--scores", str(scores), "--out", str(out), "--seed", "0"]
        assert cli.main(argv) == 1
        assert "--seed 0 contradicts seed 5" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_malformed_scores(self, tmp_path):
        scores = _write(tmp_path / "scores.csv", "not,a,header\n")
        code = cli.main(
            ["report", "--scores", str(scores), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2


class TestUsage:
    @pytest.mark.parametrize("command", ["curate", "segment", "evaluate", "report"])
    def test_input_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\n")
        segments = _write(tmp_path / "segments.tsv", SEGMENTS)
        curated, _ = _curated_file(tmp_path)
        out = tmp_path / "out"
        argv = {
            "curate": ["curate", "--features", bad, "--segmentations", segments],
            "segment": ["segment", "--model", bad, "kamit"],
            "evaluate": ["evaluate", "--curated", curated, "--model", bad],
            "report": ["report", "--scores", bad],
        }[command]
        if command != "segment":
            argv += ["--out", out]
        assert cli.main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err
        assert not out.exists()

    def test_no_command_prints_help_and_exits_1(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_argument_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1


class TestSubprocess:
    @pytest.mark.parametrize("kind", ["bpe", "wordpiece", "unigram"])
    def test_model_files_ignore_hash_randomization(self, tmp_path, kind):
        # Byte-identical models across interpreter runs with different
        # hash seeds prove no set-iteration order leaks into output.
        corpus = tmp_path / "corpus.txt"
        config = SynthConfig(
            noun_stems=20, verb_stems=20, sentences=60, words_per_sentence=6
        )
        write_language(build_language(config), tmp_path)
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"model-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [
                    sys.executable, "-m", "tokalign.cli",
                    "train-tokenizer",
                    "--corpus", str(corpus),
                    "--kind", kind,
                    "--vocab-size", "40",
                    "--out", str(out),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_module_entry_point_reports_usage(self):
        result = subprocess.run(
            [sys.executable, "-m", "tokalign.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "curate" in result.stdout
        assert "sweep" in result.stdout
