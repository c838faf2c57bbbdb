"""Command line wiring: exit codes, output files, and sweep behavior."""

import json
import os
import random
import subprocess
import sys

import pytest

from conftest import random_corpus
from tokalign import cli
from tokalign.corpus import CuratedDataset, WordEntry, write_curated
from tokalign.ibm1 import load_table
from tokalign.metrics import read_score_rows, write_score_rows, ScoreRow
from tokalign.stats import read_report
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
        table = load_table(table_out)
        assert len(table.loglik_trajectory) == 3

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
            assert len(load_table(table_out).loglik_trajectory) == epochs

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


def _sweep_setup(tmp_path, vocab_sizes=(60, 80)):
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
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    return config_path


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
        report = read_report(
            (out / "correlations.csv").read_text(encoding="utf-8").splitlines(True)
        )
        # 4 (aggregation, threshold) groups x 3 target metrics, "all"
        # scope only: no kind reaches three grid points.
        assert len(report.cells) == 12
        for cell in report.cells:
            assert cell.n_points == 6
            if cell.status == "ok":
                assert -1.0 <= cell.rho <= 1.0
        assert not (out / "failures.csv").exists()
        gold_rows = [r for r in rows if r.kind == "gold"]
        assert all(r.precision == 1.0 and r.recall == 1.0 for r in gold_rows)
        char_rows = [r for r in rows if r.kind == "character"]
        assert all(r.recall == 1.0 for r in char_rows)

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

    def test_clean_rerun_removes_stale_failures(self, tmp_path):
        config_path = _sweep_setup(tmp_path, vocab_sizes=(2, 60))
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "failures.csv").exists()
        config_path = _sweep_setup(tmp_path, vocab_sizes=(30, 60))
        assert cli.main(["sweep", "--config", str(config_path)]) == 0
        assert not (tmp_path / "out" / "failures.csv").exists()

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
        "field, value",
        [
            ("thresholds", [0.01, 0.3, 0.01]),
            ("aggregations", ["mean", "max", "mean"]),
            ("vocab_sizes", [60, 80, 60]),
            ("thresholds", [0.01, 1.5]),
            ("thresholds", [-0.1, 0.3]),
            ("epochs", "x"),
            ("thresholds", 0.3),
        ],
        ids=[
            "duplicate-threshold",
            "duplicate-aggregation",
            "duplicate-vocab-size",
            "threshold-above-range",
            "threshold-below-range",
            "epochs-not-integer",
            "thresholds-not-list",
        ],
    )
    def test_invalid_config_exits_1_before_training(
        self, tmp_path, capsys, field, value
    ):
        config_path = _sweep_setup(tmp_path)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc[field] = value
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["sweep", "--config", str(config_path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        report = read_report(out.read_text(encoding="utf-8").splitlines(True))
        assert len(report.cells) == 6

    def test_rejects_malformed_scores(self, tmp_path):
        scores = _write(tmp_path / "scores.csv", "not,a,header\n")
        code = cli.main(
            ["report", "--scores", str(scores), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2


class TestUsage:
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
