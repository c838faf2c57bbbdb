"""Exact bytes of the three result CSVs: scores, correlations and failures.

Resumed sweeps and the benchmark's output hashes compare these files
byte for byte, so any change to quoting, float text or the seed line
shows here first.
"""

import io

from tokalign import sweep
from tokalign.files import Digests
from tokalign.metrics import ScoreRow, write_score_rows
from tokalign.stats import CorrelationCell, CorrelationReport, write_report
from tokalign.layout import LanguageSpec, SweepConfig

ROWS = [
    ScoreRow("toy", "bpe", 200, "split", "mean", 0.1 + 0.2, 1 / 3, 0.5, 1.0, 2 / 3, 0),
    ScoreRow("toy", "gold", 0, "joint", "log", 0.01, -12.75, 1.0, 1.0, 1.0, 3),
]

SCORES_TEXT = (
    "# seed: 7\n"
    "language,kind,vocab_size,mode,aggregation,threshold,alignment_score,"
    "precision,recall,f1,excluded_count\n"
    "toy,bpe,200,split,mean,0.30000000000000004,0.3333333333333333,"
    "0.5,1.0,0.6666666666666666,0\n"
    "toy,gold,0,joint,log,0.01,-12.75,1.0,1.0,1.0,3\n"
)


def test_score_csv_bytes():
    buf = io.StringIO()
    write_score_rows(ROWS, buf, seed=7)
    assert buf.getvalue() == SCORES_TEXT


def test_report_bytes_with_an_empty_rho():
    report = CorrelationReport(
        [
            CorrelationCell("toy", "split", "mean", 0.1 + 0.2, "recall", "all", 4,
                            -0.7999999999999999, "ok"),
            CorrelationCell("toy", "split", "mean", 0.1 + 0.2, "f1", "bpe", 3,
                            None, "constant-series"),
        ]
    )
    buf = io.StringIO()
    write_report(report, buf)
    assert buf.getvalue() == (
        "language,mode,aggregation,threshold,target_metric,scope,n_points,rho,status\n"
        "toy,split,mean,0.30000000000000004,recall,all,4,-0.7999999999999999,ok\n"
        "toy,split,mean,0.30000000000000004,f1,bpe,3,,constant-series\n"
    )


def test_failures_csv_bytes(tmp_path, monkeypatch):
    failures = [
        ("toy/bpe-2/train", "ConfigError: vocab size 2 is below the alphabet"),
        ("toy/bpe-60-split", 'ValueError: bad "cell", twice'),
    ]
    monkeypatch.setattr(sweep, "_sweep", lambda config, jobs, digests: (ROWS, failures, {}))
    # Fields take the sweep config's JSON values.
    config = SweepConfig(
        [LanguageSpec("toy", corpus=tmp_path / "corpus.txt")],
        kinds=["bpe"],
        vocab_sizes=[2, 60],
        modes=["split"],
        aggregations=["mean"],
        thresholds=[0.01],
        epochs=1,
        seed=7,
        include_baselines=False,
        include_null=False,
        output_dir=str(tmp_path / "out"),
    )
    sweep.run_sweep(config, 1, Digests())
    out = tmp_path / "out"
    assert (out / "scores.csv").read_text(encoding="utf-8") == SCORES_TEXT
    assert (out / "failures.csv").read_text(encoding="utf-8") == (
        "point,error\n"
        "toy/bpe-2/train,ConfigError: vocab size 2 is below the alphabet\n"
        'toy/bpe-60-split,"ValueError: bad ""cell"", twice"\n'
    )
