"""Smoke tests of the benchmark on a tiny generated language.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny",
    why="smoke test",
    noun_stems=20,
    verb_stems=20,
    kinds=("bpe", "unigram"),
    vocab_sizes=(40, 60),
    modes=("split",),
    aggregations=("mean", "max"),
    thresholds=(0.01, 0.3),
    epochs=3,
    jobs=1,
    sentences=200,
)


@pytest.fixture
def workdir(monkeypatch, tmp_path: Path) -> Path:
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    return tmp_path


def run_main(argv: list[str], capsys) -> tuple[int, list[str]]:
    code = run.main(argv)
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workdir, capsys, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, lines = run_main(
        ["--workload", TINY.name, "--seconds", "0", "--trace", str(trace)], capsys
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= TINY.points
    expected = {m["name"]: m["unit"] for m in spec[section]}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert expected.items() <= units.items()
    if not trace:
        expected["failed_point_ratio"] = "ratio"
    printed = {line.split()[1]: line.split()[3] for line in lines[:-2]}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def test_trace_self_times_fit_inside_the_traced_total(workdir):
    result, _ = run.run_one(TINY, 0, 0, True, workdir / "trace", {})
    replays = [t for t in result.traces if t.spans[0].name == replay.ROOT_SPAN]
    assert replays
    for tracer in replays:
        run_id = tracer.spans[0].run
        self_times = tracer.self_times(run_id)
        assert all(self_time >= -1e-9 for _span, self_time in self_times)
        total = tracer.root(run_id).duration
        assert sum(self_time for _span, self_time in self_times) <= total + 1e-9
    spans = json.loads((workdir / "trace" / "spans.json").read_text())
    assert spans and set(spans[0]) == {"name", "run", "parent", "start", "end"}


def test_corrupted_reference_hash_is_a_failure(workdir, monkeypatch, capsys):
    good, _ = run.run_one(TINY, 0, 0, False, workdir / "good", {})
    hashes = good.hash_checks[0]["hashes"]
    checked, _ = run.run_one(TINY, 0, 0, False, workdir / "checked", {TINY.name: hashes})
    assert checked.correct and checked.failed == 0
    corrupt = {TINY.name: dict(hashes, **{"scores.csv": "0" * 64})}
    bad, record = run.run_one(TINY, 0, 0, False, workdir / "bad", corrupt)
    assert not bad.correct
    assert bad.failed == bad.attempted == TINY.points
    assert record["metrics"]["failed_point_ratio"]["median"] == 1.0
    monkeypatch.setattr(run, "REFERENCE_HASHES", workdir / "corrupt.json")
    run.REFERENCE_HASHES.write_text(json.dumps(corrupt))
    code, lines = run_main(["--workload", TINY.name, "--seconds", "0"], capsys)
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False


def test_sweep_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    config = workloads.write_inputs(TINY, 0, tmp_path)
    lang = tmp_path / workloads.LANGUAGE
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    log = tmp_path / "stderr.log"
    curate = run.spawn(
        [sys.executable, "-m", "tokalign.cli", "curate",
         "--features", str(lang / "features.tsv"),
         "--segmentations", str(lang / "segmentations.tsv"),
         "--out", str(lang / "curated.tsv"), "--language", workloads.LANGUAGE],
        tmp_path, env, log,
    )
    assert curate.exit_code == 0
    hashes = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out-{hash_seed}"
        stats = run.spawn(
            [sys.executable, "-m", "tokalign.cli", "sweep",
             "--config", str(config), "--output-dir", str(out)],
            tmp_path, dict(env, PYTHONHASHSEED=hash_seed), log,
        )
        assert stats.exit_code == 0
        hashes.append(run.output_hashes(out))
    assert None not in hashes[0].values()
    assert hashes[0] == hashes[1]


def test_generator_capacity_guard(tmp_path):
    from tokalign import synth

    assert workloads.class_capacity(synth.NOUN_CLASSES) == 720
    assert workloads.class_capacity(synth.VERB_CLASSES) == 225
    for workload in run.WORKLOADS.values():
        workloads.check_capacity(workload)
    workloads.check_capacity(replace(TINY, verb_stems=225, noun_stems=720))
    language = synth.build_language(
        synth.SynthConfig(noun_stems=720, verb_stems=225, sentences=1)
    )
    assert len({stem for _form, stem, _suffix, _bundle in language.lexicon}) == 945
    with pytest.raises(workloads.BenchError, match="226 verb stems"):
        workloads.write_inputs(replace(TINY, verb_stems=226), 0, tmp_path)
    with pytest.raises(workloads.BenchError, match="721 noun stems"):
        workloads.write_inputs(replace(TINY, noun_stems=721), 0, tmp_path)


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = run_main(["--workload", "train-grid", "--seconds", "1"], capsys)
    assert code != 0
    assert lines == []


def test_summary_reports_the_highest_percentile_with_ten_beyond():
    assert run.summarize([1.0] * 19)["p_high"] is None
    summary = run.summarize([float(v) for v in range(1, 101)])
    assert summary["n"] == 100
    assert summary["median"] == 50.5
    assert summary["p_high"]["q"] == 90.0
    assert summary["q1"] < summary["median"] < summary["q3"]
