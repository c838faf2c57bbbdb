"""Traced, serial, in-process replay of `tokalign sweep`.

The replay calls each module's public functions in the order the sweep
calls them and records a span around every call.  It writes the same
`scores.csv` and `correlations.csv` as the sweep, byte for byte, which
the benchmark checks, so the spans time the program the sweep runs.

Spans live in memory and are written out when the benchmark ends.  A
span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from tokalign import cli, corpus, ibm1, metrics, stats, tokenizers
from tokalign.errors import TokalignError, UncoverableWord
from tokalign.metrics import ScoreConfig, ScoreRow
from tokalign.tokenizers import TokenizerKind, TrainConfig

ROOT_SPAN = "sweep"


@dataclass
class Span:
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, run: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, run, parent, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self, run: str) -> list[tuple[Span, float]]:
        """(span, self time) for every span of one run."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [
            (span, span.duration - child_time[i])
            for i, span in enumerate(self.spans)
            if span.run == run
        ]

    def layer_self_times(self, run: str) -> dict[str, float]:
        """Self time summed per span name over one run."""
        totals: dict[str, float] = {}
        for span, self_time in self.self_times(run):
            totals[span.name] = totals.get(span.name, 0.0) + self_time
        return totals

    def root(self, run: str) -> Span:
        return next(s for s in self.spans if s.run == run and s.parent is None)

    def to_json(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _read_lines(path: Path) -> list[str]:
    with path.open("r", encoding="utf-8") as handle:
        return handle.readlines()


def _write(path: Path, text: str) -> None:
    # Same temp-file-and-rename write as the sweep.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def trace_curate(
    tracer: Tracer, run: str, features: Path, segmentations: Path, language: str
) -> str:
    """Curate in-process as `tokalign curate` does; returns the TSV text."""
    with tracer.span("corpus.curate", run):
        feature_rows, _ = corpus.parse_feature_lexicon(_read_lines(features))
        seg_map, _ = corpus.parse_segmentation_lexicon(_read_lines(segmentations))
        dataset, join_stats = corpus.curate(seg_map, feature_rows, language=language)
        buffer = io.StringIO()
        corpus.write_curated(dataset, buffer)
    tracer.counts["corpus.entries"] += len(dataset)
    tracer.counts["corpus.dropped"] += join_stats.dropped
    return buffer.getvalue()


def start_interpreter(env: dict[str, str]) -> None:
    """Start a fresh interpreter that imports `tokalign.cli`, as a sweep does."""
    subprocess.run([sys.executable, "-c", "import tokalign.cli"], env=env, check=True)


class SweepReplay:
    """One traced replay of the sweep described by a config file."""

    def __init__(self, tracer: Tracer, run: str, env: dict[str, str]) -> None:
        self.tracer = tracer
        self.run = run
        self.env = env
        self.models: list[Path] = []

    def span(self, name: str):
        return self.tracer.span(name, self.run)

    def sweep(self, config_path: Path, out: Path) -> None:
        """Mirror `cmd_sweep`: train, evaluate, then assemble the CSVs."""
        with self.span(ROOT_SPAN):
            with self.span("cli.startup"):
                start_interpreter(self.env)
            config = cli.load_sweep_config(config_path)
            config.output_dir = out
            failures: list[tuple[str, str]] = []
            all_rows: list[ScoreRow] = []
            for spec in config.languages:
                for point_path in self._language(config, spec, failures):
                    with self.span("metrics.rows_io"):
                        all_rows.extend(metrics.read_score_rows(_read_lines(point_path)))
            with self.span("metrics.rows_io"):
                buffer = io.StringIO()
                metrics.write_score_rows(all_rows, buffer, seed=config.seed)
                _write(out / "scores.csv", buffer.getvalue())
            with self.span("stats.report"):
                report = stats.build_report(all_rows)
                buffer = io.StringIO()
                stats.write_report(report, buffer, seed=config.seed)
                _write(out / "correlations.csv", buffer.getvalue())
            self.tracer.counts["stats.cells"] += len(report.cells)
            if failures:
                buffer = io.StringIO()
                writer = csv.writer(buffer, lineterminator="\n")
                writer.writerow(["point", "error"])
                writer.writerows(failures)
                _write(out / "failures.csv", buffer.getvalue())

    def _language(self, config, spec, failures) -> list[Path]:
        """Mirror `_sweep_language` for a language with a curated file."""
        if spec.curated is None:
            raise ValueError("the replay expects a curated path in the config")
        out = config.output_dir
        grid = [(kind, size) for kind in config.kinds for size in config.vocab_sizes]
        if config.include_baselines:
            grid.extend((kind, 0) for kind in cli.BASELINE_KINDS)
        trained: list[tuple[TokenizerKind, int, Path]] = []
        for kind, size in grid:
            path = out / spec.name / "models" / f"{kind.value}-{size}.json"
            if not path.exists():
                label = f"{kind.value}-{size}"
                try:
                    with self.span(f"tokenizers.train.{label}"):
                        model = self._train(kind, size, config.seed, spec)
                except TokalignError as exc:
                    failures.append(
                        (f"{spec.name}/{label}/train", f"{type(exc).__name__}: {exc}")
                    )
                    continue
                self.tracer.counts[f"tokenizers.vocab_achieved.{label}"] += len(model.vocab)
                self.tracer.counts[f"tokenizers.merges.{label}"] += len(model.merges)
                with self.span("tokenizers.model_io"):
                    _write(path, tokenizers.model_to_json(model))
            trained.append((kind, size, path))
            self.models.append(path)

        point_files: list[Path] = []
        for kind, size, model_path in trained:
            for mode in config.modes:
                stem = f"{kind.value}-{size}-{mode.value}"
                point_path = out / spec.name / "points" / f"{stem}.csv"
                table_path = out / spec.name / "tables" / f"{stem}.json"
                point_files.append(point_path)
                if point_path.exists():
                    continue
                try:
                    self._point(config, spec, model_path, mode, point_path, table_path)
                except TokalignError as exc:
                    failures.append((stem, f"{type(exc).__name__}: {exc}"))
        return [p for p in point_files if p.exists()]

    def _train(self, kind: TokenizerKind, size: int, seed: int, spec):
        """Mirror `_train_model`."""
        if kind is TokenizerKind.GOLD:
            return tokenizers.build_gold_lookup(
                corpus.read_curated(_read_lines(spec.curated))
            )
        freqs = dict(tokenizers.word_frequencies(_read_lines(spec.corpus)))
        if kind is TokenizerKind.CHARACTER:
            return tokenizers.train_character(freqs)
        return tokenizers.train(freqs, TrainConfig(kind=kind, vocab_size=size, seed=seed))

    def _point(self, config, spec, model_path, mode, point_path, table_path) -> None:
        """Mirror `_eval_point_job` and `run_evaluation` for one point."""
        counts = self.tracer.counts
        with self.span("corpus.read"):
            dataset = corpus.read_curated(_read_lines(spec.curated))
        with self.span("tokenizers.model_io"):
            model = tokenizers.load_model(model_path)
        with self.span("ibm1.build_corpus"):
            pairs, excluded = ibm1.build_parallel_corpus(
                dataset, model, mode, include_null=config.include_null
            )
        counts["ibm1.excluded"] += excluded
        counts["ibm1.estep_links"] += config.epochs * sum(
            len(p.source) * len(p.target) for p in pairs
        )
        counts["ibm1.epochs"] += config.epochs
        with self.span("ibm1.em"):
            table = ibm1.train_ibm1(pairs, epochs=config.epochs)
        counts["ibm1.table_entries"] += sum(len(row) for row in table.probs.values())
        with self.span("metrics.prf"):
            precision, recall, f1, _ = metrics.boundary_prf(dataset, model)
        rows: list[ScoreRow] = []
        for aggregation in config.aggregations:
            for threshold in config.thresholds:
                score_config = ScoreConfig(
                    aggregation=aggregation, threshold=threshold, mode=mode
                )
                with self.span("metrics.score"):
                    score = metrics.alignment_score_from_pairs(table, pairs, score_config)
                counts["metrics.score_calls"] += 1
                rows.append(
                    ScoreRow(
                        language=spec.name,
                        kind=model.kind.value,
                        vocab_size=model.vocab_size,
                        mode=mode.value,
                        aggregation=aggregation.value,
                        threshold=threshold,
                        alignment=score,
                        precision=precision,
                        recall=recall,
                        f1=f1,
                        excluded=excluded,
                    )
                )
        with self.span("ibm1.table_io"):
            _write(table_path, ibm1.table_to_json(table))
        with self.span("metrics.rows_io"):
            buffer = io.StringIO()
            metrics.write_score_rows(rows, buffer, seed=config.seed)
            _write(point_path, buffer.getvalue())

    def probe_segmentation(self, curated: Path) -> None:
        """Segment every curated form once with each of the grid's models.

        Runs under its own run id after the sweep, so it adds nothing
        to the sweep's traced total.
        """
        dataset = corpus.read_curated(_read_lines(curated))
        for path in self.models:
            model = tokenizers.load_model(path)
            with self.tracer.span("tokenizers.segment", self.run + "/probe"):
                for entry in dataset.entries:
                    try:
                        tokenizers.canonical_subwords(
                            model, tokenizers.segment(model, entry.form)
                        )
                    except UncoverableWord:
                        pass
