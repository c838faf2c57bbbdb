"""The sweep engine, and the pipeline stages the subcommands share with it.

`tokalign.cli` parses arguments and the sweep config and prints; this
module does the work.  It owns each stage routine that a subcommand and
the sweep both run (curate, build a model, evaluate and write a point,
write the report), the sweep's jobs and process pool, and the layout of
the output tree, which no other module knows.  Every stage reads and
writes plain files, so a sweep is resumable: grid points whose files
exist are skipped, and the combined CSVs are rebuilt from them.
"""

from __future__ import annotations

import io
import os
import sys
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import corpus as corpus_mod
from . import ibm1, metrics, stats, tokenizers
from .corpus import CuratedDataset, FeatureMode, JoinStats, ParseStats
from .errors import ConfigError, DataError, TokalignError
from .metrics import Aggregation, ScoreRow
from .tokenizers import BASELINE_KINDS, TokenizerKind, TokenizerModel, TrainConfig


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_rendered(path: Path, render: Callable[..., None], *args, **kwargs) -> None:
    """Write to `path` what ``render(*args, stream, **kwargs)`` writes.

    The text is rendered in memory first, so a failure part way leaves
    any existing file whole instead of truncated.
    """
    buffer = io.StringIO()
    render(*args, buffer, **kwargs)
    atomic_write(path, buffer.getvalue())


def read_lines(path: Path) -> list[str]:
    try:
        with path.open("r", encoding="utf-8") as handle:
            return handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def load_curated(path: Path) -> CuratedDataset:
    return corpus_mod.read_curated(read_lines(path))


def check_values(label: str, values: Sequence, check: Callable | None = None) -> None:
    """Reject an empty list of config values, a bad value, or a repeated one.

    A repeated value would give two grid points, score rows or languages
    one label.
    """
    if not values:
        raise ConfigError(f"{label} is empty")
    if check is not None:
        for value in values:
            check(value)
    if len(set(values)) != len(values):
        raise ConfigError(f"{label} repeats a value: {values}")


def _check_size(size: int) -> None:
    if size < 1:
        raise ConfigError(f"vocab sizes must be positive, got {size}")


def _check_language_name(name: str) -> None:
    # A name is one directory of the output tree; anything else would put
    # a language's files in the output root or outside it.
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise ConfigError(f"language name {name!r} is not one plain path component")


@dataclass
class LanguageSpec:
    name: str
    corpus: Path
    curated: Path | None = None
    features: Path | None = None
    segmentations: Path | None = None


@dataclass
class SweepConfig:
    languages: list[LanguageSpec]
    kinds: list[TokenizerKind]
    vocab_sizes: list[int]
    modes: list[FeatureMode]
    aggregations: list[Aggregation]
    thresholds: list[float]
    epochs: int
    seed: int
    include_baselines: bool
    include_null: bool
    output_dir: Path

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.languages]
        check_values("sweep config languages", names, _check_language_name)
        checks = {"vocab_sizes": _check_size, "thresholds": metrics.check_threshold}
        for field_name in ("kinds", "vocab_sizes", "modes", "aggregations", "thresholds"):
            label = f"sweep config field {field_name}"
            check_values(label, getattr(self, field_name), checks.get(field_name))
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")

    @property
    def grid(self) -> list[tuple[TokenizerKind, int]]:
        """Every (kind, vocab size) the sweep builds; a baseline's size is 0."""
        grid = [(kind, size) for kind in self.kinds for size in self.vocab_sizes]
        if self.include_baselines:
            grid.extend((kind, 0) for kind in BASELINE_KINDS)
        return grid


def curate_files(
    features: Path, segmentations: Path, language: str, out: Path
) -> tuple[CuratedDataset, ParseStats, ParseStats, JoinStats]:
    """Join the lexicons, write the dataset to `out`, and return it and the counts."""
    feature_rows, feat_stats = corpus_mod.parse_feature_lexicon(read_lines(features))
    segmentation_map, seg_stats = corpus_mod.parse_segmentation_lexicon(
        read_lines(segmentations)
    )
    dataset, join_stats = corpus_mod.curate(
        segmentation_map, feature_rows, language=language
    )
    write_rendered(out, corpus_mod.write_curated, dataset)
    return dataset, feat_stats, seg_stats, join_stats


def build_model(
    kind: TokenizerKind,
    vocab_size: int,
    seed: int,
    corpus_path: Path | None,
    curated: Callable[[], CuratedDataset] | None,
) -> TokenizerModel:
    """Build one tokenizer model.

    The gold lookup comes from the curated dataset, which `curated`
    returns (so that a caller can read it once for the lookup and the
    evaluation); every other kind trains on the corpus file.
    """
    if kind is TokenizerKind.GOLD:
        if curated is None:
            raise ConfigError("gold tokenizer needs a curated dataset (--curated)")
        return tokenizers.build_gold_lookup(curated())
    if corpus_path is None:
        raise ConfigError(f"{kind.value} tokenizer needs a training corpus (--corpus)")
    corpus = dict(tokenizers.word_frequencies(read_lines(corpus_path)))
    if not corpus:
        raise DataError(f"corpus {corpus_path} contains no words")
    if kind is TokenizerKind.CHARACTER:
        return tokenizers.train_character(corpus)
    return tokenizers.train(corpus, TrainConfig(kind, vocab_size, seed=seed))


Segmented = tuple[ibm1.Segments, tuple[float, float, float]]


def segment_dataset(dataset: CuratedDataset, model: TokenizerModel) -> Segmented:
    """Each entry's subwords, plus the boundary precision, recall and F1."""
    segments = ibm1.segment_entries(dataset, model)
    precision, recall, f1, _counts = metrics.boundary_prf_from_segments(
        dataset, segments
    )
    return segments, (precision, recall, f1)


def run_evaluation(
    dataset: CuratedDataset,
    model: TokenizerModel,
    segmented: Segmented,
    mode: FeatureMode,
    aggregations: Sequence[Aggregation],
    thresholds: Sequence[float],
    epochs: int,
    include_null: bool,
    language: str,
) -> tuple[list[ScoreRow], ibm1.TranslationTable]:
    """Train one translation table and score the aggregation grid.

    ``segmented`` is :func:`segment_dataset` of this dataset and model;
    it feeds both the parallel corpus and the boundary metrics, so the
    modes of one model can share it.  The table depends only on (model,
    mode), so it is trained once, and one pass over the pairs scores
    every aggregation and threshold combination.
    """
    segments, (precision, recall, f1) = segmented
    pairs, excluded = ibm1.pairs_from_segments(
        dataset, segments, mode, include_null=include_null
    )
    table = ibm1.train_ibm1(pairs, epochs=epochs)
    scores = metrics.alignment_scores(table, pairs, aggregations, thresholds)
    rows = [
        ScoreRow(
            language=language,
            kind=model.kind.value,
            vocab_size=model.vocab_size,
            mode=mode.value,
            aggregation=aggregation.value,
            threshold=threshold,
            alignment=scores[aggregation, threshold],
            precision=precision,
            recall=recall,
            f1=f1,
            excluded=excluded,
        )
        for aggregation in aggregations
        for threshold in thresholds
    ]
    return rows, table


def evaluate_point(
    point_path: Path, table_path: Path | None, seed: int, *evaluation
) -> tuple[list[ScoreRow], ibm1.TranslationTable]:
    """Run ``run_evaluation(*evaluation)`` and write the table, if asked, then the rows.

    The score rows go last, as a sweep takes their file for the mark of
    a finished point.
    """
    rows, table = run_evaluation(*evaluation)
    if table_path is not None:
        atomic_write(table_path, ibm1.table_to_json(table))
    write_rendered(point_path, metrics.write_score_rows, rows, seed=seed)
    return rows, table


def write_report(rows: list[ScoreRow], path: Path, seed: int) -> stats.CorrelationReport:
    """Build the correlation report over `rows` and write it to `path`.

    If no report can be built, an earlier file at `path` is removed, so
    that it cannot stand beside these scores.
    """
    try:
        report = stats.build_report(rows)
    except TokalignError:
        path.unlink(missing_ok=True)
        raise
    write_rendered(path, stats.write_report, report, seed=seed)
    return report


def _model_path(out: Path, lang: str, kind: TokenizerKind, size: int) -> Path:
    return out / lang / "models" / f"{kind.value}-{size}.json"


def _point_paths(
    out: Path, lang: str, kind: TokenizerKind, size: int, mode: FeatureMode
) -> tuple[Path, Path]:
    stem = f"{kind.value}-{size}-{mode.value}"
    return (
        out / lang / "points" / f"{stem}.csv",
        out / lang / "tables" / f"{stem}.json",
    )


def _failure(exc: BaseException) -> str:
    """A sweep step's failure text; an unexpected error also prints its traceback."""
    if not isinstance(exc, TokalignError):
        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class _ModelJob(NamedTuple):
    """One language's missing work for one kind at the given sizes.

    A merge kind's missing models share one training: one job that only
    builds them.  Every other job is one size, which it builds or loads
    and then evaluates.
    """

    language: str
    kind: TokenizerKind
    sizes: tuple[int, ...]
    corpus: Path
    curated: Path
    evaluate: bool = True


def _train_label(language: str, kind: TokenizerKind, size: int) -> str:
    return f"{language}/{kind.value}-{size}/train"


def _point_label(language: str, point_path: Path) -> str:
    return f"{language}/{point_path.stem}"


def _model_job(job: _ModelJob, config: SweepConfig) -> dict[str, str]:
    """Build or load each size's model and, if asked, evaluate its missing points.

    A model is segmented once, for all of its missing points.  Sizes run
    largest first.  A merge kind trains once, at its largest
    size, and the smaller sizes are cut from that model.  A size that
    fails to train (say, below the alphabet) fails alone, and the next
    size down trains directly.  Everything goes to disk, so the job can
    run in a worker process.  Returns the failure text of each model or
    point it could not write, by label.
    """
    out = config.output_dir
    errors: dict[str, str] = {}
    full: TokenizerModel | None = None
    dataset: list[CuratedDataset] = []

    def curated() -> CuratedDataset:
        # Read on first use, so that a bad file fails only what needs it.
        if not dataset:
            dataset.append(load_curated(job.curated))
        return dataset[0]

    for size in sorted(job.sizes, reverse=True):
        model_path = _model_path(out, job.language, job.kind, size)
        model: TokenizerModel | None = None
        if not model_path.exists():
            try:
                if full is not None:
                    train_config = TrainConfig(job.kind, size, seed=config.seed)
                    model = tokenizers.truncate_merges(full, train_config)
                else:
                    model = build_model(job.kind, size, config.seed, job.corpus, curated)
                atomic_write(model_path, tokenizers.model_to_json(model))
            except Exception as exc:
                errors[_train_label(job.language, job.kind, size)] = _failure(exc)
                continue
            if full is None and job.kind in tokenizers.MERGE_KINDS:
                full = model
        if not job.evaluate:
            continue
        segmented: Segmented | None = None
        for mode in config.modes:
            point_path, table_path = _point_paths(
                out, job.language, job.kind, size, mode
            )
            if point_path.exists():
                continue
            try:
                if model is None:
                    model = tokenizers.load_model(model_path)
                if segmented is None:
                    segmented = segment_dataset(curated(), model)
                # Not kept, so the table is freed before the next point's EM.
                evaluate_point(
                    point_path,
                    table_path,
                    config.seed,
                    curated(),
                    model,
                    segmented,
                    mode,
                    config.aggregations,
                    config.thresholds,
                    config.epochs,
                    config.include_null,
                    job.language,
                )
            except Exception as exc:
                errors[_point_label(job.language, point_path)] = _failure(exc)
    return errors


def _submit(executor: ProcessPoolExecutor, fn, *args) -> Future:
    """Submit one job; in a pool broken by a dead worker, the job fails."""
    try:
        return executor.submit(fn, *args)
    except BrokenExecutor as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _run_jobs(
    model_jobs: list[_ModelJob], config: SweepConfig, jobs: int
) -> list[tuple[_ModelJob, dict[str, str] | BaseException]]:
    """Run every job; returns each job run with its errors by label, or what it raised.

    When a build-only job ends, each size whose model it left on disk
    becomes a job that evaluates.  The jobs share a pool of `jobs` worker
    processes, capped at the most that can run at once; at a cap of one
    they run in this process and no worker starts.  A worker that dies
    fails its job, and those the broken pool still held, with
    `BrokenProcessPool`.
    """

    def evaluations(job: _ModelJob) -> list[_ModelJob]:
        return [
            job._replace(sizes=(size,), evaluate=True)
            for size in ([] if job.evaluate else job.sizes)
            if _model_path(config.output_dir, job.language, job.kind, size).exists()
        ]

    workers = min(jobs, sum(1 if job.evaluate else len(job.sizes) for job in model_jobs))
    done: list[tuple[_ModelJob, dict[str, str] | BaseException]] = []
    if workers <= 1:
        for job in model_jobs:
            done.append((job, _model_job(job, config)))
            done.extend((then, _model_job(then, config)) for then in evaluations(job))
        return done
    pool = ProcessPoolExecutor(workers)
    try:
        futures = {_submit(pool, _model_job, job, config): job for job in model_jobs}
        builds = [future for future, job in futures.items() if not job.evaluate]
        for future in as_completed(builds):
            for job in evaluations(futures[future]):
                futures[_submit(pool, _model_job, job, config)] = job
        return [(job, f.exception() or f.result()) for f, job in futures.items()]
    finally:
        pool.shutdown(cancel_futures=True)


def _curated_path(out: Path, spec: LanguageSpec) -> Path:
    """The language's curated dataset, curated from its lexicons if missing."""
    if spec.curated is not None:
        return spec.curated
    curated_path = out / spec.name / "curated.tsv"
    if not curated_path.exists():
        curate_files(spec.features, spec.segmentations, spec.name, curated_path)
    return curated_path


def _sweep(config: SweepConfig, jobs: int) -> tuple[list[ScoreRow], list[tuple[str, str]]]:
    """Build the missing models and evaluate the missing grid points.

    Every language's jobs run on one executor (see `_run_jobs`).  What
    failed is read off the disk afterwards: a size without a model file
    failed to train, and a missing point file failed to evaluate, whether
    its job returned an error, raised or lost its worker.  Returns the
    score rows of every point file, in grid order, and the failures by
    label: per language, training before evaluation, each in grid order.
    """
    out = config.output_dir
    grid = config.grid

    def points(lang: str, kind: TokenizerKind, size: int) -> list[Path]:
        return [_point_paths(out, lang, kind, size, mode)[0] for mode in config.modes]

    model_jobs: list[_ModelJob] = []
    for spec in config.languages:
        curated_path = _curated_path(out, spec)
        untrained: dict[TokenizerKind, list[int]] = {}
        for kind, size in grid:
            model_path = _model_path(out, spec.name, kind, size)
            if kind in tokenizers.MERGE_KINDS and not model_path.exists():
                # A merge kind's missing models share one training.
                untrained.setdefault(kind, []).append(size)
            elif not all(p.exists() for p in (model_path, *points(spec.name, kind, size))):
                model_jobs.append(
                    _ModelJob(spec.name, kind, (size,), spec.corpus, curated_path)
                )
        model_jobs.extend(
            _ModelJob(spec.name, kind, tuple(sizes), spec.corpus, curated_path, False)
            for kind, sizes in untrained.items()
        )
    # Merge builds reach the executor first, as their evaluations wait on them.
    model_jobs.sort(key=lambda job: job.evaluate)

    errors: dict[str, str] = {}
    for job, outcome in _run_jobs(model_jobs, config, jobs):
        if isinstance(outcome, BaseException):
            # Blame all the job owned; the disk tells what it did write.
            crash = _failure(outcome)
            outcome = {}
            for size in job.sizes:
                outcome[_train_label(job.language, job.kind, size)] = crash
                for point_path in points(job.language, job.kind, size):
                    outcome[_point_label(job.language, point_path)] = crash
        errors.update(outcome)

    rows: list[ScoreRow] = []
    failures: list[tuple[str, str]] = []
    for spec in config.languages:
        eval_failures = []
        for kind, size in grid:
            if not _model_path(out, spec.name, kind, size).exists():
                label = _train_label(spec.name, kind, size)
                failures.append((label, errors[label]))
                continue
            for point_path in points(spec.name, kind, size):
                if point_path.exists():
                    rows.extend(metrics.read_score_rows(read_lines(point_path)))
                else:
                    label = _point_label(spec.name, point_path)
                    eval_failures.append((label, errors[label]))
        failures.extend(eval_failures)
    return rows, failures


def run_sweep(
    config: SweepConfig, jobs: int
) -> tuple[list[ScoreRow], list[tuple[str, str]], Path]:
    """Run the sweep, and write its score rows and failures (see `_sweep`).

    Also returns the failures' file; a run without failures removes it.
    """
    out = config.output_dir
    rows, failures = _sweep(config, jobs)
    write_rendered(out / "scores.csv", metrics.write_score_rows, rows, seed=config.seed)
    failures_path = out / "failures.csv"
    if failures:
        write_rendered(failures_path, metrics.write_csv, ("point", "error"), failures)
    else:
        failures_path.unlink(missing_ok=True)
    return rows, failures, failures_path


def report_sweep(config: SweepConfig, rows: list[ScoreRow]) -> stats.CorrelationReport:
    """Write the sweep's correlation report (see `write_report`)."""
    return write_report(rows, config.output_dir / "correlations.csv", config.seed)
