"""Command line pipeline: curate, train, segment, evaluate, sweep, report.

Every stage reads and writes plain files, so a sweep is resumable: grid
points whose output files already exist are skipped, and the final
score and correlation CSVs are rebuilt from the per-point files.  Exit
codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical degeneracy.

Example sweep configuration (JSON, paths relative to the config file):

    {
      "seed": 0,
      "epochs": 10,
      "kinds": ["bpe", "wordpiece", "unigram"],
      "vocab_sizes": [200, 400, 800],
      "modes": ["split"],
      "aggregations": ["mean"],
      "thresholds": [0.01],
      "output_dir": "out",
      "languages": {
        "toy": {
          "corpus": "toy/corpus.txt",
          "features": "toy/features.tsv",
          "segmentations": "toy/segmentations.tsv"
        }
      }
    }
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from . import corpus as corpus_mod
from . import ibm1, metrics, stats, tokenizers
from .corpus import CuratedDataset, FeatureMode
from .errors import ConfigError, DataError, NumericalError, TokalignError
from .metrics import Aggregation, DEFAULT_THRESHOLDS, ScoreRow
from .tokenizers import TokenizerKind, TokenizerModel, TrainConfig

DEFAULT_VOCAB_SIZES = (
    2000, 4000, 8000, 16000, 24000, 32000,
    40000, 48000, 56000, 64000, 72000, 80000,
)
DEFAULT_EPOCHS = 10
BASELINE_KINDS = (TokenizerKind.CHARACTER, TokenizerKind.GOLD)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_lines(path: Path) -> list[str]:
    try:
        with path.open("r", encoding="utf-8") as handle:
            return handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _parse_modes(text: str) -> list[FeatureMode]:
    try:
        return [FeatureMode(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"unknown feature mode in {text!r}") from exc


def _reject_repeats(label: str, values: Sequence) -> None:
    # A repeated value would give two grid points or score rows one label.
    if len(set(values)) != len(values):
        raise ConfigError(f"{label} repeats a value: {values}")


def _parse_aggregations(text: str) -> list[Aggregation]:
    try:
        values = [Aggregation(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"unknown aggregation in {text!r}") from exc
    if not values:
        raise ConfigError("aggregation list is empty")
    _reject_repeats("--aggregations", values)
    return values


def _parse_thresholds(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {text!r}") from exc
    if not values:
        raise ConfigError("threshold list is empty")
    for value in values:
        metrics.check_threshold(value)
    _reject_repeats("--thresholds", values)
    return values


def run_evaluation(
    dataset: CuratedDataset,
    model: TokenizerModel,
    mode: FeatureMode,
    aggregations: Sequence[Aggregation],
    thresholds: Sequence[float],
    epochs: int,
    include_null: bool,
    language: str,
) -> tuple[list[ScoreRow], ibm1.TranslationTable]:
    """Train one translation table and score the aggregation grid.

    The dataset is segmented once, for both the parallel corpus and the
    boundary metrics.  The table depends only on (model, mode), so it is
    trained once, and one pass over the pairs scores every aggregation
    and threshold combination.
    """
    segments = ibm1.segment_entries(dataset, model)
    pairs, excluded = ibm1.pairs_from_segments(
        dataset, segments, mode, include_null=include_null
    )
    table = ibm1.train_ibm1(pairs, epochs=epochs)
    precision, recall, f1, _counts = metrics.boundary_prf_from_segments(
        dataset, segments
    )
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


def _load_curated(path: Path) -> CuratedDataset:
    return corpus_mod.read_curated(_read_lines(path))


def _load_corpus(path: Path) -> dict[str, int]:
    freqs = tokenizers.word_frequencies(_read_lines(path))
    if not freqs:
        raise DataError(f"corpus {path} contains no words")
    return dict(freqs)


def cmd_curate(args: argparse.Namespace) -> int:
    features, feat_stats = corpus_mod.parse_feature_lexicon(
        _read_lines(Path(args.features))
    )
    segmentations, seg_stats = corpus_mod.parse_segmentation_lexicon(
        _read_lines(Path(args.segmentations))
    )
    dataset, join_stats = corpus_mod.curate(
        segmentations, features, language=args.language
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as handle:
        corpus_mod.write_curated(dataset, handle)
    print(f"curated {len(dataset)} entries to {out}")
    print(
        f"feature rows: {feat_stats.kept} kept, {feat_stats.skipped} skipped; "
        f"segmentation rows: {seg_stats.kept} kept, {seg_stats.skipped} skipped"
    )
    print(f"matched: {join_stats.matched} dropped: {join_stats.dropped}")
    return EXIT_OK


def _train_model(
    kind: TokenizerKind,
    vocab_size: int,
    seed: int,
    corpus_path: Path | None,
    curated_path: Path | None,
) -> TokenizerModel:
    if kind is TokenizerKind.GOLD:
        if curated_path is None:
            raise ConfigError("gold tokenizer needs a curated dataset (--curated)")
        return tokenizers.build_gold_lookup(_load_curated(curated_path))
    if corpus_path is None:
        raise ConfigError(f"{kind.value} tokenizer needs a training corpus (--corpus)")
    corpus = _load_corpus(corpus_path)
    if kind is TokenizerKind.CHARACTER:
        return tokenizers.train_character(corpus)
    config = TrainConfig(kind=kind, vocab_size=vocab_size, seed=seed)
    return tokenizers.train(corpus, config)


def cmd_train_tokenizer(args: argparse.Namespace) -> int:
    try:
        kind = TokenizerKind(args.kind)
    except ValueError as exc:
        raise ConfigError(f"unknown tokenizer kind {args.kind!r}") from exc
    if kind in tokenizers.TRAINED_KINDS and args.vocab_size is None:
        raise ConfigError(f"--vocab-size is required for kind {kind.value}")
    model = _train_model(
        kind,
        args.vocab_size or 0,
        args.seed,
        Path(args.corpus) if args.corpus else None,
        Path(args.curated) if args.curated else None,
    )
    _atomic_write(Path(args.out), tokenizers.model_to_json(model))
    print(f"trained {kind.value} model with {len(model.vocab)} tokens to {args.out}")
    return EXIT_OK


def cmd_segment(args: argparse.Namespace) -> int:
    model = tokenizers.load_model(Path(args.model))
    vocab = set(model.vocab)
    oov_count = 0
    for word in args.words:
        pieces = tokenizers.segment(model, corpus_mod.normalize(word))
        print(f"{word}\t{' '.join(pieces)}")
        if tokenizers.UNK in pieces:
            continue
        canonical = tokenizers.canonical_subwords(model, pieces)
        oov_count += sum(1 for piece in canonical if piece not in vocab)
    if oov_count:
        print(
            f"note: emitted {oov_count} out-of-vocabulary singleton tokens",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _load_curated(Path(args.curated))
    model = tokenizers.load_model(Path(args.model))
    modes = _parse_modes(args.mode)
    if len(modes) != 1:
        raise ConfigError("evaluate takes exactly one feature mode")
    aggregations = _parse_aggregations(args.aggregations)
    thresholds = _parse_thresholds(args.thresholds)
    language = args.language or dataset.language
    rows, table = run_evaluation(
        dataset,
        model,
        modes[0],
        aggregations,
        thresholds,
        args.epochs,
        args.include_null,
        language,
    )
    buffer = io.StringIO()
    metrics.write_score_rows(rows, buffer, seed=args.seed)
    _atomic_write(Path(args.out), buffer.getvalue())
    if args.table_out:
        _atomic_write(Path(args.table_out), ibm1.table_to_json(table))
    print(
        f"wrote {len(rows)} score rows to {args.out} "
        f"(excluded {rows[0].excluded} entries, final loglik "
        f"{table.final_loglik:.6f})"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    rows = metrics.read_score_rows(_read_lines(Path(args.scores)))
    report = stats.build_report(rows)
    buffer = io.StringIO()
    stats.write_report(report, buffer, seed=args.seed)
    _atomic_write(Path(args.out), buffer.getvalue())
    ok = len(report.ok_cells())
    print(f"wrote {len(report.cells)} report cells ({ok} with defined rho) to {args.out}")
    return EXIT_OK


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
        if not self.languages:
            raise ConfigError("sweep config lists no languages")
        for field_name in ("kinds", "vocab_sizes", "modes", "aggregations", "thresholds"):
            values = getattr(self, field_name)
            if not values:
                raise ConfigError(f"sweep config field {field_name} is empty")
            _reject_repeats(f"sweep config field {field_name}", values)
        for size in self.vocab_sizes:
            if size < 1:
                raise ConfigError(f"vocab sizes must be positive, got {size}")
        for threshold in self.thresholds:
            metrics.check_threshold(threshold)
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if len(set(s.name for s in self.languages)) != len(self.languages):
            raise ConfigError("duplicate language names in sweep config")


def _integer(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _boolean(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _path_text(value: object) -> str:
    # An empty path would resolve to the config's own directory.
    if not isinstance(value, str) or not value:
        raise ValueError(f"{value!r} is not a non-empty path string")
    return value


def _list_of(parse):
    def parse_list(value: object) -> list:
        if not isinstance(value, list):
            raise ValueError(f"{value!r} is not a list")
        return [parse(item) for item in value]

    return parse_list


def _config_value(doc: dict, name: str, default: object, parse) -> object:
    """Parse one field of a sweep config; a missing field takes the default."""
    try:
        return parse(doc.get(name, default))
    except ValueError as exc:
        raise ConfigError(f"sweep config field {name}: {exc}") from exc


def load_sweep_config(path: Path) -> SweepConfig:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    base = path.parent

    def _resolve(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else base / p

    languages = []
    lang_doc = doc.get("languages")
    if not isinstance(lang_doc, dict) or not lang_doc:
        raise ConfigError("config must map language names to their input paths")
    for name in sorted(lang_doc):
        spec = lang_doc[name]
        if not isinstance(spec, dict) or "corpus" not in spec:
            raise ConfigError(f"language {name!r} needs at least a corpus path")
        curated = spec.get("curated")
        features = spec.get("features")
        segmentations = spec.get("segmentations")
        if curated is None and (features is None or segmentations is None):
            raise ConfigError(
                f"language {name!r} needs either a curated path or both "
                "feature and segmentation lexicons"
            )
        for raw in (spec["corpus"], curated, features, segmentations):
            if raw is not None and not (isinstance(raw, str) and raw):
                raise ConfigError(f"language {name!r}: {raw!r} is not a non-empty path")
        languages.append(
            LanguageSpec(
                name=name,
                corpus=_resolve(spec["corpus"]),
                curated=_resolve(curated) if curated else None,
                features=_resolve(features) if features else None,
                segmentations=_resolve(segmentations) if segmentations else None,
            )
        )
    for spec in languages:
        for p in (spec.corpus, spec.curated, spec.features, spec.segmentations):
            if p is not None and not p.exists():
                raise ConfigError(f"input path does not exist: {p}")
    return SweepConfig(
        languages=languages,
        kinds=_config_value(
            doc, "kinds", ["bpe", "wordpiece", "unigram"], _list_of(TokenizerKind)
        ),
        vocab_sizes=_config_value(
            doc, "vocab_sizes", list(DEFAULT_VOCAB_SIZES), _list_of(_integer)
        ),
        modes=_config_value(doc, "modes", ["joint", "split"], _list_of(FeatureMode)),
        aggregations=_config_value(
            doc, "aggregations", [a.value for a in Aggregation], _list_of(Aggregation)
        ),
        thresholds=_config_value(
            doc, "thresholds", list(DEFAULT_THRESHOLDS), _list_of(_number)
        ),
        epochs=_config_value(doc, "epochs", DEFAULT_EPOCHS, _integer),
        seed=_config_value(doc, "seed", 0, _integer),
        include_baselines=_config_value(doc, "include_baselines", True, _boolean),
        include_null=_config_value(doc, "include_null", False, _boolean),
        output_dir=_resolve(_config_value(doc, "output_dir", "out", _path_text)),
    )


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


def _evaluate_point(
    dataset: CuratedDataset,
    model: TokenizerModel,
    mode: FeatureMode,
    config: SweepConfig,
    language: str,
    point_path: Path,
    table_path: Path,
) -> None:
    """Evaluate one grid point and write its table and score rows.

    Returning frees the table before the next point's EM starts.
    """
    rows, table = run_evaluation(
        dataset,
        model,
        mode,
        config.aggregations,
        config.thresholds,
        config.epochs,
        config.include_null,
        language,
    )
    buffer = io.StringIO()
    metrics.write_score_rows(rows, buffer, seed=config.seed)
    _atomic_write(table_path, ibm1.table_to_json(table))
    _atomic_write(point_path, buffer.getvalue())


def _model_job(job: _ModelJob, config: SweepConfig) -> dict[str, str]:
    """Build or load each size's model and, if asked, evaluate its missing points.

    Sizes run largest first.  A merge kind trains once, at its largest
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
            dataset.append(_load_curated(job.curated))
        return dataset[0]

    for size in sorted(job.sizes, reverse=True):
        model_path = _model_path(out, job.language, job.kind, size)
        model: TokenizerModel | None = None
        if not model_path.exists():
            try:
                if full is not None:
                    train_config = TrainConfig(job.kind, size, seed=config.seed)
                    model = tokenizers.truncate_merges(full, train_config)
                elif job.kind is TokenizerKind.GOLD:
                    model = tokenizers.build_gold_lookup(curated())
                else:
                    model = _train_model(
                        job.kind, size, config.seed, job.corpus, job.curated
                    )
                _atomic_write(model_path, tokenizers.model_to_json(model))
            except Exception as exc:
                errors[_train_label(job.language, job.kind, size)] = _failure(exc)
                continue
            if full is None and job.kind in tokenizers.MERGE_KINDS:
                full = model
        if not job.evaluate:
            continue
        for mode in config.modes:
            point_path, table_path = _point_paths(
                out, job.language, job.kind, size, mode
            )
            if point_path.exists():
                continue
            try:
                if model is None:
                    model = tokenizers.load_model(model_path)
                _evaluate_point(
                    curated(), model, mode, config, job.language, point_path, table_path
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
        features, _ = corpus_mod.parse_feature_lexicon(_read_lines(spec.features))
        segmentations, _ = corpus_mod.parse_segmentation_lexicon(
            _read_lines(spec.segmentations)
        )
        dataset, _ = corpus_mod.curate(segmentations, features, language=spec.name)
        buffer = io.StringIO()
        corpus_mod.write_curated(dataset, buffer)
        _atomic_write(curated_path, buffer.getvalue())
    return curated_path


def _sweep(config: SweepConfig, jobs: int, failures: list[tuple[str, str]]) -> list[Path]:
    """Build the missing models and evaluate the missing grid points.

    Every language's jobs run on one executor (see `_run_jobs`).  What
    failed is read off the disk afterwards: a size without a model file
    failed to train, and a missing point file failed to evaluate, whether
    its job returned an error, raised or lost its worker.  Failures are
    appended per language, training before evaluation, each in grid
    order, and the point CSV paths that exist come back in grid order, so
    the caller can assemble the combined score file.
    """
    out = config.output_dir
    grid: list[tuple[TokenizerKind, int]] = [
        (kind, size) for kind in config.kinds for size in config.vocab_sizes
    ]
    if config.include_baselines:
        grid.extend((kind, 0) for kind in BASELINE_KINDS)

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

    point_files: list[Path] = []
    for spec in config.languages:
        eval_failures = []
        for kind, size in grid:
            if not _model_path(out, spec.name, kind, size).exists():
                label = _train_label(spec.name, kind, size)
                failures.append((label, errors[label]))
                continue
            for point_path in points(spec.name, kind, size):
                if point_path.exists():
                    point_files.append(point_path)
                else:
                    label = _point_label(spec.name, point_path)
                    eval_failures.append((label, errors[label]))
        failures.extend(eval_failures)
    return point_files


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_sweep_config(Path(args.config))
    if args.output_dir:
        config.output_dir = Path(args.output_dir)
    jobs = max(1, args.jobs)
    out = config.output_dir
    failures: list[tuple[str, str]] = []
    all_rows: list[ScoreRow] = []
    for point_path in _sweep(config, jobs, failures):
        all_rows.extend(metrics.read_score_rows(_read_lines(point_path)))
    buffer = io.StringIO()
    metrics.write_score_rows(all_rows, buffer, seed=config.seed)
    _atomic_write(out / "scores.csv", buffer.getvalue())
    # Failures go to disk before the report, which fails if no point is left.
    failures_path = out / "failures.csv"
    if failures:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["point", "error"])
        writer.writerows(failures)
        _atomic_write(failures_path, buffer.getvalue())
        print(f"{len(failures)} grid points failed; see {failures_path}")
    else:
        # A clean rerun must not leave an earlier run's failures behind.
        failures_path.unlink(missing_ok=True)
    try:
        report = stats.build_report(all_rows)
    except TokalignError:
        # An earlier run's report must not stand beside these scores.
        (out / "correlations.csv").unlink(missing_ok=True)
        raise
    buffer = io.StringIO()
    stats.write_report(report, buffer, seed=config.seed)
    _atomic_write(out / "correlations.csv", buffer.getvalue())
    print(
        f"sweep complete: {len(all_rows)} score rows, "
        f"{len(report.cells)} report cells under {out}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tokalign",
        description="Morphological plausibility scoring for subword tokenizers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("curate", help="join lexicons into a curated dataset")
    p.add_argument("--features", required=True, help="feature lexicon TSV")
    p.add_argument("--segmentations", required=True, help="segmentation lexicon TSV")
    p.add_argument("--out", required=True, help="curated TSV to write")
    p.add_argument("--language", default="und", help="language code for metadata")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("train-tokenizer", help="train a tokenizer model")
    p.add_argument("--corpus", help="training corpus, one sentence per line")
    p.add_argument("--curated", help="curated dataset (required for kind gold)")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in TokenizerKind])
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("segment", help="segment words with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("words", nargs="+", metavar="word")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score one model over a curated dataset")
    p.add_argument("--curated", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", default="split", help="joint or split")
    p.add_argument("--aggregations",
                   default=",".join(a.value for a in Aggregation))
    p.add_argument("--thresholds",
                   default=",".join(str(t) for t in DEFAULT_THRESHOLDS))
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--include-null", action="store_true",
                   help="add a shared null source token during alignment")
    p.add_argument("--language", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="score CSV to write")
    p.add_argument("--table-out", default=None, help="translation table JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run the full evaluation grid from a config")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--output-dir", default=None, help="override the config output_dir")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; a job builds and evaluates one "
                        "model, or trains every size of one merge kind "
                        "(1 runs every job in this process)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="build a correlation report from score rows")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--out", required=True, help="correlation CSV to write")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
