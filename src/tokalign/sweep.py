"""The sweep engine, and the pipeline stages the subcommands share with it.

`tokalign.cli` parses arguments and the sweep config and prints; this
module does the work.  It owns each stage routine that a subcommand and
the sweep both run (build a model, evaluate and write a point, write
the report), the sweep's jobs and process pool, and the layout of the
output tree, which no other module knows.  Curation is
`tokalign.corpus.curate_files`, so that `tokalign curate` loads none of
this module's imports.  Every stage reads and writes plain files, so a
sweep is resumable: a curated dataset, model or grid point is reused
only while its `<file>.key` holds the key of the inputs that make it
(see `_keys`), and the combined CSVs are rebuilt from the points.  A
sweep that finished with no failures is not run again at all:
`tokalign.manifest` records the files listed by `rerun_files`, and a
rerun that finds them, its config, its inputs and the program unchanged
rewrites nothing.

Within one sweep, each process reads a language's curated dataset and
counts its corpus once, and all of its jobs share them (`_read_once`);
nothing read outlives the sweep's jobs.  The lexicon, tokenizer and
aligner modules are imported by the routines that run them, so a sweep
whose every point is fresh, and `tokalign report`, load none of them.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, TypeVar

from . import metrics, stats
from .choices import BASELINE_KINDS, CURATED_KINDS, MERGE_KINDS
from .choices import Aggregation, FeatureMode, TokenizerKind
from .errors import ConfigError, DataError, TokalignError
from .files import Digests, atomic_write, read_lines, sha256_hex, write_rendered
from .metrics import ScoreRow

if TYPE_CHECKING:
    from .corpus import CuratedDataset
    from .ibm1 import Segments, TranslationTable
    from .tokenizers import TokenizerModel

T = TypeVar("T")


def load_curated(path: Path) -> CuratedDataset:
    from . import corpus

    return corpus.read_curated(read_lines(path))


def load_corpus(path: Path) -> dict[str, int]:
    """The word counts of a training corpus file, which must hold a word."""
    from . import tokenizers

    counts = dict(tokenizers.word_frequencies(read_lines(path)))
    if not counts:
        raise DataError(f"corpus {path} contains no words")
    return counts


# What `_read_once` has read in this process during the running sweep's
# jobs, by (loader, path).  Module state, because a pool worker keeps it
# from one job to the next; `_sweep` empties it before and after them.
_READS: dict[tuple[Callable, Path], object] = {}


def _read_once(load: Callable[[Path], T], path: Path) -> T:
    """``load(path)``, run once per process and sweep; callers share the result.

    No job changes what it gets.  A read that fails is not kept, so each
    job that needs the file runs it again and fails with the same error.
    """
    key = (load, path)
    if key not in _READS:
        _READS[key] = load(path)
    return _READS[key]


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


def build_model(
    kind: TokenizerKind,
    vocab_size: int,
    seed: int,
    corpus: Callable[[], dict[str, int]] | None,
    curated: Callable[[], CuratedDataset] | None,
) -> TokenizerModel:
    """Build one tokenizer model, as the kind's row of `tokenizers.KINDS` says.

    A kind built from the curated dataset gets it from `curated`, and
    every other kind its corpus's word counts from `corpus` (see
    `load_corpus`), so that a caller decides when each is read: the
    sweep reads each once per process for all its jobs.
    """
    from . import tokenizers

    row = tokenizers.KINDS[kind]
    if row.curated:
        if curated is None:
            raise ConfigError(f"{kind.value} tokenizer needs a curated dataset (--curated)")
        return row.build(curated())
    if corpus is None:
        raise ConfigError(f"{kind.value} tokenizer needs a training corpus (--corpus)")
    if not row.sized:
        return row.build(corpus())
    return tokenizers.train(corpus(), tokenizers.TrainConfig(kind, vocab_size, seed=seed))


# A string, so that naming `Segments` loads no module.
Segmented = tuple["Segments", tuple[float, float, float]]


def segment_dataset(dataset: CuratedDataset, model: TokenizerModel) -> Segmented:
    """Each entry's subwords, plus the boundary precision, recall and F1."""
    from .ibm1 import segment_entries

    segments = segment_entries(dataset, model)
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
) -> tuple[list[ScoreRow], TranslationTable]:
    """Train one translation table and score the aggregation grid.

    ``segmented`` is :func:`segment_dataset` of this dataset and model;
    it feeds both the parallel corpus and the boundary metrics, so the
    modes of one model can share it.  The table depends only on (model,
    mode), so it is trained once, and one pass over the pairs scores
    every aggregation and threshold combination.
    """
    from . import ibm1

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
) -> tuple[list[ScoreRow], TranslationTable]:
    """Run ``run_evaluation(*evaluation)`` and write the table, if asked, then the rows.

    The score rows go last, as a sweep takes their file for the mark of
    a finished point.
    """
    from .ibm1 import save_table

    rows, table = run_evaluation(*evaluation)
    if table_path is not None:
        save_table(table, table_path)
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


def _lexicon_curated_path(out: Path, lang: str) -> Path:
    return out / lang / "curated.tsv"


def _key(*parts: object) -> str:
    """The key of an artefact made from `parts`: the sha256 of their repr."""
    return sha256_hex(repr(parts).encode("utf-8"))


def _key_path(path: Path) -> Path:
    return path.with_name(f"{path.name}.key")


def _fresh(path: Path, key: str) -> bool:
    """Whether `path` exists and the key recorded beside it is `key`."""
    try:
        return _key_path(path).read_bytes() == f"{key}\n".encode() and path.exists()
    except OSError:
        return False


def _write_keyed(path: Path, key: str, write: Callable, *args) -> None:
    """Run ``write(*args)``, which writes `path`, then record `key` beside it.

    The earlier key goes first, so a crash in between leaves no key.
    """
    key_path = _key_path(path)
    key_path.unlink(missing_ok=True)
    write(*args)
    atomic_write(key_path, f"{key}\n")


def _keys(
    config: SweepConfig, spec: LanguageSpec, curated_path: Path, digests: Digests
) -> dict[Path, str]:
    """The key of each model and point file of one language, by path.

    A model's key covers the program, its kind, size and seed, and the
    corpus (the dataset, for a kind built from it), so a merge kind's
    cut has the key of the training at its size.  A point's key covers
    its model's key, the dataset and every setting of its evaluation.
    """
    out = config.output_dir
    dataset = digests[curated_path]
    aggregations = tuple(aggregation.value for aggregation in config.aggregations)
    evaluation = (spec.name, config.epochs, config.include_null, aggregations)
    evaluation += (tuple(config.thresholds), config.seed)
    keys = {}
    for kind, size in config.grid:
        source = dataset if kind in CURATED_KINDS else digests[spec.corpus]
        model_key = _key(digests.program, kind.value, size, config.seed, source)
        keys[_model_path(out, spec.name, kind, size)] = model_key
        for mode in config.modes:
            point_path = _point_paths(out, spec.name, kind, size, mode)[0]
            keys[point_path] = _key(model_key, dataset, mode.value, *evaluation)
    return keys


def _failure(exc: BaseException) -> str:
    """A sweep step's failure text; an unexpected error also prints its traceback."""
    if not isinstance(exc, TokalignError):
        import traceback

        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class _ModelJob(NamedTuple):
    """One language's model at one (kind, size), and its points.

    A merge kind's models to make share one training: the job for its
    largest such size also writes the models of `cuts`, the kind's other
    such sizes, cut from its own.  `keys` are the language's (`_keys`).
    """

    language: str
    kind: TokenizerKind
    size: int
    corpus: Path
    curated: Path
    keys: dict[Path, str]
    cuts: tuple[int, ...] = ()


def _train_label(language: str, kind: TokenizerKind, size: int) -> str:
    return f"{language}/{kind.value}-{size}/train"


def _point_label(language: str, point_path: Path) -> str:
    return f"{language}/{point_path.stem}"


def _model_job(job: _ModelJob, config: SweepConfig) -> dict[str, str]:
    """Build or load the job's model, write its cuts, then evaluate its points.

    Each of these is made only if its file is not fresh (see `_fresh`).
    A cut equals the model trained at its size.  A cut below the
    alphabet is skipped; the size's own job trains it and fails alike.
    The model is segmented once, for all of its points.  Everything goes
    to disk, so the job can run in a worker process.  Returns the failure
    text of the model or each point it could not write, by label.
    """
    from . import tokenizers

    out = config.output_dir
    errors: dict[str, str] = {}

    def curated() -> CuratedDataset:
        # Read on first use, so that a bad file fails only what needs it,
        # and once in this process for all of the sweep's jobs.
        return _read_once(load_curated, job.curated)

    def corpus() -> dict[str, int]:
        return _read_once(load_corpus, job.corpus)

    def fresh(path: Path) -> bool:
        return _fresh(path, job.keys[path])

    model_path = _model_path(out, job.language, job.kind, job.size)
    model: TokenizerModel | None = None
    if not fresh(model_path):
        try:
            model = build_model(job.kind, job.size, config.seed, corpus, curated)
            key = job.keys[model_path]
            _write_keyed(model_path, key, tokenizers.save_model, model, model_path)
        except Exception as exc:
            return {_train_label(job.language, job.kind, job.size): _failure(exc)}
        for size in job.cuts:
            cut_path = _model_path(out, job.language, job.kind, size)
            if fresh(cut_path):
                continue
            train_config = tokenizers.TrainConfig(job.kind, size, seed=config.seed)
            try:
                cut = tokenizers.KINDS[job.kind].cut(model, train_config)
            except ConfigError:
                continue
            _write_keyed(cut_path, job.keys[cut_path], tokenizers.save_model, cut, cut_path)
    segmented: Segmented | None = None
    for mode in config.modes:
        point_path, table_path = _point_paths(
            out, job.language, job.kind, job.size, mode
        )
        if fresh(point_path):
            continue
        try:
            if model is None:
                model = tokenizers.load_model(model_path)
            if segmented is None:
                segmented = segment_dataset(curated(), model)
            # Not kept, so the table is freed before the next point's EM.
            _write_keyed(
                point_path,
                job.keys[point_path],
                evaluate_point,
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
    from concurrent.futures import BrokenExecutor, Future

    try:
        return executor.submit(fn, *args)
    except BrokenExecutor as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _run_jobs(
    model_jobs: list[_ModelJob], config: SweepConfig, jobs: int
) -> list[tuple[_ModelJob, dict[str, str] | BaseException]]:
    """Run every job; returns each with its errors by label, or what it raised.

    No job waits on another, so the jobs go in list order to a pool of
    `jobs` worker processes, which starts them in that order; with one
    worker or one job they run in this process and no worker starts.  A
    worker that dies fails its job, and those the broken pool still
    held, with `BrokenProcessPool`.
    """
    workers = min(jobs, len(model_jobs))
    if workers <= 1:
        done: list[tuple[_ModelJob, dict[str, str] | BaseException]] = []
        for job in model_jobs:
            try:
                done.append((job, _model_job(job, config)))
            except Exception as exc:
                done.append((job, exc))
        return done
    # Loaded before the workers fork, so that they inherit these modules
    # instead of each compiling them again.  Loaded after `multiprocessing`
    # instead, they raised the parent's peak memory, which every worker
    # inherits, by about 1 MB.
    from . import corpus, ibm1, tokenizers  # noqa: F401

    # Imported here, so that a sweep with nothing to run in parallel
    # never loads `multiprocessing`.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers)
    try:
        futures = [_submit(pool, _model_job, job, config) for job in model_jobs]
        return [(job, f.exception() or f.result()) for f, job in zip(futures, model_jobs)]
    finally:
        pool.shutdown(cancel_futures=True)


def _curated_path(out: Path, spec: LanguageSpec, digests: Digests) -> Path:
    """The language's curated dataset, curated from its lexicons unless fresh.

    Its key covers the program, both lexicons and the language name.
    """
    if spec.curated is not None:
        return spec.curated
    curated_path = _lexicon_curated_path(out, spec.name)
    key = _key(digests.program, digests[spec.features], digests[spec.segmentations], spec.name)
    if not _fresh(curated_path, key):
        from .corpus import curate_files

        _write_keyed(
            curated_path, key, curate_files,
            spec.features, spec.segmentations, spec.name, curated_path,
        )
    return curated_path


def _sweep(
    config: SweepConfig, jobs: int, digests: Digests
) -> tuple[list[ScoreRow], list[tuple[str, str]]]:
    """Make the models and grid points that are not fresh.

    Every language's jobs run on one executor (see `_run_jobs`).  What
    failed is read off the disk afterwards: a size without a fresh model
    failed to train, and a point not fresh failed to evaluate, whether
    its job returned an error, raised or lost its worker.  Returns the
    score rows of every point file, in grid order, and the failures by
    label: per language, training before evaluation, each in grid order.
    """
    out = config.output_dir
    grid = config.grid
    keys: dict[Path, str] = {}

    def fresh(path: Path) -> bool:
        return _fresh(path, keys[path])

    def points(lang: str, kind: TokenizerKind, size: int) -> list[Path]:
        return [_point_paths(out, lang, kind, size, mode)[0] for mode in config.modes]

    # A merge kind's first job trains its largest size to make and cuts
    # the others, whose own jobs go last, to find their models on disk.
    first: list[_ModelJob] = []
    other: list[_ModelJob] = []
    rest: list[_ModelJob] = []
    for spec in config.languages:
        curated_path = _curated_path(out, spec, digests)
        language_keys = _keys(config, spec, curated_path, digests)
        keys.update(language_keys)
        inputs = (spec.corpus, curated_path, language_keys)
        untrained: dict[TokenizerKind, list[int]] = {}
        for kind, size in grid:
            model_path = _model_path(out, spec.name, kind, size)
            if kind in MERGE_KINDS and not fresh(model_path):
                untrained.setdefault(kind, []).append(size)
            elif not all(fresh(p) for p in (model_path, *points(spec.name, kind, size))):
                other.append(_ModelJob(spec.name, kind, size, *inputs))
        for kind, sizes in untrained.items():
            largest, *cuts = sorted(sizes, reverse=True)
            job = _ModelJob(spec.name, kind, largest, *inputs)
            first.append(job._replace(cuts=tuple(cuts)))
            rest.extend(job._replace(size=size) for size in cuts)

    # The reads of one sweep's jobs are not kept for the next, nor for any
    # other command that this process runs.
    _READS.clear()
    try:
        done = _run_jobs(first + other + rest, config, jobs)
    finally:
        _READS.clear()
    errors: dict[str, str] = {}
    for job, outcome in done:
        if isinstance(outcome, BaseException):
            # Blame all the job owned; the disk tells what it did write.
            point_paths = points(job.language, job.kind, job.size)
            labels = [_train_label(job.language, job.kind, job.size)]
            labels += [_point_label(job.language, path) for path in point_paths]
            outcome = dict.fromkeys(labels, _failure(outcome))
        errors.update(outcome)

    rows: list[ScoreRow] = []
    failures: list[tuple[str, str]] = []
    for spec in config.languages:
        eval_failures = []
        for kind, size in grid:
            if not fresh(_model_path(out, spec.name, kind, size)):
                label = _train_label(spec.name, kind, size)
                failures.append((label, errors[label]))
                continue
            for point_path in points(spec.name, kind, size):
                if fresh(point_path):
                    try:
                        rows.extend(metrics.read_score_rows(read_lines(point_path)))
                    except DataError as exc:
                        raise DataError(f"point file {point_path}: {exc}") from exc
                else:
                    label = _point_label(spec.name, point_path)
                    eval_failures.append((label, errors[label]))
        failures.extend(eval_failures)
    return rows, failures


def run_sweep(
    config: SweepConfig, jobs: int, digests: Digests
) -> tuple[list[ScoreRow], list[tuple[str, str]], Path]:
    """Run the sweep, and write its score rows and failures (see `_sweep`).

    Also returns the failures' file; a run without failures removes it.
    An output or language directory that exists as some other file is a
    `ConfigError` before any job runs, and an earlier run's manifest is
    removed before any file is written.  If the sweep raises, the
    combined files of an earlier run are removed first, so that they
    cannot pass for this run's results.
    """
    from .manifest import NAME as MANIFEST

    out = config.output_dir
    # Checked first: a file in a directory's place fails every job alike.
    for path in (out, *(out / spec.name for spec in config.languages)):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"output path {path} exists and is not a directory")
    # The manifest vouches for a finished tree, which this run now rewrites.
    (out / MANIFEST).unlink(missing_ok=True)
    try:
        rows, failures = _sweep(config, jobs, digests)
    except TokalignError:
        for name in ("scores.csv", "failures.csv", "correlations.csv"):
            (out / name).unlink(missing_ok=True)
        raise
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


def rerun_files(config: SweepConfig) -> tuple[list[str], list[str], list[str]]:
    """The output files a rerun of this finished sweep depends on.

    A rerun reads every point file and rewrites `scores.csv` and
    `correlations.csv`, tests that each model file and each lexicon
    language's curated dataset exist, reads their key files, and removes
    `failures.csv`; it neither reads nor writes a table.  Returns the
    files whose bytes count, those that exist and those that do not, as
    POSIX paths relative to the output directory.
    """
    here = Path()
    hashed = [Path("scores.csv"), Path("correlations.csv")]
    present = []
    for spec in config.languages:
        made = [_model_path(here, spec.name, kind, size) for kind, size in config.grid]
        if spec.curated is None:
            made.append(_lexicon_curated_path(here, spec.name))
        cells = [(kind, size, mode) for kind, size in config.grid for mode in config.modes]
        points = [_point_paths(here, spec.name, *cell)[0] for cell in cells]
        present += made
        hashed += points + [_key_path(path) for path in made + points]
    return [p.as_posix() for p in hashed], [p.as_posix() for p in present], ["failures.csv"]
