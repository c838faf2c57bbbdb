"""The sweep engine, and the pipeline stages the subcommands share with it.

`tokalign.cli` parses arguments and the sweep config and prints; this
module does the work.  It owns each stage routine that a subcommand and
the sweep both run (build a model, evaluate and write a point, write
the report) and the sweep's jobs and process pool.  A build job writes
models; an evaluate job writes one model size's points, and is made
only once that model is on disk (`_evaluations`).  One loop runs a
sweep's jobs, in a pool or, at one job, in this process (`_run_jobs`).
Curation is `tokalign.corpus.curate_files`, so that `tokalign curate`
does not load this module.  Every stage reads and writes plain files,
so a sweep is resumable by one rule, which `tokalign.layout` keeps with the config
and the output tree: a curated dataset, model, grid point or combined
CSV is reused only while its `<file>.key` holds the key of the inputs
that make it (see `layout._keys`).  `scores.csv` and `correlations.csv`
are rebuilt from the points, and keyed only by a run with no failures;
a rerun whose every file is fresh never gets here (`layout.finished`).

Within one sweep, each process reads a language's curated dataset and
counts its corpus once, and all of its jobs share them (`_read_once`);
nothing read outlives the sweep's jobs.  Every pipeline module is
imported here at the top, so a pool's forked workers inherit them all;
only `tokalign.cli` puts off loading this module.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TypeVar

from . import corpus, ibm1, metrics, stats, tokenizers
from .choices import CURATED_KINDS, TRAINED_KINDS, Aggregation, FeatureMode, TokenizerKind
from .corpus import CuratedDataset
from .errors import ConfigError, DataError, TokalignError
from .files import Digests, read_lines, write_rendered
from .ibm1 import Segments, TranslationTable
from .layout import (
    CORRELATIONS, FAILURES, SCORES, LanguageSpec, SweepConfig,
    _dataset, _fresh, _key_path, _keys, _model_path, _point_path, _write_keyed,
)
from .metrics import ScoreRow
from .tokenizers import TokenizerModel

T = TypeVar("T")


def load_curated(path: Path) -> CuratedDataset:
    return corpus.read_curated(read_lines(path))


def load_corpus(path: Path) -> dict[str, int]:
    """The word counts of a training corpus file, which must hold a word."""
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
    build = tokenizers.KINDS[kind].build
    if kind in CURATED_KINDS:
        if curated is None:
            raise ConfigError(f"{kind.value} tokenizer needs a curated dataset (--curated)")
        return build(curated())
    if corpus is None:
        raise ConfigError(f"{kind.value} tokenizer needs a training corpus (--corpus)")
    if kind not in TRAINED_KINDS:
        return build(corpus())
    return tokenizers.train(corpus(), tokenizers.TrainConfig(kind, vocab_size, seed=seed))


Segmented = tuple[Segments, tuple[float, float, float]]


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
) -> tuple[list[ScoreRow], TranslationTable]:
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
) -> tuple[list[ScoreRow], TranslationTable]:
    """Run ``run_evaluation(*evaluation)`` and write the table, if asked, then the rows.

    Only `tokalign evaluate --table-out` asks for the table; a sweep
    scores each point in memory and writes its rows alone.  The score
    rows go last, as a sweep takes their file for the mark of a finished
    point.
    """
    rows, table = run_evaluation(*evaluation)
    if table_path is not None:
        ibm1.save_table(table, table_path)
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


def _failure(exc: BaseException) -> str:
    """A sweep step's failure text; an unexpected error also prints its traceback."""
    if not isinstance(exc, TokalignError):
        import traceback

        traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class _Job(NamedTuple):
    """One language's kind at `sizes`, for `_build`, or at one size, for `_evaluate`.

    `keys` are the sweep's (`layout._keys`).
    """

    language: str
    kind: TokenizerKind
    sizes: tuple[int, ...]
    corpus: Path
    curated: Path
    keys: dict[Path, str]


def _label(language: str, path: Path) -> str:
    """The name in `failures.csv` of a model or point file that was not written."""
    return f"{language}/{path.stem}" + ("/train" if path.suffix == ".json" else "")


def _build(job: _Job, config: SweepConfig) -> dict[Path, str]:
    """Write the job's models, in the order of its sizes, largest first.

    The first model made is cut for each later size, which equals the
    model trained at that size; until one is made, each size trains on
    its own.  Everything goes to disk, so the job can run in a worker
    process.  Returns the failure text of each model it could not write,
    by path.
    """
    errors: dict[Path, str] = {}
    made: TokenizerModel | None = None
    for size, path in zip(job.sizes, _files(_build, job, config)):
        try:
            if made is None:
                # Read on first use, so that a bad file fails only what
                # needs it, and once per process for all the sweep's jobs.
                model = build_model(
                    job.kind, size, config.seed,
                    lambda: _read_once(load_corpus, job.corpus),
                    lambda: _read_once(load_curated, job.curated),
                )
            else:
                train_config = tokenizers.TrainConfig(job.kind, size, seed=config.seed)
                model = tokenizers.KINDS[job.kind].cut(made, train_config)
            _write_keyed(path, job.keys[path], tokenizers.save_model, model, path)
        except Exception as exc:
            errors[path] = _failure(exc)
        else:
            made = made or model
    return errors


def _evaluate(job: _Job, config: SweepConfig) -> dict[Path, str]:
    """Write the points of the job's one size that are not fresh (see `_fresh`).

    The job is made only for a fresh model (see `_evaluations`), which
    is loaded and segmented once, for all of its points.  Returns the
    failure text of each point it could not write, by path.
    """
    (model_path,) = _files(_build, job, config)
    errors: dict[Path, str] = {}
    model: TokenizerModel | None = None
    segmented: Segmented | None = None
    for mode, point_path in zip(config.modes, _files(_evaluate, job, config)):
        if _fresh(point_path, job.keys[point_path]):
            continue
        try:
            if model is None:
                model = tokenizers.load_model(model_path)
            dataset = _read_once(load_curated, job.curated)
            if segmented is None:
                segmented = segment_dataset(dataset, model)
            # Not kept, so the table is freed before the next point's EM.
            _write_keyed(
                point_path, job.keys[point_path], evaluate_point,
                point_path, None, config.seed, dataset, model, segmented, mode,
                config.aggregations, config.thresholds, config.epochs,
                config.include_null, job.language,
            )
        except Exception as exc:
            errors[point_path] = _failure(exc)
    return errors


def _files(run: Callable, job: _Job, config: SweepConfig) -> list[Path]:
    """The files a job is to write: a build's models, or an evaluation's points."""
    out, language, kind = config.output_dir, job.language, job.kind
    if run is _build:
        return [_model_path(out, language, kind, size) for size in job.sizes]
    modes = config.modes
    return [_point_path(out, language, kind, size, mode) for size in job.sizes for mode in modes]


def _stale(job: _Job, config: SweepConfig) -> list[_Job]:
    """The job at each of its sizes that has a point not fresh."""
    sizes = [job._replace(sizes=(size,)) for size in job.sizes]
    return [one for one in sizes
            if not all(_fresh(path, job.keys[path]) for path in _files(_evaluate, one, config))]


def _evaluations(job: _Job, config: SweepConfig) -> list[_Job]:
    """The one rule for evaluate jobs: one per size with a fresh model and a point not fresh."""
    return [one for one in _stale(job, config)
            if all(_fresh(path, job.keys[path]) for path in _files(_build, one, config))]


def _submit(executor: ProcessPoolExecutor | None, fn, *args) -> Future:
    """A future of what ``fn(*args)`` returns or raises, run in the pool or, with none, here.

    In a pool broken by a dead worker, the job fails.
    """
    from concurrent.futures import Future

    future: Future = Future()
    try:
        if executor is not None:
            return executor.submit(fn, *args)
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _run_jobs(
    builds: list[_Job], built: list[_Job], config: SweepConfig, jobs: int
) -> dict[Path, str]:
    """Run the builds and every model's evaluate jobs, in one loop at any `jobs`.

    `built` are the models already on disk, one size each.  The loop
    takes each job as it completes, in submission order among those
    completed; as it takes a build or a model on disk, it submits that
    model's evaluate jobs (`_evaluations`), so each finds its model on
    disk.  Returns the failure text of each file a job could not write,
    by path; a job that raised or lost its worker fails every file it
    was to write (`_files`).  The pool's workers, which all start up
    front, are no more than the builds plus the sizes with a point not
    fresh (`_stale`).  At one job, or if no two jobs can ever run at
    once, `_submit` runs each here: every build, then each one's
    evaluations.  In the pool a merge kind's sizes are evaluated side by
    side; a worker that dies fails its job, and every job the broken
    pool still held or is given later, with `BrokenProcessPool`.
    """
    from concurrent.futures import FIRST_COMPLETED, Future, wait

    # The jobs that can start at once, and all the plan may run.  A
    # build's evaluations only follow it, so a lone build with at most
    # one size to evaluate never runs two jobs at once.
    ready = len(builds) + sum(len(_stale(job, config)) for job in built)
    most = ready + sum(len(_stale(job, config)) for job in builds)
    pool = None
    if jobs > 1 and (ready > 1 or most > 2):
        # Imported here, so that a sweep with nothing to run in parallel
        # never loads `multiprocessing`.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(min(jobs, most))
    on_disk: Future = Future()
    on_disk.set_result({})
    errors: dict[Path, str] = {}
    try:
        running = [(_submit(pool, _build, job, config), _build, job) for job in builds]
        running += [(on_disk, _build, job) for job in built]
        while running:
            done = wait([future for future, _, _ in running], return_when=FIRST_COMPLETED).done
            for future, run, job in [entry for entry in running if entry[0] in done]:
                outcome = future.exception() or future.result()
                if isinstance(outcome, BaseException):
                    outcome = dict.fromkeys(_files(run, job, config), _failure(outcome))
                errors.update(outcome)
                if run is _build:
                    running += [(_submit(pool, _evaluate, one, config), _evaluate, one)
                                for one in _evaluations(job, config)]
            running = [entry for entry in running if entry[0] not in done]
        return errors
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _curated_path(out: Path, spec: LanguageSpec, digests: Digests) -> Path:
    """The language's curated dataset, curated from its lexicons unless fresh."""
    curated_path, key = _dataset(out, spec, digests)
    if key is not None and not _fresh(curated_path, key):
        _write_keyed(
            curated_path, key, corpus.curate_files,
            spec.features, spec.segmentations, spec.name, curated_path,
        )
    return curated_path


def _sweep(
    config: SweepConfig, jobs: int, digests: Digests
) -> tuple[list[ScoreRow], list[tuple[str, str]], dict[Path, str]]:
    """Make the models and grid points that are not fresh.

    Each merge kind gets one build job per language for all of its sizes
    without a fresh model, and every other such model one of its own;
    the builds go first, the merge kinds' ahead of the rest, in grid
    order.  The models already on disk follow, one size each, and
    `_run_jobs` runs every language's builds and plans every model's
    evaluate jobs, in one loop at any `jobs`.  What failed
    is read off the disk afterwards: a size without a fresh model failed
    to train, and a point not fresh failed to evaluate.  Returns the
    score rows of every point file, in grid order, the failures by label
    (per language, training before evaluation, each in grid order) and
    the sweep's keys.
    """
    out = config.output_dir
    grid = config.grid
    curated_paths = [_curated_path(out, spec, digests) for spec in config.languages]
    keys = _keys(config, curated_paths, digests)

    def fresh(path: Path) -> bool:
        return _fresh(path, keys[path])

    merge_builds: list[_Job] = []
    builds: list[_Job] = []
    built: list[_Job] = []
    for spec, curated_path in zip(config.languages, curated_paths):
        inputs = (spec.corpus, curated_path, keys)
        untrained: dict[TokenizerKind, list[int]] = {}
        for kind, size in grid:
            job = _Job(spec.name, kind, (size,), *inputs)
            if fresh(_model_path(out, spec.name, kind, size)):
                built.append(job)
            elif tokenizers.KINDS[kind].cut is None:
                builds.append(job)
            else:
                untrained.setdefault(kind, []).append(size)
        for kind, sizes in untrained.items():
            merge_builds.append(_Job(spec.name, kind, tuple(sorted(sizes, reverse=True)), *inputs))

    # The reads of one sweep's jobs are not kept for the next, nor for any
    # other command that this process runs.
    _READS.clear()
    try:
        errors = _run_jobs(merge_builds + builds, built, config, jobs)
    finally:
        _READS.clear()

    rows: list[ScoreRow] = []
    failures: list[tuple[str, str]] = []
    for spec in config.languages:
        eval_failures = []
        for kind, size in grid:
            model_path = _model_path(out, spec.name, kind, size)
            if not fresh(model_path):
                failures.append((_label(spec.name, model_path), errors[model_path]))
                continue
            for mode in config.modes:
                point_path = _point_path(out, spec.name, kind, size, mode)
                if fresh(point_path):
                    try:
                        rows.extend(metrics.read_score_rows(read_lines(point_path)))
                    except DataError as exc:
                        raise DataError(f"point file {point_path}: {exc}") from exc
                else:
                    eval_failures.append((_label(spec.name, point_path), errors[point_path]))
        failures.extend(eval_failures)
    return rows, failures, keys


def run_sweep(
    config: SweepConfig, jobs: int, digests: Digests
) -> tuple[list[ScoreRow], list[tuple[str, str]], str | None]:
    """Run the sweep, and write its score rows and failures (see `_sweep`).

    A run without failures removes `failures.csv` and keys `scores.csv`;
    it also returns that key, for `report_sweep`, where a run with
    failures returns None.  An output or language directory that exists
    as some other file is a `ConfigError` before any job runs, and the
    keys of an earlier run's combined CSVs are removed before any file
    is written.  If the sweep raises, the combined files of an earlier
    run are removed first, so that they cannot pass for this run's
    results.
    """
    out = config.output_dir
    # Checked first: a file in a directory's place fails every job alike.
    for path in (out, *(out / spec.name for spec in config.languages)):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"output path {path} exists and is not a directory")
    for name in (SCORES, CORRELATIONS):
        _key_path(out / name).unlink(missing_ok=True)
    try:
        rows, failures, keys = _sweep(config, jobs, digests)
    except TokalignError:
        for name in (SCORES, FAILURES, CORRELATIONS):
            (out / name).unlink(missing_ok=True)
        raise
    key = None if failures else keys[out / SCORES]
    scores_path = out / SCORES
    _write_keyed(
        scores_path, key, write_rendered,
        scores_path, metrics.write_score_rows, rows, seed=config.seed,
    )
    if failures:
        write_rendered(out / FAILURES, metrics.write_csv, ("point", "error"), failures)
    else:
        (out / FAILURES).unlink(missing_ok=True)
    return rows, failures, key


def report_sweep(
    config: SweepConfig, rows: list[ScoreRow], key: str | None
) -> stats.CorrelationReport:
    """Write the sweep's correlation report (see `write_report`) under `key`, if any."""
    path = config.output_dir / CORRELATIONS
    return _write_keyed(path, key, write_report, rows, path, config.seed)
