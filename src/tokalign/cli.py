"""Command line entry point: parse the arguments and the sweep config, run, print.

Each subcommand checks its arguments, calls the stage routines of
`tokalign.sweep` and prints what they did.  This is the one module of
the package that puts off its imports of the others: each subcommand
imports the modules it runs when it runs, so that `tokalign curate`
loads `tokalign.corpus` and no other pipeline module, and a finished
`tokalign sweep` rerun loads `tokalign.layout` and none.  Every other
module imports what it uses at its top.  `tokalign.sweep` owns those
routines and the sweep's jobs and process pool; `tokalign.layout` owns
the sweep config's fields (`FIELDS`), the layout of the output tree and
the keys that decide what a rerun reuses, so that `tokalign sweep` can
tell a finished sweep from them alone and exit before the pipeline
loads.  This module owns the arguments, the reading of a config file
(`load_sweep_config`; README.md has an example) and the exit codes: 0
success, 1 usage or configuration error, 2 data error, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .choices import (
    BASELINE_KINDS,  # noqa: F401  (bench/replay.py reads `cli.BASELINE_KINDS`)
    DEFAULT_EPOCHS,
    DEFAULT_THRESHOLDS,
    TRAINED_KINDS,
    Aggregation,
    FeatureMode,
    TokenizerKind,
    language_code,
)
from .errors import ConfigError, DataError, NumericalError
from .files import Digests, read_lines

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _comma_list(parse=str):
    # An argument type; argparse names it in the error for a bad value.
    def comma_list(text: str) -> list:
        return [parse(part) for part in text.split(",") if part]

    return comma_list


def cmd_curate(args: argparse.Namespace) -> int:
    try:
        language = language_code(args.language)
    except ValueError as exc:
        raise ConfigError(f"--language {exc}") from None
    from .corpus import curate_files

    out = Path(args.out)
    dataset, feat_stats, seg_stats, join_stats = curate_files(
        Path(args.features), Path(args.segmentations), language, out
    )
    print(f"curated {len(dataset)} entries to {out}")
    print(
        f"feature rows: {feat_stats.kept} kept, {feat_stats.skipped} skipped; "
        f"segmentation rows: {seg_stats.kept} kept, {seg_stats.skipped} skipped"
    )
    print(f"matched: {join_stats.matched} dropped: {join_stats.dropped}")
    return EXIT_OK


def cmd_train_tokenizer(args: argparse.Namespace) -> int:
    kind = TokenizerKind(args.kind)  # argparse's choices admit only kinds
    if kind in TRAINED_KINDS and args.vocab_size is None:
        raise ConfigError(f"--vocab-size is required for kind {kind.value}")
    if kind not in TRAINED_KINDS and args.vocab_size is not None:
        raise ConfigError(f"--vocab-size is for trained kinds only, not kind {kind.value}")
    from . import sweep, tokenizers

    model = sweep.build_model(
        kind,
        args.vocab_size or 0,
        args.seed,
        (lambda: sweep.load_corpus(Path(args.corpus))) if args.corpus else None,
        (lambda: sweep.load_curated(Path(args.curated))) if args.curated else None,
    )
    tokenizers.save_model(model, args.out)
    print(f"trained {kind.value} model with {len(model.vocab)} tokens to {args.out}")
    return EXIT_OK


def cmd_segment(args: argparse.Namespace) -> int:
    from . import tokenizers
    from .corpus import normalize

    model = tokenizers.load_model(Path(args.model))
    vocab = set(model.vocab)
    oov_count = 0
    for word in args.words:
        pieces = tokenizers.segment(model, normalize(word))
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
    # The score rows are written after the table and would replace it.
    if args.table_out and Path(args.table_out).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--table-out names the same file as --out: {args.table_out}")
    from . import sweep, tokenizers
    from .layout import parse_field

    aggregations, thresholds, epochs = (
        parse_field(name, getattr(args, name), f"--{name}")
        for name in ("aggregations", "thresholds", "epochs")
    )
    dataset = sweep.load_curated(Path(args.curated))
    model = tokenizers.load_model(Path(args.model))
    rows, table = sweep.evaluate_point(
        Path(args.out),
        Path(args.table_out) if args.table_out else None,
        args.seed,
        dataset,
        model,
        sweep.segment_dataset(dataset, model),
        FeatureMode(args.mode),
        aggregations,
        thresholds,
        epochs,
        args.include_null,
        args.language or dataset.language,
    )
    print(
        f"wrote {len(rows)} score rows to {args.out} "
        f"(excluded {rows[0].excluded} entries, final loglik "
        f"{table.final_loglik:.6f})"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from . import metrics, sweep

    lines = list(read_lines(Path(args.scores)))
    # The report carries its scores' seed; --seed only fills in a missing one.
    seed = metrics.read_seed(lines)
    if seed is None:
        seed = 0 if args.seed is None else args.seed
    elif args.seed is not None and args.seed != seed:
        raise ConfigError(f"--seed {args.seed} contradicts seed {seed} of {args.scores}")
    rows = metrics.read_score_rows(lines)
    report = sweep.write_report(rows, Path(args.out), seed)
    ok = len(report.ok_cells())
    print(f"wrote {len(report.cells)} report cells ({ok} with defined rho) to {args.out}")
    return EXIT_OK


def _reject_unknown_keys(doc: dict, known, where: str) -> None:
    # A misspelt key would otherwise leave its field at the default.
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {', '.join(map(repr, unknown))}")


def load_sweep_config(path: Path) -> SweepConfig:
    """Read and check the sweep config at `path`; its paths resolve against its directory."""
    import json

    from .layout import FIELDS, LANGUAGE_PATHS, LanguageSpec, SweepConfig, _path

    try:
        doc = json.loads(path.read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _reject_unknown_keys(doc, ["languages", *FIELDS], "sweep config")
    languages = []
    lang_doc = doc.pop("languages", None)
    if not isinstance(lang_doc, dict) or not lang_doc:
        raise ConfigError("config must map language names to their input paths")
    for name in sorted(lang_doc):
        spec = lang_doc[name]
        if not isinstance(spec, dict) or spec.get("corpus") is None:
            raise ConfigError(f"language {name!r} needs at least a corpus path")
        _reject_unknown_keys(spec, LANGUAGE_PATHS, f"language {name!r}")
        # One source for the dataset: a curated file given with lexicons
        # would leave the lexicons unread.
        sources = {key for key in LANGUAGE_PATHS[1:] if spec.get(key) is not None}
        if sources not in ({"curated"}, {"features", "segmentations"}):
            raise ConfigError(
                f"language {name!r} needs either a curated path or both "
                "feature and segmentation lexicons, and not both"
            )
        try:
            # An absolute path stays as given; `/` joins a relative one.
            paths = {
                key: path.parent / _path(spec[key])
                for key in LANGUAGE_PATHS
                if spec.get(key) is not None
            }
        except ValueError as exc:
            raise ConfigError(f"language {name!r}: {exc}") from exc
        for p in paths.values():
            if not p.exists():
                raise ConfigError(f"input path does not exist: {p}")
        languages.append(LanguageSpec(name, **paths))
    config = SweepConfig(languages, **doc)
    config.output_dir = path.parent / config.output_dir
    return config


def _sweep_summary(rows: int, cells: int, out: Path) -> str:
    return f"sweep complete: {rows} score rows, {cells} report cells under {out}"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.output_dir == "":
        raise ConfigError("--output-dir must be a non-empty path")
    from . import layout

    config = load_sweep_config(Path(args.config))
    if args.output_dir:
        config.output_dir = Path(args.output_dir)
    digests = Digests()
    # Asked before the pipeline modules load, which a finished sweep
    # does not need.
    finished = layout.finished(config, digests)
    if finished:
        print(_sweep_summary(*finished, config.output_dir))
        return EXIT_OK

    from . import sweep

    rows, failures, key = sweep.run_sweep(config, args.jobs, digests)
    # Printed before the report, which fails if no point is left.
    if failures:
        print(f"{len(failures)} grid points failed; see {config.output_dir / layout.FAILURES}")
    report = sweep.report_sweep(config, rows, key)
    print(_sweep_summary(len(rows), len(report.cells), config.output_dir))
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
    p.add_argument("--mode", default="split", choices=[m.value for m in FeatureMode])
    p.add_argument("--aggregations", type=_comma_list(),
                   default=",".join(a.value for a in Aggregation))
    p.add_argument("--thresholds", type=_comma_list(float),
                   default=",".join(str(t) for t in DEFAULT_THRESHOLDS))
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--include-null", action="store_true",
                   help="add a shared null source token during alignment")
    p.add_argument("--language", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="score CSV to write")
    p.add_argument("--table-out", default=None,
                   help="translation table JSON to write, not the --out file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run the full evaluation grid from a config")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--output-dir", default=None, help="override the config output_dir")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1; a build job writes "
                        "models, and an evaluate job writes one model size's "
                        "points (1 runs every job in this process)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="build a correlation report from score rows")
    p.add_argument("--scores", required=True, help="score CSV")
    p.add_argument("--out", required=True, help="correlation CSV to write")
    p.add_argument("--seed", type=int, default=None)
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
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
