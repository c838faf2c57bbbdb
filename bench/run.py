"""Benchmark of `tokalign sweep` on generated grids.

One run measures one workload:

    python3 bench/run.py --workload train-grid --seed 0 --seconds 30 --trace 0

With `--trace 0` it times `tokalign sweep` processes, spawned fresh one
after another (one closed-loop client), and prints the end-to-end
metrics.  With `--trace 1` it alternates untraced sweeps with a traced,
serial, in-process replay of the same grid (see `replay.py`) and prints
the per-layer metrics.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

Every sweep's `scores.csv` and `correlations.csv` are hashed and checked
against `reference_hashes.json` for seed 0, and for run-to-run identity
on other seeds.  A grid point counts as failed if it is listed in
`failures.csv`, if its sweep exits non-zero, or if its sweep's output
hash is wrong.

    python3 bench/run.py --all

runs every workload untraced, then each one traced, and prints every
metric of every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import LANGUAGE, WORKLOADS, BenchError, Workload, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
REFERENCE_HASHES = BENCH_DIR / "reference_hashes.json"
OUTPUTS = ("scores.csv", "correlations.csv")
# `tokalign curate` runs in a fresh interpreter this many times per run,
# spread between the sweeps; setup_s is their median.
SETUP_REPEATS = 11
# A sweep that runs longer than this is killed and counted as failed.
PROCESS_TIMEOUT_S = 150.0
HIGH_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metrics that the curation trace or the untraced sweeps give.
NOT_FROM_REPLAY = (
    "corpus.curate_s", "corpus.entries", "corpus.dropped", "cli.pool_efficiency",
)
# Printed with the end-to-end metrics; the run's `failed` / `attempted`
# carry the same ratio in the result line.
FAILED_RATIO = "failed_point_ratio"


def train_labels(extra: Workload | None = None) -> list[str]:
    """`<kind>-<size>` of every tokenizer any workload trains."""
    labels: list[str] = []
    for workload in [*WORKLOADS.values(), *([extra] if extra else [])]:
        for kind, size in workload.grid:
            label = f"{kind}-{size}"
            if label not in labels:
                labels.append(label)
    return labels


def span_metric(span: str) -> str:
    """Per-layer metric that a span's self time feeds."""
    prefix = "tokenizers.train."
    if span.startswith(prefix):
        return "tokenizers.train_s." + span[len(prefix):]
    return span + "_s"


def per_layer_units(workload: Workload | None = None) -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {
        "corpus.curate_s": "s",
        "corpus.entries": "count",
        "corpus.dropped": "count",
        "corpus.read_s": "s",
    }
    labels = train_labels(workload)
    units.update({f"tokenizers.train_s.{label}": "s" for label in labels})
    units.update({f"tokenizers.vocab_achieved.{label}": "count" for label in labels})
    units.update({f"tokenizers.merges.{label}": "count" for label in labels})
    units.update({
        "tokenizers.segment_s": "s",
        "tokenizers.model_io_s": "s",
        "ibm1.build_corpus_s": "s",
        "ibm1.excluded": "count",
        "ibm1.em_s": "s",
        "ibm1.em_epoch_s": "s",
        "ibm1.estep_links": "count",
        "ibm1.links_per_s": "1/s",
        "ibm1.table_entries": "count",
        "ibm1.table_io_s": "s",
        "metrics.score_s": "s",
        "metrics.score_calls": "count",
        "metrics.prf_s": "s",
        "metrics.rows_io_s": "s",
        "stats.report_s": "s",
        "stats.cells": "count",
        "cli.startup_s": "s",
        "cli.pool_efficiency": "ratio",
        "trace.total_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------- processes


@dataclass
class ProcessStats:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(args: list[str], cwd: Path, env: dict[str, str], log: Path) -> ProcessStats:
    """Run one process to completion and read its rusage.

    `os.wait4` reports the child's CPU time and peak RSS including every
    descendant it reaped, so a sweep's pool workers are counted.  Peak
    RSS is the largest single process of that tree.
    """
    with log.open("ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): leave no process behind.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessStats(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )


def file_sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(out: Path) -> dict[str, str | None]:
    return {name: file_sha256(out / name) for name in OUTPUTS}


def listed_failures(out: Path) -> int:
    path = out / "failures.csv"
    if not path.is_file():
        return 0
    lines = path.read_text(encoding="utf-8").splitlines()
    return max(0, len(lines) - 1)


# ---------------------------------------------------------------- statistics


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    high = next(
        (
            {"q": q, "value": percentile(ordered, q)}
            for q in HIGH_PERCENTILES
            if n * (100.0 - q) / 100.0 >= 10
        ),
        None,
    )
    return {
        "n": n,
        "median": statistics.median(ordered),
        "q1": percentile(ordered, 25.0),
        "q3": percentile(ordered, 75.0),
        "p_high": high,
    }


# ---------------------------------------------------------------- one run


@dataclass
class RunResult:
    workload: Workload
    seed: int
    trace: bool
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    setup_ok: bool = True
    hash_checks: list[dict] = field(default_factory=list)
    run_order: list[list] = field(default_factory=list)
    traces: list = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    @property
    def correct(self) -> bool:
        return self.setup_ok and self.failed == 0

    def metric_names(self) -> dict[str, str]:
        if self.trace:
            return per_layer_units(self.workload)
        return END_TO_END_UNITS

    def value(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


class Runner:
    """Runs one workload for one seed inside its own work directory."""

    def __init__(self, workload: Workload, seed: int, trace: bool, workdir: Path,
                 reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.config = workdir / "sweep.json"
        self.log = workdir / "stderr.log"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected = reference.get(workload.name) if seed == 0 else None
        self.result = RunResult(workload, seed, trace)
        # sha256 of the first curated file; every later curate must match it.
        self.curated: str | None = None
        self._t0 = time.perf_counter()

    def step(self, label: str) -> None:
        self.result.run_order.append([label, round(time.perf_counter() - self._t0, 6)])

    def check(self, source: str, hashes: dict, points: int, extra_failed: int = 0,
              exit_code: int = 0) -> None:
        """Count a sweep's points, failing all of them on a wrong hash."""
        if self.expected is None and exit_code == 0 and None not in hashes.values():
            self.expected = hashes
        ok = hashes == self.expected and exit_code == 0
        failed = points if not ok else min(points, extra_failed)
        self.result.attempted += points
        self.result.failed += failed
        self.result.hash_checks.append(
            {"source": source, "hashes": hashes, "ok": ok, "failed_points": failed}
        )

    def sweep(self, label: str) -> ProcessStats:
        self.step(label)
        if not self.workload.resume:
            shutil.rmtree(self.out, ignore_errors=True)
        stats = spawn(
            [sys.executable, "-m", "tokalign.cli", "sweep", "--config",
             str(self.config), "--jobs", str(self.workload.jobs)],
            self.workdir, self.env, self.log,
        )
        self.check(label, output_hashes(self.out), self.workload.points,
                   listed_failures(self.out), stats.exit_code)
        return stats

    def setup(self) -> None:
        """Generate inputs and write the curated file the sweep reads."""
        self.step("inputs")
        write_inputs(self.workload, self.seed, self.workdir)
        # The first call compiles the program's bytecode; it is not timed.
        self.curate("setup-warm")

    def curate(self, label: str) -> ProcessStats:
        """Run `tokalign curate` on the generated lexicons in a fresh interpreter."""
        self.step(label)
        lang = self.workdir / LANGUAGE
        stats = spawn(
            [sys.executable, "-m", "tokalign.cli", "curate",
             "--features", str(lang / "features.tsv"),
             "--segmentations", str(lang / "segmentations.tsv"),
             "--out", str(lang / "curated.tsv"), "--language", LANGUAGE],
            self.workdir, self.env, self.log,
        )
        digest = file_sha256(lang / "curated.tsv")
        if self.curated is None:
            self.curated = digest
        self.result.setup_ok &= stats.exit_code == 0 and digest == self.curated
        return stats

    def time_setup(self, due: int) -> None:
        """Time `tokalign curate` until setup_s has `due` samples.

        A shared host's speed drifts over tens of seconds, so the timed
        set-ups are spread over the run between sweeps rather than
        run back to back.
        """
        samples = self.result.samples.setdefault("setup_s", [])
        while len(samples) < due:
            samples.append(self.curate(f"setup-{len(samples)}").wall_s)

    def run(self, seconds: float) -> RunResult:
        self.workdir.mkdir(parents=True)
        self.setup()
        if self.result.trace:
            self.trace_setup()
        if self.workload.resume:
            self.sweep("prepare")
        start = time.perf_counter()
        iteration = 0
        while True:
            stats = self.sweep(f"sweep-{iteration}")
            self.result.add("sweep_s", stats.wall_s)
            self.result.add("cpu_s", stats.cpu_s)
            self.result.add("peak_rss_mb", stats.peak_rss_mb)
            self.result.add(
                "cli.pool_efficiency",
                stats.cpu_s / (self.workload.jobs * stats.wall_s),
            )
            if self.result.trace:
                self.trace_replay(iteration, stats.wall_s)
            iteration += 1
            elapsed = time.perf_counter() - start
            # Stop when one more iteration would end further past the
            # deadline than stopping now falls short of it.
            done = elapsed + elapsed / iteration / 2 >= seconds
            self.time_setup(
                SETUP_REPEATS if done else int(SETUP_REPEATS * elapsed / seconds)
            )
            if done:
                break
        points = self.result.attempted or 1
        self.result.add(FAILED_RATIO, self.result.failed / points)
        return self.result

    # ------------------------------------------------------------ tracing

    def trace_setup(self) -> None:
        import replay

        lang = self.workdir / LANGUAGE
        expected = (lang / "curated.tsv").read_text(encoding="utf-8")
        for i in range(SETUP_REPEATS):
            self.step(f"trace-setup-{i}")
            tracer = replay.Tracer()
            text = replay.trace_curate(
                tracer, f"curate-{i}", lang / "features.tsv",
                lang / "segmentations.tsv", LANGUAGE,
            )
            self.result.setup_ok &= text == expected
            self.result.traces.append(tracer)
            layers = tracer.layer_self_times(f"curate-{i}")
            self.result.add("corpus.curate_s", layers["corpus.curate"])
            self.result.add("corpus.entries", tracer.counts["corpus.entries"])
            self.result.add("corpus.dropped", tracer.counts["corpus.dropped"])

    def trace_replay(self, iteration: int, untraced_s: float) -> None:
        import replay

        run_id = f"replay-{iteration}"
        self.step(run_id)
        out = self.out if self.workload.resume else self.workdir / "replay"
        if not self.workload.resume:
            shutil.rmtree(out, ignore_errors=True)
        tracer = replay.Tracer()
        sweep = replay.SweepReplay(tracer, run_id, self.env)
        sweep.sweep(self.config, out)
        self.check(run_id, output_hashes(out), self.workload.points, listed_failures(out))
        sweep.probe_segmentation(self.workdir / LANGUAGE / "curated.tsv")
        self.result.traces.append(tracer)

        layers = tracer.layer_self_times(run_id)
        layers.update(tracer.layer_self_times(run_id + "/probe"))
        counts = tracer.counts
        em_s = layers.get("ibm1.em", 0.0)
        total = tracer.root(run_id).duration
        values = {span_metric(name): value for name, value in layers.items()}
        values.update(counts)
        values.update({
            "ibm1.em_epoch_s": em_s / counts["ibm1.epochs"] if counts["ibm1.epochs"] else 0.0,
            "ibm1.links_per_s": counts["ibm1.estep_links"] / em_s if em_s else 0.0,
            "trace.total_s": total,
            "trace.unattributed_s": layers[replay.ROOT_SPAN],
            "trace.overhead_s": total - untraced_s,
        })
        for name in per_layer_units(self.workload):
            if name not in NOT_FROM_REPLAY:
                self.result.add(name, values.get(name, 0.0))


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def record(result: RunResult, seconds: float, load_before, load_after) -> dict:
    return {
        **environment(),
        "workload": result.workload.name,
        "seed": result.seed,
        "seconds": seconds,
        "trace": int(result.trace),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "run_order": result.run_order,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "setup_ok": result.setup_ok,
        "hash_checks": result.hash_checks,
        "metrics": {
            name: {"unit": unit, **summarize(result.samples[name])}
            for name, unit in report_units(result).items()
            if result.samples.get(name)
        },
    }


def report_units(result: RunResult) -> dict[str, str]:
    units = dict(result.metric_names())
    if not result.trace:
        units[FAILED_RATIO] = "ratio"
    return units


def report_lines(result: RunResult) -> list[str]:
    """One human-readable line per metric: name, median, unit, spread."""
    lines = []
    for name, unit in report_units(result).items():
        values = result.samples.get(name) or [0.0]
        s = summarize(values)
        high = (
            f"p{s['p_high']['q']:g}={s['p_high']['value']:.6g}"
            if s["p_high"] else "p_high=n/a"
        )
        lines.append(
            f"{result.workload.name:12s} {name:40s} {s['median']:14.6g} {unit:6s} "
            f"q1={s['q1']:.6g} q3={s['q3']:.6g} {high} n={s['n']}"
        )
    return lines


def result_line(result: RunResult) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.value(name), "unit": unit}
            for name, unit in result.metric_names().items()
        },
    })


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, reference: dict) -> tuple[RunResult, dict]:
    """Run one workload in a fresh work directory and write its record."""
    shutil.rmtree(workdir, ignore_errors=True)
    load_before = os.getloadavg()
    result = Runner(workload, seed, trace, workdir, reference).run(seconds)
    rec = record(result, seconds, load_before, os.getloadavg())
    (workdir / "record.json").write_text(json.dumps(rec, indent=1) + "\n")
    if trace:
        spans = [span for tracer in result.traces for span in tracer.to_json()]
        (workdir / "spans.json").write_text(json.dumps(spans) + "\n")
    return result, rec


def run_all(seed: int, seconds: float, reference: dict) -> int:
    """Every workload once untraced, then each one traced."""
    records = []
    for trace in (False, True):
        for name, workload in WORKLOADS.items():
            result, rec = run_one(
                workload, seed, seconds, trace,
                WORK_DIR / f"all-{name}-t{int(trace)}", reference,
            )
            print("\n".join(report_lines(result)), flush=True)
            records.append(rec)
    summary = WORK_DIR / "all.json"
    summary.write_text(json.dumps({"records": records}, indent=1) + "\n")
    correct = all(rec["correct"] for rec in records)
    print(f"records: {summary}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
    }))
    return 0 if correct else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, then print every metric")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into an exception, so that `spawn` stops its child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "tokalign" / "cli.py").is_file():
        print(f"error: no tokalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE_HASHES.read_text(encoding="utf-8"))
    try:
        if args.all:
            return run_all(args.seed, args.seconds, reference)
        workdir = WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
        result, _ = run_one(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            workdir, reference,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(result)))
    print(f"record: {workdir / 'record.json'}")
    print(result_line(result))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
