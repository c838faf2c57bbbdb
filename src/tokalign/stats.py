"""Rank correlation and the correlation report over evaluated grids.

Spearman's coefficient is computed as the Pearson correlation of
tie-averaged ranks.  Constant series have no defined rank correlation
and surface as missing report cells rather than zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence, TextIO

from .errors import DataError
from .metrics import ScoreRow, write_csv

MIN_POINTS = 3
TARGET_METRICS = ("precision", "recall", "f1")
SCOPE_ALL = "all"

STATUS_OK = "ok"
STATUS_CONSTANT = "constant-series"
STATUS_UNDERPOPULATED = "underpopulated"


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the mean of their rank span."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    # Left to right: the builtin `sum` of floats compensates from Python 3.12.
    mean_x = reduce(add, xs, 0.0) / n
    mean_y = reduce(add, ys, 0.0) / n
    cov = 0.0
    var_x = 0.0
    var_y = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        cov += dx * dy
        var_x += dx * dx
        var_y += dy * dy
    if var_x <= 0.0 or var_y <= 0.0:
        raise DataError("correlation is undefined for a constant series")
    return cov / math.sqrt(var_x * var_y)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation of two paired series.

    Raises for mismatched lengths, fewer than MIN_POINTS points, or a
    constant series on either side.
    """
    if len(xs) != len(ys):
        raise DataError(
            f"series length mismatch: {len(xs)} vs {len(ys)}"
        )
    if len(xs) < MIN_POINTS:
        raise DataError(
            f"need at least {MIN_POINTS} points, got {len(xs)}"
        )
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise DataError("correlation is undefined for a constant series")
    return _pearson(average_ranks(xs), average_ranks(ys))


@dataclass(frozen=True)
class CorrelationCell:
    language: str
    mode: str
    aggregation: str
    threshold: float
    target_metric: str
    scope: str
    n_points: int
    rho: float | None
    status: str


@dataclass
class CorrelationReport:
    cells: list[CorrelationCell] = field(default_factory=list)

    def ok_cells(self) -> list[CorrelationCell]:
        return [c for c in self.cells if c.status == STATUS_OK]


def _cells_for_group(
    key: tuple[str, str, str, float],
    rows: list[ScoreRow],
    target_ranks: dict[tuple[float, ...], list[float]],
) -> list[CorrelationCell]:
    """The group's cells, each rho as :func:`spearman` gives it.

    A scope's alignment scores are ranked once for its three targets.
    A target series does not change with the aggregation or threshold,
    so its ranks are kept in `target_ranks`, keyed by its values, for
    the other groups of its language and mode.
    """
    language, mode, aggregation, threshold = key
    labels = [row.label for row in rows]
    if len(set(labels)) != len(labels):
        raise DataError(
            f"duplicate tokenizer label within a report group: {key!r}"
        )
    scopes: list[tuple[str, list[ScoreRow]]] = [(SCOPE_ALL, rows)]
    kinds = sorted({row.kind for row in rows})
    for kind in kinds:
        subset = [row for row in rows if row.kind == kind]
        if len(subset) >= MIN_POINTS:
            scopes.append((kind, subset))
    cells: list[CorrelationCell] = []
    for scope, subset in scopes:
        if len(subset) < MIN_POINTS:
            cells.extend(
                CorrelationCell(
                    language, mode, aggregation, threshold,
                    target_metric, scope, len(subset), None,
                    STATUS_UNDERPOPULATED,
                )
                for target_metric in TARGET_METRICS
            )
            continue
        scores = [row.alignment for row in subset]
        # A constant series on either side leaves rho undefined; the
        # ranks of any other series have a positive variance.
        score_ranks = None if min(scores) == max(scores) else average_ranks(scores)
        for target_metric in TARGET_METRICS:
            targets = tuple(getattr(row, target_metric) for row in subset)
            rho = None
            if score_ranks is not None and min(targets) != max(targets):
                ranks = target_ranks.get(targets)
                if ranks is None:
                    ranks = target_ranks[targets] = average_ranks(targets)
                rho = _pearson(score_ranks, ranks)
            status = STATUS_CONSTANT if rho is None else STATUS_OK
            cells.append(
                CorrelationCell(
                    language, mode, aggregation, threshold,
                    target_metric, scope, len(subset), rho, status,
                )
            )
    return cells


def build_report(score_rows: Sequence[ScoreRow]) -> CorrelationReport:
    """Correlate alignment scores with boundary metrics per grid cell.

    Rows are grouped by (language, mode, aggregation, threshold); the
    tokenizers inside one group form the paired series.  Each group
    yields one cell per target metric for the whole tokenizer set plus
    one per tokenizer kind that has enough points on its own.
    """
    if not score_rows:
        raise DataError("cannot build a report from zero score rows")
    groups: dict[tuple[str, str, str, float], list[ScoreRow]] = {}
    for row in score_rows:
        key = (row.language, row.mode, row.aggregation, row.threshold)
        groups.setdefault(key, []).append(row)
    report = CorrelationReport()
    target_ranks: dict[tuple[float, ...], list[float]] = {}
    for key in sorted(groups):
        report.cells.extend(_cells_for_group(key, groups[key], target_ranks))
    return report


REPORT_COLUMNS = (
    "language",
    "mode",
    "aggregation",
    "threshold",
    "target_metric",
    "scope",
    "n_points",
    "rho",
    "status",
)


def write_report(
    report: CorrelationReport, stream: TextIO, seed: int | None = None
) -> None:
    """Long-format CSV; missing correlations have an empty rho field."""
    write_csv(REPORT_COLUMNS, (vars(c).values() for c in report.cells), stream, seed)
