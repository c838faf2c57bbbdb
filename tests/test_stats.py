"""Rank correlation and the grid correlation report."""

import io
import math
import random

import pytest

from oracles import ranks_reference, spearman_reference
from tokalign.errors import DataError
from tokalign.metrics import ScoreRow
from tokalign.stats import (
    MIN_POINTS,
    SCOPE_ALL,
    STATUS_CONSTANT,
    STATUS_OK,
    STATUS_UNDERPOPULATED,
    CorrelationCell,
    average_ranks,
    build_report,
    read_report,
    spearman,
    write_report,
)


class TestRanks:
    def test_ties_share_the_mean_rank(self):
        assert average_ranks([5.0, 5.0, 9.0]) == [1.5, 1.5, 3.0]
        assert average_ranks([3.0, 1.0, 2.0]) == [3.0, 1.0, 2.0]
        assert average_ranks([7.0, 7.0, 7.0]) == [2.0, 2.0, 2.0]

    def test_rank_sum_is_fixed_by_series_length(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 20)
            values = [rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in range(n)]
            ranks = average_ranks(values)
            assert sum(ranks) == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_matches_external_rank_implementation(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 15)
            values = [float(rng.randint(0, 5)) for _ in range(n)]
            got = average_ranks(values)
            want = ranks_reference(values)
            assert got == pytest.approx(want, abs=1e-12)


class TestSpearman:
    def test_hand_checked_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_perfect_agreement_and_disagreement(self):
        xs = [0.1, 0.4, 0.5, 0.9]
        assert spearman(xs, [2.0, 3.0, 5.0, 7.0]) == pytest.approx(
            1.0, abs=1e-15
        )
        assert spearman(xs, [7.0, 5.0, 3.0, 2.0]) == pytest.approx(
            -1.0, abs=1e-15
        )

    def test_matches_external_implementation_with_ties(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(MIN_POINTS, 12)
            xs = [float(rng.randint(0, 4)) for _ in range(n)]
            ys = [float(rng.randint(0, 4)) for _ in range(n)]
            if min(xs) == max(xs) or min(ys) == max(ys):
                continue
            assert spearman(xs, ys) == pytest.approx(
                spearman_reference(xs, ys), abs=1e-12
            )

    def test_invariant_under_monotone_transforms(self):
        xs = [0.2, 1.5, 0.7, 3.0, 2.2]
        ys = [5.0, 1.0, 4.0, 2.0, 3.0]
        base = spearman(xs, ys)
        assert spearman([math.exp(x) for x in xs], ys) == base
        assert spearman(xs, [y**3 for y in ys]) == base

    def test_negating_one_side_flips_the_sign(self):
        xs = [0.2, 1.5, 0.7, 3.0, 2.2]
        ys = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert spearman(xs, [-y for y in ys]) == pytest.approx(
            -spearman(xs, ys), abs=1e-12
        )

    def test_rejects_degenerate_series(self):
        with pytest.raises(DataError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            spearman([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DataError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError):
            spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


def _row(kind, vocab_size, alignment, precision, recall, f1, threshold=0.01):
    return ScoreRow(
        language="toy",
        kind=kind,
        vocab_size=vocab_size,
        mode="split",
        aggregation="mean",
        threshold=threshold,
        alignment=alignment,
        precision=precision,
        recall=recall,
        f1=f1,
        excluded=0,
    )


def _grid_rows():
    # Precision is anti-monotone with alignment inside bpe but not once
    # the baselines join; recall balances out; f1 is constant.
    return [
        _row("bpe", 200, 0.10, 0.9, 0.3, 0.5),
        _row("bpe", 400, 0.20, 0.8, 0.2, 0.5),
        _row("bpe", 800, 0.30, 0.7, 0.1, 0.5),
        _row("character", 0, 0.05, 0.6, 0.4, 0.5),
        _row("gold", 0, 0.40, 1.0, 0.5, 0.5),
    ]


class TestReport:
    def test_scopes_statuses_and_values(self):
        report = build_report(_grid_rows())
        # One group, scope "all" plus the three-point bpe scope.
        assert len(report.cells) == 6

        cell = report.find("toy", "split", "mean", 0.01, "precision")
        assert cell.status == STATUS_OK
        assert cell.n_points == 5
        assert cell.rho == pytest.approx(0.6, abs=1e-12)

        cell = report.find("toy", "split", "mean", 0.01, "recall")
        assert cell.rho == pytest.approx(0.0, abs=1e-12)

        cell = report.find("toy", "split", "mean", 0.01, "f1")
        assert cell.status == STATUS_CONSTANT
        assert cell.rho is None

        cell = report.find("toy", "split", "mean", 0.01, "precision", scope="bpe")
        assert cell.n_points == 3
        assert cell.rho == pytest.approx(-1.0, abs=1e-12)
        cell = report.find("toy", "split", "mean", 0.01, "recall", scope="bpe")
        assert cell.rho == pytest.approx(-1.0, abs=1e-12)

        # Kinds with fewer than MIN_POINTS rows get no scope of their own.
        assert report.find(
            "toy", "split", "mean", 0.01, "recall", scope="character"
        ) is None

    def test_small_groups_are_marked_underpopulated(self):
        rows = [
            _row("bpe", 200, 0.1, 0.9, 0.3, 0.4, threshold=0.5),
            _row("gold", 0, 0.4, 1.0, 0.5, 0.6, threshold=0.5),
        ]
        report = build_report(rows)
        assert len(report.cells) == 3
        for cell in report.cells:
            assert cell.status == STATUS_UNDERPOPULATED
            assert cell.rho is None
            assert cell.n_points == 2
        assert report.ok_cells() == []

    def test_groups_split_by_threshold(self):
        rows = _grid_rows() + [
            _row("bpe", 200, 0.1, 0.9, 0.3, 0.4, threshold=0.5),
            _row("gold", 0, 0.4, 1.0, 0.5, 0.6, threshold=0.5),
        ]
        report = build_report(rows)
        assert len(report.cells) == 9
        assert len(report.ok_cells()) == 4

    def test_duplicate_labels_in_one_group_are_rejected(self):
        rows = _grid_rows() + [_row("bpe", 200, 0.9, 0.1, 0.1, 0.1)]
        with pytest.raises(DataError):
            build_report(rows)

    def test_empty_input_is_rejected(self):
        with pytest.raises(DataError):
            build_report([])


class TestReportFiles:
    def test_round_trip_preserves_cells_exactly(self):
        report = build_report(_grid_rows())
        buf = io.StringIO()
        write_report(report, buf, seed=3)
        text = buf.getvalue()
        assert text.startswith("# seed: 3\n")
        loaded = read_report(io.StringIO(text))
        assert loaded.cells == report.cells

    def test_missing_rho_round_trips_as_none(self):
        cell = CorrelationCell(
            language="toy",
            mode="split",
            aggregation="mean",
            threshold=0.01,
            target_metric="f1",
            scope=SCOPE_ALL,
            n_points=4,
            rho=None,
            status=STATUS_CONSTANT,
        )
        report = build_report(_grid_rows())
        report.cells.append(cell)
        buf = io.StringIO()
        write_report(report, buf)
        loaded = read_report(io.StringIO(buf.getvalue()))
        assert loaded.cells[-1].rho is None
        assert loaded.cells[-1].status == STATUS_CONSTANT

    def test_reader_rejects_wrong_header_and_bad_rows(self):
        with pytest.raises(DataError):
            read_report(io.StringIO("x,y\n1,2\n"))
        report = build_report(_grid_rows())
        buf = io.StringIO()
        write_report(report, buf)
        with pytest.raises(DataError):
            read_report(io.StringIO(buf.getvalue() + "toy,split\n"))
