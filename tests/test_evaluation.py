"""Mask scoring against exact rational arithmetic."""

import csv
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickbg.evaluation import (
    EvalReport,
    evaluate,
    per_frame_fscores,
    write_report,
)

counts = st.integers(0, 10**6)


def oracle_fscore(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return Fraction(2 * tp, denom) if denom else Fraction(1)


def oracle_precision(tp, fp):
    return Fraction(tp, tp + fp) if tp + fp else Fraction(1)


def oracle_recall(tp, fn):
    return Fraction(tp, tp + fn) if tp + fn else Fraction(1)


# --- report arithmetic -------------------------------------------------------


@given(counts, counts, counts)
def test_fscore_matches_rational_oracle(tp, fp, fn):
    report = EvalReport(tp, fp, fn)
    assert report.fscore == pytest.approx(float(oracle_fscore(tp, fp, fn)), abs=1e-12)
    assert report.precision == pytest.approx(float(oracle_precision(tp, fp)), abs=1e-12)
    assert report.recall == pytest.approx(float(oracle_recall(tp, fn)), abs=1e-12)


def test_fscore_examples():
    assert EvalReport(2, 1, 1).fscore == pytest.approx(4 / 6)
    assert EvalReport(0, 0, 0).fscore == 1.0
    assert EvalReport(0, 5, 0).fscore == 0.0
    assert EvalReport(0, 0, 5).fscore == 0.0
    assert EvalReport(10, 0, 0).fscore == 1.0


def test_empty_denominator_conventions():
    assert EvalReport(0, 0, 3).precision == 1.0      # nothing predicted
    assert EvalReport(0, 3, 0).recall == 1.0         # nothing to find


@given(counts, counts, counts)
def test_fscore_symmetric_in_fp_fn(tp, fp, fn):
    assert EvalReport(tp, fp, fn).fscore == EvalReport(tp, fn, fp).fscore


@given(counts, st.integers(0, 10**6 - 1), counts)
def test_fscore_decreases_with_more_false_positives(tp, fp, fn):
    if tp + fn == 0:
        return
    assert EvalReport(tp, fp + 1, fn).fscore <= EvalReport(tp, fp, fn).fscore


# --- pixel tallies ------------------------------------------------------------


def test_confusion_counts_exactly():
    predicted = np.array([[True, True], [False, False]])
    truth = np.array([[True, False], [True, False]])
    report = evaluate(predicted, truth)
    assert (report.true_positives, report.false_positives,
            report.false_negatives) == (1, 1, 1)


def test_confusion_validates():
    with pytest.raises(ValueError, match="shape"):
        evaluate(np.zeros((2, 2), bool), np.zeros((2, 3), bool))
    with pytest.raises(ValueError, match="boolean"):
        evaluate(np.zeros((2, 2), np.uint8), np.zeros((2, 2), bool))


@given(st.integers(0, 2**31 - 1))
def test_confusion_partitions_pixels(seed):
    gen = np.random.default_rng(seed)
    predicted = gen.random((4, 6)) > 0.5
    truth = gen.random((4, 6)) > 0.5
    r = evaluate(predicted, truth)
    tn = int(np.count_nonzero(~predicted & ~truth))
    assert r.true_positives + r.false_positives + r.false_negatives + tn == 24


def test_evaluate_aggregates_over_frames():
    predicted = np.zeros((3, 2, 2), dtype=bool)
    truth = np.zeros((3, 2, 2), dtype=bool)
    predicted[0, 0, 0] = truth[0, 0, 0] = True     # one TP
    predicted[1, 1, 1] = True                      # one FP
    truth[2, 0, 1] = True                          # one FN
    report = evaluate(predicted, truth)
    assert (report.true_positives, report.false_positives,
            report.false_negatives) == (1, 1, 1)


def test_evaluate_makes_no_stack_sized_temporary(rng):
    """tp is counted frame by frame, so the traced peak stays below two mask
    frames; ``predicted & ~truth`` and its like made stack-sized temporaries."""
    predicted = rng.random((40, 120, 160)) > 0.5
    truth = rng.random((40, 120, 160)) > 0.5
    tracemalloc.start()
    try:
        report = evaluate(predicted, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * predicted[0].size, peak
    assert (report.true_positives, report.false_positives, report.false_negatives) == (
        np.count_nonzero(predicted & truth),
        np.count_nonzero(predicted & ~truth),
        np.count_nonzero(~predicted & truth),
    )


def test_per_frame_fscores():
    predicted = np.zeros((3, 2, 2), dtype=bool)
    truth = np.zeros((3, 2, 2), dtype=bool)
    predicted[0] = truth[0] = True                 # perfect frame
    predicted[1, 0, 0] = True
    truth[1, 0, 0] = truth[1, 0, 1] = True         # tp=1 fn=1 -> 2/3
    scores = per_frame_fscores(predicted, truth)
    assert scores == pytest.approx([1.0, 2 / 3, 1.0])
    with pytest.raises(ValueError):
        per_frame_fscores(predicted[0], truth[0])


# --- report files ----------------------------------------------------------------


HEADER = ["tp", "fp", "fn", "precision", "recall", "fscore"]


def report_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_report_round_trip(tmp_path):
    report = EvalReport(1200, 34, 56)
    points = [(0.9, 0.8), (0.5, 0.99)]
    path = tmp_path / "report.csv"
    write_report(path, report, points)
    rows = report_rows(path)
    assert rows[:3] == [
        HEADER,
        ["1200", "34", "56", f"{report.precision:.6f}", f"{report.recall:.6f}",
         f"{report.fscore:.6f}"],
        ["recall", "precision"],
    ]
    assert [(float(r), float(p)) for r, p in rows[3:]] == pytest.approx(points)


def test_report_without_sweep(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, EvalReport(1, 2, 3))
    assert report_rows(path) == [HEADER, ["1", "2", "3", "0.333333", "0.250000", "0.285714"]]
