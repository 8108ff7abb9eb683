"""Mask quality scoring: pixel tallies, F-score, and the CSV report format.

The report can carry (recall, precision) sweep points; ``brickbg eval
--sweep`` scores one mask sequence per threshold setting to produce them.

Conventions for empty denominators: precision and recall are 1.0 when their
denominator is zero, and the F-score of a frame with no foreground in either
mask is 1.0 (perfect agreement on "nothing there").
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class EvalReport:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 1.0

    @property
    def fscore(self) -> float:
        denom = 2 * self.true_positives + self.false_positives + self.false_negatives
        return 2 * self.true_positives / denom if denom else 1.0


def evaluate(predicted: np.ndarray, truth: np.ndarray) -> EvalReport:
    """Pixel tallies over a matching pair of boolean masks: a frame or an (F, H, W) stack.

    True positives are counted frame by frame, and fp and fn follow from the
    masks' own counts, so no temporary larger than a frame is made."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    if predicted.dtype != bool or truth.dtype != bool:
        raise ValueError("masks must be boolean")
    pairs = zip(predicted, truth) if predicted.ndim == 3 else [(predicted, truth)]
    tp = sum(int(np.count_nonzero(p & t)) for p, t in pairs)
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return EvalReport(tp, fp, fn)


def per_frame_fscores(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """F-score of each frame of an (F, H, W) pair."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 3:
        raise ValueError("expected matching (F, H, W) mask stacks")
    return np.array(
        [evaluate(predicted[f], truth[f]).fscore for f in range(predicted.shape[0])]
    )


def write_report(path, report: EvalReport, points=None):
    """Write a report as CSV: a tally row, then optional sweep points."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tp", "fp", "fn", "precision", "recall", "fscore"])
        writer.writerow(
            [
                report.true_positives,
                report.false_positives,
                report.false_negatives,
                f"{report.precision:.6f}",
                f"{report.recall:.6f}",
                f"{report.fscore:.6f}",
            ]
        )
        if points:
            writer.writerow(["recall", "precision"])
            for recall, precision in points:
                writer.writerow([f"{recall:.6f}", f"{precision:.6f}"])


def read_report(path):
    """Read back a CSV report: (EvalReport, list of (recall, precision))."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[0][:3] != ["tp", "fp", "fn"]:
        raise ValueError(f"{path}: not a report file")
    tally = rows[1]
    report = EvalReport(int(tally[0]), int(tally[1]), int(tally[2]))
    points = []
    if len(rows) > 2 and rows[2][:1] == ["recall"]:
        points = [(float(row[0]), float(row[1])) for row in rows[3:] if row]
    return report, points
