"""Evaluation of per-step reports: accuracy, F1, windows, rolling series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ROLLING_LOOKAHEAD, Reports


def _truth_pairs(reports: Reports) -> tuple[np.ndarray, np.ndarray]:
    if len(reports) == 0:
        raise ValueError("no reports to evaluate")
    if reports.truth is None:
        raise ValueError("reports lack truth labels; accuracy metrics need a labeled stream")
    return reports.prediction, reports.truth


def prediction_accuracy(reports: Reports) -> float:
    """Fraction of steps whose prediction matches the truth."""
    pred, truth = _truth_pairs(reports)
    return float(np.mean(pred == truth))


def f1_score(reports: Reports) -> float:
    """F1 of the +1 class: harmonic mean of precision and recall.

    Degenerate cases (no predicted positives, no true positives) score 0.
    """
    pred, truth = _truth_pairs(reports)
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == -1)))
    fn = int(np.sum((pred == -1) & (truth == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rolling_accuracy(reports: Reports, lookahead: int = ROLLING_LOOKAHEAD) -> np.ndarray:
    """Accuracy over the next ``lookahead`` steps starting at each step.

    Entry ``i`` averages correctness over steps ``i .. i + lookahead - 1``
    (0-based), truncated at the end of the stream, so the series has one
    entry per report and its tail shrinks to a single-step average.
    """
    if lookahead < 1:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    pred, truth = _truth_pairs(reports)
    correct = (pred == truth).astype(float)
    steps = correct.shape[0]
    csum = np.concatenate([[0.0], np.cumsum(correct)])
    idx = np.arange(steps)
    end = np.minimum(idx + lookahead, steps)
    return (csum[end] - csum[idx]) / (end - idx)


def window_histogram(reports: Reports) -> dict[int, int]:
    """Counts of the window sizes used, keyed by size, ascending.

    The reports must carry windows (majority-vote reports do not).
    """
    if len(reports) == 0:
        raise ValueError("no reports to evaluate")
    if reports.window is None:
        raise ValueError("reports lack windows; histogram needs a windowed strategy")
    sizes, counts = np.unique(reports.window, return_counts=True)
    return {int(s): int(c) for s, c in zip(sizes, counts)}


@dataclass
class RunSummary:
    """Headline numbers for one run; ``rolling`` is the full series and is
    excluded from the JSON view (series go to CSV instead)."""

    steps: int
    accuracy: float
    f1: float
    histogram: dict[int, int] | None
    rolling: np.ndarray

    def to_json_dict(self) -> dict:
        out: dict = {"steps": self.steps, "accuracy": self.accuracy, "f1": self.f1}
        if self.histogram is not None:
            out["window_histogram"] = {str(k): v for k, v in self.histogram.items()}
        return out


def summarize(reports: Reports, lookahead: int = ROLLING_LOOKAHEAD) -> RunSummary:
    """Bundle accuracy, F1, the window histogram (when the strategy used
    windows), and the rolling-accuracy series."""
    return RunSummary(
        steps=len(reports),
        accuracy=prediction_accuracy(reports),
        f1=f1_score(reports),
        histogram=None if reports.window is None else window_histogram(reports),
        rolling=rolling_accuracy(reports, lookahead),
    )


def comparison_rows(summaries: dict[str, RunSummary]) -> list[dict]:
    """One row per run for side-by-side comparison, in input order."""
    return [
        {"run": name, "steps": s.steps, "accuracy": s.accuracy, "f1": s.f1}
        for name, s in summaries.items()
    ]
