"""Evaluation of per-step reports: accuracy, F1, windows, rolling series.

Metrics read 1-d columns (numpy or ``array.array``) with ``.tolist()`` and
count in Python integers, so no numpy is loaded and each float is one
``int / int``, equal to numpy's float64 arithmetic bit for bit.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import eq, sub, truediv

from .core import ROLLING_LOOKAHEAD, Reports, _Record, integer


def _truth_pairs(reports: Reports) -> tuple[list, list]:
    if len(reports) == 0:
        raise ValueError("no reports to evaluate")
    if reports.truth is None:
        raise ValueError("reports lack truth labels; accuracy metrics need a labeled stream")
    return reports.prediction.tolist(), reports.truth.tolist()


def _check_lookahead(lookahead: int) -> None:
    if integer(lookahead, "lookahead") < 1:
        raise ValueError(f"lookahead must be positive, got {lookahead}")


def prediction_accuracy(reports: Reports) -> float:
    """Fraction of steps whose prediction matches the truth."""
    pred, truth = _truth_pairs(reports)
    return sum(map(eq, pred, truth)) / len(pred)


def f1_score(reports: Reports) -> float:
    """F1 of the +1 class: harmonic mean of precision and recall.

    Degenerate cases (no predicted positives, no true positives) score 0.
    """
    pairs = Counter(zip(*_truth_pairs(reports)))
    tp, fp, fn = pairs[1, 1], pairs[1, -1], pairs[-1, 1]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rolling_accuracy(reports: Reports, lookahead: int = ROLLING_LOOKAHEAD) -> array:
    """Accuracy over the next ``lookahead`` steps starting at each step.

    Entry ``i`` averages correctness over steps ``i .. i + lookahead - 1``
    (0-based), truncated at the end of the stream, so the series, an
    ``array('d')``, has one entry per report and its tail shrinks to a
    single-step average.
    """
    _check_lookahead(lookahead)
    pred, truth = _truth_pairs(reports)
    steps = len(pred)
    csum = list(accumulate(map(eq, pred, truth), initial=0))
    full = max(steps - lookahead + 1, 0)  # entries whose window fits before the end
    return array("d", chain(
        map(truediv, map(sub, csum[lookahead:], csum[:full]), repeat(lookahead, full)),
        map(truediv, map(sub, repeat(csum[steps]), csum[full:steps]), range(steps - full, 0, -1)),
    ))


def window_histogram(reports: Reports) -> dict[int, int]:
    """Counts of the window sizes used, keyed by size, ascending.

    The reports must carry windows (majority-vote reports do not).
    """
    if len(reports) == 0:
        raise ValueError("no reports to evaluate")
    if reports.window is None:
        raise ValueError("reports lack windows; histogram needs a windowed strategy")
    return dict(sorted(Counter(reports.window.tolist()).items()))


def _known(fields: dict) -> dict:
    """``fields`` without those that are None."""
    return {key: value for key, value in fields.items() if value is not None}


class RunSummary(_Record):
    """Headline numbers for one run.  ``accuracy``, ``f1`` and ``rolling``
    (the full series, an ``array('d')``) are None for an unlabeled run,
    ``rolling`` also when no lookahead was given, and ``histogram`` for a
    run without windows; the JSON view omits what is None, and ``rolling``
    always (series go to CSV instead)."""

    steps: int
    accuracy: float | None
    f1: float | None
    histogram: dict[int, int] | None
    rolling: array | None

    def to_json_dict(self) -> dict:
        histogram = None if self.histogram is None else {str(k): v for k, v in self.histogram.items()}
        return _known({
            "steps": self.steps, "accuracy": self.accuracy, "f1": self.f1,
            "window_histogram": histogram,
        })


def summarize(reports: Reports, lookahead: int | None = ROLLING_LOOKAHEAD) -> RunSummary:
    """Bundle the step count, the window histogram (when the strategy used
    windows) and, for a labeled run, accuracy, F1 and the rolling-accuracy
    series of ``lookahead``; a None ``lookahead`` builds no series."""
    if len(reports) == 0:
        raise ValueError("no reports to evaluate")
    if lookahead is not None:
        _check_lookahead(lookahead)
    labeled = reports.truth is not None
    return RunSummary(
        steps=len(reports),
        accuracy=prediction_accuracy(reports) if labeled else None,
        f1=f1_score(reports) if labeled else None,
        histogram=None if reports.window is None else window_histogram(reports),
        rolling=rolling_accuracy(reports, lookahead) if labeled and lookahead is not None else None,
    )


def comparison_rows(summaries: dict[str, RunSummary]) -> list[dict]:
    """One row per run for side-by-side comparison, in input order; an
    unlabeled run's row has no accuracy or F1."""
    return [
        _known({"run": name, "steps": s.steps, "accuracy": s.accuracy, "f1": s.f1})
        for name, s in summaries.items()
    ]
