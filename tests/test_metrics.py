"""Report evaluation against small hand-computed examples."""

import numpy as np
import pytest

from driftvote import (
    ROLLING_LOOKAHEAD,
    Reports,
    comparison_rows,
    f1_score,
    prediction_accuracy,
    rolling_accuracy,
    summarize,
    window_histogram,
)


def make_reports(preds, truths, windows=None):
    return Reports(
        prediction=np.array(preds, dtype=np.int8),
        truth=np.array(truths, dtype=np.int8),
        window=None if windows is None else np.array(windows, dtype=np.int64),
    )


EMPTY = Reports(prediction=np.empty(0, dtype=np.int8))


def test_prediction_accuracy_hand_example():
    reports = make_reports([1, 1, -1, -1], [1, -1, -1, 1])
    assert prediction_accuracy(reports) == 0.5


def test_f1_hand_example():
    # tp=1 (step 1), fp=1 (step 2), fn=1 (step 4):
    # precision = recall = 1/2, f1 = 1/2
    reports = make_reports([1, 1, -1, -1], [1, -1, -1, 1])
    assert f1_score(reports) == pytest.approx(0.5)
    # tp=2, fp=1, fn=0: precision 2/3, recall 1, f1 = 4/5
    reports = make_reports([1, 1, 1], [1, 1, -1])
    assert f1_score(reports) == pytest.approx(0.8)


def test_f1_degenerate_cases():
    # never predicts +1
    assert f1_score(make_reports([-1, -1], [1, -1])) == 0.0
    # no true positives at all
    assert f1_score(make_reports([1, 1], [-1, -1])) == 0.0
    # all negative, perfectly: still 0 by the +1-class convention
    assert f1_score(make_reports([-1, -1], [-1, -1])) == 0.0


def test_metrics_require_truth():
    bare = Reports(prediction=np.array([1], dtype=np.int8))
    for fn in (prediction_accuracy, f1_score, rolling_accuracy):
        with pytest.raises(ValueError, match="lack truth labels"):
            fn(bare)
    with pytest.raises(ValueError, match="no reports"):
        prediction_accuracy(EMPTY)


def test_rolling_accuracy_hand_example():
    reports = make_reports([1, -1, 1, 1], [1, 1, 1, 1])  # correct: 1,0,1,1
    out = rolling_accuracy(reports, lookahead=2)
    assert out.tolist() == [0.5, 0.5, 1.0, 1.0]


def test_rolling_accuracy_truncates_at_the_end():
    reports = make_reports([1, -1, 1, 1], [1, 1, 1, 1])
    out = rolling_accuracy(reports, lookahead=10)  # longer than the stream
    assert out.tolist() == [0.75, 2.0 / 3.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        rolling_accuracy(reports, lookahead=0)


def test_rolling_matches_naive_loop():
    rng = np.random.default_rng(0)
    preds = (2 * rng.integers(0, 2, 500) - 1).tolist()
    truths = (2 * rng.integers(0, 2, 500) - 1).tolist()
    reports = make_reports(preds, truths)
    out = rolling_accuracy(reports, lookahead=7)
    correct = [p == g for p, g in zip(preds, truths)]
    naive = [np.mean(correct[i : i + 7]) for i in range(500)]
    assert np.allclose(out, naive)


def test_window_histogram():
    reports = make_reports([1] * 5, [1] * 5, windows=[1, 2, 2, 8, 2])
    hist = window_histogram(reports)
    assert hist == {1: 1, 2: 3, 8: 1}
    assert list(hist) == sorted(hist)  # ascending keys
    assert sum(hist.values()) == len(reports)
    with pytest.raises(ValueError):
        window_histogram(make_reports([1], [1]))  # no window recorded
    with pytest.raises(ValueError):
        window_histogram(EMPTY)


def test_summarize_windowed_run():
    reports = make_reports([1, 1, -1, -1], [1, -1, -1, 1], windows=[1, 2, 4, 4])
    s = summarize(reports, lookahead=2)
    assert s.steps == 4
    assert s.accuracy == 0.5
    assert s.f1 == pytest.approx(0.5)
    assert s.histogram == {1: 1, 2: 1, 4: 2}
    assert s.rolling.tolist() == [0.5, 0.5, 0.5, 0.0]
    doc = s.to_json_dict()
    assert doc["window_histogram"] == {"1": 1, "2": 1, "4": 2}
    assert "rolling" not in doc
    assert set(doc) == {"steps", "accuracy", "f1", "window_histogram"}


def test_summarize_majority_run_has_no_histogram():
    reports = make_reports([1, -1], [1, -1])
    s = summarize(reports)
    assert s.histogram is None
    assert "window_histogram" not in s.to_json_dict()
    assert s.rolling.shape == (2,)


def test_default_lookahead_is_plumbed():
    reports = make_reports([1] * 200, [1] * 200)
    assert np.array_equal(
        summarize(reports).rolling, rolling_accuracy(reports, ROLLING_LOOKAHEAD)
    )


def test_comparison_rows_preserve_order():
    a = summarize(make_reports([1, 1], [1, 1]))
    b = summarize(make_reports([1, -1], [1, 1]))
    rows = comparison_rows({"adaptive": a, "fixed:8": b})
    assert [r["run"] for r in rows] == ["adaptive", "fixed:8"]
    assert rows[0] == {"run": "adaptive", "steps": 2, "accuracy": 1.0, "f1": 1.0}
    assert rows[1]["accuracy"] == 0.5
