"""Report evaluation against small hand-computed examples."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(ValueError, match="no reports"):
        summarize(EMPTY)


def test_summarize_unlabeled_runs():
    # the steps, and the histogram of a windowed run; nothing that needs labels
    windowed = Reports(
        prediction=np.array([1, -1, 1], dtype=np.int8), window=np.array([2, 1, 2], dtype=np.int64)
    )
    s = summarize(windowed)
    assert (s.steps, s.accuracy, s.f1, s.histogram, s.rolling) == (3, None, None, {1: 1, 2: 2}, None)
    assert s.to_json_dict() == {"steps": 3, "window_histogram": {"1": 1, "2": 2}}
    bare = summarize(Reports(prediction=np.array([1, -1], dtype=np.int8)))
    assert bare.to_json_dict() == {"steps": 2}
    assert comparison_rows({"w": s, "b": bare}) == [
        {"run": "w", "steps": 3}, {"run": "b", "steps": 2},
    ]
    with pytest.raises(ValueError, match="lookahead must be positive"):
        summarize(windowed, lookahead=0)


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


@pytest.mark.parametrize("lookahead", [2.5, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"])
def test_lookahead_must_be_an_integer(lookahead):
    reports = make_reports([1, -1, 1, 1], [1, 1, 1, 1])
    for call in (rolling_accuracy, summarize):
        with pytest.raises(ValueError, match="lookahead must be an integer"):
            call(reports, lookahead=lookahead)
    # a numpy integer is an integer
    assert rolling_accuracy(reports, lookahead=np.int64(2)).tolist() == [0.5, 0.5, 1.0, 1.0]


def test_rolling_matches_naive_loop():
    rng = np.random.default_rng(0)
    preds = (2 * rng.integers(0, 2, 500) - 1).tolist()
    truths = (2 * rng.integers(0, 2, 500) - 1).tolist()
    reports = make_reports(preds, truths)
    out = rolling_accuracy(reports, lookahead=7)
    correct = [p == g for p, g in zip(preds, truths)]
    naive = [np.mean(correct[i : i + 7]) for i in range(500)]
    assert np.allclose(out, naive)


# -- the numpy formulas these metrics replaced, kept as their oracles ---------


def numpy_accuracy(pred, truth):
    return float(np.mean(pred == truth))


def numpy_f1(pred, truth):
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == -1)))
    fn = int(np.sum((pred == -1) & (truth == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def numpy_rolling(pred, truth, lookahead):
    correct = (pred == truth).astype(float)
    steps = correct.shape[0]
    csum = np.concatenate([[0.0], np.cumsum(correct)])
    idx = np.arange(steps)
    end = np.minimum(idx + lookahead, steps)
    return (csum[end] - csum[idx]) / (end - idx)


def numpy_histogram(window):
    sizes, counts = np.unique(window, return_counts=True)
    return {int(s): int(c) for s, c in zip(sizes, counts)}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), steps=st.integers(1, 300), column=st.sampled_from(("numpy", "array")))
def test_metrics_equal_the_numpy_formulas_bit_for_bit(data, steps, column):
    signs = st.lists(st.sampled_from((-1, 1)), min_size=steps, max_size=steps)
    pred, truth = data.draw(signs), data.draw(signs)
    window = data.draw(st.lists(st.integers(1, 2**40), min_size=steps, max_size=steps))
    # from 1 to T + 5, so that T falls below the lookahead too
    lookahead = data.draw(st.integers(1, steps + 5))
    if column == "numpy":
        reports = make_reports(pred, truth, window)
    else:
        reports = Reports(prediction=array("b", pred), truth=array("b", truth), window=array("q", window))
    p, g = np.array(pred, dtype=np.int8), np.array(truth, dtype=np.int8)
    assert prediction_accuracy(reports) == numpy_accuracy(p, g)
    assert f1_score(reports) == numpy_f1(p, g)
    rolling = rolling_accuracy(reports, lookahead)
    assert rolling.typecode == "d"
    assert bytes(rolling) == numpy_rolling(p, g, lookahead).tobytes()
    assert window_histogram(reports) == numpy_histogram(np.array(window, dtype=np.int64))
    s = summarize(reports, lookahead)
    assert (s.accuracy, s.f1, bytes(s.rolling)) == (
        numpy_accuracy(p, g), numpy_f1(p, g), numpy_rolling(p, g, lookahead).tobytes()
    )


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
    # no lookahead, no series; the headline numbers stay
    bare = summarize(reports, lookahead=None)
    assert bare.rolling is None
    assert bare.to_json_dict() == s.to_json_dict()
    doc = s.to_json_dict()
    assert doc["window_histogram"] == {"1": 1, "2": 1, "4": 2}
    assert "rolling" not in doc
    assert set(doc) == {"steps", "accuracy", "f1", "window_histogram"}


def test_summarize_majority_run_has_no_histogram():
    reports = make_reports([1, -1], [1, -1])
    s = summarize(reports)
    assert s.histogram is None
    assert "window_histogram" not in s.to_json_dict()
    assert s.rolling.typecode == "d" and len(s.rolling) == 2


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
