"""Stream/report file formats: round-trips, sniffing, error reporting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftvote import (
    STOPS,
    AdaptiveConfig,
    BlockSpec,
    Reports,
    Stream,
    StreamFormatError,
    SyntheticStreamConfig,
    generate_synthetic,
    read_reports,
    read_stream,
    run_strategy,
    write_reports,
    write_series_csv,
    write_stream,
)

STREAM = Stream(
    votes=np.array([[1, -1, 0], [1, 1, 1], [-1, 0, 0]], dtype=np.int8),
    truth=np.array([1, -1, 1], dtype=np.int8),
)


def assert_same_stream(got, want):
    assert got.votes.dtype == np.int8
    assert np.array_equal(got.votes, want.votes)
    if want.truth is None:
        assert got.truth is None
    else:
        assert got.truth.dtype == np.int8
        assert np.array_equal(got.truth, want.truth)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(path, STREAM)
    assert json.loads(path.read_text().splitlines()[0]) == {"votes": [1, -1, 0], "label": 1}
    assert_same_stream(read_stream(path), STREAM)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "stream.csv"
    write_stream(path, STREAM)
    header = path.read_text().splitlines()[0]
    assert header == "votes_1,votes_2,votes_3,label"
    assert_same_stream(read_stream(path), STREAM)


def test_format_sniffing_ignores_extension(tmp_path):
    path = tmp_path / "stream.dat"
    write_stream(path, STREAM, fmt="jsonl")
    assert_same_stream(read_stream(path), STREAM)
    write_stream(path, STREAM, fmt="csv")
    assert_same_stream(read_stream(path), STREAM)


def test_write_stream_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_stream(tmp_path / "x.jsonl", STREAM, fmt="parquet")


def test_csv_reader_takes_any_vote_headers(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text("alice,bob,carol,label\n1,-1,1,1\n-1,0,1,\n")
    stream = read_stream(path)
    assert stream.votes.tolist() == [[1, -1, 1], [-1, 0, 1]]
    assert stream.truth is None  # the second line is unlabeled


def test_jsonl_optional_fields(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"votes": [1, -1]}\n\n{"votes": [0, 1], "label": -1}\n')
    stream = read_stream(path)
    assert stream.votes.tolist() == [[1, -1], [0, 1]]
    assert stream.truth is None
    path.write_text('{"votes": [1, -1], "label": 1}\n\n{"votes": [0, 1], "label": -1}\n')
    assert read_stream(path).truth.tolist() == [1, -1]


def test_partially_labeled_file_reads_without_truth(tmp_path):
    jsonl = tmp_path / "s.jsonl"
    jsonl.write_text('{"votes": [1, -1, 1], "label": 1}\n{"votes": [0, 1, 1]}\n')
    csv_path = tmp_path / "s.csv"
    csv_path.write_text("votes_1,votes_2,votes_3,label\n1,-1,1,1\n0,1,1,\n")
    for path in (jsonl, csv_path):
        stream = read_stream(path)
        assert stream.votes.tolist() == [[1, -1, 1], [0, 1, 1]]
        assert stream.truth is None


def test_step_column_is_checked_but_not_kept(tmp_path):
    plain = tmp_path / "plain.jsonl"
    write_stream(plain, STREAM)
    timed = tmp_path / "timed.jsonl"
    timed.write_text(
        '{"votes": [1, -1, 0], "label": 1, "t": 1}\n'
        '{"votes": [1, 1, 1], "label": -1, "t": 2}\n'
        '{"votes": [-1, 0, 0], "t": 3, "label": 1}\n'
    )
    timed_csv = tmp_path / "timed.csv"
    timed_csv.write_text("t,votes_1,votes_2,votes_3,label\n1,1,-1,0,1\n2,1,1,1,-1\n3,-1,0,0,1\n")
    want = read_stream(plain)
    for path in (timed, timed_csv):
        got = read_stream(path)
        assert_same_stream(got, want)
        assert got.block is None


def test_empty_file_reads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("", "\n  \n"):
        path.write_text(text)
        stream = read_stream(path)
        assert len(stream) == 0
        assert stream.votes.dtype == np.int8
        assert stream.truth is None


@st.composite
def streams(draw):
    n = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 60))
    cells = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=steps * n, max_size=steps * n))
    votes = np.array(cells, dtype=np.int8).reshape(steps, n)
    truth = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from((-1, 1)), min_size=steps, max_size=steps))
        truth = np.array(labels, dtype=np.int8)
    return Stream(votes=votes, truth=truth)


@settings(max_examples=60, deadline=None)
@given(stream=streams(), fmt=st.sampled_from(("jsonl", "csv")), by_suffix=st.booleans())
def test_write_read_round_trip_property(tmp_path_factory, stream, fmt, by_suffix):
    # the format comes either from the file extension or from fmt=, never both
    if by_suffix:
        path = tmp_path_factory.mktemp("rt") / f"stream.{fmt}"
        write_stream(path, stream)
    else:
        path = tmp_path_factory.mktemp("rt") / "stream.txt"
        write_stream(path, stream, fmt=fmt)
    assert path.read_text().startswith("votes_1" if fmt == "csv" else '{"votes": ')
    assert_same_stream(read_stream(path), stream)


def test_error_messages_carry_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"votes": [1, -1]}\n{"votes": [1, 2]}\n')
    with pytest.raises(StreamFormatError, match=rf"{path.name}:2: "):
        read_stream(path)

    path.write_text('{"votes": [1, -1]}\nnot json\n')
    with pytest.raises(StreamFormatError, match=r":2: bad JSON"):
        read_stream(path)

    path.write_text('{"votes": [1, true]}\n')
    with pytest.raises(StreamFormatError, match=r":1: vote"):
        read_stream(path)

    path.write_text('{"votes": [1, -1], "label": 2}\n')
    with pytest.raises(StreamFormatError, match=r"label must be -1 or 1"):
        read_stream(path)

    path.write_text('{"votes": [1, -1], "t": "soon"}\n')
    with pytest.raises(StreamFormatError, match=r"t must be an int"):
        read_stream(path)


def test_csv_error_messages(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,-1\n1\n")
    with pytest.raises(StreamFormatError, match=r":3: expected 2 columns"):
        read_stream(path)

    path.write_text("a,b\n1,maybe\n")
    with pytest.raises(StreamFormatError, match=r":2: .*int"):
        read_stream(path)

    path.write_text("a,b\n1,\n")
    with pytest.raises(StreamFormatError, match=r":2: empty vote cell"):
        read_stream(path)

    path.write_text("label,t\n1,2\n")
    with pytest.raises(StreamFormatError, match=r":1: no vote columns"):
        read_stream(path)


def test_inconsistent_widths_rejected(tmp_path):
    path = tmp_path / "ragged.jsonl"
    path.write_text('{"votes": [1, -1]}\n{"votes": [1, -1, 1]}\n')
    with pytest.raises(StreamFormatError, match="inconsistent labeler counts"):
        read_stream(path)


def test_stream_object_writes_labels(tmp_path):
    cfg = SyntheticStreamConfig(blocks=(BlockSpec(8, (0.9, 0.8, 0.7)),), seed=1, n=3)
    stream = generate_synthetic(cfg)
    path = tmp_path / "stream.jsonl"
    write_stream(path, stream)
    back = read_stream(path)
    assert len(back) == 8
    assert_same_stream(back, stream)
    assert back.block is None  # block annotations are not written


@pytest.fixture(scope="module")
def labeled_votes():
    cfg = SyntheticStreamConfig(blocks=(BlockSpec(60, (0.9, 0.8, 0.7)),), seed=2, n=3)
    stream = generate_synthetic(cfg)
    return np.asarray(stream.votes), np.asarray(stream.truth)


REPORT_COLUMNS = ("prediction", "window", "p_hat", "weights", "truth", "stop_reason")


def assert_same_reports(got, want):
    """Every column equal, with its dtype; floats bit for bit."""
    assert len(got) == len(want)
    for name in (*REPORT_COLUMNS, "correct"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        elif b.dtype.kind == "f":
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_report_round_trip_exact(tmp_path, labeled_votes):
    votes, truth = labeled_votes
    reports = run_strategy(votes, "fixed:16", config=AdaptiveConfig(n=3), truths=truth)
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    first = json.loads(path.read_text().splitlines()[0])
    assert list(first) == ["t", "window", "p_hat", "weights", "prediction", "truth", "correct"]
    assert first["t"] == 1
    assert_same_reports(read_reports(path), reports)


def test_majority_reports_omit_fields(tmp_path, labeled_votes):
    votes, _ = labeled_votes
    reports = run_strategy(votes, "majority")
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"t", "prediction"}
    assert_same_reports(read_reports(path), reports)


@st.composite
def report_columns(draw):
    steps = draw(st.integers(1, 60))
    n = draw(st.integers(3, 8))
    signs = st.lists(st.sampled_from((-1, 1)), min_size=steps, max_size=steps)
    floats = st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=steps * n, max_size=steps * n
    )
    columns = {"prediction": np.array(draw(signs), dtype=np.int8)}
    if draw(st.booleans()):
        windows = draw(st.lists(st.integers(1, 2**40), min_size=steps, max_size=steps))
        columns["window"] = np.array(windows, dtype=np.int64)
    for name in ("p_hat", "weights"):
        if draw(st.booleans()):
            columns[name] = np.array(draw(floats), dtype=np.float64).reshape(steps, n)
    if draw(st.booleans()):
        columns["truth"] = np.array(draw(signs), dtype=np.int8)
    if draw(st.booleans()):
        codes = st.lists(st.integers(0, len(STOPS) - 1), min_size=steps, max_size=steps)
        columns["stop_reason"] = np.array(draw(codes), dtype=np.int8)
    return Reports(**columns)


@settings(max_examples=60, deadline=None)
@given(reports=report_columns())
def test_report_write_read_round_trip_property(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("reports") / "reports.jsonl"
    write_reports(path, reports)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(reports)
    if reports.stop_reason is not None:
        # codes are written as their names
        assert [line["stop_reason"] for line in lines] == [STOPS[c] for c in reports.stop_reason]
    assert_same_reports(read_reports(path), reports)


def test_report_column_missing_on_one_line_reads_as_none(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"t": 1, "window": 1, "p_hat": [0.5, 0.5, 0.5], "prediction": 1, "truth": 1}\n'
        '{"t": 2, "p_hat": [0.5, 0.6, 0.7], "prediction": -1}\n'
    )
    back = read_reports(path)
    assert back.prediction.tolist() == [1, -1]
    assert back.p_hat.tolist() == [[0.5, 0.5, 0.5], [0.5, 0.6, 0.7]]
    assert back.window is None
    assert back.truth is None
    assert back.correct is None


def test_ragged_report_column_is_rejected(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"t": 1, "p_hat": [0.5, 0.5, 0.5], "prediction": 1}\n'
        '{"t": 2, "p_hat": [0.5, 0.6], "prediction": 1}\n'
    )
    with pytest.raises(StreamFormatError, match=rf"{path.name}: 'p_hat'"):
        read_reports(path)
    path.write_text('{"t": 1, "window": "wide", "prediction": 1}\n')
    with pytest.raises(StreamFormatError, match=rf"{path.name}: 'window'"):
        read_reports(path)
    path.write_text('{"t": 1, "weights": 0.5, "prediction": 1}\n')
    with pytest.raises(StreamFormatError, match=rf"{path.name}: 'weights'"):
        read_reports(path)


def test_report_values_outside_their_range_are_rejected(tmp_path):
    # a boolean and a fractional window, a fractional prediction, a label of 5
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"t": 1, "window": true, "prediction": 1.7, "truth": -1}\n'
        '{"t": 2, "window": 2.9, "prediction": -1, "truth": 5}\n'
    )
    with pytest.raises(StreamFormatError, match=rf"{path.name}: 'window' values must be positive"):
        read_reports(path)


_GOOD_REPORT_VALUES = {
    "window": 3,
    "prediction": 1,
    "truth": -1,
    "p_hat": [0.5, 0.5, 0.5],
    "weights": [0.0, 0.1, 0.2],
    "stop_reason": "horizon_reached",
}


@pytest.mark.parametrize(
    "column, value",
    [
        ("window", True),
        ("window", 2.9),
        ("window", 2.0),
        ("window", 0),
        ("window", -4),
        ("prediction", 1.7),
        ("prediction", 0),
        ("prediction", True),
        ("truth", 5),
        ("truth", 200),
        ("truth", False),
        ("p_hat", [0.5, True, 0.5]),
        ("weights", ["0.5", 0.1, 0.2]),
        ("stop_reason", 3),
        ("stop_reason", "banana"),
        ("stop_reason", ""),
    ],
)
def test_each_bad_report_value_names_file_and_column(tmp_path, column, value):
    path = tmp_path / "bad.jsonl"
    good = {"t": 1, **_GOOD_REPORT_VALUES}
    path.write_text(json.dumps(good) + "\n")
    assert len(read_reports(path)) == 1
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "t": 2, column: value}) + "\n")
    with pytest.raises(StreamFormatError, match=rf"{path.name}: '{column}' values must be"):
        read_reports(path)


def test_empty_report_file_reads_zero_rows(tmp_path):
    path = tmp_path / "r.jsonl"
    for text in ("", "\n  \n"):
        path.write_text(text)
        back = read_reports(path)
        assert len(back) == 0
        assert back.prediction.dtype == np.int8
        assert all(getattr(back, name) is None for name in REPORT_COLUMNS[1:])


def test_read_reports_requires_core_fields(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"t": 1}\n')
    with pytest.raises(StreamFormatError, match=r":1: "):
        read_reports(path)
    path.write_text("nope\n")
    with pytest.raises(StreamFormatError, match="bad JSON"):
        read_reports(path)


def test_series_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, [0.5, 0.25, 1.0], start=3)
    assert path.read_text().splitlines() == [
        "step,value",
        "3,0.5",
        "4,0.25",
        "5,1.0",
    ]
