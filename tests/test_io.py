"""Stream/report file formats: round-trips, sniffing, error reporting."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftvote.core as core
import driftvote.io as dio
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


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "loose jsonl", "label-first csv"])
def test_stream_file_with_a_bom_reads_as_without(tmp_path, fmt):
    """A UTF-8 byte-order mark before a stream file's first line is skipped,
    so a JSONL stream is not sniffed as CSV and a first CSV header of
    ``label`` is the label column, not a vote column."""
    plain = tmp_path / "plain.txt"
    if fmt in ("jsonl", "csv"):
        write_stream(plain, STREAM, fmt=fmt)
    elif fmt == "loose jsonl":  # not canonical: read by JSON, not by bytes
        plain.write_text('{"label": 1, "votes": [1,-1,0]}\n{"votes": [1,1,1], "label": -1}\n{"votes": [-1,0,0], "label": 1}\n')
    else:
        plain.write_text("label,a,b,c\n1,1,-1,0\n-1,1,1,1\n1,-1,0,0\n")
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert_same_stream(read_stream(plain), STREAM)
    assert_same_stream(read_stream(bom), STREAM)


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


#: the integer dtypes a drawn stream's votes and labels take; both writers
#: accept any of them
_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


@st.composite
def streams(draw):
    n = draw(st.integers(1, 8))
    steps = draw(st.integers(1, 60))
    cells = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=steps * n, max_size=steps * n))
    votes = np.array(cells, dtype=draw(st.sampled_from(_INT_DTYPES))).reshape(steps, n)
    truth = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from((-1, 1)), min_size=steps, max_size=steps))
        truth = np.array(labels, dtype=draw(st.sampled_from(_INT_DTYPES)))
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

    # vote columns are read by position, so only ``label`` and ``t`` must not repeat
    for header, name in (("a,label,label", "label"), ("t,a,b,c,t", "t")):
        path.write_text(header + "\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n")
        with pytest.raises(StreamFormatError, match=rf"^{re.escape(str(path))}:1: repeated '{name}' column$"):
            read_stream(path)
    path.write_text("a,a,label\n1,-1,1\n")
    assert read_stream(path).votes.tolist() == [[1, -1]]


@pytest.mark.parametrize("text", [
    "\na,b,label\n1,-1,1\n-1,0,-1\n",
    "\ufeff\r\na,b,label\r\n1,-1,1\r\n-1,0,-1\r\n",
    " \t\na,b,label\n1,-1,1\n-1,0,-1\n",
    "a,b,label\n1,-1,1\n  \n\n-1,0,-1\n\t\n",
], ids=["blank-first-line", "bom-then-blank-line", "whitespace-first-line", "whitespace-between-rows"])
def test_csv_blank_lines_are_skipped_anywhere(tmp_path, text):
    """A blank line, empty or whitespace-only, is skipped anywhere in a CSV
    file, before its header too, as in a JSONL file."""
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8", newline="")
    stream = read_stream(path)
    assert stream.votes.tolist() == [[1, -1], [-1, 0]]
    assert stream.truth.tolist() == [1, -1]


@pytest.mark.parametrize("text, message", [
    ('"a\nb",c\n1,1\n1\n', ":4: expected 2 columns, got 1"),
    ("\n\na,b\n1,1\n\n \n1\n", ":7: expected 2 columns, got 1"),
    ('a,b\n"1\n",1\n1,x\n', ":4: vote column 'b' must be an int, got 'x'"),
    ("\n\nlabel,t\n1,2\n", ":3: no vote columns in header"),
    ("\nlabel,a,label\n1,1,1\n", ":2: repeated 'label' column"),
], ids=["two-line-header", "blank-lines", "two-line-row", "header-after-blanks", "repeat-after-blank"])
def test_csv_errors_name_the_line_that_ends_the_row(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(StreamFormatError, match=f"^{re.escape(str(path) + message)}$"):
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


def test_report_table_names_the_fields_of_reports():
    assert set(core.REPORT_COLUMNS) == set(Reports._fields)


def test_adaptive_report_keys_follow_the_table(tmp_path, labeled_votes):
    votes, truth = labeled_votes
    path = tmp_path / "reports.jsonl"
    write_reports(path, run_strategy(votes, "adaptive", config=AdaptiveConfig(n=3), truths=truth))
    names = list(core.REPORT_COLUMNS)
    names.insert(names.index("truth") + 1, "correct")
    assert names == ["window", "p_hat", "weights", "prediction", "truth", "correct", "stop_reason"]
    assert all(list(json.loads(line)) == ["t", *names] for line in path.read_text().splitlines())


def test_report_columns_with_value_sets_come_last():
    """Each report line ends with the columns that have a value set, so
    ``write_reports`` spells those ends once; a column with no value set
    after them would have to be written out of table order."""
    coded = [values is not None for _, _, values, _ in core.REPORT_COLUMNS.values()]
    assert coded == sorted(coded) and coded[-1], coded


def test_majority_reports_omit_fields(tmp_path, labeled_votes):
    votes, _ = labeled_votes
    reports = run_strategy(votes, "majority")
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"t", "prediction"}
    assert_same_reports(read_reports(path), reports)


#: any finite float, with negative zero, subnormals and integer values drawn often
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 0.0, 5e-324, -1e-310, 2.0**-1070, 1.0, -3.0, 1e16, 2.0**53)),
)


@st.composite
def report_columns(draw):
    steps = draw(st.integers(1, 60))
    n = draw(st.integers(3, 8))
    signs = st.lists(st.sampled_from((-1, 1)), min_size=steps, max_size=steps)
    floats = st.lists(FINITE_FLOATS, min_size=steps * n, max_size=steps * n)
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


_RAGGED = "are ragged or of the wrong type"


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("window", '"wide"', "must be positive integers"),
        ("window", str(2**70), _RAGGED),
        ("window", "[3]", _RAGGED),
        ("prediction", '{"sign": 1}', "must be -1 or 1"),
        ("prediction", "null", "must be -1 or 1"),
        ("prediction", str(-(2**63) - 1), _RAGGED),
        ("p_hat", "[0.5, 0.5]", _RAGGED),
        ("p_hat", '"0.5"', _RAGGED),
        ("p_hat", '[0.5, "high", 0.5]', "must be finite numbers"),
        ("p_hat", "[0.5, NaN, 0.5]", "must be finite numbers"),
        ("p_hat", "[1e400, 0.5, 0.5]", "must be finite numbers"),
        ("weights", "[0.1, -Infinity, 0.2]", "must be finite numbers"),
        ("weights", f"[{10**400}, 0.1, 0.2]", _RAGGED),
        ("weights", "[[0.0], 0.1, 0.2]", _RAGGED),
        ("stop_reason", '["horizon_reached"]', _RAGGED),
        ("stop_reason", '{"name": "horizon_reached"}', "must be one of"),
        # null is a value, not a missing key
        ("window", "null", "must be positive integers"),
        ("truth", "null", "must be -1 or 1"),
        ("stop_reason", "null", "must be one of"),
        ("p_hat", "null", _RAGGED),
    ],
)
def test_hostile_report_values_follow_the_message_rule(tmp_path, column, value, message):
    # a value of the wrong shape, or an integer outside int64 (float64 in
    # p_hat and weights), is ragged; any other wrong value must be something
    path = tmp_path / "bad.jsonl"
    good = {"t": 1, **_GOOD_REPORT_VALUES}
    bad = json.dumps({**good, "t": 2, column: 0}).replace(f'"{column}": 0', f'"{column}": {value}')
    path.write_text(json.dumps(good) + "\n" + bad + "\n")
    with pytest.raises(StreamFormatError, match=rf"{path.name}: '{column}' values {re.escape(message)}"):
        read_reports(path)


def test_a_ragged_value_names_the_error_in_any_block(tmp_path, monkeypatch):
    # a column's wrong shape is named over its out-of-range values, in
    # whichever block each is; columns are named in their fixed order
    monkeypatch.setattr(dio, "_BLOCK", 2)
    lines = [{"t": t, **_GOOD_REPORT_VALUES} for t in range(1, 6)]
    lines[0]["truth"] = 0
    lines[4]["truth"] = [1]
    lines[2]["window"] = 0
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(StreamFormatError, match="'window' values must be positive"):
        read_reports(path)
    lines[2]["window"] = 3
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(StreamFormatError, match=f"'truth' values {_RAGGED}"):
        read_reports(path)
    del lines[3]["truth"]  # a column some line lacks is not kept, nor checked
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert read_reports(path).truth is None


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


# -- the writers' byte oracle: one json.dumps of a dict per row ---------------


def dumps_stream(stream):
    rows = stream.votes.tolist()
    labels = None if stream.truth is None else stream.truth.tolist()
    lines = []
    for i, row in enumerate(rows):
        obj = {"votes": row}
        if labels is not None:
            obj["label"] = labels[i]
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


def dumps_reports(reports):
    columns = [("t", range(1, len(reports) + 1))]
    for name in ("window", "p_hat", "weights", "prediction", "truth", "correct", "stop_reason"):
        column = getattr(reports, name)
        if column is not None:
            values = column.tolist()
            columns.append((name, [STOPS[c] for c in values] if name == "stop_reason" else values))
    names = [name for name, _ in columns]
    return "".join(json.dumps(dict(zip(names, row))) + "\n" for row in zip(*(c for _, c in columns)))


#: the columns each strategy produces, before labels
STRATEGY_COLUMNS = {
    "adaptive": ("window", "p_hat", "weights", "stop_reason"),
    "fixed": ("window", "p_hat", "weights"),
    "majority": (),
}


@st.composite
def strategy_reports(draw):
    steps = draw(st.integers(0, 40))
    n = draw(st.integers(1, 8))
    signs = st.lists(st.sampled_from((-1, 1)), min_size=steps, max_size=steps)
    int_dtype = draw(st.sampled_from((np.int8, np.int64)))
    columns = {"prediction": np.array(draw(signs), dtype=int_dtype)}
    for name in STRATEGY_COLUMNS[draw(st.sampled_from(sorted(STRATEGY_COLUMNS)))]:
        if name == "window":
            values = draw(st.lists(st.integers(1, 2**62), min_size=steps, max_size=steps))
            columns[name] = np.array(values, dtype=np.int64)
        elif name == "stop_reason":
            codes = st.lists(st.integers(0, len(STOPS) - 1), min_size=steps, max_size=steps)
            columns[name] = np.array(draw(codes), dtype=np.int8)
        else:
            values = draw(st.lists(FINITE_FLOATS, min_size=steps * n, max_size=steps * n))
            columns[name] = np.array(values, dtype=np.float64).reshape(steps, n)
    if draw(st.booleans()):
        columns["truth"] = np.array(draw(signs), dtype=int_dtype)
    return Reports(**columns)


@settings(max_examples=80, deadline=None)
@given(reports=strategy_reports())
def test_write_reports_bytes_match_json_dumps(tmp_path_factory, reports):
    path = tmp_path_factory.mktemp("bytes") / "reports.jsonl"
    for rows in (dio._BLOCK, 7):  # 7: write block edges inside the reports
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dio, "_BLOCK", rows)
            write_reports(path, reports)
        assert path.read_text() == dumps_reports(reports)


@settings(max_examples=60, deadline=None)
@given(stream=streams())
def test_write_stream_jsonl_bytes_match_json_dumps(tmp_path_factory, stream):
    path = tmp_path_factory.mktemp("bytes") / "stream.jsonl"
    write_stream(path, stream)
    assert path.read_text() == dumps_stream(stream)


def test_write_stream_rejects_a_stream_of_no_labelers(tmp_path):
    """Lines of no votes read back as an error (JSONL) or as no rows (CSV),
    so such a stream is refused before its file is opened."""
    path = tmp_path / "stream.txt"
    for fmt, truth in itertools.product(("jsonl", "csv"), (None, np.array([1, -1], dtype=np.int8))):
        stream = Stream(votes=np.empty((2, 0), dtype=np.int8), truth=truth)
        with pytest.raises(ValueError, match=r"'votes' must have a column per labeler, got shape \(2, 0\)"):
            write_stream(path, stream, fmt=fmt)
        assert not path.exists()


def test_write_stream_rejects_labelers_with_no_steps(tmp_path):
    """A (0, n) stream once wrote an empty JSONL file or a CSV header that
    read back as shape (0, 0), so it is refused before its file is opened;
    a (0, 0) stream, labeled or not, writes an empty file in both formats,
    which reads back as (0, 0) (a CSV header of ``label`` alone, or of
    nothing, would not)."""
    path = tmp_path / "stream.txt"
    for fmt, truth in itertools.product(("jsonl", "csv"), (None, np.empty(0, dtype=np.int8))):
        stream = Stream(votes=np.empty((0, 3), dtype=np.int8), truth=truth)
        with pytest.raises(ValueError, match=r"'votes' must have a step when it has labelers, got shape \(0, 3\)"):
            write_stream(path, stream, fmt=fmt)
        assert not path.exists()
    for fmt, truth in itertools.product(("jsonl", "csv"), (None, np.empty(0, dtype=np.int8))):
        write_stream(path, Stream(votes=np.empty((0, 0), dtype=np.int8), truth=truth), fmt=fmt)
        assert path.read_bytes() == b""
        back = read_stream(path)
        assert back.votes.shape == (0, 0) and back.truth is None
        path.unlink()


def test_float32_estimates_are_written_as_json_writes_them(tmp_path):
    p_hat = np.array([[0.1, 0.7], [1.0, -0.0]], dtype=np.float32)
    reports = Reports(prediction=np.array([1, -1], dtype=np.int8), window=np.array([1, 2]), p_hat=p_hat)
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    assert path.read_text() == dumps_reports(reports)


_BAD_COLUMNS = [
    ("window", np.array([1.0, 2.0])),
    ("window", np.array([1, 2, 3])),
    ("window", np.array([[1], [2]])),
    ("prediction", np.array([True, False])),
    ("prediction", np.array([1.0, -1.0])),
    ("truth", np.array([True, True])),
    ("p_hat", np.array([[1, 0], [0, 1]])),
    ("p_hat", np.array([0.5, 0.5])),
    ("weights", np.array([[True, False], [False, True]])),
    ("stop_reason", np.array([0.0, 1.0])),
    ("stop_reason", np.array([-1, 0], dtype=np.int8)),
    ("stop_reason", np.array([3, 0], dtype=np.int8)),
    # values read_reports would reject
    ("prediction", np.array([5, -1])),
    ("prediction", np.array([0, 1], dtype=np.int8)),
    ("truth", np.array([1, 2])),
    ("window", np.array([0, 3])),
    ("window", np.array([4, -2])),
]


@pytest.mark.parametrize("name, column", _BAD_COLUMNS)
def test_write_reports_rejects_columns_outside_the_dtype_contract(tmp_path, name, column):
    columns = {"prediction": np.array([1, -1], dtype=np.int8), name: column}
    path = tmp_path / "r.jsonl"
    with pytest.raises(ValueError, match=f"'{name}' must be"):
        write_reports(path, Reports(**columns))
    assert not path.exists()


@pytest.mark.parametrize("name, column", [
    ("votes", np.array([[True, False]])),
    ("votes", np.array([[1.0, -1.0]])),
    ("votes", np.array([1, -1], dtype=np.int8)),
    ("truth", np.array([1.0])),
    ("truth", np.array([1, 1], dtype=np.int8)),
    ("votes", np.array([[1, 2]], dtype=np.int8)),
    ("votes", np.array([[-2, 0]])),
    ("votes", np.array([[1, 255]], dtype=np.uint8)),
    ("truth", np.array([0], dtype=np.int8)),
    ("truth", np.array([2])),
])
def test_write_stream_rejects_non_integer_columns(tmp_path, name, column):
    # both formats write only what read_stream reads back
    columns = {"votes": np.array([[1, -1]], dtype=np.int8), name: column}
    for path in (tmp_path / "s.jsonl", tmp_path / "s.csv"):
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            write_stream(path, Stream(**columns))
        assert not path.exists()


@pytest.mark.parametrize("name", ["p_hat", "weights"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_reports_rejects_non_finite_estimates(tmp_path, name, value):
    column = np.full((2, 3), 0.5)
    column[1, 2] = value
    reports = Reports(prediction=np.array([1, -1], dtype=np.int8), **{name: column})
    with pytest.raises(ValueError, match=f"'{name}' values must be finite"):
        write_reports(tmp_path / "r.jsonl", reports)


# -- files longer than one block: the same result and errors as line by line ---


def read_stream_per_line(path):
    """One ``json.loads`` and one check per line, then the width check: the
    reader before files were read in blocks, the oracle of the block reader."""
    rows, labels = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise StreamFormatError(f"{path}:{lineno}: bad JSON: {err}") from None
            votes, label = dio._jsonl_row(obj, path, lineno)
            rows.append(votes)
            labels.append(label)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise StreamFormatError(f"{path}: inconsistent labeler counts {sorted(widths)}")
    votes = np.array(rows, dtype=np.int8).reshape(len(rows), widths.pop() if widths else 0)
    truth = np.array(labels, dtype=np.int8) if rows and None not in labels else None
    return Stream(votes=votes, truth=truth)


def outcome(read, path):
    """What ``read(path)`` gives: the error text, or the stream's arrays."""
    try:
        stream = read(path)
    except StreamFormatError as err:
        return str(err)
    return stream.votes.dtype, stream.votes.tolist(), None if stream.truth is None else stream.truth.tolist()


GOOD = '{"votes": [1, -1, 0], "label": 1, "t": 4}'

#: (name, {line number: text}, line the error names or None for the width
#: error) planted into 14 good lines, which are read in blocks of 3
_FAULTS = [
    ("bad JSON", {11: "not json"}, 11),
    ("two objects on one line", {11: '{"votes": [1, 1, 1]}, {"votes": [1, 1, 1]}'}, 11),
    ("missing votes", {11: '{"label": 1}'}, 11),
    ("a true vote", {11: '{"votes": [1, true, 0]}'}, 11),
    ("label 2", {11: '{"votes": [1, 1, 0], "label": 2}'}, 11),
    ("t soon", {11: '{"votes": [1, 1, 0], "t": "soon"}'}, 11),
    ("ragged across blocks", {2: '{"votes": [1, 1]}', 11: '{"votes": [1, 1, 1, 1]}'}, None),
    ("ragged in one block", {10: '{"votes": [1, 1]}', 11: '{"votes": [1, 1, 1, 1]}'}, None),
    ("ragged then a bad line", {2: '{"votes": [1, 1]}', 13: '{"votes": [1, 5, 0]}'}, 13),
    ("a check before bad JSON in one block", {10: '{"votes": [1, true, 0]}', 11: "{"}, 10),
    # one object split over two lines, and two objects on a third: the block
    # decodes to one object per line, yet only the third line is one value
    ("split object", {10: '{"votes": [1, 1, 1], "x": [{"a": 1}', 11: '{"b": 2}]}',
                      12: '{"votes": [1, 1, 1]}, {"votes": [1, 1, 1]}'}, 10),
    ("not an object", {11: "[1, -1, 0]"}, 11),
    ("votes not a list", {11: '{"votes": 1}'}, 11),
    ("an empty vote list", {11: '{"votes": []}'}, 11),
    ("a vote out of int8", {11: '{"votes": [1, 300, 0]}'}, 11),
    ("a float vote", {11: '{"votes": [1, 1.0, 0]}'}, 11),
    ("a boolean label", {11: '{"votes": [1, 1, 0], "label": true}'}, 11),
    ("a float t", {11: '{"votes": [1, 1, 0], "t": 1.5}'}, 11),
]


def planted(path, faults, lines=14, good=GOOD, end="\n"):
    """``lines`` ``good`` lines and a blank one after the fifth, with
    ``faults`` put in place of lines (numbered in the written file), and
    ``end`` after the last line."""
    text = [good] * lines
    text.insert(5, "  ")
    for lineno, line in faults.items():
        text[lineno - 1] = line
    path.write_text("\n".join(text) + end)


@pytest.mark.parametrize("faults, lineno", [f[1:] for f in _FAULTS], ids=[f[0] for f in _FAULTS])
def test_block_errors_match_the_per_line_reader(tmp_path, monkeypatch, faults, lineno):
    path = tmp_path / "s.jsonl"
    planted(path, faults)
    want = outcome(read_stream_per_line, path)
    if lineno is None:
        assert want == f"{path}: inconsistent labeler counts [2, 3, 4]"
    else:
        assert want.startswith(f"{path}:{lineno}: ")
    for block in (3, 4, 4096):
        monkeypatch.setattr(dio, "_BLOCK", block)
        assert outcome(read_stream, path) == want


#: a line as ``write_stream`` and ``json.dumps`` spell it, read by bytes
CANONICAL = '{"votes": [1, -1, 0], "label": 1}'

#: (name, {line number: text}, what reading gives: the line its error
#: names, None for the width error, or "read" for no error) planted into 14
#: canonical lines
_CANONICAL_FAULTS = [
    ("a double minus", {11: '{"votes": [1, --1, 0], "label": 1}'}, 11),
    ("a minus before a quote", {11: '{"votes": [1, -1, 0], -"label": 1}'}, 11),
    ("a minus before a bracket", {11: '{"votes": [1, -1, 0-], "label": 1}'}, 11),
    ("a minus after the object", {11: CANONICAL + "-"}, 11),
    ("a lone minus", {11: "-"}, 11),
    ("label 0", {11: '{"votes": [1, -1, 0], "label": 0}'}, 11),
    ("label -0", {11: '{"votes": [1, -1, 0], "label": -0}'}, 11),
    ("vote -0", {11: '{"votes": [1, -0, 0], "label": 1}'}, "read"),
    ("vote 10", {11: '{"votes": [1, 10, 0], "label": 1}'}, 11),
    ("vote 01", {11: '{"votes": [1, 01, 0], "label": 1}'}, 11),
    ("a vote of 2", {11: '{"votes": [1, 2, 0], "label": 1}'}, 11),
    ("a missing space", {11: '{"votes": [1,-1, 0], "label": 1}'}, "read"),
    ("an extra space", {11: '{"votes": [1, -1, 0],  "label": 1}'}, "read"),
    ("an empty vote list", {11: '{"votes": []}'}, 11),
    ("an empty labeled vote list", {11: '{"votes": [], "label": 1}'}, 11),
    ("a width change", {11: '{"votes": [1, -1], "label": 1}'}, None),
    ("a width change on every line", {11: '{"votes": [1, -1, 0, 1], "label": 1}',
                                      12: '{"votes": [1, -1, 0, 1], "label": 1}'}, None),
    ("an unlabeled line", {11: '{"votes": [1, -1, 0]}'}, "read"),
    ("a t field", {11: '{"votes": [1, -1, 0], "label": 1, "t": 11}'}, "read"),
]


@pytest.mark.parametrize("faults, expect", [f[1:] for f in _CANONICAL_FAULTS],
                         ids=[f[0] for f in _CANONICAL_FAULTS])
@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
def test_canonical_block_faults_match_the_per_line_reader(tmp_path, monkeypatch, faults, expect, end):
    path = tmp_path / "s.jsonl"
    planted(path, faults, good=CANONICAL, end=end)
    want = outcome(read_stream_per_line, path)
    if expect == "read":
        assert want[0] == np.int8 and len(want[1]) == 14
    elif expect is None:
        assert want.startswith(f"{path}: inconsistent labeler counts ")
    else:
        assert want.startswith(f"{path}:{expect}: ")
    for block in (3, 4, 4096):
        monkeypatch.setattr(dio, "_BLOCK", block)
        assert outcome(read_stream, path) == want


def test_empty_vote_lists_are_not_read_as_bytes(tmp_path):
    path = tmp_path / "s.jsonl"
    for line in ('{"votes": []}', '{"votes": [], "label": 1}', '{"votes": [], "label": -1}'):
        path.write_text((line + "\n") * 3)
        assert outcome(read_stream, path) == f"{path}:1: votes must be a nonempty list"


def _no_fallback(obj, path, lineno):
    raise AssertionError(f"line {lineno} was not read by bytes")


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("n", range(1, 9))
def test_written_streams_are_read_by_bytes(tmp_path, monkeypatch, n, labeled):
    rng = np.random.default_rng([n, labeled])
    votes = rng.integers(-1, 2, size=(11, n)).astype(np.int8)
    truth = rng.choice(np.array([-1, 1], dtype=np.int8), size=11) if labeled else None
    stream = Stream(votes=votes, truth=truth)
    written = tmp_path / "written.jsonl"
    dumped = tmp_path / "dumped.jsonl"
    # a write and a read block edge inside the stream
    monkeypatch.setattr(dio, "_BLOCK", 4)
    write_stream(written, stream)
    dumped.write_text(dumps_stream(stream))  # json.dumps per line, as bench/pipeline.py writes
    assert written.read_bytes() == dumped.read_bytes()
    monkeypatch.setattr(dio, "_jsonl_row", _no_fallback)
    for path in (written, dumped):
        for block in (3, 4, 4096):
            monkeypatch.setattr(dio, "_BLOCK", block)
            assert_same_stream(read_stream(path), stream)


#: lines a drawn file is made of, and the faults planted into it
_GOOD_LINES = (
    GOOD,
    CANONICAL,
    CANONICAL,
    '{"votes": [-1, -1, -1], "label": -1}',
    '{"votes": [0, 1, -0]}',
    '{"votes": [0, 0, 1]}',
    '{"t": 9, "votes": [-1, -1, 1], "label": -1}',
    '  {"votes":[1,1,1],"label":1}  ',
    '{"votes": [1, 1, 1], "x": "}, {"}',
    '{"votes": [1, 1, 1], "x": [{"y": 1}, {"z": 2}]}',
    "",
    " \t",
)
_BAD_LINES = [
    faults[11] for _, faults, _ in _FAULTS + _CANONICAL_FAULTS if 11 in faults
] + ['{"votes": [1, 1]}']


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.sampled_from(_GOOD_LINES), max_size=30),
    bad=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(_BAD_LINES)), max_size=2),
    block=st.integers(1, 7),
)
def test_block_reader_matches_the_per_line_reader(tmp_path_factory, lines, bad, block):
    lines = [GOOD, *lines]  # a first object line, so that the file sniffs as JSONL
    for at, line in bad:
        lines.insert(at + 1, line)
    path = tmp_path_factory.mktemp("blocks") / "s.jsonl"
    path.write_text("\n".join(lines) + "\n")
    want = outcome(read_stream_per_line, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dio, "_BLOCK", block)
        assert outcome(read_stream, path) == want


def test_reports_longer_than_a_block(tmp_path, monkeypatch, labeled_votes):
    votes, truth = labeled_votes
    reports = run_strategy(votes, "adaptive", config=AdaptiveConfig(n=3), truths=truth)
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    monkeypatch.setattr(dio, "_BLOCK", 7)
    assert_same_reports(read_reports(path), reports)
    lines = path.read_text().splitlines()
    lines[40] = '{"t": 41, "window": 3}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError, match=rf"{path.name}:41: expected an object"):
        read_reports(path)
    lines[40] = '{"t": 41, "prediction": 1}, {"t": 42, "prediction": 1}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StreamFormatError, match=rf"{path.name}:41: bad JSON: Extra data"):
        read_reports(path)


# -- reading reports: the same result as a per-line JSON reader ---------------

#: per report column: dtype, dimension, a check of one value and what the
#: values must be
_ORACLE_COLUMNS = {
    "window": (np.int64, 1, lambda x: type(x) is int and x >= 1, "positive integers"),
    "p_hat": (np.float64, 2, lambda x: type(x) in (int, float) and math.isfinite(x), "finite numbers"),
    "weights": (np.float64, 2, lambda x: type(x) in (int, float) and math.isfinite(x), "finite numbers"),
    "prediction": (np.int8, 1, lambda x: type(x) is int and x in (-1, 1), "-1 or 1"),
    "truth": (np.int8, 1, lambda x: type(x) is int and x in (-1, 1), "-1 or 1"),
    "stop_reason": (np.int8, 1, lambda x: x in STOPS, "one of " + ", ".join(STOPS)),
}


def _fits(x, ndim):
    """Whether ``x`` is not an integer outside int64 (float64 when ``ndim`` is 2)."""
    if type(x) is not int:
        return True
    if ndim == 1:
        return -(2**63) <= x < 2**63
    try:
        float(x)
    except OverflowError:
        return False
    return True


def read_reports_per_line(path):
    """Reports by the rule of the ``driftvote.io`` docstring, one
    ``json.loads`` per line and one check per value: the oracle of
    :func:`read_reports`."""
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    objects = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise StreamFormatError(f"{path}:{lineno}: bad JSON: {err}") from None
        if not isinstance(obj, dict) or "t" not in obj or "prediction" not in obj:
            raise StreamFormatError(f"{path}:{lineno}: expected an object with 't' and 'prediction'")
        objects.append(obj)
    columns = {}
    for name, (dtype, ndim, ok, rule) in _ORACLE_COLUMNS.items():
        values = [obj.get(name) for obj in objects]
        if name != "prediction" and (not values or None in values):
            continue
        flat, width = values, None
        if ndim == 2:
            width = len(values[0]) if type(values[0]) is list else None
            if any(type(row) is not list or len(row) != width for row in values):
                raise StreamFormatError(f"{path}: {name!r} values are ragged or of the wrong type")
            flat = [x for row in values for x in row]
        if any(type(x) is list or not _fits(x, ndim) for x in flat):
            raise StreamFormatError(f"{path}: {name!r} values are ragged or of the wrong type")
        if not all(map(ok, flat)):
            raise StreamFormatError(f"{path}: {name!r} values must be {rule}")
        if name == "stop_reason":
            flat = [STOPS.index(x) for x in flat]
        column = np.array(flat, dtype=dtype)
        columns[name] = column if ndim == 1 else column.reshape(len(values), width)
    return Reports(**columns)


def report_outcome(read, path):
    """What ``read(path)`` gives: the type and text of what it raised, or
    each column's dtype and values."""
    try:
        reports = read(path)
    except (ValueError, OSError) as err:  # format errors and UnicodeDecodeError are ValueErrors
        return type(err), str(err)
    return [
        None if column is None else (column.dtype.str, column.tolist())
        for column in (getattr(reports, name) for name in (*REPORT_COLUMNS, "correct"))
    ]


def majority_reports(steps, labeled, seed=0, dtype=np.int8):
    rng = np.random.default_rng([steps, seed])
    signs = np.array([-1, 1], dtype=dtype)
    truth = rng.choice(signs, size=steps) if labeled else None
    return Reports(prediction=rng.choice(signs, size=steps), truth=truth)


#: lengths on both sides of a new digit of t and of the 1024-row write and
#: 4096-line read blocks, and one whose sixth digit of t starts inside a block
_MAJORITY_STEPS = (1, 9, 10, 11, 99, 100, 1024, 1025, 4095, 4096, 4097, 8193, 9999, 10000, 100_001)


@settings(max_examples=30, deadline=None)
@given(
    steps=st.sampled_from(_MAJORITY_STEPS),
    labeled=st.booleans(),
    dtype=st.sampled_from((np.int8, np.int16, np.int32, np.int64)),
    seed=st.integers(0, 2**32 - 1),
)
def test_majority_reports_round_trip_by_bytes(tmp_path_factory, steps, labeled, dtype, seed):
    reports = majority_reports(steps, labeled, seed, dtype)
    path = tmp_path_factory.mktemp("majority") / "reports.jsonl"
    write_reports(path, reports)
    assert path.read_text() == dumps_reports(reports)
    want = Reports(
        prediction=reports.prediction.astype(np.int8),
        truth=None if reports.truth is None else reports.truth.astype(np.int8),
    )
    assert_same_reports(read_reports(path), want)


def _replace(lineno, old, new):
    """An edit of one line (1-based) of a report file's lines."""
    def edit(lines):
        assert old in lines[lineno - 1]
        lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    return edit


def _insert(lineno, line):
    def edit(lines):
        lines.insert(lineno - 1, line)
    return edit


def _crlf(lines):
    lines[:] = [line.replace("\n", "\r\n") for line in lines]


def _no_final_newline(lines):
    lines[-1] = lines[-1].rstrip("\n")


def _compact(lineno):
    def edit(lines):
        lines[lineno - 1] = json.dumps(json.loads(lines[lineno - 1]), separators=(",", ":")) + "\n"
    return edit


def _swap_keys(lineno):
    def edit(lines):
        obj = json.loads(lines[lineno - 1])
        lines[lineno - 1] = json.dumps(dict(reversed(obj.items()))) + "\n"
    return edit


def _flip_correct(lineno):
    def edit(lines):
        obj = json.loads(lines[lineno - 1])
        obj["correct"] = not obj["correct"]
        lines[lineno - 1] = json.dumps(obj) + "\n"
    return edit


def _drop_truth(lineno):
    def edit(lines):
        obj = json.loads(lines[lineno - 1])
        del obj["truth"], obj["correct"]
        lines[lineno - 1] = json.dumps(obj) + "\n"
    return edit


#: (name, edit of the lines of a labeled majority report of 14 steps); the
#: same edits, where they apply, are made to an unlabeled one
_NEAR_MAJORITY = [
    ("crlf", _crlf),
    ("a blank line", _insert(6, "\n")),
    ("a blank first line", _insert(1, "  \n")),
    ("a trailing blank line", _insert(15, "\n")),
    ("no final newline", _no_final_newline),
    ("t of 0", _replace(1, '"t": 1,', '"t": 0,')),
    ("t repeated", _replace(12, '"t": 12,', '"t": 11,')),
    ("t skips", _replace(14, '"t": 14,', '"t": 15,')),
    ("t a string", _replace(1, '"t": 1,', '"t": "1",')),
    ("t a float", _replace(9, '"t": 9,', '"t": 9.0,')),
    ("t with a leading zero", _replace(9, '"t": 9,', '"t": 09,')),
    ("t missing", _replace(11, '"t": 11, ', "")),
    ("compact separators", _compact(11)),
    ("compact first line", _compact(1)),
    ("swapped keys", _swap_keys(11)),
    ("an extra key", _replace(11, "}", ', "x": 1}')),
    ("a duplicate key", _replace(11, "}", ', "prediction": 1}')),
    ("a disagreeing correct", _flip_correct(11)),
    ("a line without truth", _drop_truth(11)),
    ("a first line without truth", _drop_truth(1)),
    ("prediction -0", _replace(10, '"prediction": -1', '"prediction": -0')),
    ("truth -0", _replace(10, '"truth": -1', '"truth": -0')),
    ("prediction 1.0", _replace(11, '"prediction": 1', '"prediction": 1.0')),
    ("prediction true", _replace(11, '"prediction": 1', '"prediction": true')),
    ("prediction 2", _replace(11, '"prediction": 1', '"prediction": 2')),
    ("truth 0", _replace(11, '"truth": 1', '"truth": 0')),
    ("an extra space", _replace(11, ", ", ",  ")),
    ("a tab", _replace(11, ": ", ":\t")),
    ("a BOM", _replace(1, "{", "\ufeff{")),
    ("a window", _replace(11, '"t": 11, ', '"t": 11, "window": 3, ')),
    ("two objects on a line", _replace(11, "}\n", '}, {"t": 12, "prediction": 1}\n')),
    ("bad JSON", _replace(11, "}", "")),
]


def _near_majority_text(labeled):
    """A majority report of 14 steps, as ``write_reports`` writes it."""
    prediction = np.array([-1, 1, 1, -1, 1, 1, 1, -1, 1, -1, 1, 1, -1, -1], dtype=np.int8)
    truth = np.array([-1, 1, -1, -1, 1, -1, 1, 1, 1, -1, 1, 1, 1, -1], dtype=np.int8)
    return dumps_reports(Reports(prediction=prediction, truth=truth if labeled else None))


def _edited(text, edit):
    """``text`` with its lines edited, or None where the edit does not apply."""
    lines = text.splitlines(keepends=True)
    try:
        edit(lines)
    except (AssertionError, KeyError):
        return None
    return "".join(lines)


_NEAR_MAJORITY_CASES = [
    pytest.param(edited, id=f"{name}-{'labeled' if labeled else 'unlabeled'}")
    for name, edit in _NEAR_MAJORITY
    for labeled in (False, True)
    if (edited := _edited(_near_majority_text(labeled), edit)) is not None
]


@pytest.mark.parametrize("text", _NEAR_MAJORITY_CASES)
def test_near_majority_files_read_as_json_reads_them(tmp_path, monkeypatch, text):
    path = tmp_path / "r.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    assert text not in (_near_majority_text(False), _near_majority_text(True))
    want = report_outcome(read_reports_per_line, path)
    for block in (3, 4096):
        monkeypatch.setattr(dio, "_BLOCK", block)
        assert report_outcome(read_reports, path) == want


def test_a_non_utf8_byte_raises_as_json_reading_does(tmp_path, monkeypatch):
    path = tmp_path / "r.jsonl"
    text = dumps_reports(majority_reports(14, True)).encode()
    for at in (3, text.index(b"\n", 500) - 2):
        path.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        want = report_outcome(read_reports_per_line, path)
        assert want[0] is UnicodeDecodeError
        for block in (3, 4096):
            monkeypatch.setattr(dio, "_BLOCK", block)
            assert report_outcome(read_reports, path) == want


#: bytes a mutation puts into a majority report file
_MUTATION_BYTES = b' -019\n\r",:{}tfrue'


@settings(max_examples=200, deadline=None)
@given(
    labeled=st.booleans(),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_MUTATION_BYTES), st.booleans()),
                   min_size=1, max_size=2),
    block=st.integers(1, 12),
)
def test_mutated_majority_files_read_as_json_reads_them(tmp_path_factory, labeled, edits, block):
    data = bytearray(dumps_reports(majority_reports(23, labeled)).encode())
    for at, byte, insert in edits:
        at %= len(data) + insert
        if insert:
            data.insert(at, byte)
        else:
            data[at] = byte
    path = tmp_path_factory.mktemp("mutated") / "r.jsonl"
    path.write_bytes(bytes(data))
    want = report_outcome(read_reports_per_line, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dio, "_BLOCK", block)
        assert report_outcome(read_reports, path) == want
