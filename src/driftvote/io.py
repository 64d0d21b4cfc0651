"""Reading and writing vote streams and per-step reports.

A stream file holds a :class:`~driftvote.driftgen.Stream`: one line per
step, in one of two formats.

* JSONL (canonical): one object per line, ``{"votes": [...], "label": ...,
  "t": ...}`` with ``label``/``t`` optional.
* CSV: a header row; every column except ``label`` and ``t`` is a vote
  column, read in header order.  Written files use ``votes_1..votes_n``.

Votes are -1, 0 (abstain), or +1; labels are +/-1.  A read stream
carries labels (``truth``) only when every line has one.  ``t`` is
accepted and checked on read but not kept; written streams carry no
``t`` and no block annotations.

Reports (:class:`~driftvote.aggregate.Reports`) are always JSONL with
fields ``t``, ``window``, ``p_hat``, ``weights``, ``prediction``,
``truth``, ``correct``, ``stop_reason`` (absent fields were not produced
by the strategy).  On read, a column is kept only when every line has
it; ``t`` is checked but not kept, and ``correct`` is recomputed.
Windows must be positive JSON integers, predictions and labels -1 or 1
(a boolean is not an integer), ``p_hat``/``weights`` numbers and stop
reasons one of the names in :data:`~driftvote.adaptive.STOPS`; anything
else is a :class:`StreamFormatError` naming the file.  A stop reason is
written as its name and read back as its int8 code, the index of that
name in ``STOPS``.  Floats round-trip exactly through JSON's shortest-repr
encoding.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .adaptive import STOPS
from .aggregate import Reports
from .driftgen import Stream


class StreamFormatError(ValueError):
    """A stream or report file violates the format contract."""


_VOTE_VALUES = (-1, 0, 1)
_LABEL_VALUES = (-1, 1)


def _bad(path, lineno: int, msg: str) -> StreamFormatError:
    return StreamFormatError(f"{path}:{lineno}: {msg}")


def _check_votes(votes, path, lineno: int) -> list[int]:
    if not isinstance(votes, (list, tuple)) or not votes:
        raise _bad(path, lineno, "votes must be a nonempty list")
    for x in votes:
        if isinstance(x, bool) or not isinstance(x, int) or x not in _VOTE_VALUES:
            raise _bad(path, lineno, f"vote values must be -1, 0, or 1, got {x!r}")
    return votes


def _check_label(label, path, lineno: int) -> int | None:
    if label is None:
        return None
    if isinstance(label, bool) or not isinstance(label, int) or label not in _LABEL_VALUES:
        raise _bad(path, lineno, f"label must be -1 or 1, got {label!r}")
    return label


def _jsonl_objects(path):
    """Yield ``(lineno, parsed JSON value)`` for each nonblank JSONL line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise _bad(path, lineno, f"bad JSON: {err}") from None
            yield lineno, obj


def _jsonl_rows(path):
    """Yield checked ``(votes, label or None)`` for each nonblank JSONL line."""
    for lineno, obj in _jsonl_objects(path):
        if not isinstance(obj, dict) or "votes" not in obj:
            raise _bad(path, lineno, "expected an object with a 'votes' field")
        t = obj.get("t")
        if t is not None and (isinstance(t, bool) or not isinstance(t, int)):
            raise _bad(path, lineno, f"t must be an int, got {t!r}")
        votes = _check_votes(obj["votes"], path, lineno)
        yield votes, _check_label(obj.get("label"), path, lineno)


def _csv_rows(path):
    """Yield checked ``(votes, label or None)`` for each nonblank CSV row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        vote_cols = [i for i, name in enumerate(header) if name not in ("label", "t")]
        label_col = header.index("label") if "label" in header else None
        t_col = header.index("t") if "t" in header else None
        if not vote_cols:
            raise _bad(path, 1, "no vote columns in header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise _bad(path, lineno, f"expected {len(header)} columns, got {len(row)}")

            def cell_int(i: int, what: str):
                text = row[i].strip()
                if text == "":
                    return None
                try:
                    return int(text)
                except ValueError:
                    raise _bad(path, lineno, f"{what} must be an int, got {row[i]!r}") from None

            raw_votes = [cell_int(i, f"vote column {header[i]!r}") for i in vote_cols]
            if any(x is None for x in raw_votes):
                raise _bad(path, lineno, "empty vote cell")
            label = cell_int(label_col, "label") if label_col is not None else None
            if t_col is not None:
                cell_int(t_col, "t")
            votes = _check_votes(raw_votes, path, lineno)
            yield votes, _check_label(label, path, lineno)


def read_stream(path) -> Stream:
    """Parse a stream file (JSONL or CSV, sniffed from the first nonblank
    line) into a :class:`Stream` of int8 votes, 0 kept for an abstention.

    ``truth`` is set only when every line carries a label.  An empty or
    blank file reads as a zero-row stream.  All lines must have the same
    number of votes; format violations raise :class:`StreamFormatError`
    naming the file and line.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        head = next((line.lstrip() for line in fh if line.strip()), "")
    rows: list[list[int]] = []
    labels: list[int | None] = []
    if head:
        for votes, label in (_jsonl_rows if head.startswith("{") else _csv_rows)(path):
            rows.append(votes)
            labels.append(label)
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise StreamFormatError(f"{path}: inconsistent labeler counts {sorted(widths)}")
    votes = np.array(rows, dtype=np.int8).reshape(len(rows), widths.pop() if widths else 0)
    truth = np.array(labels, dtype=np.int8) if rows and None not in labels else None
    return Stream(votes=votes, truth=truth)


def write_stream(path, stream: Stream, fmt: str | None = None) -> None:
    """Write a :class:`Stream`'s votes, plus its labels when ``truth`` is
    set, as JSONL or CSV.

    ``fmt`` defaults to the file extension (".csv" means CSV, anything
    else JSONL).
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown stream format {fmt!r}")
    rows = stream.votes.tolist()
    labels = None if stream.truth is None else stream.truth.tolist()
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                obj: dict = {"votes": row}
                if labels is not None:
                    obj["label"] = labels[i]
                fh.write(json.dumps(obj) + "\n")
        return
    header = [f"votes_{i + 1}" for i in range(stream.votes.shape[1])]
    if labels is not None:
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, labels)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_REPORT_FIELDS = ("t", "window", "p_hat", "weights", "prediction", "truth", "correct", "stop_reason")

#: per report column kept on read: dtype, dimension, the JSON value types
#: it accepts (a boolean is not an integer here), what its values must be,
#: and a check of the read array
_REPORT_COLUMNS = {
    "window": (np.int64, 1, {int}, "positive integers", lambda c: c >= 1),
    "p_hat": (np.float64, 2, {int, float}, "numbers", lambda c: True),
    "weights": (np.float64, 2, {int, float}, "numbers", lambda c: True),
    "prediction": (np.int8, 1, {int}, "-1 or 1", lambda c: np.abs(c) == 1),
    "truth": (np.int8, 1, {int}, "-1 or 1", lambda c: np.abs(c) == 1),
    "stop_reason": (np.int8, 1, {str}, "one of " + ", ".join(STOPS), lambda c: c >= 0),
}


def write_reports(path, reports: Reports) -> None:
    """Write :class:`Reports` as JSONL, one line per step with ``t`` = 1..T,
    the derived ``correct`` and stop reasons by name, omitting absent
    columns."""
    columns = [("t", range(1, len(reports) + 1))]
    for name in _REPORT_FIELDS[1:]:
        column = getattr(reports, name)
        if column is not None:
            values = column.tolist()
            columns.append((name, [STOPS[c] for c in values] if name == "stop_reason" else values))
    names = [name for name, _ in columns]
    with open(path, "w", encoding="utf-8") as fh:
        for row in zip(*(column for _, column in columns)):
            fh.write(json.dumps(dict(zip(names, row))) + "\n")


def read_reports(path) -> Reports:
    """Read reports written by :func:`write_reports`; exact round-trip.

    A column is kept only when every line has it; ``t`` must be present
    but is not kept, and ``correct`` is recomputed from the columns.  An
    empty file reads as zero rows.
    """
    lines = []
    for lineno, obj in _jsonl_objects(path):
        if not isinstance(obj, dict) or "t" not in obj or "prediction" not in obj:
            raise _bad(path, lineno, "expected an object with 't' and 'prediction'")
        lines.append(obj)
    columns = {}
    for name, (dtype, ndim, kinds, rule, check) in _REPORT_COLUMNS.items():
        values = [obj.get(name) for obj in lines]
        if name != "prediction" and (not values or None in values):
            continue
        raw = values
        if name == "stop_reason":  # any other value reads as -1 and fails the check
            raw = [STOPS.index(x) if x in STOPS else -1 for x in values]
        try:
            # int8 columns read as int64 first, so that an out-of-range
            # value fails the value check, not the conversion
            column = np.array(raw, dtype=np.int64 if dtype is np.int8 else dtype)
        except (TypeError, ValueError, OverflowError):
            column = None
        if column is None or column.ndim != ndim:
            raise StreamFormatError(f"{path}: {name!r} values are ragged or of the wrong type")
        flat = values if ndim == 1 else chain.from_iterable(values)
        if not set(map(type, flat)) <= kinds or not np.all(check(column)):
            raise StreamFormatError(f"{path}: {name!r} values must be {rule}")
        columns[name] = column.astype(dtype, copy=False)
    return Reports(**columns)


def write_series_csv(path, values, start: int = 1) -> None:
    """Write a per-step series as two-column CSV (step, value)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value"])
        for i, value in enumerate(values):
            writer.writerow([start + i, repr(float(value))])
