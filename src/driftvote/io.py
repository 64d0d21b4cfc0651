"""Reading and writing vote streams and per-step reports.

A stream file holds a :class:`~driftvote.core.Stream`: one line per
step, in one of two formats.

* JSONL (canonical): one object per line, ``{"votes": [...], "label": ...,
  "t": ...}`` with ``label``/``t`` optional.
* CSV: a header row; every column except ``label`` and ``t`` is a vote
  column, read in header order.  Written files use ``votes_1..votes_n``.

Votes are -1, 0 (abstain), or +1; labels are +/-1.  A read stream
carries labels (``truth``) only when every line has one.  ``t`` is
accepted and checked on read but not kept; written streams carry no
``t`` and no block annotations.

Reports (:class:`~driftvote.core.Reports`) are always JSONL with
fields ``t``, ``window``, ``p_hat``, ``weights``, ``prediction``,
``truth``, ``correct``, ``stop_reason`` (absent fields were not produced
by the strategy).  On read, a column is kept only when every line has
it; ``t`` must be present but is not kept, and ``correct`` is
recomputed.  Windows must be positive JSON integers, predictions and
labels -1 or 1 (a boolean is not an integer), ``p_hat``/``weights``
numbers and stop reasons one of the names in
:data:`~driftvote.core.STOPS`; anything else is a
:class:`StreamFormatError` naming the file.  A stop reason is written as
its name and read back as its int8 code, the index of that name in
``STOPS``.  Floats round-trip exactly through JSON's shortest-repr
encoding.  :func:`write_reports` writes only what :func:`read_reports`
reads back: any other window, prediction, label or stop code, and a NaN
or infinite ``p_hat`` or ``weights`` (JSON has no spelling for them),
raises a :class:`ValueError` naming the column.

JSONL files are read in blocks of lines.  Each canonical line format has
one byte encoder, which defines its spelling (the one ``json.dumps``
gives) and is used by its writer and its reader: :func:`_stream_lines`
for streams, ``{"votes": [1, -1, 0], "label": 1}`` with no ``t``, and
:func:`_majority_lines` for reports of a run with no column but
``prediction`` and ``truth`` (a ``majority`` run),
``{"t": 12, "prediction": -1, "truth": 1, "correct": false}`` or
``{"t": 12, "prediction": -1}``.  A reader guesses a block's values from
its bytes and keeps them only when encoding them gives the block back.
A stream block takes the width and labeling of its first line; any other
stream block is decoded with one ``json.loads`` and checked line by
line, and a block that does not decode as one is parsed again line by
line, so every error names the same line, with the same message, as a
line-by-line reader would give.  A report file is read by bytes when its first line
starts as a majority line and every block, with ``t`` running on, is
canonical; else the whole file is read again as JSON, one ``json.loads``
per block, which gives any such file the same columns.  Blank lines are
left out and CRLF read as LF either way.  Every other report is written
from one ``%``-format template per file and read as JSON.  Streams and
reports are written byte for byte as ``json.dumps`` of each line gives
them, so written JSONL stream votes must be -1, 0 or 1 and labels -1 or 1.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .core import STOPS, Reports, Stream


class StreamFormatError(ValueError):
    """A stream or report file violates the format contract."""


_VOTE_VALUES = (-1, 0, 1)
_LABEL_VALUES = (-1, 1)

#: JSONL lines read, decoded and checked together
_BLOCK = 4096
#: rows each byte encoder writes together: its byte grids then stay under
#: glibc's 128 KiB mmap threshold, so writing reuses freed heap memory and
#: adds no peak RSS (4096 rows added about 0.45 MB to ``run``)
_WRITE_ROWS = 1024
#: an object closed and followed by a comma within one line
_OBJECT_THEN_COMMA = re.compile(r"\}[ \t\r]*,")
_MINUS, _ZERO = ord("-"), ord("0")
#: a byte no JSONL line holds: the byte encoders' pad, which they drop
_PAD = 0


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


def _compact(grid: np.ndarray) -> np.ndarray:
    """The bytes of a uint8 grid of lines, row by row, with ``_PAD`` dropped."""
    flat = grid.ravel()
    return flat[flat != _PAD]


def _stream_lines(cells: np.ndarray, labeled: bool) -> np.ndarray:
    """The uint8 bytes of one JSONL stream line per row of ``cells``: its
    votes, then its label when ``labeled`` (values -1, 0 or 1), as
    ``json.dumps`` spells them: ``{"votes": [1, -1, 0], "label": 1}``.

    Every line is first one row of a grid with a sign slot before each
    digit; the sign slot of a value that is not negative holds ``_PAD``.
    """
    cells = cells.astype(np.int8, copy=False)  # so that abs and < read one byte per value
    n = cells.shape[1] - labeled
    line = '{"votes": [' + ", ".join(["-0"] * n) + "]" + (', "label": -0' if labeled else "") + "}\n"
    skeleton = np.frombuffer(line.encode(), dtype=np.uint8)
    digits = np.flatnonzero(skeleton == _ZERO)
    grid = np.tile(skeleton, (len(cells), 1))
    grid[:, digits] = np.abs(cells) + _ZERO
    grid[:, digits - 1] = np.where(cells < 0, _MINUS, _PAD)
    return _compact(grid)


def _canonical_block(lines):
    """``(votes, truth, widths)`` of a block of JSONL stream lines, as
    :func:`_rows_block` gives them, when the block is what
    :func:`_stream_lines` gives for the width and labeling of its first
    line; else None.

    The bytes ``0`` and ``1`` are taken as the values' digits, each
    negative when a minus stands just before it, and kept only when
    encoding them gives the block back.
    """
    # the width of a canonical first line; a line with no comma gives the
    # labeled line of no votes, which has a comma, so no block of empty
    # vote lists is read here
    first = lines[0]
    labeled = '"label"' in first
    n = first.count(",") + (not labeled)
    data = np.frombuffer("".join(lines).encode(), dtype=np.uint8)
    at = np.flatnonzero((data | 1) == ord("1"))
    if at.size != len(lines) * (n + labeled):
        return None
    digits = (data[at] - _ZERO).astype(np.int8)
    cells = np.where(data[at - 1] == _MINUS, -digits, digits).reshape(len(lines), n + labeled)
    if labeled and not cells[:, n].all():
        return None
    if not np.array_equal(_stream_lines(cells, labeled), data):
        return None
    return np.ascontiguousarray(cells[:, :n]), cells[:, n] if labeled else None, {n}


def _jsonl_lines(path):
    """Yield ``(linenos, lines)`` for each block of up to ``_BLOCK`` lines
    of a text file that holds a nonblank line, blank lines left out."""
    with open(path, encoding="utf-8") as fh:
        start = 1
        while raw := list(islice(fh, _BLOCK)):
            lines = list(filter(str.strip, raw))
            if len(lines) == len(raw):
                linenos = range(start, start + len(raw))
            else:
                linenos = [start + i for i, line in enumerate(raw) if line.strip()]
            start += len(raw)
            if lines:
                yield linenos, lines


def _jsonl_decode(path, linenos, lines):
    """``(objects, error)`` of a block of JSONL lines: the decoded value of
    each line up to the first that does not decode, and that line's
    :class:`StreamFormatError`, or None when every line decodes.

    The block is decoded with one ``json.loads`` of its lines joined into
    an array.  That array is kept only when it holds one object per line
    and no line closes an object and then goes on with a comma: every
    comma between two of its values is then one of the joins, so each
    line holds exactly one object.  Any other block is decoded line by
    line, so that a caller can check the lines before a bad one first, as
    it would when every line is read on its own.
    """
    text = "[" + ",".join(lines) + "]"
    try:
        objects = json.loads(text)
    except json.JSONDecodeError:
        objects = None
    if (
        objects is not None
        and len(objects) == len(lines)
        and set(map(type, objects)) == {dict}
        and not _OBJECT_THEN_COMMA.search(text)
    ):
        return objects, None
    objects = []
    for lineno, line in zip(linenos, lines):
        try:
            objects.append(json.loads(line))
        except json.JSONDecodeError as err:
            return objects, _bad(path, lineno, f"bad JSON: {err}")
    return objects, None


def _jsonl_row(obj, path, lineno: int):
    """Checked ``(votes, label or None)`` of one JSONL stream object."""
    if not isinstance(obj, dict) or "votes" not in obj:
        raise _bad(path, lineno, "expected an object with a 'votes' field")
    t = obj.get("t")
    if t is not None and (isinstance(t, bool) or not isinstance(t, int)):
        raise _bad(path, lineno, f"t must be an int, got {t!r}")
    votes = _check_votes(obj["votes"], path, lineno)
    return votes, _check_label(obj.get("label"), path, lineno)


def _rows_block(rows):
    """``(votes, truth, widths)`` of checked ``(votes, label)`` rows: int8
    votes (None unless every row has one width), int8 labels (None unless
    every row has one) and the set of row widths."""
    votes, labels = zip(*rows) if rows else ((), ())
    widths = set(map(len, votes))
    array = np.array(votes, dtype=np.int8) if len(widths) == 1 else None
    truth = np.array(labels, dtype=np.int8) if rows and None not in labels else None
    return array, truth, widths


def _jsonl_block(path, linenos, lines):
    """``(votes, truth, widths)`` of one block of JSONL stream lines, as
    :func:`_rows_block` gives them: by byte comparison when the block is
    canonical, else by JSON and the per-line checks, which raise the first
    bad line's error with its line number."""
    block = _canonical_block(lines)
    if block is not None:
        return block
    objects, error = _jsonl_decode(path, linenos, lines)
    rows = [_jsonl_row(obj, path, lineno) for lineno, obj in zip(linenos, objects)]
    if error is not None:
        raise error
    return _rows_block(rows)


def _csv_rows(path):
    """Yield checked ``(votes, label or None)`` for each nonblank CSV row."""
    import csv

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
    blank file reads as zero rows.  All lines must have the same number
    of votes; format violations raise :class:`StreamFormatError` naming
    the file and line, and a line's violation anywhere in the file wins
    over inconsistent widths.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        head = next((line.lstrip() for line in fh if line.strip()), "")
    if head.startswith("{"):
        blocks = [_jsonl_block(path, *block) for block in _jsonl_lines(path)]
    else:
        blocks = [_rows_block(list(_csv_rows(path)) if head else [])]
    widths = set().union(*(block_widths for _, _, block_widths in blocks))
    if len(widths) > 1:
        raise StreamFormatError(f"{path}: inconsistent labeler counts {sorted(widths)}")
    chunks = [votes for votes, _, _ in blocks if votes is not None]
    truths = [truth for _, truth, _ in blocks]
    votes = np.concatenate(chunks) if chunks else np.empty((0, 0), dtype=np.int8)
    truth = np.concatenate(truths) if chunks and all(t is not None for t in truths) else None
    return Stream(votes=votes, truth=truth)


def write_stream(path, stream: Stream, fmt: str | None = None) -> None:
    """Write a :class:`Stream`'s votes, plus its labels when ``truth`` is
    set, as JSONL or CSV.

    ``fmt`` defaults to the file extension (".csv" means CSV, anything
    else JSONL).  Both formats take what :func:`read_stream` reads back:
    votes must be integers in {-1, 0, 1} and labels in {-1, 1} (a boolean
    is not an integer); anything else raises :class:`ValueError` naming
    the column.  JSONL lines are written by :func:`_stream_lines`.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown stream format {fmt!r}")
    cells = _writable("votes", stream.votes, 2, len(stream.votes))
    _check_values("votes", cells, _VOTE_VALUES)
    n, labeled = cells.shape[1], stream.truth is not None
    if labeled:
        truth = _writable("truth", stream.truth, 1, len(cells))
        _check_values("truth", truth, _LABEL_VALUES)
        cells = np.column_stack((cells, truth))
    if fmt == "csv":
        import csv

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"votes_{i + 1}" for i in range(n)] + ["label"] * labeled)
            writer.writerows(cells.tolist())
        return
    with open(path, "wb") as fh:
        for start in range(0, len(cells), _WRITE_ROWS):
            fh.write(_stream_lines(cells[start:start + _WRITE_ROWS], labeled))


_JSON_BOOLS = ("false", "true")
_STOP_NAMES = tuple(map(json.dumps, STOPS))
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


def _writable(name: str, column, ndim: int, rows: int, floats: bool = False) -> np.ndarray:
    """``column`` as an array of ``rows`` rows and ``ndim`` dimensions,
    floats as float64 or integers (a boolean is not an integer), so that
    a ``%r``/``%d`` template writes it as ``json`` would."""
    a = np.asarray(column)
    if a.dtype.kind not in ("f" if floats else "iu") or a.ndim != ndim or len(a) != rows:
        what = "floats" if floats else "integers"
        raise ValueError(f"{name!r} must be {ndim}-d {what} with {rows} rows, got {a.dtype} {a.shape}")
    return a.astype(np.float64, copy=False) if floats else a


def _check_values(name: str, column: np.ndarray, allowed: tuple[int, ...]) -> None:
    """Raise :class:`ValueError` naming the column unless every value is in ``allowed``."""
    bad = column[~np.isin(column, allowed)]
    if bad.size:
        raise ValueError(f"{name!r} must be one of {', '.join(map(str, allowed))}, got {bad[0]}")


#: a majority report line with no digits of ``t``, unlabeled and labeled,
#: each sign slot holding a minus and ``correct`` spelled ``false``
_MAJORITY_LINES = (
    '{"t": , "prediction": -1}\n',
    '{"t": , "prediction": -1, "truth": -1, "correct": false}\n',
)
#: where the digits of ``t`` go, and the slots after them as offsets from
#: there: the prediction's sign, the truth's sign and ``correct``
_T_AT = len('{"t": ')
_SIGN_AT, _TRUTH_SIGN_AT = (i - _T_AT for i, c in enumerate(_MAJORITY_LINES[1]) if c == "-")
_CORRECT_AT = _MAJORITY_LINES[1].index("false") - _T_AT
#: ``correct`` padded to one width, indexed by its value
_CORRECT = np.array([list(b"false"), list(b"true") + [_PAD]], dtype=np.uint8)


def _majority_lines(start: int, prediction: np.ndarray, truth: np.ndarray | None) -> np.ndarray:
    """The uint8 bytes of the report lines of steps ``start, start + 1,
    ...`` of a run whose only columns are ``prediction`` and ``truth``
    (values -1 or 1), as ``json.dumps`` spells them:
    ``{"t": 12, "prediction": -1, "truth": 1, "correct": false}``, or
    ``{"t": 12, "prediction": -1}`` when ``truth`` is None.

    Every line is first one row of a grid with a slot for each digit of
    the largest ``t``, a sign slot before each value and five letters for
    ``correct``; the slots a line leaves empty (leading digits, the sign
    of a 1, the fifth letter of ``true``) hold ``_PAD``.
    """
    rows = len(prediction)
    digits = len(str(start + rows - 1))
    line = _MAJORITY_LINES[truth is not None]
    skeleton = np.frombuffer((line[:_T_AT] + "0" * digits + line[_T_AT:]).encode(), dtype=np.uint8)
    grid = np.tile(skeleton, (rows, 1))
    t = np.arange(start, start + rows)
    at = _T_AT + digits
    for power in range(digits):  # the digit of 10**power, then a column, fill t's slots
        grid[:, at - 1 - power] = np.where(t >= 10**power, t // 10**power % 10 + _ZERO, _PAD)
    grid[:, at + _SIGN_AT] = np.where(prediction < 0, _MINUS, _PAD)
    if truth is not None:
        grid[:, at + _TRUTH_SIGN_AT] = np.where(truth < 0, _MINUS, _PAD)
        grid[:, at + _CORRECT_AT:at + _CORRECT_AT + 5] = _CORRECT[(prediction == truth).astype(np.intp)]
    return _compact(grid)


def _majority_reports(path) -> Reports | None:
    """The :class:`Reports` of a file whose nonblank lines are what
    :func:`_majority_lines` gives for steps 1..T, labeled as its first
    line is; else None.

    Each block of lines is decoded from its sign bytes, two places after
    each line's 2nd colon (the prediction's) and 3rd (the truth's), and
    kept only when encoding what was decoded gives the block back.
    """
    with open(path, encoding="utf-8") as fh:
        first = next(filter(str.strip, fh), "")
    if not first.startswith('{"t": 1, "prediction": '):
        return None
    labeled = '"truth"' in first
    predictions, truths, start = [], [], 1
    for _, lines in _jsonl_lines(path):
        data = np.frombuffer("".join(lines).encode(), dtype=np.uint8)
        colons = np.flatnonzero(data == ord(":"))
        if colons.size != len(lines) * (4 if labeled else 2):
            return None
        signs = data.take(colons.reshape(len(lines), -1)[:, 1:2 + labeled] + 2, mode="clip")
        values = np.where(signs == _MINUS, -1, 1).astype(np.int8)
        prediction, truth = values[:, 0], values[:, 1] if labeled else None
        if not np.array_equal(_majority_lines(start, prediction, truth), data):
            return None
        predictions.append(prediction)
        truths.append(truth)
        start += len(lines)
    truth = np.concatenate(truths) if labeled else None
    return Reports(prediction=np.concatenate(predictions), truth=truth)


def write_reports(path, reports: Reports) -> None:
    """Write :class:`Reports` as JSONL, one line per step with ``t`` = 1..T,
    the derived ``correct`` and stop reasons by name, omitting absent
    columns.

    Every column must have the dtype kind, dimension and length that
    :class:`Reports` gives it; windows must be positive, predictions and
    labels -1 or 1, ``p_hat``/``weights`` finite and stop reasons codes of
    ``STOPS``, so that :func:`read_reports` reads back what is written;
    anything else raises :class:`ValueError` naming the column.  Reports
    with no column but ``prediction`` and ``truth`` are written by
    :func:`_majority_lines`, all others from one ``%``-format template.
    """
    rows = len(reports)
    columns = {}
    for name, (dtype, ndim, *_) in _REPORT_COLUMNS.items():
        column = getattr(reports, name)
        if column is None:
            continue
        column = _writable(name, column, ndim, rows, floats=dtype is np.float64)
        if ndim == 2:
            if not np.isfinite(column).all():
                raise ValueError(f"{name!r} values must be finite")
        elif name == "window":
            if np.any(column < 1):
                raise ValueError(f"'window' must be positive, got {column[column < 1][0]}")
        elif name == "stop_reason":
            _check_values(name, column, tuple(range(len(STOPS))))
        else:
            _check_values(name, column, _LABEL_VALUES)
        columns[name] = column
    prediction, truth = columns["prediction"], columns.get("truth")
    if columns.keys() <= {"prediction", "truth"}:
        with open(path, "wb") as fh:
            for start in range(0, rows, _WRITE_ROWS):
                block = slice(start, start + _WRITE_ROWS)
                labels = None if truth is None else truth[block]
                fh.write(_majority_lines(start + 1, prediction[block], labels))
        return
    fields, values = ['"t": %d'], [range(1, rows + 1)]
    for name in _REPORT_FIELDS[1:]:
        if name == "correct":
            if truth is not None:
                fields.append('"correct": %s')
                values.append(list(map(_JSON_BOOLS.__getitem__, (prediction == truth).tolist())))
            continue
        column = columns.get(name)
        if column is None:
            continue
        if column.ndim == 2:
            fields.append(f'"{name}": [' + ", ".join(["%r"] * column.shape[1]) + "]")
            values += column.T.tolist()
        elif name == "stop_reason":
            fields.append('"stop_reason": %s')
            values.append(list(map(_STOP_NAMES.__getitem__, column.tolist())))
        else:
            fields.append(f'"{name}": %d')
            values.append(column.tolist())
    template = "{" + ", ".join(fields) + "}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(template.__mod__, zip(*values)))


def read_reports(path) -> Reports:
    """Read reports written by :func:`write_reports`; exact round-trip.

    A column is kept only when every line has it; ``t`` must be present
    but is not kept, and ``correct`` is recomputed from the columns.  An
    empty file reads as zero rows.  A file whose nonblank lines are what
    :func:`write_reports` writes for a run with no column but
    ``prediction`` and ``truth`` is read by :func:`_majority_reports`;
    any other is decoded as JSON, which gives every such file the same
    columns.
    """
    reports = _majority_reports(path)
    return reports if reports is not None else _json_reports(path)


def _json_reports(path) -> Reports:
    """:func:`read_reports` of any file, each block decoded as JSON."""
    lines = []
    for linenos, block in _jsonl_lines(path):
        objects, error = _jsonl_decode(path, linenos, block)
        for lineno, obj in zip(linenos, objects):
            if not isinstance(obj, dict) or "t" not in obj or "prediction" not in obj:
                raise _bad(path, lineno, "expected an object with 't' and 'prediction'")
        if error is not None:
            raise error
        lines += objects
    columns = {}
    for name, (dtype, ndim, kinds, rule, check) in _REPORT_COLUMNS.items():
        # a column is kept only when every line has it, so a column the
        # first line lacks is not gathered at all
        if name != "prediction" and not (lines and name in lines[0]):
            continue
        values = [obj.get(name) for obj in lines]
        if name != "prediction" and None in values:
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
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value"])
        for i, value in enumerate(values):
            writer.writerow([start + i, repr(float(value))])
