"""Reading and writing vote streams and per-step reports.

A stream file holds a :class:`~driftvote.core.Stream`: one line per
step, in one of two formats, after a UTF-8 byte-order mark if any.  In
both, a blank line (empty or whitespace-only) is skipped anywhere, and
an error names the file and the line that ends its row.

* JSONL (canonical): one object per line, ``{"votes": [...], "label": ...,
  "t": ...}`` with ``label``/``t`` optional.
* CSV: a header row, the first nonblank one, in which ``label`` and
  ``t`` do not repeat; every other column is a vote column, read in
  header order.  Written files use ``votes_1..votes_n``.

Votes are -1, 0 (abstain), or +1; labels are +/-1.  A read stream
carries labels (``truth``) only when every line has one.  ``t`` is
accepted and checked on read but not kept; written streams carry no
``t`` and no block annotations, and have a labeler when they have a step.

Reports (:class:`~driftvote.core.Reports`) are always JSONL with
fields ``t``, then the columns of :data:`~driftvote.core.REPORT_COLUMNS`
(the one list, whose typecodes, dimensions and values every check here
takes), ``correct`` after ``truth``; absent fields were not produced by
the strategy.  They are read as JSON, with no numpy, into ``array.array``
columns (:func:`_report_columns`).  A column is kept only when every line
has its key; ``t`` must be present but is not kept, and ``correct`` is
recomputed.  Windows must be positive integers, predictions and labels
-1 or 1 (a boolean is not an integer), ``p_hat``/``weights`` finite
numbers and stop reasons names in :data:`~driftvote.core.STOPS`, read
back as their int8 index.  By one rule, a value of the wrong shape (a
list in a 1-d column, a row that is not a list as long as the first
line's) or an integer outside int64 (float64 in ``p_hat``/``weights``)
is a :class:`StreamFormatError` "'<column>' values are ragged or of the
wrong type", and any other wrong value, a string, an object or ``null``
included, "'<column>' values must be ...".  :func:`write_reports` writes
only what :func:`read_reports` reads back, floats exactly in their
shortest repr, and raises a :class:`ValueError` naming the column.

Files are read, and written byte for byte as ``json.dumps`` of each
line gives them, ``_BLOCK`` rows at a time.  Stream files are read by
one block reader, :func:`_stream_blocks` (JSONL by :func:`_jsonl_lines`
and :func:`_jsonl_block`, CSV rows batched), which ``read_stream``
concatenates and ``run`` decides and writes block by block; streams are
written from byte grids by :func:`_stream_lines`, which also reads
canonical stream blocks back.  Reports are written by
:class:`_ReportLines` from one ``%`` template per file, each line closed
by one of the line ends spelled once for every combination of its last
columns' values, ``t`` going on from one block of reports to the next.
"""

from __future__ import annotations

import json
import re
from array import array
from itertools import chain, islice, product
from math import isfinite
from pathlib import Path
from typing import TYPE_CHECKING

from .core import REPORT_COLUMNS, Reports, Stream

if TYPE_CHECKING:
    import numpy as np


class StreamFormatError(ValueError):
    """A stream or report file violates the format contract."""


_VOTE_VALUES = (-1, 0, 1)
_LABEL_VALUES = (-1, 1)

#: lines read, decoded and checked, rows resolved and decided by ``run``, and
#: rows each writer formats, together: so that no grid, list or string built
#: for a block passes glibc's 128 KiB mmap threshold and a block adds no peak
#: RSS (4096-row grids, whole-file lists or joined 1024-line reports added
#: 0.27-0.45 MB to ``run``)
_BLOCK = 1024
#: an object closed and followed by a comma within one line
_OBJECT_THEN_COMMA = re.compile(r"\}[ \t\r]*,")
_MINUS, _ZERO = ord("-"), ord("0")
#: a byte no JSONL line holds: the stream encoder's pad, which it drops
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
    import numpy as np

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
    import numpy as np

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


def _jsonl_lines(path, encoding: str):
    """Yield ``(linenos, lines)`` for each block of up to ``_BLOCK`` lines
    of a text file in ``encoding`` that holds a nonblank line, blanks left out."""
    with open(path, encoding=encoding) as fh:
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


def _jsonl_decode(path, linenos, lines, check):
    """``check(value, path, lineno)`` of each line of a block of JSONL lines,
    in line order; the first line that does not decode raises its
    :class:`StreamFormatError`, after the checks of the lines before it.

    The block is decoded with one ``json.loads`` of its lines joined into
    an array.  That array is kept only when it holds one object per line
    and no line closes an object and then goes on with a comma: every
    comma between two of its values is then one of the joins, so each
    line holds exactly one object.  Any other block is decoded line by
    line, so that its first bad line raises, as when every line is read
    on its own.
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
        return [check(obj, path, lineno) for lineno, obj in zip(linenos, objects)]
    checked = []
    for lineno, line in zip(linenos, lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise _bad(path, lineno, f"bad JSON: {err}") from None
        checked.append(check(obj, path, lineno))
    return checked


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
    """``(votes, truth, widths)`` of one or more checked ``(votes, label)``
    rows: int8 votes (None unless every row has one width), int8 labels
    (None unless every row has one) and the set of row widths."""
    import numpy as np

    votes, labels = zip(*rows)
    widths = set(map(len, votes))
    matrix = np.array(votes, dtype=np.int8) if len(widths) == 1 else None
    truth = np.array(labels, dtype=np.int8) if None not in labels else None
    return matrix, truth, widths


def _jsonl_block(path, linenos, lines):
    """``(votes, truth, widths)`` of one block of JSONL stream lines, as
    :func:`_rows_block` gives them: by byte comparison when the block is
    canonical, else by JSON and the per-line checks, which raise the first
    bad line's error with its line number."""
    block = _canonical_block(lines)
    if block is not None:
        return block
    return _rows_block(_jsonl_decode(path, linenos, lines, _jsonl_row))


def _csv_int(cell: str, path, lineno: int, what: str) -> int | None:
    """The int in one CSV cell, None when the cell is blank."""
    try:
        return int(text) if (text := cell.strip()) else None
    except ValueError:
        raise _bad(path, lineno, f"{what} must be an int, got {cell!r}") from None


def _csv_rows(path):
    """Yield checked ``(votes, label or None)`` for each nonblank CSV row
    after the header, the first, numbered by the line that ends it."""
    import csv

    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        # a blank line reads as no cell or one whitespace-only cell
        rows = (row for row in reader if len(row) > 1 or "".join(row).strip())
        for header in islice(rows, 1):  # a blank file has none
            # vote columns are read by position, so only these two names must be unique
            if repeated := [name for name in ("label", "t") if header.count(name) > 1]:
                raise _bad(path, reader.line_num, f"repeated {repeated[0]!r} column")
            vote_cols = [i for i, name in enumerate(header) if name not in ("label", "t")]
            label_col = header.index("label") if "label" in header else None
            t_col = header.index("t") if "t" in header else None
            if not vote_cols:
                raise _bad(path, reader.line_num, "no vote columns in header")
            for row in rows:
                lineno = reader.line_num
                if len(row) != len(header):
                    raise _bad(path, lineno, f"expected {len(header)} columns, got {len(row)}")
                votes = [_csv_int(row[i], path, lineno, f"vote column {header[i]!r}") for i in vote_cols]
                if None in votes:
                    raise _bad(path, lineno, "empty vote cell")
                label = None if label_col is None else _csv_int(row[label_col], path, lineno, "label")
                if t_col is not None:
                    _csv_int(row[t_col], path, lineno, "t")
                yield _check_votes(votes, path, lineno), _check_label(label, path, lineno)


def _stream_blocks(path):
    """Yield checked ``(votes, truth)`` for each block of up to ``_BLOCK``
    rows of a stream file (JSONL or CSV, sniffed from the first nonblank
    line, a UTF-8 byte-order mark skipped): int8 votes, 0 kept for an
    abstention, and int8 labels, None unless every row of the block has
    one.  An empty or blank file yields nothing.

    Every row must have the first row's width.  At the first block that
    breaks this, the rest of the file is read, so that a line's violation
    anywhere wins, and then a :class:`StreamFormatError` lists every width.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig") as fh:
        head = next((line.lstrip() for line in fh if line.strip()), "")
    if head.startswith("{"):
        blocks = (_jsonl_block(path, *block) for block in _jsonl_lines(path, "utf-8-sig"))
    else:
        rows = _csv_rows(path)
        blocks = map(_rows_block, iter(lambda: list(islice(rows, _BLOCK)), []))
    first = None
    for votes, truth, widths in blocks:
        first = first or widths
        if widths != first or len(widths) > 1:
            widths = widths.union(first, *(block_widths for _, _, block_widths in blocks))
            raise StreamFormatError(f"{path}: inconsistent labeler counts {sorted(widths)}")
        yield votes, truth


def read_stream(path) -> Stream:
    """Parse a stream file into a :class:`Stream`: the blocks of
    :func:`_stream_blocks` joined.

    ``truth`` is set only when every line carries a label.  An empty or
    blank file reads as zero rows.  All lines must have the same number
    of votes; format violations raise :class:`StreamFormatError` naming
    the file and line, and a line's violation anywhere in the file wins
    over inconsistent widths.
    """
    import numpy as np

    blocks = list(_stream_blocks(path))
    if not blocks:
        return Stream(votes=np.empty((0, 0), dtype=np.int8))
    votes, truths = zip(*blocks)
    truth = np.concatenate(truths) if all(t is not None for t in truths) else None
    return Stream(votes=np.concatenate(votes), truth=truth)


def write_stream(path, stream: Stream, fmt: str | None = None) -> None:
    """Write a :class:`Stream`'s votes, plus its labels when ``truth`` is
    set, as JSONL or CSV.

    ``fmt`` defaults to the file extension (".csv" means CSV, anything
    else JSONL).  Both formats take what :func:`read_stream` reads back:
    votes must be integers in {-1, 0, 1}, a column of them or more when
    there is a step and a step or more when there is a column, and labels
    in {-1, 1} (a boolean is not an integer); anything else raises
    :class:`ValueError` naming the column.  A stream of no steps and no
    labelers writes an empty file.  JSONL lines are written by :func:`_stream_lines`.
    """
    import numpy as np

    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown stream format {fmt!r}")
    cells = _writable("votes", stream.votes, 2, len(stream.votes), "b", _VOTE_VALUES)
    n, labeled = cells.shape[1], stream.truth is not None
    if len(cells) and not n:  # its lines would hold no vote, which no reader reads
        raise ValueError(f"'votes' must have a column per labeler, got shape {cells.shape}")
    if n and not len(cells):  # no line would hold its labelers: it would read back as (0, 0)
        raise ValueError(f"'votes' must have a step when it has labelers, got shape {cells.shape}")
    if labeled:
        truth = _writable("truth", stream.truth, 1, len(cells), "b", _LABEL_VALUES)
        cells = np.column_stack((cells, truth))
    if fmt == "csv":
        import csv

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            if n:  # a stream of no labelers is an empty file, as in JSONL
                writer.writerow([f"votes_{i + 1}" for i in range(n)] + ["label"] * labeled)
            writer.writerows(cells.tolist())
        return
    with open(path, "wb") as fh:
        for start in range(0, len(cells), _BLOCK):
            fh.write(_stream_lines(cells[start:start + _BLOCK], labeled))


#: what a report column's values are when one has the wrong shape or size
_RAGGED = "are ragged or of the wrong type"
#: the value of a key that a report line lacks
_MISSING = object()


def _writable(name: str, column, ndim: int, rows: int, typecode: str, values) -> np.ndarray:
    """``column`` as an array of ``rows`` rows and ``ndim`` dimensions: finite
    float64 for typecode "d", else integers (a boolean is not one) in
    ``values`` (a name's index) or positive when it is None, so that a
    ``%``-format template writes it as ``json`` would; else a :class:`ValueError` naming it."""
    import numpy as np

    floats = typecode == "d"
    a = np.asarray(column)
    if a.dtype.kind not in ("f" if floats else "iu") or a.ndim != ndim or len(a) != rows:
        what = "floats" if floats else "integers"
        raise ValueError(f"{name!r} must be {ndim}-d {what} with {rows} rows, got {a.dtype} {a.shape}")
    if floats:
        a = a.astype(np.float64, copy=False)
        if not np.isfinite(a).all():
            raise ValueError(f"{name!r} values must be finite")
    elif values is None and (a < 1).any():
        raise ValueError(f"{name!r} must be positive, got {a[a < 1][0]}")
    elif values is not None:
        allowed = range(len(values)) if type(values[0]) is str else values
        bad = a != allowed[0]  # a comparison per value costs less than np.isin on a block
        for value in allowed[1:]:
            bad &= a != value
        if bad.any():
            raise ValueError(f"{name!r} must be one of {', '.join(map(str, allowed))}, got {a[bad][0]}")
    return a


class _ReportLines:
    """The lines of one report file, from one :class:`Reports` or more in
    turn, ``t`` going on from the rows of the earlier ones.  One ``%``
    template, spelled from the first one's columns, which every later one
    must have at the same widths, writes every line; its last slot takes
    the line's end, the columns with a value set, spelled once per
    combination of their values."""

    def __init__(self) -> None:
        self.t, self.template = 0, None

    def __call__(self, reports: Reports):
        """Check the columns of ``reports`` as :func:`write_reports` says,
        raising before any line is made; return an iterator of blocks of
        up to ``_BLOCK`` of its lines."""
        columns = {}
        for name, (typecode, ndim, values, _) in REPORT_COLUMNS.items():
            if (column := getattr(reports, name)) is not None:
                columns[name] = _writable(name, column, ndim, len(reports), typecode, values)
        if self.template is None:
            self.coded, fields, self.ends = {}, ['"t": %d'], []
            for name, column in columns.items():
                if (values := REPORT_COLUMNS[name][2]) is not None:
                    self.coded[name] = values
                elif column.ndim == 2:
                    fields.append(f'"{name}": [' + ", ".join(["%r"] * column.shape[1]) + "]")
                else:
                    fields.append(f'"{name}": %d')
            for combination in product(*self.coded.values()):
                end = {}
                for name, value in zip(self.coded, combination):
                    end[name] = value
                    if name == "truth":
                        end["correct"] = end["prediction"] == value
                self.ends.append(", " + json.dumps(end)[1:] + "\n")
            self.template = "{" + ", ".join(fields) + "%s"
        start, self.t = self.t, self.t + len(reports)
        return self._blocks(columns, range(start + 1, self.t + 1))

    def _blocks(self, columns: dict, steps: range):
        import numpy as np

        planes = [np.atleast_2d(column.T) for name, column in columns.items() if name not in self.coded]
        for start in range(0, len(steps), _BLOCK):
            block = slice(start, start + _BLOCK)
            cells = [steps[block]] + [row for plane in planes for row in plane[:, block].tolist()]
            code = np.zeros(len(cells[0]), dtype=np.intp)  # each row's index into ``ends``
            for name, values in self.coded.items():  # a name column stores its index already
                idx = columns[name][block]
                code = code * len(values) + (idx if type(values[0]) is str else np.searchsorted(values, idx))
            cells.append(list(map(self.ends.__getitem__, code.tolist())))
            yield map(self.template.__mod__, zip(*cells))


def write_reports(path, reports: Reports) -> None:
    """Write :class:`Reports` as JSONL by :class:`_ReportLines`, one line per
    step: ``t`` = 1..T and the present columns in
    :data:`~driftvote.core.REPORT_COLUMNS` order, the derived ``correct``
    after ``truth`` and stop reasons by name.

    Every column must have the dtype kind, dimension, length and values
    that its table entry gives it: windows positive, predictions and
    labels -1 or 1, ``p_hat``/``weights`` finite and stop reasons codes of
    ``STOPS``, so that :func:`read_reports` reads back what is written;
    anything else raises :class:`ValueError` naming the column, before
    the file is opened.
    """
    blocks = _ReportLines()(reports)
    with open(path, "w", encoding="utf-8") as fh:
        for lines in blocks:
            fh.writelines(lines)


def _report_line(obj, path, lineno: int) -> dict:
    """One decoded report line, which must be an object with ``t`` and ``prediction``."""
    if not isinstance(obj, dict) or "t" not in obj or "prediction" not in obj:
        raise _bad(path, lineno, "expected an object with 't' and 'prediction'")
    return obj


def _report_values(name: str, values: list, width: int | None):
    """The ``array`` of one block of a report column's values, a 2-d
    column's rows (``width`` long) flattened; or, when one is wrong, the
    rest of the error message by the rule in the module docstring."""
    typecode, ndim, allowed, rule = REPORT_COLUMNS[name]
    if ndim == 2:
        if set(map(type, values)) != {list} or set(map(len, values)) != {width}:
            return _RAGGED
        values = list(chain.from_iterable(values))
    types = set(map(type, values))
    if typecode == "d":
        good = types <= {int, float}
    elif allowed is None:
        good = types == {int} and min(values) >= 1
    else:  # one of ``allowed``, a name read back as its index
        good = types == {type(allowed[0])} and set(values) <= set(allowed)
        values = list(map(allowed.index, values)) if good and str in types else values
    try:
        if good:  # a finite sum shows that every value is finite
            column = array(typecode, values)
            if typecode != "d" or isfinite(sum(column)) or all(map(isfinite, column)):
                return column
        elif list in types:
            return _RAGGED
        else:
            array("d" if typecode == "d" else "q", [x for x in values if type(x) is int])
    except OverflowError:
        return _RAGGED
    return f"must be {rule}"


def _report_columns(path) -> dict[str, tuple[array, int | None]]:
    """The columns :func:`read_reports` keeps of a report file, with no
    numpy: name -> ``(values, width)``, ``values`` an ``array.array`` (a
    2-d column's rows flattened) and ``width`` a 2-d column's row length,
    None for a 1-d column.  A column is kept while every line has its key
    (``null`` is a value).  Lines are checked as they are read, columns
    once all are, in :data:`~driftvote.core.REPORT_COLUMNS` order: of a
    column's wrong values, one of the wrong shape or size names the error."""
    kept, errors = None, {}
    for linenos, lines in _jsonl_lines(path, "utf-8"):  # a BOM is a JSON error here
        objects = _jsonl_decode(path, linenos, lines, _report_line)
        if kept is None:  # a column the first line lacks is not gathered at all
            first = objects[0]
            kept = {
                name: (array(typecode), len(first[name]) if ndim == 2 and type(first[name]) is list else None)
                for name, (typecode, ndim, _, _) in REPORT_COLUMNS.items()
                if name in first
            }
        for name, (column, width) in list(kept.items()):
            values = [obj.get(name, _MISSING) for obj in objects]
            if _MISSING in values:  # kept only when every line has it
                del kept[name]
                errors.pop(name, None)
            elif errors.get(name) != _RAGGED:  # a column has one "must be" text
                block = _report_values(name, values, width)
                if isinstance(block, str):
                    errors[name] = block
                else:
                    column.extend(block)
    for name in REPORT_COLUMNS:
        if name in errors:
            raise StreamFormatError(f"{path}: {name!r} values {errors[name]}")
    return kept or {"prediction": (array("b"), None)}


def read_reports(path) -> Reports:
    """Read reports written by :func:`write_reports`; exact round-trip: the
    columns of :func:`_report_columns` as numpy arrays of the dtypes and
    shapes :class:`Reports` gives them.  An empty file reads as zero rows."""
    import numpy as np

    columns = _report_columns(path)
    rows = len(columns["prediction"][0])
    for name, (values, width) in columns.items():
        column = np.frombuffer(values, dtype=values.typecode)
        columns[name] = column if width is None else column.reshape(rows, width)
    return Reports(**columns)


def write_series_csv(path, values, start: int = 1) -> None:
    """Write a per-step series as two-column CSV (step, value)."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "value"])
        for i, value in enumerate(values):
            writer.writerow([start + i, repr(float(value))])
