"""CSV and JSON interchange.

Read: rows of probabilities (``p_1..p_K``) or of scores (``s_1..s_K``), each
with optional ``y_noisy`` and ``y_true`` label columns, a headerless K x K
transition matrix and the JSON object of an experiment config.  Written:
probability rows in that same layout, per-method results and summaries,
prediction sets and the threshold record.

Conventions shared by every reader and writer here:

* one opener, ``_reading``, opens every input file as UTF-8 text less a
  byte-order mark and reports a file that cannot be read, decoded or parsed;
  ``_read_rows`` alone reports an empty CSV file;
* class labels are 1-based in files and 0-based in memory;
* floats are written as their ``repr`` (the shortest decimal that reads back
  to the same double) for Python and NumPy floats alike, so a rerun with the
  same seed produces byte-identical files;
* malformed input raises FileFormatError carrying the offending 1-based
  line number where one exists.

``read_probability_csv`` parses a well-formed file with one streamed
``np.loadtxt`` pass (``_loadtxt``) on the handle ``_reading`` opens.  Whenever
that pass cannot show its numbers equal those of ``csv.reader`` with
``float()``/``int()``, the reader parses the file again one cell at a time.
Only that per-cell parse reports a malformed header, row or cell, so the
message and line number of such an error do not depend on the route.  The
transition reader, for a small K x K file, parses one cell at a time only.
"""

from __future__ import annotations

import csv
import json
import warnings
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np
from numpy.typing import NDArray

from .calibrate import ThresholdResult
from .correction import _jsonable
from .errors import (
    FileFormatError,
    InvalidSpec,
    LengthMismatch,
    _check_array,
    _check_label_vector,
    _check_path,
    _check_real,
    _check_type,
)
from .noise_model import TransitionMatrix

__all__ = [
    "RESULTS_HEADER",
    "SUMMARY_HEADER",
    "read_probability_csv",
    "write_probability_csv",
    "read_transition_csv",
    "write_results_csv",
    "write_summary_csv",
    "write_prediction_sets_csv",
    "write_threshold_json",
]

RESULTS_HEADER = (
    "method",
    "n",
    "K",
    "alpha",
    "delta_method",
    "delta_value",
    "tau_hat",
    "coverage",
    "avg_size",
    "seed",
)

SUMMARY_HEADER = (
    "method",
    "repetitions",
    "mean_coverage",
    "se_coverage",
    "mean_size",
    "se_size",
)


def _reading(path: str, parse: Callable[[TextIO], object], newline: str | None):
    """``parse(handle)`` of ``path`` opened in ``newline`` mode; an unreadable
    file, non-UTF-8 bytes or a CSV or JSON parse error is FileFormatError."""
    _check_path("path", path)
    try:
        with open(path, newline=newline, encoding="utf-8-sig") as handle:
            return parse(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise FileFormatError(f"{path} is not valid CSV: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past 4,300 digits
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def _read_rows(path: str) -> list[list[str]]:
    """The rows of a CSV file, which must hold at least one."""
    rows = _reading(path, lambda handle: list(csv.reader(handle)), newline="")
    if not rows:
        raise FileFormatError(f"{path} is empty")
    return rows


def _read_json_object(path: str) -> dict:
    """A file's JSON object; universal newlines count a CRLF as one char."""
    raw = _reading(path, json.load, newline=None)
    if not isinstance(raw, dict):
        raise FileFormatError(f"{path} must hold a single JSON object")
    return raw


def _writing(make: Callable, path: str, *args, **kwargs):
    """``make(path, *args, **kwargs)``, such as ``open`` or ``os.makedirs``;
    an OSError (a missing directory, a path that names a file or a
    directory, no permission) becomes FileFormatError ``cannot write
    {path}: ...``."""
    try:
        return make(path, *args, **kwargs)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _loadtxt(handle: TextIO, dtype: np.dtype) -> NDArray | None:
    """The rows left in ``handle``, parsed by numpy's C reader in one pass.

    None whenever the result might differ from what ``csv.reader`` with
    ``float()``/``int()`` gives:

    * numpy refused a cell or a row, or warned about one (numpy releases
      before 2.0 read an int64 cell such as ``2.0`` through a float and only
      warn; an input left empty warns too);
    * a line is not plain ASCII: numpy 2.4 misreads some non-ASCII characters
      as int64 digits (and crashes on others), and it skips the separators
      ``\\x1c``-``\\x1f`` as blanks, where ``float()``/``int()`` refuse both;
    * a line is long enough to hold a field past ``csv.field_size_limit()``;
    * numpy skipped a blank line or joined a quoted line break, so rows and
      lines differ in number.
    """
    limit = csv.field_size_limit()
    lines = 0

    def plain_lines() -> Iterator[str]:
        nonlocal lines
        for line in handle:
            if (
                len(line) > limit
                or not line.isascii()
                or "\x1c" in line
                or "\x1d" in line
                or "\x1e" in line
                or "\x1f" in line
            ):
                raise ValueError("not a plain ASCII line")
            lines += 1
            yield line

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                plain_lines(),
                dtype=dtype,
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=1,  # one record per line, even for a single line
            )
    except (ValueError, Warning):  # UnicodeDecodeError included
        return None
    return table if len(table) == lines else None


def _parse_float(cell: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise FileFormatError(f"not a number: {cell!r}", line=line) from exc


def _parse_label(cell: str, k: int, line: int) -> int:
    try:
        label = int(cell)
    except ValueError as exc:
        raise FileFormatError(f"not an integer label: {cell!r}", line=line) from exc
    if not 1 <= label <= k:
        raise FileFormatError(f"label {label} outside 1..{k}", line=line)
    return label - 1


def _numbered_header(header: list[str], prefix: str) -> int:
    """Count of leading prefix_1, prefix_2, ... columns; 0 if malformed."""
    k = 0
    while k < len(header) and header[k] == f"{prefix}_{k + 1}":
        k += 1
    return k


def _probability_layout(row: list[str]) -> tuple[str, int, list[str]]:
    """(kind, K, label columns) of a ``p_*``/``s_*`` header row."""
    header = [cell.strip() for cell in row]
    kind = next((c for c in "ps" if header[:1] == [f"{c}_1"]), None)
    if kind is None:
        raise FileFormatError("header must start with p_1 or s_1", line=1)
    k = _numbered_header(header, kind)
    tail = header[k:]
    if tail not in ([], ["y_noisy"], ["y_true"], ["y_noisy", "y_true"]):
        raise FileFormatError(
            f"columns after {kind}_{k} must be [y_noisy][,y_true], got {tail}",
            line=1,
        )
    return kind, k, tail


def read_probability_csv(
    path: str,
) -> tuple[
    str, NDArray[np.float64], NDArray[np.int64] | None, NDArray[np.int64] | None
]:
    """Read rows of ``p_1..p_K[,y_noisy][,y_true]`` or ``s_1..s_K[,...]``.

    Returns (kind, values, y_noisy, y_true): kind is ``"p"`` for
    probability rows and ``"s"`` for score rows, as the header says, and
    absent label columns are None.  The values are parsed, not checked as
    probabilities or scores.
    """

    def parse(handle: TextIO):
        kind, k, tail = _probability_layout(next(csv.reader(handle), []))
        dtype = np.dtype([("v", np.float64, (k,))] + [(name, np.int64) for name in tail])
        return kind, k, tail, _loadtxt(handle, dtype)

    try:
        kind, k, tail, table = _reading(path, parse, newline="")
    except FileFormatError:  # the per-cell parse below reports it
        table = None
    if table is None or any(
        table[name].min() < 1 or table[name].max() > k for name in tail
    ):
        return _read_probability_cells(path)
    labels = {name: table[name] - 1 for name in tail}
    values = np.ascontiguousarray(table["v"])
    return kind, values, labels.get("y_noisy"), labels.get("y_true")


def _read_probability_cells(
    path: str,
) -> tuple[
    str, NDArray[np.float64], NDArray[np.int64] | None, NDArray[np.int64] | None
]:
    """``read_probability_csv`` one cell at a time, naming the first bad line."""
    rows = _read_rows(path)
    kind, k, tail = _probability_layout(rows[0])
    width = k + len(tail)
    values = np.empty((len(rows) - 1, k))
    labels = {name: np.empty(len(rows) - 1, dtype=np.int64) for name in tail}
    for i, row in enumerate(rows[1:]):
        line = i + 2
        if len(row) != width:
            raise FileFormatError(f"expected {width} cells, got {len(row)}", line=line)
        values[i] = [_parse_float(cell, line) for cell in row[:k]]
        for column, cell in zip(labels.values(), row[k:]):
            column[i] = _parse_label(cell, k, line)
    if values.shape[0] == 0:
        raise FileFormatError(f"{path} has a header but no data rows")
    return kind, values, labels.get("y_noisy"), labels.get("y_true")


def write_probability_csv(
    path: str,
    probs: NDArray[np.float64],
    y_noisy: NDArray[np.int64] | None = None,
    y_true: NDArray[np.int64] | None = None,
) -> None:
    """Write rows of ``p_1..p_K[,y_noisy][,y_true]``, labels 1-based.

    The bytes are those of ``csv.writer``, which quotes none of these cells
    and ends each row with ``\\r\\n``.  ``probs`` must be a real matrix and
    each label array a vector of 0-based labels in [0, K) (InvalidSpec
    otherwise) with one entry per row of ``probs`` (LengthMismatch
    otherwise); all are checked before the file is opened.
    """
    _check_path("path", path)
    probs = _check_array("probs", probs, ndim=2, finite=False)
    labels = {}
    for name, y in (("y_noisy", y_noisy), ("y_true", y_true)):
        if y is not None:
            y = _check_label_vector(name, y, probs.shape[1])
            if y.shape != (probs.shape[0],):
                raise LengthMismatch(f"{probs.shape[0]} rows vs {name} of shape {y.shape}")
            labels[name] = (y + 1).tolist()
    header = [f"p_{j + 1}" for j in range(probs.shape[1])] + list(labels)
    with _writing(open, path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for i in range(probs.shape[0]):
            row = [*map(repr, probs[i].tolist())]
            row += [str(column[i]) for column in labels.values()]
            handle.write(",".join(row) + "\r\n")


def read_transition_csv(path: str) -> TransitionMatrix:
    """Read a headerless K x K column-stochastic matrix.

    Column sums may drift from 1 by up to 1e-6 (files store rounded
    decimals); anything further off is rejected, never repaired.
    """
    rows = _read_rows(path)
    k = len(rows)
    matrix = np.empty((k, k))
    for i, row in enumerate(rows):
        line = i + 1
        if len(row) != k:
            raise FileFormatError(
                f"expected {k} cells for a {k} x {k} matrix, got {len(row)}",
                line=line,
            )
        matrix[i] = [_parse_float(cell, line) for cell in row]
        if not np.all(np.isfinite(matrix[i])):
            raise FileFormatError("transition matrix entries must be finite", line=line)
    if np.any(matrix < 0.0):
        raise FileFormatError("transition matrix has negative entries")
    colsums = matrix.sum(axis=0)
    if np.any(np.abs(colsums - 1.0) > 1e-6):
        worst = int(np.argmax(np.abs(colsums - 1.0)))
        raise FileFormatError(
            f"column {worst + 1} sums to {float(colsums[worst])!r}, not 1 within 1e-6"
        )
    return TransitionMatrix(matrix / colsums)


def _write_dicts(path: str, header: Sequence[str], rows: Sequence[dict]) -> None:
    """Rows of dicts in ``header`` order.  ``rows`` must be a list or tuple of
    dicts (InvalidSpec otherwise), each holding every column (FileFormatError
    otherwise); all are checked before the file is opened."""
    _check_path("path", path)
    if not isinstance(rows, (list, tuple)):
        raise InvalidSpec(f"rows must be a list of dicts, got {type(rows).__name__}")
    for i, row in enumerate(rows):
        _check_type(f"rows[{i}]", row, dict)
        missing = [name for name in header if name not in row]
        if missing:
            raise FileFormatError(f"row is missing columns {missing}")
    with _writing(open, path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_results_csv(path: str, rows: Sequence[dict]) -> None:
    """One row per (repetition, method); fixed column order."""
    _write_dicts(path, RESULTS_HEADER, rows)


def write_summary_csv(path: str, rows: Sequence[dict]) -> None:
    _write_dicts(path, SUMMARY_HEADER, rows)


# Rows of the membership matrix formatted per write of the prediction sets.
_SET_ROWS = 4096


def write_prediction_sets_csv(path: str, sets: NDArray[np.bool_], tau: float) -> None:
    """Rows of ``row,tau,set_size,labels`` from an n x K membership matrix.

    Labels are written 1-based and ;-joined; an empty set leaves the cell empty.
    The bytes are those of ``csv.writer``, which quotes none of these cells
    and ends each row with ``\\r\\n``.  Rows are formatted ``_SET_ROWS`` at a
    time from one ``np.nonzero`` of each block, so the working memory does
    not grow with n.  ``sets`` must be a real matrix and tau a real in
    [0, 1] (InvalidSpec otherwise), both checked before the file is opened.
    """
    _check_path("path", path)
    sets = _check_array("sets", sets, bool, ndim=2)
    _check_real("tau", tau, 0.0, 1.0)
    tau_cell = repr(float(tau))
    names = np.array([str(c) for c in range(1, sets.shape[1] + 1)])
    with _writing(open, path, "w", newline="") as handle:
        handle.write("row,tau,set_size,labels\r\n")
        for start in range(0, sets.shape[0], _SET_ROWS):
            block = sets[start : start + _SET_ROWS]
            rows, cols = np.nonzero(block)
            labels = names[cols].tolist()
            ends = np.searchsorted(rows, np.arange(1, block.shape[0] + 1)).tolist()
            lines, begin = [], 0
            for i, end in enumerate(ends, start=start + 1):
                cell = ";".join(labels[begin:end])
                lines.append(f"{i},{tau_cell},{end - begin},{cell}\r\n")
                begin = end
            handle.write("".join(lines))


def write_threshold_json(path: str, result: ThresholdResult) -> None:
    _check_path("path", path)
    _check_type("result", result, ThresholdResult)
    with _writing(open, path, "w") as handle:
        json.dump(_jsonable(result), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
