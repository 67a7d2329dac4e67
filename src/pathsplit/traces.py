"""Packet-trace data model, file I/O, and a labeled synthetic-trace generator.

A trace is columnar: two read-only int64 arrays of equal length,
``times_us`` (microseconds, non-negative, never decreasing: building a
:class:`Trace` refuses a timestamp that goes back) and ``signed_size``
(bytes, sign gives the direction). ``Trace.packets`` is a tuple of the
columns' ``(timestamp_us, signed_size)`` int pairs, the ndjson wire pair,
built anew on each read at O(n) cost; nothing in the package reads it,
and ``len(trace)`` is the packet count.

Two wire formats are supported:

ndjson
    One JSON object per line::

        {"label": str, "monitored": bool,
         "packets": [[timestamp_us, signed_size], ...]}

csv
    Header ``trace_id,label,monitored,timestamp_us,signed_size``, one row
    per packet; each ``trace_id``'s rows form one contiguous group. The
    grammar is ``csv.reader``'s with the default dialect. Two parsers
    yield blocks of rows and check only the column count and that each
    number is an int64: numpy's C reader (``np.loadtxt``), a block at a
    time since it makes a Python str of every text field, and, from the
    first block it refuses on (``1_0``, non-ASCII digits, which ``int()``
    takes), ``csv.reader`` and ``int()``. One checker takes the blocks of
    either. The writer formats each trace's rows from one quoted prefix.

Both writers write trace by trace: each trace's text is made with one
``%`` over its flattened columns and written to the file's atomic temp
file before the next trace's is made, so a save holds memory
O(largest trace), never the whole file's text.

In both formats a packet's direction rides on the sign of its size:
positive is outgoing (client to server), negative is incoming. Zero sizes
are invalid, and every value must fit in int64. Loaders normalize every
trace so its first packet sits at t=0 with packets stably sorted by
timestamp, and reject unknown fields or columns by name. The label
"unmonitored" is reserved: traces with monitored=false must carry it and
monitored traces must not. Building a :class:`Trace` checks the size,
time and label rules. Both loaders instead share one skeleton: the
file's int64 columns grow in place, each trace's first row and (label,
monitored) are noted, and a record the parser refuses ends the read as
a fault on its row. One finisher hands the columns before the fault to
one builder, which sorts and rebases each trace in place, checks the
span, size and label rules over whole columns and cuts read-only slices.

Every packet is a row (an ndjson line holds its trace's rows), and
every fault sits on a row: a zero size on its own, a trace's span or
reserved label on its first. As the rows before a fault are built
first, the fault on the earliest row is named; on one row, parsing
comes first (ndjson: the JSON, fields, packet entries; csv: the column
count, ``timestamp_us``, ``signed_size``), then the csv ``monitored``
spelling, a label or flag change inside a trace or a reappearing
``trace_id``, then span, zero size, reserved label.
:class:`DatasetFormatError` names the line the faulty row begins on.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

import numpy as np

from .rand import stream_rng

UNMONITORED_LABEL = "unmonitored"

NDJSON_FIELDS = ("label", "monitored", "packets")
CSV_COLUMNS = ("trace_id", "label", "monitored", "timestamp_us", "signed_size")
FORMATS = ("ndjson", "csv")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class DatasetFormatError(ValueError):
    """A dataset file violates the wire format.

    line is the 1-based line on which the faulty row begins: an ndjson
    record's line, or the first line of a csv row, which a quoted field
    may carry over several lines.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def int64_column(values, name: str = "column") -> np.ndarray:
    """A read-only 1-D int64 array over values, sharing memory when it can.

    Only the returned view is read-only; an array passed in keeps its own
    flags. Values are taken exactly or refused, never cast: a dtype that is
    not an integer one (bool, float, object...) raises TypeError unless
    the column is empty, and an integer outside int64 raises ValueError
    naming it: an unsigned value above 2**63 - 1, or the first such int of
    a list or tuple of Python ints (numpy reads those as float64 or
    object). name is the column's name in those messages.
    """
    column = np.asarray(values)
    if column.dtype != np.int64:
        if column.size:
            if column.dtype.kind not in "iu":
                if isinstance(values, (list, tuple)) and all(type(v) is int for v in values):
                    raise _outside_int64(name, next(v for v in values if not _in_int64(v)))
                raise TypeError(f"{name} must hold int64 integers, got dtype {column.dtype}")
            if column.max() > INT64_MAX:  # only an unsigned dtype reaches it
                raise _outside_int64(name, column.max())
        column = column.astype(np.int64)
    if column.ndim != 1:
        raise ValueError(f"expected a 1-D column, got shape {column.shape}")
    if column.flags.writeable:
        column = column.view()
        column.flags.writeable = False
    return column


def _outside_int64(name: str, value: int) -> ValueError:
    bound = "above 2**63 - 1" if value > 0 else "below -2**63"
    return ValueError(f"{name} value {value} is {bound}")


@dataclass(frozen=True, eq=False)
class Trace:
    """A packet sequence with its class label, stored as two int64 columns.

    Construction checks that the label is a string and monitored a bool,
    that timestamps are non-negative and never decrease (a packet earlier
    than the one before it raises ValueError naming both), sizes non-zero,
    and that the label is "unmonitored" exactly when monitored is false.
    """

    times_us: np.ndarray
    signed_size: np.ndarray
    label: str
    monitored: bool

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise TypeError(f"label must be a string, got {self.label!r}")
        if not isinstance(self.monitored, bool):
            raise TypeError(f"monitored must be a bool, got {self.monitored!r}")
        times = int64_column(self.times_us, "times_us")
        sizes = int64_column(self.signed_size, "signed_size")
        if len(times) != len(sizes):
            raise ValueError(
                f"{len(times)} timestamps but {len(sizes)} sizes"
            )
        if len(times) and times[0] < 0:  # the order check holds the rest to it
            raise ValueError(f"negative timestamp {times[0]}")
        back = times[1:] < times[:-1]
        if back.any():
            i = int(back.argmax()) + 1
            raise ValueError(f"timestamps must not decrease: packet {i} at "
                             f"{times[i]} follows {times[i - 1]}")
        if not sizes.all():
            raise ValueError("zero-size packet; sizes must be non-zero")
        misuse = _reserved_label_misuse(self.label, self.monitored)
        if misuse:
            raise ValueError(misuse)
        object.__setattr__(self, "times_us", times)
        object.__setattr__(self, "signed_size", sizes)

    @classmethod
    def _subset(cls, times_us: np.ndarray, signed_size: np.ndarray,
                label: str, monitored: bool) -> "Trace":
        """A trace over columns known to pass the checks, built without them.

        times_us and signed_size must be read-only 1-D int64 columns of
        equal length that keep every rule for (label, monitored): a slice
        of a checked trace's columns with that trace's label and flag does,
        and so does a trace :func:`_traces_from_columns` has checked.
        """
        trace = object.__new__(cls)
        trace.__dict__.update(times_us=times_us, signed_size=signed_size,
                              label=label, monitored=monitored)
        return trace

    @property
    def packets(self) -> tuple[tuple[int, int], ...]:
        """The packets as ``(timestamp_us, signed_size)`` int pairs, built on each read."""
        return tuple(zip(self.times_us.tolist(), self.signed_size.tolist()))

    def __len__(self) -> int:
        return len(self.times_us)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.label == other.label
            and self.monitored == other.monitored
            and np.array_equal(self.times_us, other.times_us)
            and np.array_equal(self.signed_size, other.signed_size)
        )

    @property
    def total_bytes(self) -> int:
        return sum(map(abs, self.signed_size.tolist()))  # exact: no int64 wrap


def _reserved_label_misuse(label: str, monitored: bool) -> str | None:
    """Why (label, monitored) breaks the reserved-label rule, or None."""
    if monitored and label == UNMONITORED_LABEL:
        return f"monitored trace uses the reserved label {UNMONITORED_LABEL!r}"
    if not monitored and label != UNMONITORED_LABEL:
        return f"unmonitored trace labeled {label!r}; expected {UNMONITORED_LABEL!r}"
    return None


@dataclass(frozen=True)
class Dataset:
    """A trace collection; monitored classes plus background traffic."""

    traces: tuple[Trace, ...]

    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "Dataset":
        return cls(tuple(traces))

    def __len__(self) -> int:
        return len(self.traces)


def normalize_trace(trace: Trace) -> Trace:
    """Shift the packets so the first sits at t=0; a trace already there,
    or empty, is returned as is."""
    times = trace.times_us
    if not len(times) or times[0] == 0:
        return trace
    return Trace(times - times[0], trace.signed_size, trace.label, trace.monitored)


# ---------------------------------------------------------------------------
# Loading / saving


def load_dataset(path, fmt: str = "ndjson") -> Dataset:
    """Load a dataset file, normalizing and sorting every trace.

    Raises DatasetFormatError with the offending line number on malformed
    input, unknown fields/columns, values outside int64, empty traces, a
    reappearing csv trace_id, or a trace that :class:`Trace` refuses.
    """
    _check_format(fmt)
    if fmt == "ndjson":
        traces = _read_ndjson(path)
    else:
        traces = _read_csv(path)
    return Dataset.from_traces(traces)


def save_dataset(dataset: Dataset, path, fmt: str = "ndjson") -> None:
    """Write a dataset; load(save(d)) reproduces d's traces exactly.

    The file is written trace by trace, so memory is O(largest trace), and
    atomically: a save that fails leaves path as it was.
    """
    _check_format(fmt)
    for i, trace in enumerate(dataset.traces):
        if not len(trace):
            raise ValueError(
                f"trace {i} (label {trace.label!r}) has no packets; "
                "empty traces are not representable on disk"
            )
    with atomic_open(path) as fh:
        if fmt == "ndjson":
            for trace in dataset.traces:
                fh.write(_ndjson_line(trace))
        else:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for i, trace in enumerate(dataset.traces):
                fh.write(_csv_rows(i, trace))


@contextlib.contextmanager
def atomic_open(path):
    """A utf-8 text handle on a same-directory temp file that replaces path
    when the block ends; a block that raises leaves path as it was and
    removes the temp file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".pathsplit-{os.urandom(8).hex()}.tmp")
    # mode 0o666 less the umask, the mode open() gives a new file; the
    # replace keeps it
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file plus rename."""
    with atomic_open(path) as fh:
        fh.write(text)


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


class _RowError(ValueError):
    """A file's fault; row counts the file's packet rows before its own."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def _traces_from_columns(starts, heads, times: np.ndarray,
                         sizes: np.ndarray) -> list[Trace]:
    """The traces a file's columns hold, each stably sorted and rebased to 0.

    times and sizes are the whole file's int64 columns, which this edits in
    place and leaves read-only; starts holds the index of each trace's first
    packet in file order, heads each trace's (label, monitored). Every
    trace is non-empty. The checks run over whole columns; the first trace
    in file order that breaks a rule raises :class:`_RowError` with the
    message building it as a :class:`Trace` would give, on the earliest
    row of its faults (span and label: its first; zero size: its own; on
    one row span, then zero size, then label).
    """
    if not len(times):
        return []
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.append(starts[1:], len(times))
    zeros = np.flatnonzero(sizes == 0)  # rows in file order, before any sort
    # a drop in timestamp is disorder unless it is where a trace begins
    drops = np.flatnonzero(times[1:] < times[:-1]) + 1
    owners = np.searchsorted(starts, drops, side="right") - 1
    for t in set(owners[drops != starts[owners]].tolist()):
        s, e = starts[t], ends[t]
        order = np.argsort(times[s:e], kind="stable")
        times[s:e] = times[s:e][order]
        sizes[s:e] = sizes[s:e][order]
    bounds = list(zip(starts.tolist(), ends.tolist()))
    for s, e in bounds:  # per trace, so no column-sized temporary
        times[s:e] -= times[s]  # array arithmetic: wraps without a warning
    # a trace's last time wrapped below 0 iff its span exceeds int64
    bad_span = times[ends - 1] < 0
    zero_size = np.zeros(len(starts), dtype=bool)
    zero_size[np.searchsorted(starts, zeros, side="right") - 1] = True
    bad_label = np.fromiter(
        ((label == UNMONITORED_LABEL) == monitored for label, monitored in heads),
        bool, len(heads),
    )
    broken = np.flatnonzero(bad_span | zero_size | bad_label)
    if len(broken):
        t = int(broken[0])
        label, monitored = heads[t]
        first = int(starts[t])
        faults = []  # (row, order on the row, message)
        if bad_span[t]:
            faults.append((first, 0, f"timestamps of trace {label!r} span more than "
                                     "the int64 range"))
        if zero_size[t]:
            zero = int(zeros[np.searchsorted(zeros, first)])
            faults.append((zero, 1, "zero-size packet; sizes must be non-zero"))
        if bad_label[t]:
            faults.append((first, 2, _reserved_label_misuse(label, monitored)))
        row, _, message = min(faults)
        raise _RowError(message, row)
    times.flags.writeable = sizes.flags.writeable = False
    return [
        Trace._subset(times[s:e], sizes[s:e], label, monitored)
        for (s, e), (label, monitored) in zip(bounds, heads)
    ]


def _finish(starts, heads, times: array, sizes: array, fault, line_of) -> list[Trace]:
    """The traces a reader's columns hold, or its file's earliest fault as
    a :class:`DatasetFormatError` on line_of(its row).

    times and sizes are the int64 columns of the rows read, starts and
    heads each trace's first row and (label, monitored), fault the
    :class:`_RowError` that ended the read or None. The rows before the
    fault are built first, so a rule they break is named instead.
    """
    rows = len(times) if fault is None else fault.row
    k = bisect_left(starts, rows)
    try:
        traces = _traces_from_columns(starts[:k], heads[:k],
                                      np.frombuffer(times, np.int64)[:rows],
                                      np.frombuffer(sizes, np.int64)[:rows])
    except _RowError as earlier:
        fault = earlier
    if fault is not None:
        raise DatasetFormatError(str(fault), line_of(fault.row)) from None
    return traces


def _in_int64(value: int) -> bool:
    return INT64_MIN <= value <= INT64_MAX


def _ndjson_columns(entries: list) -> tuple[np.ndarray, np.ndarray]:
    """``[[timestamp_us, signed_size], ...]`` as two int64 columns.

    The checks run as whole-list passes; only when one fails are the
    entries walked to name the first bad one.
    """
    if entries and (set(map(type, entries)) != {list} or set(map(len, entries)) != {2}):
        raise _bad_ndjson_entry(entries)
    flat = list(chain.from_iterable(entries))
    if flat and set(map(type, flat)) != {int}:  # bool is its own type
        raise _bad_ndjson_entry(entries)
    try:
        pairs = np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
    except OverflowError:
        raise _bad_ndjson_entry(entries) from None
    return pairs[:, 0], pairs[:, 1]


def _bad_ndjson_entry(entries: list) -> ValueError:
    """The error naming the first bad entry; entries must hold one."""
    for entry in entries:
        if type(entry) is not list or len(entry) != 2 or {*map(type, entry)} != {int}:
            return ValueError("packet entries must be [timestamp_us, signed_size] "
                              f"integer pairs, got {entry!r}")
        if not all(map(_in_int64, entry)):
            return ValueError(f"packet values must fit in int64, got {entry!r}")


def _read_ndjson(path) -> list[Trace]:
    lines, starts, heads = [], [], []  # each trace's line, first row, (label, monitored)
    # the file's columns grow in place, so no line's packets are held twice
    times, sizes = array("q"), array("q")
    fault = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            lines.append(lineno)  # before the parse, so its fault maps to this line
            starts.append(len(times))
            try:
                label, monitored, line_times, line_sizes = _ndjson_record(line)
            except ValueError as exc:
                fault = _RowError(str(exc), len(times))
                break
            heads.append((label, monitored))
            times.frombytes(line_times.tobytes())
            sizes.frombytes(line_sizes.tobytes())
    return _finish(starts, heads, times, sizes, fault,
                   lambda row: lines[bisect_right(starts, row) - 1])


def _ndjson_record(line: str):
    """One ndjson line's label, monitored flag, times and sizes; ValueError
    names its first fault."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValueError("record is not a JSON object")
    unknown = sorted(set(obj) - set(NDJSON_FIELDS))
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(unknown)}")
    missing = sorted(set(NDJSON_FIELDS) - set(obj))
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    label, monitored, packets = obj["label"], obj["monitored"], obj["packets"]
    if not isinstance(label, str):
        raise ValueError("label must be a string")
    if not isinstance(monitored, bool):
        raise ValueError("monitored must be a boolean")
    if not isinstance(packets, list):
        raise ValueError("packets must be a list")
    times, sizes = _ndjson_columns(packets)
    if not len(times):
        raise ValueError(f"empty trace (label {label!r})")
    return label, monitored, times, sizes


@contextlib.contextmanager
def _fields_of_any_size():
    """Let csv.reader take a field of any length, as np.loadtxt does; the
    interpreter-wide limit (131072 by default) comes back on exit."""
    previous = csv.field_size_limit(sys.maxsize)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


# Rows parsed per block. The C reader makes a Python str of every text
# field, so the parse holds memory in proportion to its rows: on the
# 128k-row benchmark corpus a whole-file parse raised the load's peak RSS
# by 50 MB (405 B per packet), 512-row blocks by 4 MB (33 B). The ids and
# labels kept from a block are copies, because a str taken from a parsed
# block keeps alive the allocator arena it shares with the block's other
# fields: after a whole-file parse that left 43 MB resident, not 5 MB.
_CSV_BLOCK_ROWS = 512

# The record both parsers make of a row. From numpy 1.23, an integer field
# the C reader refuses may be parsed as a float and truncated, with only a
# DeprecationWarning (numpy 2.4 refuses it outright); that warning is made
# an error, so 1.5, 1e3 and 2**63 go to csv.reader and int() and are refused.
_CSV_DTYPE = np.dtype([
    (name, np.int64 if name in ("timestamp_us", "signed_size") else object)
    for name in CSV_COLUMNS
])

# np.loadtxt warns when max_rows meets a blank line or the end of the
# input; blank lines are skipped, as csv.reader's empty rows are.
_LOADTXT_NO_DATA = (r"Input line \d+ contained no data", "loadtxt: input contained no data")
_LOADTXT_VIA_FLOAT = r".*integer via a float"
_TRUTH = {"true": True, "false": False}


def _csv_blocks(fh, path):
    """The csv rows left in fh, past the header of the file at path, as
    blocks of _CSV_DTYPE records: numpy's C reader parses blocks until it
    refuses one, and csv.reader and int() the rest of the file. The rows
    before the first one they refuse come as a block before its fault."""
    row = 0
    with warnings.catch_warnings():
        for message in _LOADTXT_NO_DATA:
            warnings.filterwarnings("ignore", message, UserWarning)
        warnings.filterwarnings("error", _LOADTXT_VIA_FLOAT, DeprecationWarning)
        while True:
            try:
                block = np.loadtxt(fh, dtype=_CSV_DTYPE, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1, max_rows=_CSV_BLOCK_ROWS)
            except ValueError:  # a column count or a number it refuses
                break
            if not len(block):
                return
            yield block
            row += len(block)
    with open(path, "r", encoding="utf-8", newline="") as reread:
        rows = filter(None, csv.reader(reread))  # a blank line is an empty row
        next(islice(rows, row + 1, row + 1), None)  # past the header and the rows parsed
        while chunk := list(islice(rows, _CSV_BLOCK_ROWS)):
            records = []
            for fields in chunk:
                try:
                    records.append(_csv_record(fields))
                except ValueError as exc:
                    if records:
                        yield np.array(records, _CSV_DTYPE)
                    raise _RowError(str(exc), row + len(records)) from None
            yield np.array(records, _CSV_DTYPE)
            row += len(records)


def _csv_record(fields: list[str]) -> tuple:
    """A csv.reader row as a record; ValueError names its first fault."""
    if len(fields) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(fields)}")
    tid, label, flag, ts, size = fields
    return tid, label, flag, _parse_int(ts, "timestamp_us"), _parse_int(size, "signed_size")


def _parse_int(value: str, column: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ValueError(f"{column} must be an integer, got {value!r}") from None
    if not _in_int64(number):
        raise ValueError(f"{column} must fit in int64, got {value!r}")
    return number


def _read_csv(path) -> list[Trace]:
    """The traces of a csv file: one checker over either parser's blocks."""
    starts, tids, heads = [], [], []  # each trace's first row, trace_id, (label, monitored)
    times, sizes = array("q"), array("q")  # the file's columns, grown in place
    previous = (None, None, False)  # trace_id, label, monitored of the last row
    fault = None
    with open(path, "r", encoding="utf-8", newline="") as fh, _fields_of_any_size():
        header = next(csv.reader(fh), None)
        if header is None:
            raise DatasetFormatError("missing header row", 1)
        if tuple(header) != CSV_COLUMNS:
            unknown = sorted(set(header) - set(CSV_COLUMNS))
            raise DatasetFormatError(f"unknown column(s): {', '.join(unknown)}" if unknown
                                     else f"header must be exactly {','.join(CSV_COLUMNS)}", 1)
        try:
            with contextlib.closing(_csv_blocks(fh, path)) as blocks:
                for block in blocks:
                    flags, spelled = _csv_flags(block["monitored"])
                    block_tids, labels = block["trace_id"], block["label"]
                    new = _changes(block_tids, previous[0])
                    inner = _changes(labels, previous[1]) | _changes(flags, previous[2])
                    faulty = ~spelled | (inner & ~new)
                    end = int(faulty.argmax()) if faulty.any() else len(block)
                    # copies: a kept str pins its block's strs' memory
                    for i in np.flatnonzero(new[:end]).tolist():
                        starts.append(len(times) + i)
                        tids.append(block_tids[i].encode().decode())
                        heads.append((labels[i].encode().decode(), bool(flags[i])))
                    times.frombytes(block["timestamp_us"][:end].tobytes())
                    sizes.frombytes(block["signed_size"][:end].tobytes())
                    if end < len(block):
                        raise _RowError(f"trace {block_tids[end]!r} changes label or "
                                        "monitored flag mid-group" if spelled[end] else
                                        "monitored must be true/false, got "
                                        f"{block['monitored'][end]!r}", len(times))
                    previous = (block_tids[-1], labels[-1], flags[-1])
        except _RowError as exc:
            fault = exc
        # every trace begun so far begins before the fault
        if len(set(tids)) != len(tids):  # the first trace whose id an earlier one has
            first: dict[str, int] = {}
            t = next(i for i, tid in enumerate(tids) if first.setdefault(tid, i) != i)
            fault = _RowError(f"trace_id {tids[t]!r} reappears after another trace_id; "
                              "each trace's rows must be contiguous", starts[t])
        return _finish(starts, heads, times, sizes, fault, lambda row: _csv_line(path, row))


def _csv_flags(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monitored column as bools, one comparison per distinct spelling,
    and where its spelling is true or false."""
    flags = text == "true"
    spelled = flags | (text == "false")
    for spelling in set(text[~spelled].tolist()):
        truth = _TRUTH.get(spelling.strip().lower())
        if truth is not None:
            same = text == spelling
            flags[same] = truth
            spelled |= same
    return flags, spelled


def _changes(column: np.ndarray, previous) -> np.ndarray:
    """Where column[i] differs from the value before it (previous, for i=0)."""
    before = np.empty_like(column)
    before[0] = previous
    before[1:] = column[:-1]
    return column != before


def _csv_line(path, row: int) -> int:
    """The line on which the csv row after `row` rows past the header
    begins; a blank line is not a row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        begins, row = 1, row + 1  # the header is row 0
        for fields in reader:
            if fields and not row:
                return begins
            row -= bool(fields)
            begins = reader.line_num + 1


def _flat_pairs(trace: Trace) -> tuple[int, ...]:
    """The trace's (timestamp_us, signed_size) pairs, flattened, as ints."""
    return tuple(np.column_stack((trace.times_us, trace.signed_size)).ravel().tolist())


def _ndjson_line(trace: Trace) -> str:
    # json.dumps of {"label", "monitored", "packets"}; the packets are
    # formatted by one %, not one call per pair
    head = json.dumps({"label": trace.label, "monitored": trace.monitored},
                      ensure_ascii=False, separators=(",", ":"))
    pairs = ("[%d,%d]," * len(trace))[:-1] % _flat_pairs(trace)
    return f'{head[:-1]},"packets":[{pairs}]}}\n'


class _Echo:
    """A csv.writer target: writerow returns the row it formats."""

    @staticmethod
    def write(line: str) -> str:
        return line


_CSV_HEAD = csv.writer(_Echo(), lineterminator="\n")
# the writer quotes only lineterminator characters; a bare \r in an
# unquoted label would end its row on reading
_CSV_HEAD_QUOTED = csv.writer(_Echo(), lineterminator="\n", quoting=csv.QUOTE_ALL)


def _csv_rows(index: int, trace: Trace) -> str:
    """The csv rows of the trace with trace_id index."""
    mon = "true" if trace.monitored else "false"
    quoted = "\r" in trace.label
    head = (_CSV_HEAD_QUOTED if quoted else _CSV_HEAD).writerow((index, trace.label, mon))
    # the trace's row prefix, without its lineterminator, as a % template
    row = head[:-1].replace("%", "%%") + (',"%d","%d"\n' if quoted else ",%d,%d\n")
    return (row * len(trace)) % _flat_pairs(trace)


# ---------------------------------------------------------------------------
# Synthetic corpus generator
#
# Classes live on a grid of "cells": a direction-burst cycle shared by
# several classes crossed with a coarse response-size level shared by
# several classes. Cell mates differ mainly in packet count, so the
# undefended corpus is cleanly separable while split-robust statistics
# (burst cycle, size histogram) only narrow a subtrace down to its cell.
# Burst cycles are short and periodic, so any slice of a trace shows one
# of a handful of phases of its group's cycle no matter where a batch or
# time-window boundary cuts. Per-trace pacing jitter keeps total duration
# a weak discriminator.

_BURST_GROUPS = 3
_BURST_BASES = ((1, 5), (2, 8), (3, 11))  # (outgoing run, incoming run)
_SIZE_LEVELS = 3
_COUNT_BASE = 150.0
_COUNT_CELL_RATIO = 2.6  # count step between classes sharing a cell
_COUNT_CELL_JITTER = (1.0, 1.13, 1.27)  # deterministic de-collision across cells
_COUNT_SIGMA = 0.10
_IN_SIZE_LEVELS = (620.0, 950.0, 1280.0)
_IN_SIZE_SIGMA = 110.0
_OUT_SIZE_LEVELS = (130.0, 220.0, 310.0)  # one per burst group
_OUT_SIZE_SIGMA = 35.0
_IAT_MEAN_US = 2000.0  # ~500 packets/second
_IAT_TRACE_SIGMA = 0.22
_MIN_PACKETS = 40

_STREAM_MONITORED = 102
_STREAM_UNMONITORED = 103


def _burst_signs(out_run: int, in_run: int, n: int) -> np.ndarray:
    """Periodic direction cycle: out_run requests then in_run responses."""
    cycle = np.asarray([1] * out_run + [-1] * in_run, dtype=np.int64)
    reps = -(-n // len(cycle))
    return np.tile(cycle, reps)[:n]


def _synth_trace(
    rng: np.random.Generator,
    label: str,
    monitored: bool,
    count_mean: float,
    burst_base: tuple[int, int],
    out_size_mu: float,
    in_size_mu: float,
) -> Trace:
    n = max(_MIN_PACKETS, int(round(count_mean * math.exp(rng.normal(0.0, _COUNT_SIGMA)))))
    signs = _burst_signs(*burst_base, n)
    out_mask = signs > 0
    out_sizes = rng.normal(out_size_mu, _OUT_SIZE_SIGMA, size=n)
    in_sizes = rng.normal(in_size_mu, _IN_SIZE_SIGMA, size=n)
    sizes = np.clip(np.rint(np.where(out_mask, out_sizes, in_sizes)), 64, 1500)
    iat_mu = _IAT_MEAN_US * math.exp(rng.normal(0.0, _IAT_TRACE_SIGMA))
    iats = np.maximum(np.rint(rng.exponential(iat_mu, size=n)), 1).astype(np.int64)
    iats[0] = 0
    times = np.cumsum(iats)
    signed = np.where(out_mask, sizes, -sizes).astype(np.int64)
    return Trace(times, signed, label, monitored)


def _background_burst(rng: np.random.Generator) -> tuple[int, int]:
    """Burst cycle for background traffic, kept off the monitored cycles."""
    while True:
        base = (int(rng.integers(1, 5)), int(rng.integers(3, 15)))
        if base not in _BURST_BASES:
            return base


def generate_synthetic(
    classes: int,
    traces_per_class: int,
    unmonitored_count: int = 0,
    seed: int = 0,
) -> Dataset:
    """Generate a deterministic labeled corpus for classifier experiments.

    Each class has a fixed signature (packet count, burst pattern, size
    profile) plus per-trace seeded noise; unmonitored traces draw their
    shape from a broad background distribution. Identical arguments always
    produce an identical dataset.

    Size grows fast with `classes`: a class's mean packet count is
    150 * 2.6**(c // 9) (times a 1.0-1.27 cell factor), so it grows 2.6x
    every 9 classes. 100 classes x 100 traces + 5000 unmonitored ask for
    about 4.1e9 packets, 65 GB of int64 columns; an 8 GB machine runs out
    of memory. Scale a corpus up with `traces_per_class` instead: 9 x 600
    + 400 is 1,249,122 packets.
    """
    if classes < 1:
        raise ValueError("classes must be >= 1")
    if traces_per_class < 1:
        raise ValueError("traces_per_class must be >= 1")
    if unmonitored_count < 0:
        raise ValueError("unmonitored_count must be >= 0")

    traces = []
    cells = _BURST_GROUPS * _SIZE_LEVELS
    for c in range(classes):
        cell = c % cells
        rank = c // cells  # position within the cell's count ladder
        group = cell % _BURST_GROUPS
        level = cell // _BURST_GROUPS
        count_mean = (
            _COUNT_BASE
            * _COUNT_CELL_RATIO**rank
            * _COUNT_CELL_JITTER[cell % len(_COUNT_CELL_JITTER)]
        )
        label = f"class-{c:03d}"
        for t in range(traces_per_class):
            rng = stream_rng(seed, _STREAM_MONITORED, c, t)
            traces.append(
                _synth_trace(
                    rng,
                    label,
                    True,
                    count_mean,
                    _BURST_BASES[group],
                    _OUT_SIZE_LEVELS[group],
                    _IN_SIZE_LEVELS[level],
                )
            )

    for u in range(unmonitored_count):
        rng = stream_rng(seed, _STREAM_UNMONITORED, u)
        count = math.exp(rng.uniform(math.log(150.0), math.log(2400.0)))
        burst_base = _background_burst(rng)
        out_mu = rng.uniform(100.0, 340.0)
        in_mu = rng.uniform(450.0, 1450.0)
        traces.append(
            _synth_trace(rng, UNMONITORED_LABEL, False, count, burst_base, out_mu, in_mu)
        )

    return Dataset.from_traces(traces)
