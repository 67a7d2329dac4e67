"""Packet-trace data model, file I/O, and a labeled synthetic-trace generator.

A trace is columnar: two read-only int64 arrays of equal length,
``times_us`` (microseconds, sorted, non-negative) and ``signed_size``
(bytes, sign gives the direction). ``Trace.packets`` is a read-only view
of the same columns as ``(timestamp_us, signed_size)`` int pairs, the
ndjson wire pair, built on access; nothing on the load, split or feature
path reads it.

Two wire formats are supported:

ndjson
    One JSON object per line::

        {"label": str, "monitored": bool,
         "packets": [[timestamp_us, signed_size], ...]}

csv
    Header ``trace_id,label,monitored,timestamp_us,signed_size``, one row
    per packet, rows grouped by ``trace_id``; each id forms one contiguous
    group. The grammar is ``csv.reader``'s with the default dialect. The
    loader parses it with numpy's C reader (``np.loadtxt``) in blocks of
    rows, not the whole file at once: the C reader makes a Python str of
    every field, so a whole-file parse holds all of them at its peak, and
    a label kept from it pins the allocator memory they shared. The
    writer formats each trace's rows from one quoted prefix.

In both formats a packet's direction rides on the sign of its size:
positive is outgoing (client to server), negative is incoming. Zero sizes
are invalid, and every value must fit in int64. Loaders normalize every
trace so its first packet sits at t=0 with packets stably sorted by
timestamp, and reject unknown fields or columns by name. The label
"unmonitored" is reserved: traces with monitored=false must carry it and
monitored traces must not. Building a :class:`Trace` checks the size,
time and label rules; loaders parse and add the line to its refusal.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
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
    """A dataset file violates the wire format; names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def int64_column(values) -> np.ndarray:
    """A read-only 1-D int64 array over values, sharing memory when it can.

    Only the returned view is read-only; an array passed in keeps its own
    flags.
    """
    column = np.asarray(values, dtype=np.int64)
    if column.ndim != 1:
        raise ValueError(f"expected a 1-D column, got shape {column.shape}")
    if column.flags.writeable:
        column = column.view()
        column.flags.writeable = False
    return column


class _PairView(Sequence):
    """A trace's packets as ``(timestamp_us, signed_size)`` int pairs.

    Each pair is built when it is read; ``len`` reads the column length.
    """

    __slots__ = ("_times", "_sizes")

    def __init__(self, times_us: np.ndarray, signed_size: np.ndarray):
        self._times = times_us
        self._sizes = signed_size

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index: int) -> tuple[int, int]:
        return int(self._times[index]), int(self._sizes[index])

    def __iter__(self):
        return zip(self._times.tolist(), self._sizes.tolist())


@dataclass(frozen=True, eq=False)
class Trace:
    """A packet sequence with its class label, stored as two int64 columns.

    Packets are expected to be sorted by timestamp; constructors in this
    module (loaders, generator, :func:`normalize_trace`) guarantee it.
    Construction checks that timestamps are non-negative, sizes non-zero,
    and that the label is "unmonitored" exactly when monitored is false.
    """

    times_us: np.ndarray
    signed_size: np.ndarray
    label: str
    monitored: bool

    def __post_init__(self):
        times = int64_column(self.times_us)
        sizes = int64_column(self.signed_size)
        if len(times) != len(sizes):
            raise ValueError(
                f"{len(times)} timestamps but {len(sizes)} sizes"
            )
        if len(times) and times.min() < 0:
            raise ValueError(f"negative timestamp {times.min()}")
        if not sizes.all():
            raise ValueError("zero-size packet; sizes must be non-zero")
        misuse = _reserved_label_misuse(self.label, self.monitored)
        if misuse:
            raise ValueError(misuse)
        object.__setattr__(self, "times_us", times)
        object.__setattr__(self, "signed_size", sizes)

    @classmethod
    def _subset(cls, times_us: np.ndarray, signed_size: np.ndarray,
                parent: "Trace") -> "Trace":
        """A trace of some of parent's packets, built without the checks.

        times_us and signed_size must be read-only 1-D int64 columns of
        equal length taken from parent's: every rule parent passed then
        holds for them too.
        """
        trace = object.__new__(cls)
        object.__setattr__(trace, "times_us", times_us)
        object.__setattr__(trace, "signed_size", signed_size)
        object.__setattr__(trace, "label", parent.label)
        object.__setattr__(trace, "monitored", parent.monitored)
        return trace

    @property
    def packets(self) -> _PairView:
        """The packets as ``(timestamp_us, signed_size)`` int pairs."""
        return _PairView(self.times_us, self.signed_size)

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

    def __hash__(self) -> int:
        return hash(
            (self.label, self.monitored, self.times_us.tobytes(),
             self.signed_size.tobytes())
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

    @property
    def monitored_class_count(self) -> int:
        return len({t.label for t in self.traces if t.monitored})

    def __len__(self) -> int:
        return len(self.traces)


def _stable_sorted(times: np.ndarray, sizes: np.ndarray):
    """Both columns stably sorted by timestamp; unchanged if already sorted."""
    if (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        return times[order], sizes[order]
    return times, sizes


def normalize_trace(trace: Trace) -> Trace:
    """Stably sort packets by timestamp and shift the first one to t=0.

    Idempotent: normalizing an already normalized trace is a no-op.
    """
    if not len(trace):
        return trace
    times, sizes = _stable_sorted(trace.times_us, trace.signed_size)
    if times[0] == 0 and times is trace.times_us:
        return trace
    return Trace(times - times[0], sizes, trace.label, trace.monitored)


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
    """Write a dataset; load(save(d)) reproduces d's traces exactly."""
    _check_format(fmt)
    for i, trace in enumerate(dataset.traces):
        if not len(trace):
            raise ValueError(
                f"trace {i} (label {trace.label!r}) has no packets; "
                "empty traces are not representable on disk"
            )
    if fmt == "ndjson":
        text = _to_ndjson(dataset)
    else:
        text = _to_csv(dataset)
    atomic_write_text(path, text)


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file plus rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pathsplit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _rebased(
    times: np.ndarray, sizes: np.ndarray, label: str, monitored: bool
) -> Trace:
    """A non-empty trace read from a file, stably sorted and rebased to 0."""
    times, sizes = _stable_sorted(times, sizes)
    rel = times - times[0]  # array arithmetic: wraps without a warning
    if rel[-1] < 0:  # max - min wrapped: the span exceeds int64
        raise ValueError(
            f"timestamps of trace {label!r} span more than the int64 range"
        )
    return Trace(rel, np.ascontiguousarray(sizes), label, monitored)


def _in_int64(value: int) -> bool:
    return INT64_MIN <= value <= INT64_MAX


def _ndjson_columns(entries: list, line: int) -> tuple[np.ndarray, np.ndarray]:
    """``[[timestamp_us, signed_size], ...]`` as two int64 columns.

    The checks run as whole-list passes; only when one fails are the
    entries walked to name the first bad one.
    """
    if entries and (set(map(type, entries)) != {list} or set(map(len, entries)) != {2}):
        raise _bad_ndjson_entry(entries, line)
    flat = list(chain.from_iterable(entries))
    if flat and set(map(type, flat)) != {int}:  # bool is its own type
        raise _bad_ndjson_entry(entries, line)
    try:
        pairs = np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
    except OverflowError:
        raise _bad_ndjson_entry(entries, line) from None
    return pairs[:, 0], pairs[:, 1]


def _bad_ndjson_entry(entries: list, line: int) -> DatasetFormatError:
    for entry in entries:
        if not (
            type(entry) is list
            and len(entry) == 2
            and all(type(v) is int for v in entry)
        ):
            return DatasetFormatError(
                "packet entries must be [timestamp_us, signed_size] "
                f"integer pairs, got {entry!r}",
                line,
            )
        if not all(map(_in_int64, entry)):
            return DatasetFormatError(
                f"packet values must fit in int64, got {entry!r}", line
            )
    return DatasetFormatError("malformed packet entries", line)


def _read_ndjson(path) -> list[Trace]:
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"invalid JSON: {exc.msg}", lineno) from None
            if not isinstance(obj, dict):
                raise DatasetFormatError("record is not a JSON object", lineno)
            unknown = sorted(set(obj) - set(NDJSON_FIELDS))
            if unknown:
                raise DatasetFormatError(
                    f"unknown field(s): {', '.join(unknown)}", lineno
                )
            missing = sorted(set(NDJSON_FIELDS) - set(obj))
            if missing:
                raise DatasetFormatError(
                    f"missing field(s): {', '.join(missing)}", lineno
                )
            label, monitored, packets = obj["label"], obj["monitored"], obj["packets"]
            if not isinstance(label, str):
                raise DatasetFormatError("label must be a string", lineno)
            if not isinstance(monitored, bool):
                raise DatasetFormatError("monitored must be a boolean", lineno)
            if not isinstance(packets, list):
                raise DatasetFormatError("packets must be a list", lineno)
            times, sizes = _ndjson_columns(packets, lineno)
            if not len(times):
                raise DatasetFormatError(f"empty trace (label {label!r})", lineno)
            try:
                traces.append(_rebased(times, sizes, label, monitored))
            except ValueError as exc:
                raise DatasetFormatError(str(exc), lineno) from None
    return traces


def _parse_bool(value: str, line: int) -> bool:
    lowered = value.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise DatasetFormatError(f"monitored must be true/false, got {value!r}", line)


def _parse_int(value: str, column: str, line: int) -> int:
    try:
        number = int(value)
    except ValueError:
        raise DatasetFormatError(
            f"{column} must be an integer, got {value!r}", line
        ) from None
    if not _in_int64(number):
        raise DatasetFormatError(f"{column} must fit in int64, got {value!r}", line)
    return number


@contextlib.contextmanager
def _fields_of_any_size():
    """Let csv.reader take a field of any length, as np.loadtxt does.

    csv.field_size_limit is interpreter-wide (131072 by default), so the
    previous limit comes back on exit.
    """
    previous = csv.field_size_limit(sys.maxsize)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def _check_csv_rows(path) -> None:
    """Re-read a csv dataset row by row; raise at the first faulty row.

    The loader calls this only after parsing or building a trace failed,
    to name the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh, _fields_of_any_size():
        reader = csv.reader(fh)
        next(reader)  # the header was checked already
        seen: set[str] = set()
        current_id = None
        label, monitored, start, low, high = "", False, 2, 0, 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise DatasetFormatError(
                    f"expected {len(CSV_COLUMNS)} columns, got {len(row)}", lineno
                )
            tid, row_label, row_mon_s, ts_s, size_s = row
            row_monitored = _parse_bool(row_mon_s, lineno)
            ts = _parse_int(ts_s, "timestamp_us", lineno)
            if _parse_int(size_s, "signed_size", lineno) == 0:
                raise DatasetFormatError(f"zero-size packet in trace {tid!r}", lineno)
            misuse = _reserved_label_misuse(row_label, row_monitored)
            if misuse:
                raise DatasetFormatError(misuse, lineno)
            if tid != current_id:
                _check_span(current_id, low, high, start)
                if tid in seen:
                    raise DatasetFormatError(
                        f"trace_id {tid!r} reappears after another trace_id; "
                        "each trace's rows must be contiguous",
                        lineno,
                    )
                seen.add(tid)
                current_id, label, monitored = tid, row_label, row_monitored
                start, low, high = lineno, ts, ts
            elif row_label != label or row_monitored != monitored:
                raise DatasetFormatError(
                    f"trace {tid!r} changes label or monitored flag mid-group",
                    lineno,
                )
            low, high = min(low, ts), max(high, ts)
        _check_span(current_id, low, high, start)


def _check_span(trace: str | None, low: int, high: int, line: int) -> None:
    if high - low > INT64_MAX:  # rebasing in int64 would wrap silently
        raise DatasetFormatError(
            f"timestamps of trace {trace!r} span more than the int64 range", line
        )


# Rows parsed per np.loadtxt call. The C reader makes a Python str of
# every field, so the parse holds memory in proportion to its rows: on the
# 128k-row benchmark corpus a whole-file parse raised the load's peak RSS
# by 50 MB (405 B per packet), 512-row blocks by 4 MB (33 B). The ids and
# labels kept from a block are copies, because a str taken from a parsed
# block keeps alive the allocator arena it shares with the block's other
# fields: after a whole-file parse that left 43 MB resident, not 5 MB.
_CSV_BLOCK_ROWS = 512

# np.loadtxt warns when max_rows meets a blank line or the end of the
# input; blank lines are skipped, as csv.reader's empty rows are.
_LOADTXT_NO_DATA = (r"Input line \d+ contained no data", "loadtxt: input contained no data")
_TRUTH = {"true": True, "false": False}


def _csv_columns(fh):
    """Parse the csv rows left in fh a block at a time with numpy's C reader.

    Returns the first row index of each trace, each trace's (trace_id,
    label, monitored), and the timestamp and size columns; None if a row
    does not parse, a label or monitored flag changes inside a trace, or a
    trace_id reappears.
    """
    starts: list[int] = []
    heads: list[tuple[str, str, bool]] = []
    time_blocks, size_blocks = [], []
    previous = (None, None, False)  # trace_id, label, monitored of the last row
    n = 0
    with warnings.catch_warnings():
        for message in _LOADTXT_NO_DATA:
            warnings.filterwarnings("ignore", message, UserWarning)
        while True:
            try:
                block = np.loadtxt(
                    fh, dtype=object, delimiter=",", quotechar='"', comments=None,
                    ndmin=2, max_rows=_CSV_BLOCK_ROWS,
                )
            except ValueError:  # e.g. the column count changes inside the block
                return None
            if not len(block):
                break
            if block.shape[1] != len(CSV_COLUMNS):
                return None
            flag_text = block[:, 2].tolist()
            truth = {f: _TRUTH.get(f.strip().lower()) for f in set(flag_text)}
            if None in truth.values():
                return None
            try:
                time_blocks.append(block[:, 3].astype(np.int64))
                size_blocks.append(block[:, 4].astype(np.int64))
            except (ValueError, OverflowError):
                return None
            tids, labels = block[:, 0], block[:, 1]
            flags = np.fromiter(map(truth.__getitem__, flag_text), bool, len(block))
            new = _changes(tids, previous[0])
            inner = _changes(labels, previous[1]) | _changes(flags, previous[2])
            if (inner & ~new).any():
                return None  # label or monitored flag changes inside a trace
            for i in np.flatnonzero(new).tolist():
                starts.append(n + i)
                # copies, so no kept string pins the block's memory
                tid, label = tids[i].encode().decode(), labels[i].encode().decode()
                heads.append((tid, label, bool(flags[i])))
            previous = (tids[-1], labels[-1], flags[-1])
            n += len(block)
    if not n:
        return [], [], np.zeros(0, np.int64), np.zeros(0, np.int64)
    if len({tid for tid, _, _ in heads}) != len(heads):
        return None  # a trace_id reappears after another one
    return starts, heads, np.concatenate(time_blocks), np.concatenate(size_blocks)


def _changes(column: np.ndarray, previous) -> np.ndarray:
    """Where column[i] differs from the value before it (previous, for i=0)."""
    before = np.empty_like(column)
    before[0] = previous
    before[1:] = column[:-1]
    return column != before


def _read_csv(path) -> list[Trace]:
    with open(path, "r", encoding="utf-8", newline="") as fh, _fields_of_any_size():
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("missing header row", 1) from None
        if tuple(header) != CSV_COLUMNS:
            unknown = sorted(set(header) - set(CSV_COLUMNS))
            if unknown:
                raise DatasetFormatError(
                    f"unknown column(s): {', '.join(unknown)}", 1
                )
            raise DatasetFormatError(
                f"header must be exactly {','.join(CSV_COLUMNS)}", 1
            )
        parsed = _csv_columns(fh)
    message = "malformed csv dataset"
    if parsed is not None:
        starts, heads, times, sizes = parsed
        ends = starts[1:] + [len(times)]
        try:
            return [
                _rebased(times[s:e], sizes[s:e], label, monitored)
                for s, e, (_, label, monitored) in zip(starts, ends, heads)
            ]
        except ValueError as exc:
            message = str(exc)
    _check_csv_rows(path)  # names the faulty line
    raise DatasetFormatError(message)


def _flat_pairs(trace: Trace) -> tuple[int, ...]:
    """The trace's (timestamp_us, signed_size) pairs, flattened, as ints."""
    return tuple(np.column_stack((trace.times_us, trace.signed_size)).ravel().tolist())


def _to_ndjson(dataset: Dataset) -> str:
    # each line is json.dumps of {"label", "monitored", "packets"}; the
    # packets are formatted by one % per trace, not one call per pair
    lines = []
    for trace in dataset.traces:
        head = json.dumps({"label": trace.label, "monitored": trace.monitored},
                          ensure_ascii=False, separators=(",", ":"))
        pairs = ("[%d,%d]," * len(trace))[:-1] % _flat_pairs(trace)
        lines.append(f'{head[:-1]},"packets":[{pairs}]}}\n')
    return "".join(lines)


def _to_csv(dataset: Dataset) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    head = io.StringIO()
    writer = csv.writer(head, lineterminator="\n")
    # the writer quotes only lineterminator characters; a bare \r in an
    # unquoted label would end its row on reading
    quote_all = csv.writer(head, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for i, trace in enumerate(dataset.traces):
        mon = "true" if trace.monitored else "false"
        quoted = "\r" in trace.label
        head.seek(0)
        head.truncate()
        (quote_all if quoted else writer).writerow((i, trace.label, mon))
        # the trace's row prefix, without its lineterminator, as a % template
        prefix = head.getvalue()[:-1].replace("%", "%%")
        row = prefix + (',"%d","%d"\n' if quoted else ",%d,%d\n")
        buf.write((row * len(trace)) % _flat_pairs(trace))
    return buf.getvalue()


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
