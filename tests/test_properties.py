"""Property tests: loader round trips, the csv reader and writer against
the csv module, the ndjson writer against the json module, split against
a boolean-mask oracle, the split/merge inverse, schedule determinism and
clock-shift invariance of the features."""

import csv
import io
import json
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathsplit.scheduler import (
    BoundaryMode,
    SchedulerConfig,
    Strategy,
    schedule,
)
from pathsplit import traces as traces_module
from pathsplit.splitter import merge, split
from pathsplit.traces import (
    CSV_COLUMNS,
    INT64_MAX,
    INT64_MIN,
    UNMONITORED_LABEL,
    Dataset,
    DatasetFormatError,
    Trace,
    load_dataset,
    normalize_trace,
    save_dataset,
)
from pathsplit.wf_eval import extract_features

sizes = st.integers(INT64_MIN, INT64_MAX).filter(bool)
small_sizes = st.integers(-1500, 1500).filter(bool)
labels = st.text(min_size=0, max_size=12).filter(lambda s: s != UNMONITORED_LABEL)


@st.composite
def raw_traces(draw, size=sizes, max_time=INT64_MAX, label=labels):
    """A trace with non-negative, unsorted timestamps and any label."""
    pairs = draw(st.lists(st.tuples(st.integers(0, max_time), size),
                          min_size=1, max_size=40))
    monitored = draw(st.booleans())
    label = draw(label) if monitored else UNMONITORED_LABEL
    times, signed = zip(*pairs)
    return Trace(times, signed, label, monitored)


@st.composite
def increasing_traces(draw):
    """A normalized trace with strictly increasing timestamps."""
    times = sorted(draw(st.sets(st.integers(0, 10**9), min_size=1, max_size=200)))
    signed = draw(st.lists(small_sizes, min_size=len(times), max_size=len(times)))
    return Trace(np.asarray(times) - times[0], signed, "class-000", True)


@given(traces=st.lists(raw_traces(), max_size=4),
       fmt=st.sampled_from(["ndjson", "csv"]))
def test_load_of_save_is_normalize(tmp_path_factory, traces, fmt):
    path = tmp_path_factory.mktemp("rt") / f"d.{fmt}"
    save_dataset(Dataset.from_traces(traces), path, fmt)
    back = load_dataset(path, fmt)
    assert back.traces == tuple(normalize_trace(t) for t in traces)


# csv text that the reader must take as csv.reader does, or refuse with
# the row check's message: quoted commas, doubled quotes, \r and \n in
# labels, blank and whitespace-only lines, spellings int() and the flag
# rule accept, values just outside int64, and rows of 4 or 6 fields.
csv_texts = st.lists(st.sampled_from(['a', 'é', ',', '"', '""', '\r', '\n', ' ', '{}']),
                    max_size=4).map("".join)
csv_numbers = st.one_of(
    st.integers(-9, 9).filter(bool).map(str),
    st.sampled_from(["1_0", "+4", " 7", "\u0663", str(INT64_MAX), str(INT64_MIN)]),
)
odd_numbers = st.sampled_from(["0", "x", "", str(INT64_MAX + 1), str(INT64_MIN - 1)])
csv_flags = {True: st.sampled_from(["true", " true", "TRUE"]),
             False: st.sampled_from(["false", "False "])}


@st.composite
def csv_fields(draw, text):
    quote = draw(st.sampled_from(["always", "never"] + ["as needed"] * 4))
    if quote == "always" or quote == "as needed" and any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_bodies(draw):
    """csv rows after the header, mostly grouped into well-formed traces."""
    lines = []
    for tid in draw(st.lists(st.sampled_from("012"), min_size=1, max_size=5)):
        monitored = draw(st.booleans())
        label = draw(csv_texts) if monitored else UNMONITORED_LABEL
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(
                ["row"] * 12 + ["blank", "space", "4", "6", "stray", "flag", "odd"]
            ))
            if kind == "blank":
                lines.append("")
            elif kind == "space":
                lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
            else:
                if kind == "stray":  # any label and flag, for mid-group changes
                    row = [tid, draw(csv_texts), draw(st.sampled_from(["true", "false"]))]
                elif kind == "flag":
                    row = [tid, label, draw(st.sampled_from(["maybe", "", "yes"]))]
                else:
                    row = [tid, label, draw(csv_flags[monitored])]
                numbers = odd_numbers if kind == "odd" else csv_numbers
                row += [draw(numbers), draw(numbers)]
                if kind == "4":
                    row.pop()
                elif kind == "6":
                    row.append("1")
                lines.append(",".join(draw(csv_fields(field)) for field in row))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + end for line in lines)


def csv_reader_traces(path) -> tuple[Trace, ...]:
    """The traces of a csv file that passes the row check, read by csv.reader."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    traces = []
    for _, group in groupby(filter(None, rows), key=lambda row: row[0]):
        group = list(group)
        _, label, flag = group[0][:3]
        pairs = sorted(((int(row[3]), int(row[4])) for row in group), key=lambda p: p[0])
        traces.append(Trace([t - pairs[0][0] for t, _ in pairs], [s for _, s in pairs],
                            label, flag.strip().lower() == "true"))
    return tuple(traces)


@pytest.mark.parametrize("block_rows", [1, 2, traces_module._CSV_BLOCK_ROWS])
@given(body=csv_bodies())
def test_csv_loader_agrees_with_csv_reader(tmp_path_factory, block_rows, body):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + body, encoding="utf-8", newline="")
    try:
        traces_module._check_csv_rows(path)
    except DatasetFormatError as exc:
        expected = str(exc)
    else:
        expected = csv_reader_traces(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traces_module, "_CSV_BLOCK_ROWS", block_rows)
        if isinstance(expected, str):
            with pytest.raises(DatasetFormatError) as exc:
                load_dataset(path, "csv")
            assert str(exc.value) == expected
        else:
            assert load_dataset(path, "csv").traces == expected


writer_labels = st.lists(st.sampled_from(
    ['"', ',', '\r', '\n', '{', '}', '{0}', '\t', 'é', '', '%', '%d', '%%', '%s',
     'null}', '\\', '\u2028'])).map("".join)
edge_sizes = st.one_of(sizes, st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 1, INT64_MAX]))


@given(traces=st.lists(raw_traces(label=writer_labels), max_size=4))
def test_csv_writer_matches_csv_module(tmp_path_factory, traces):
    path = tmp_path_factory.mktemp("w") / "d.csv"
    save_dataset(Dataset.from_traces(traces), path, "csv")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(CSV_COLUMNS)
    for i, t in enumerate(traces):
        # a bare \r in an unquoted label would end its row on reading
        quoting = csv.QUOTE_ALL if "\r" in t.label else csv.QUOTE_MINIMAL
        csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(
            (i, t.label, "true" if t.monitored else "false", ts, size)
            for ts, size in zip(t.times_us.tolist(), t.signed_size.tolist())
        )
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@given(traces=st.lists(raw_traces(size=edge_sizes, label=writer_labels), max_size=4))
def test_ndjson_writer_matches_json_module(tmp_path_factory, traces):
    path = tmp_path_factory.mktemp("w") / "d.ndjson"
    save_dataset(Dataset.from_traces(traces), path, "ndjson")
    expected = "".join(
        json.dumps({"label": t.label, "monitored": t.monitored,
                    "packets": np.column_stack((t.times_us, t.signed_size)).tolist()},
                   ensure_ascii=False, separators=(",", ":")) + "\n"
        for t in traces
    )
    assert path.read_bytes() == expected.encode("utf-8")


@given(trace=raw_traces(), data=st.data())
def test_split_matches_boolean_mask_oracle(trace, data):
    n_paths = data.draw(st.integers(1, 3 * len(trace)))
    assignment = data.draw(st.lists(st.integers(0, n_paths - 1),
                                    min_size=len(trace), max_size=len(trace)))
    kind = data.draw(st.sampled_from(["list", "int32", "read-only int64"]))
    if kind == "int32":
        assignment = np.asarray(assignment, dtype=np.int32)
    elif kind == "read-only int64":
        assignment = np.asarray(assignment, dtype=np.int64)
        assignment.flags.writeable = False
    subs = split(trace, assignment, n_paths)
    assert len(subs) == n_paths
    for i, sub in enumerate(subs):
        on_path = np.asarray(assignment) == i
        assert np.array_equal(sub.times_us, trace.times_us[on_path])
        assert np.array_equal(sub.signed_size, trace.signed_size[on_path])
        assert sub.times_us.dtype == sub.signed_size.dtype == np.int64
        assert (sub.label, sub.monitored) == (trace.label, trace.monitored)
        for column in (sub.times_us, sub.signed_size):
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 1


@given(trace=increasing_traces(), data=st.data())
def test_merge_inverts_split_and_conserves(trace, data):
    n_paths = data.draw(st.integers(2, 5))
    paths = data.draw(st.lists(st.integers(0, n_paths - 1),
                               min_size=len(trace), max_size=len(trace)))
    subs = split(trace, paths, n_paths)
    assert len(subs) == n_paths
    assert merge(subs) == trace
    assert sum(len(s) for s in subs) == len(trace)
    assert sum(s.total_bytes for s in subs) == trace.total_bytes
    for i, s in enumerate(subs):
        on_path = np.asarray(paths) == i
        assert np.array_equal(s.times_us, trace.times_us[on_path])
    bad = data.draw(st.one_of(st.integers(INT64_MIN, -1), st.integers(n_paths, INT64_MAX)))
    at = data.draw(st.integers(0, len(trace) - 1))
    with pytest.raises(ValueError, match="out of range"):
        split(trace, paths[:at] + [bad] + paths[at + 1:], n_paths)


@given(
    trace=increasing_traces(),
    strategy=st.sampled_from(list(Strategy)),
    boundary=st.sampled_from(list(BoundaryMode)),
    n_paths=st.integers(2, 5),
    batch=st.integers(1, 60),
    window_us=st.integers(1, 10**8),
    seed=st.integers(0, 2**64),
    index=st.integers(0, 10**6),
)
def test_schedule_is_a_function_of_seed_and_trace_index(
    trace, strategy, boundary, n_paths, batch, window_us, seed, index
):
    config = SchedulerConfig(n_paths=n_paths, strategy=strategy, boundary=boundary,
                             batch_packets=batch, window_us=window_us, seed=seed)
    first = schedule(trace, config, trace_index=index)
    schedule(trace, config, trace_index=index + 1)  # no state carries over
    copy = Trace(trace.times_us.copy(), trace.signed_size.copy(), "other", True)
    assert np.array_equal(schedule(copy, config, trace_index=index), first)


@given(trace=raw_traces(size=small_sizes, max_time=10**12), shift=st.integers(0, 10**12))
def test_features_invariant_to_clock_shift(trace, shift):
    trace = normalize_trace(trace)
    shifted = Trace(trace.times_us + shift, trace.signed_size, trace.label,
                    trace.monitored)
    assert np.array_equal(extract_features(shifted), extract_features(trace))
