import dataclasses
import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from pathsplit import traces as traces_module
from pathsplit.traces import (
    Dataset,
    DatasetFormatError,
    Trace,
    UNMONITORED_LABEL,
    generate_synthetic,
    load_dataset,
    normalize_trace,
    save_dataset,
)


def mk_trace(pairs, label="class-000", monitored=True):
    return Trace([ts for ts, _ in pairs], [s for _, s in pairs], label, monitored)


def write_ndjson(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def write_records(path, fmt, records):
    """Write ndjson-style records in fmt, one csv trace_id per record."""
    if fmt == "ndjson":
        return write_ndjson(path, records)
    rows = ["trace_id,label,monitored,timestamp_us,signed_size\n"]
    for i, r in enumerate(records):
        flag = "true" if r["monitored"] else "false"
        rows += [f"{i},{r['label']},{flag},{ts},{size}\n" for ts, size in r["packets"]]
    path.write_text("".join(rows), encoding="utf-8")


# --- loading and normalization


def test_load_normalizes_to_first_timestamp(tmp_path):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [{"label": "class-000", "monitored": True,
                      "packets": [[1000, 100], [1500, -200], [2000, 100]]}])
    ds = load_dataset(f, "ndjson")
    assert ds.traces[0].times_us.tolist() == [0, 500, 1000]


def test_load_sorts_out_of_order_packets_stably(tmp_path):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [{"label": "class-000", "monitored": True,
                      "packets": [[900, 100], [300, -200], [900, -300], [500, 50]]}])
    ds = load_dataset(f, "ndjson")
    got = list(zip(ds.traces[0].times_us.tolist(), ds.traces[0].signed_size.tolist()))
    # stable: the two t=900 packets keep their file order
    assert got == [(0, -200), (200, 50), (600, 100), (600, -300)]


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_load_rejects_zero_size_packet_with_line(tmp_path, fmt):
    f = tmp_path / f"d.{fmt}"
    line = 2 if fmt == "ndjson" else 4
    write_records(f, fmt, [
        {"label": "class-000", "monitored": True, "packets": [[0, 100]]},
        {"label": "class-001", "monitored": True, "packets": [[0, 100], [5, 0]]},
    ])
    with pytest.raises(DatasetFormatError, match=f"^line {line}: zero-size packet"):
        load_dataset(f, fmt)


def test_load_rejects_empty_trace_with_line(tmp_path):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [{"label": "class-000", "monitored": True, "packets": []}])
    with pytest.raises(DatasetFormatError, match="line 1.*empty trace"):
        load_dataset(f, "ndjson")


def test_load_rejects_unknown_field_by_name(tmp_path):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [{"label": "class-000", "monitored": True,
                      "packets": [[0, 100]], "bogus": 1}])
    with pytest.raises(DatasetFormatError, match="unknown field.*bogus"):
        load_dataset(f, "ndjson")


def test_load_rejects_invalid_json_with_line(tmp_path):
    f = tmp_path / "d.ndjson"
    f.write_text('{"label": "class-000", "monitored": true, "packets": [[0, 100]]}\n{oops\n')
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_dataset(f, "ndjson")


GOOD_RECORD = {"label": "class-000", "monitored": True, "packets": [[0, 100]]}


@pytest.mark.parametrize("record, message", [
    ([1], "record is not a JSON object"),
    ({"label": "class-000", "monitored": True}, "missing field(s): packets"),
    ({**GOOD_RECORD, "label": 7}, "label must be a string"),
    ({**GOOD_RECORD, "monitored": "yes"}, "monitored must be a boolean"),
    ({**GOOD_RECORD, "packets": {"0": 100}}, "packets must be a list"),
    ({**GOOD_RECORD, "packets": [[1]]},
     "packet entries must be [timestamp_us, signed_size] integer pairs, got [1]"),
    ({**GOOD_RECORD, "packets": [[0, True]]},
     "packet entries must be [timestamp_us, signed_size] integer pairs, got [0, True]"),
    ({**GOOD_RECORD, "packets": [[0, 100], [0, 1.5]]},
     "packet entries must be [timestamp_us, signed_size] integer pairs, got [0, 1.5]"),
], ids=["not-an-object", "missing-field", "label", "monitored", "packets",
        "short-entry", "bool-size", "float-size"])
def test_ndjson_refuses_a_malformed_record_by_line(tmp_path, record, message):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [GOOD_RECORD, record])
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(f, "ndjson")
    assert str(exc.value) == f"line 2: {message}"
    assert exc.value.line == 2


def test_ndjson_skips_blank_lines_which_keep_their_numbers(tmp_path):
    f = tmp_path / "d.ndjson"
    good = json.dumps(GOOD_RECORD)
    f.write_text(f"{good}\n\n  \t\n{good}\n")
    assert len(load_dataset(f, "ndjson")) == 2
    f.write_text(f"{good}\n\n  \t\n[1]\n")
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(f, "ndjson")
    assert str(exc.value) == "line 4: record is not a JSON object"


def test_csv_refuses_an_empty_file(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("")
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(f, "csv")
    assert str(exc.value) == "line 1: missing header row"
    assert exc.value.line == 1


def test_csv_rejects_unknown_column_by_name(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("trace_id,label,monitored,timestamp_us,signed_size,extra\n")
    with pytest.raises(DatasetFormatError, match="unknown column.*extra"):
        load_dataset(f, "csv")


def test_csv_row_errors_carry_line_numbers(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "trace_id,label,monitored,timestamp_us,signed_size\n"
        "0,class-000,true,0,100\n"
        "0,class-000,true,abc,100\n"
    )
    with pytest.raises(DatasetFormatError, match="line 3.*timestamp_us"):
        load_dataset(f, "csv")


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_reserved_label_contract(tmp_path, fmt):
    f = tmp_path / f"d.{fmt}"
    line = 1 if fmt == "ndjson" else 2
    write_records(f, fmt, [{"label": "example.com", "monitored": False,
                            "packets": [[0, 100]]}])
    with pytest.raises(DatasetFormatError, match=UNMONITORED_LABEL) as exc:
        load_dataset(f, fmt)
    assert str(exc.value) == (
        f"line {line}: unmonitored trace labeled 'example.com'; "
        f"expected {UNMONITORED_LABEL!r}"
    )
    write_records(f, fmt, [{"label": UNMONITORED_LABEL, "monitored": True,
                            "packets": [[0, 100]]}])
    with pytest.raises(DatasetFormatError, match="reserved") as exc:
        load_dataset(f, fmt)
    assert str(exc.value) == (
        f"line {line}: monitored trace uses the reserved label {UNMONITORED_LABEL!r}"
    )


def test_normalize_trace_idempotent():
    t = mk_trace([(700, 100), (200, -300), (900, 50)])
    once = normalize_trace(t)
    assert normalize_trace(once) == once
    assert once.times_us[0] == 0


# --- saving and round trips


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_round_trip_empty_dataset(tmp_path, fmt):
    f = tmp_path / f"empty.{fmt}"
    save_dataset(Dataset.from_traces([]), f, fmt)
    assert f.exists()
    ds = load_dataset(f, fmt)
    assert len(ds) == 0


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_round_trip_generated_dataset(tmp_path, fmt):
    ds = generate_synthetic(4, 5, 10, seed=3)
    f = tmp_path / f"d.{fmt}"
    save_dataset(ds, f, fmt)
    back = load_dataset(f, fmt)
    assert back.traces == ds.traces
    assert (len({t.label for t in back.traces if t.monitored})
            == len({t.label for t in ds.traces if t.monitored}))
    # a second save is byte-identical
    first = f.read_bytes()
    save_dataset(back, f, fmt)
    assert f.read_bytes() == first


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_round_trip_unicode_labels(tmp_path, fmt):
    traces = [
        mk_trace([(0, 100), (10, -200)], label="пример.example"),
        mk_trace([(0, 50)], label="例子.test"),
        mk_trace([(0, -80)], label=UNMONITORED_LABEL, monitored=False),
    ]
    f = tmp_path / f"u.{fmt}"
    save_dataset(Dataset.from_traces(traces), f, fmt)
    back = load_dataset(f, fmt)
    assert [t.label for t in back.traces] == ["пример.example", "例子.test",
                                              UNMONITORED_LABEL]


def test_save_rejects_empty_trace(tmp_path):
    ds = Dataset.from_traces([Trace([], [], "class-000", True)])
    with pytest.raises(ValueError, match="no packets"):
        save_dataset(ds, tmp_path / "d.ndjson", "ndjson")


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_save_memory_stays_near_the_largest_trace(tmp_path, fmt):
    # the 127,857-packet corpus is 4.1 MB of csv text, 1.8 MB of ndjson;
    # trace by trace, a save peaks at about 0.5 MB (csv) and 0.3 MB (ndjson)
    ds = generate_synthetic(9, 60, 40, seed=7)
    f = tmp_path / f"d.{fmt}"
    gc.collect()
    tracemalloc.start()
    try:
        save_dataset(ds, f, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_dataset(f, fmt).traces == ds.traces
    assert peak < 1_000_000


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_save_that_fails_midway_leaves_the_target_as_it_was(tmp_path, monkeypatch, fmt):
    f = tmp_path / f"d.{fmt}"
    f.write_bytes(b"what was there\n")
    name = "_ndjson_line" if fmt == "ndjson" else "_csv_rows"
    format_trace = getattr(traces_module, name)
    formatted = []

    def fail_at_the_third_trace(*args):
        if len(formatted) == 2:
            raise RuntimeError("disk gone")
        formatted.append(format_trace(*args))
        return formatted[-1]

    monkeypatch.setattr(traces_module, name, fail_at_the_third_trace)
    with pytest.raises(RuntimeError, match="disk gone"):
        save_dataset(generate_synthetic(2, 3, 1, seed=1), f, fmt)
    assert len(formatted) == 2
    assert f.read_bytes() == b"what was there\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f.name]


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_dataset(tmp_path / "x.bin", "binary")


# --- synthetic generator


@pytest.mark.parametrize("args, message", [
    ((0, 1), "classes must be >= 1"),
    ((1, 0), "traces_per_class must be >= 1"),
    ((1, 1, -1), "unmonitored_count must be >= 0"),
], ids=["classes", "per-class", "unmonitored"])
def test_generator_refuses_bad_counts(args, message):
    with pytest.raises(ValueError) as exc:
        generate_synthetic(*args)
    assert str(exc.value) == message


def test_generator_is_deterministic():
    a = generate_synthetic(1, 2, 0, seed=9)
    b = generate_synthetic(1, 2, 0, seed=9)
    assert a.traces == b.traces
    c = generate_synthetic(1, 2, 0, seed=10)
    assert c.traces != a.traces


def test_generator_counts_and_labels():
    ds = generate_synthetic(20, 30, 200, seed=7)
    monitored = [t for t in ds.traces if t.monitored]
    unmonitored = [t for t in ds.traces if not t.monitored]
    assert len(monitored) == 600
    assert len(unmonitored) == 200
    assert len({t.label for t in monitored}) == 20
    assert len({t.label for t in ds.traces if t.monitored}) == 20
    assert all(t.label == UNMONITORED_LABEL for t in unmonitored)


def test_generator_traces_are_normalized_and_sorted():
    ds = generate_synthetic(3, 3, 5, seed=1)
    for t in ds.traces:
        times = t.times_us.tolist()
        assert times[0] == 0
        assert times == sorted(times)
        assert all(abs(s) >= 1 for s in t.signed_size.tolist())


def test_generator_rate_near_500_pps():
    ds = generate_synthetic(10, 10, 30, seed=2)
    rates = [
        len(t) / (t.times_us[-1] / 1e6)
        for t in ds.traces
    ]
    assert 350 < sum(rates) / len(rates) < 700


def test_trace_columns_are_validated_and_read_only():
    t = Trace([0, 5], [100, -200], "class-000", True)
    assert t.times_us.dtype == t.signed_size.dtype == "int64"
    with pytest.raises(ValueError):
        t.times_us[0] = 1
    with pytest.raises(ValueError, match="negative"):
        Trace([-1, 5], [100, -200], "class-000", True)
    with pytest.raises(ValueError, match="non-zero"):
        Trace([0, 5], [100, 0], "class-000", True)
    with pytest.raises(ValueError, match="sizes"):
        Trace([0, 5], [100], "class-000", True)
    assert Trace([0, 1], [2**62, -(2**62)], "class-000", True).total_bytes == 2**63


def test_int64_column_refuses_a_2d_array():
    with pytest.raises(ValueError) as exc:
        traces_module.int64_column(np.zeros((2, 2), np.int64))
    assert str(exc.value) == "expected a 1-D column, got shape (2, 2)"


def test_packets_view_holds_the_ndjson_wire_pairs(tmp_path):
    ds = generate_synthetic(2, 2, 1, seed=4)
    for t in (*ds.traces, Trace([], [], "class-000", True)):
        assert len(t.packets) == len(t)
        assert bool(t.packets) == (len(t) > 0)
    last = ds.traces[0].packets[-1]
    assert last == (int(ds.traces[0].times_us[-1]), int(ds.traces[0].signed_size[-1]))
    assert [type(v) for v in last] == [int, int]
    f = tmp_path / "d.ndjson"
    save_dataset(ds, f, "ndjson")
    records = [json.loads(line) for line in f.read_text(encoding="utf-8").splitlines()]
    assert [list(map(list, t.packets)) for t in ds.traces] == [
        r["packets"] for r in records
    ]


def test_trace_checks_reserved_label():
    with pytest.raises(ValueError, match="unmonitored trace labeled 'example.com'"):
        Trace([0], [100], "example.com", False)
    with pytest.raises(ValueError, match="monitored trace uses the reserved label"):
        Trace([0], [100], UNMONITORED_LABEL, True)
    with pytest.raises(ValueError, match="reserved"):
        Trace([], [], UNMONITORED_LABEL, True)  # empty traces too


def test_trace_checks_label_and_monitored_types():
    with pytest.raises(TypeError, match="monitored must be a bool, got 'no'"):
        Trace([0, 1], [100, -100], "a", monitored="no")
    with pytest.raises(TypeError, match="label must be a string, got 5"):
        Trace([0, 1], [100, -100], 5, True)


def test_dataset_holds_traces_only():
    traces = [mk_trace([(0, 100)]), mk_trace([(0, 100)], label="class-001"),
              mk_trace([(0, -80)], label=UNMONITORED_LABEL, monitored=False)]
    ds = Dataset.from_traces(traces)
    assert [f.name for f in dataclasses.fields(ds)] == ["traces"]
    assert len({t.label for t in ds.traces if t.monitored}) == 2


def test_csv_rejects_trace_id_that_reappears(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "trace_id,label,monitored,timestamp_us,signed_size\n"
        "0,class-000,true,0,100\n"
        "1,class-001,true,0,100\n"
        "\n"
        "0,class-000,true,5,-100\n"
    )
    with pytest.raises(DatasetFormatError, match="line 5.*'0' reappears"):
        load_dataset(f, "csv")


@pytest.mark.parametrize("spelling", ["1.5", "1e3", str(2**63)])
def test_csv_refuses_float_spellings_with_warnings_ignored(tmp_path, spelling):
    # numpy may parse an integer field as a float with only a warning;
    # the loader must refuse it whatever the warning filters say
    f = tmp_path / "d.csv"
    f.write_text("trace_id,label,monitored,timestamp_us,signed_size\n"
                 "0,class-000,true,0,100\n"
                 f"0,class-000,true,5,{spelling}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DatasetFormatError, match="line 3.*signed_size") as exc:
            load_dataset(f, "csv")
    assert exc.value.line == 3


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
def test_loaders_reject_values_outside_int64_with_line(tmp_path, value):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [
        {"label": "class-000", "monitored": True, "packets": [[0, 100]]},
        {"label": "class-001", "monitored": True, "packets": [[0, 100], [value, -5]]},
    ])
    with pytest.raises(DatasetFormatError, match="line 2.*int64"):
        load_dataset(f, "ndjson")
    f = tmp_path / "d.csv"
    f.write_text(
        "trace_id,label,monitored,timestamp_us,signed_size\n"
        "0,class-000,true,0,100\n"
        f"0,class-000,true,5,{value}\n"
    )
    with pytest.raises(DatasetFormatError, match="line 3.*signed_size.*int64"):
        load_dataset(f, "csv")


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_loaders_reject_timestamp_span_beyond_int64(tmp_path, fmt):
    traces = [mk_trace([(0, 100)]), mk_trace([(0, 100), (2**62, -5)])]
    f = tmp_path / f"d.{fmt}"
    save_dataset(Dataset.from_traces(traces), f, fmt)
    text = f.read_text().replace(str(2**62), str(2**63 - 1))
    text = text.replace("[[0,100],[", f"[[{-2**62},100],[", 2)
    text = text.replace("1,class-000,true,0,", f"1,class-000,true,{-2**62},")
    f.write_text(text)
    line = 2 if fmt == "ndjson" else 3
    with pytest.raises(DatasetFormatError, match=f"line {line}.*span.*int64"):
        load_dataset(f, fmt)


# a trace that breaks one rule, and the text of its refusal
RULE_BREAKS = {
    "zero size": ({"label": "class-002", "monitored": True,
                   "packets": [[0, 100], [5, 0]]}, "zero-size packet"),
    "span": ({"label": "class-002", "monitored": True,
              "packets": [[-(2**62), 100], [2**63 - 1, -5]]},
             "span more than the int64 range"),
    "label": ({"label": UNMONITORED_LABEL, "monitored": True,
               "packets": [[0, 100], [5, -5]]}, "reserved label"),
}


def good_record(i):
    return {"label": f"class-00{i}", "monitored": True, "packets": [[0, 100], [5, -5]]}


@pytest.mark.parametrize("rule", sorted(RULE_BREAKS))
@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_loaders_name_the_line_of_the_one_trace_that_breaks_a_rule(tmp_path, fmt, rule):
    record, text = RULE_BREAKS[rule]
    f = tmp_path / f"d.{fmt}"
    write_records(f, fmt, [good_record(0), good_record(1), record])
    # csv names the row: a zero size's own, a span's or a label's first
    line = 3 if fmt == "ndjson" else 7 if rule == "zero size" else 6
    with pytest.raises(DatasetFormatError, match=f"^line {line}: .*{text}"):
        load_dataset(f, fmt)


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_loaders_refuse_the_first_broken_trace_by_its_first_rule(tmp_path, fmt):
    # trace 2 has a zero size and misuses the reserved label; trace 3's
    # timestamps span beyond int64
    f = tmp_path / f"d.{fmt}"
    write_records(f, fmt, [
        good_record(0),
        {"label": UNMONITORED_LABEL, "monitored": True, "packets": [[0, 0], [5, 100]]},
        RULE_BREAKS["span"][0],
    ])
    line = 2 if fmt == "ndjson" else 4
    with pytest.raises(DatasetFormatError, match=f"^line {line}: zero-size packet"):
        load_dataset(f, fmt)


def test_ndjson_refuses_a_broken_trace_before_a_later_malformed_line(tmp_path):
    f = tmp_path / "d.ndjson"
    write_ndjson(f, [good_record(0), RULE_BREAKS["zero size"][0]])
    with f.open("a", encoding="utf-8") as fh:
        fh.write("{oops\n")
    with pytest.raises(DatasetFormatError, match="^line 2: zero-size packet"):
        load_dataset(f, "ndjson")


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_loaders_name_the_earlier_of_two_faults(tmp_path, fmt):
    f = tmp_path / f"d.{fmt}"
    span = "timestamps of trace 'class-002' span"
    line = 2 if fmt == "ndjson" else 4
    # the span sits on trace 1's first row, before its zero size
    write_records(f, fmt, [good_record(0), {"label": "class-002", "monitored": True,
                                            "packets": [[-(2**62), 100], [2**63 - 1, 0]]}])
    with pytest.raises(DatasetFormatError, match=f"^line {line}: {span}"):
        load_dataset(f, fmt)
    # a malformed record after a broken trace, in csv one that continues
    # the trace: the trace is named
    write_records(f, fmt, [good_record(0), RULE_BREAKS["span"][0]])
    with f.open("a", encoding="utf-8") as fh:
        fh.write("{oops\n" if fmt == "ndjson" else "1,class-002,true,x,1\n")
    with pytest.raises(DatasetFormatError, match=f"^line {line}: {span}"):
        load_dataset(f, fmt)


def test_csv_line_is_where_the_row_begins(tmp_path):
    # the writer quotes a label holding a newline, so each of trace 0's
    # rows spans two lines; rows were once counted as lines
    f = tmp_path / "d.csv"
    traces = [mk_trace([(0, 1), (5, 2)], label="a\nb"), mk_trace([(0, 3)], label="c")]
    save_dataset(Dataset.from_traces(traces), f, "csv")
    text = f.read_text(encoding="utf-8")
    assert text.endswith("1,c,true,0,3\n")
    f.write_text(text[:-2] + "0\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="^line 6: zero-size packet") as exc:
        load_dataset(f, "csv")
    assert exc.value.line == 6


def test_builder_takes_a_trace_s_rules_in_order():
    # on one row: span, then zero size, then the reserved label; a zero
    # size past the first row comes after the label; trace 3 has a zero size
    def build(middle_times, middle_sizes):
        times = np.array([0, 5, *middle_times, 0, 1], dtype=np.int64)
        sizes = np.array([1, 1, *middle_sizes, 0, 1], dtype=np.int64)
        heads = [("class-000", True), (UNMONITORED_LABEL, True), ("class-002", True)]
        return traces_module._traces_from_columns([0, 2, 4], heads, times, sizes)

    for middle, text, row in [
        (([-(2**62), 2**63 - 1], [0, 1]), "timestamps of trace 'unmonitored' span", 2),
        (([0, 1], [0, 1]), "zero-size packet; sizes must be non-zero", 2),
        (([0, 1], [1, 0]), "monitored trace uses the reserved label", 2),
        (([0, 1], [1, 1]), "monitored trace uses the reserved label", 2),
    ]:
        with pytest.raises(traces_module._RowError, match=f"^{text}") as exc:
            build(*middle)
        assert exc.value.row == row


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_loaders_sort_only_the_traces_out_of_order(tmp_path, fmt):
    # timestamps drop where the second and third traces begin; only the
    # second is out of order
    records = [
        {"label": "class-000", "monitored": True, "packets": [[100, 1], [200, 2]]},
        {"label": "class-001", "monitored": True,
         "packets": [[50, 3], [10, 4], [50, 5], [30, 6]]},
        {"label": UNMONITORED_LABEL, "monitored": False, "packets": [[5, 7], [6, -8]]},
    ]
    f = tmp_path / f"d.{fmt}"
    write_records(f, fmt, records)
    loaded = load_dataset(f, fmt).traces
    assert loaded == tuple(
        normalize_trace(mk_trace(r["packets"], r["label"], r["monitored"]))
        for r in records
    )
    for t in loaded:
        assert not t.times_us.flags.writeable and not t.signed_size.flags.writeable


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_csv_checks_hold_across_parse_blocks(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(traces_module, "_CSV_BLOCK_ROWS", block_rows)
    ds = generate_synthetic(2, 2, 2, seed=1)
    f = tmp_path / "d.csv"
    save_dataset(ds, f, "csv")
    assert load_dataset(f, "csv").traces == ds.traces
    header = "trace_id,label,monitored,timestamp_us,signed_size\n"
    f.write_text(header + "0,class-000,true,0,1\n0,class-000,true,1,1\n"
                 "1,class-001,true,0,1\n0,class-000,true,2,1\n")
    with pytest.raises(DatasetFormatError, match="line 5.*reappears"):
        load_dataset(f, "csv")
    f.write_text(header + "0,class-000,true,0,1\n0,class-000,true,1,1\n"
                 "0,class-001,true,2,1\n")
    with pytest.raises(DatasetFormatError, match="line 4.*mid-group"):
        load_dataset(f, "csv")
    f.write_text(header + "0,class-000,true,0,1\n0,class-000,TRUE,1,1\n"
                 "1,class-001,true,0,1\n")
    assert [len(t) for t in load_dataset(f, "csv").traces] == [2, 1]


def test_csv_load_memory_stays_near_the_loaded_columns(tmp_path):
    # the loaded int64 columns take 16 B per packet; 512-row parse blocks
    # peak at about 35 B, a whole-file parse at about 355 B
    assert csv_load_peak_per_packet(tmp_path, csv_reader_pass=False) < 64


def test_csv_reader_pass_memory_stays_near_the_loaded_columns(tmp_path):
    # a size spelled with an underscore in the first row, which only int()
    # takes, sends the whole file through csv.reader and int(); their
    # blocks peak at about 37 B per packet, Python int lists at about 88 B
    assert csv_load_peak_per_packet(tmp_path, csv_reader_pass=True) < 64


def csv_load_peak_per_packet(tmp_path, csv_reader_pass):
    """Peak traced bytes per packet of loading the 127,857-packet corpus."""
    ds = generate_synthetic(9, 60, 40, seed=7)
    packets = sum(map(len, ds.traces))
    f = tmp_path / "d.csv"
    save_dataset(ds, f, "csv")
    if csv_reader_pass:
        header, first, rest = f.read_text(encoding="utf-8").split("\n", 2)
        head, size = first.rsplit(",", 1)
        digits = size.lstrip("-")
        f.write_text(f"{header}\n{head},{size[:-len(digits)]}0_{digits}\n{rest}",
                     encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_dataset(f, "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.traces == ds.traces
    assert packets == 127_857
    return peak / packets
