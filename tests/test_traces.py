import dataclasses
import json

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
    assert back.monitored_class_count == ds.monitored_class_count
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


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        load_dataset(tmp_path / "x.bin", "binary")


# --- synthetic generator


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
    assert ds.monitored_class_count == 20
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


def test_dataset_holds_traces_only():
    traces = [mk_trace([(0, 100)]), mk_trace([(0, 100)], label="class-001"),
              mk_trace([(0, -80)], label=UNMONITORED_LABEL, monitored=False)]
    ds = Dataset.from_traces(traces)
    assert [f.name for f in dataclasses.fields(ds)] == ["traces"]
    assert ds.monitored_class_count == 2


def test_csv_failure_the_row_check_misses_is_still_a_format_error(
    tmp_path, monkeypatch
):
    # should the row re-read ever accept what the fast path refused, the
    # loader still fails with DatasetFormatError, without a line
    monkeypatch.setattr(traces_module, "_check_csv_rows", lambda path: None)
    f = tmp_path / "d.csv"
    write_records(f, "csv", [{"label": "class-000", "monitored": True,
                              "packets": [[0, 100], [5, 0]]}])
    with pytest.raises(DatasetFormatError, match="^zero-size packet") as exc:
        load_dataset(f, "csv")
    assert exc.value.line is None
    f.write_text("trace_id,label,monitored,timestamp_us,signed_size\n0,a,maybe,0,1\n")
    with pytest.raises(DatasetFormatError, match="malformed csv") as exc:
        load_dataset(f, "csv")
    assert exc.value.line is None


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
