import csv
import json

import pytest

from pathsplit.cli import main
from pathsplit.traces import load_dataset


def run(argv):
    return main(argv)


@pytest.fixture()
def small_corpus(tmp_path):
    out = tmp_path / "data.ndjson"
    assert run(["generate", "--classes", "6", "--per-class", "8",
                "--unmonitored", "30", "--seed", "5", "-o", str(out)]) == 0
    return out


def test_generate_trace_count_matches_flags(tmp_path):
    out = tmp_path / "data.ndjson"
    code = run(["generate", "--classes", "20", "--per-class", "30",
                "--unmonitored", "200", "--seed", "7", "-o", str(out)])
    assert code == 0
    assert out.read_text().count("\n") == 800
    assert (tmp_path / "data.ndjson.manifest.json").exists()


def test_generate_is_reproducible(tmp_path):
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    argv = ["generate", "--classes", "3", "--per-class", "4", "--seed", "1"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_required_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--classes", "3", "-o", str(tmp_path / "x.ndjson")])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_split_grows_trace_count(small_corpus, tmp_path):
    out = tmp_path / "split.ndjson"
    assert run(["split", "-i", str(small_corpus), "--strategy", "wr",
                "--paths", "3", "--batch-packets", "50", "--seed", "1",
                "-o", str(out)]) == 0
    parents = small_corpus.read_text().count("\n")
    children = out.read_text().count("\n")
    assert children >= parents


def test_split_context_caps_subtraces_at_two(small_corpus, tmp_path):
    out = tmp_path / "ctx.ndjson"
    assert run(["split", "-i", str(small_corpus), "--strategy", "context",
                "--handshake", "4", "--paths", "2", "-o", str(out)]) == 0
    parents = small_corpus.read_text().count("\n")
    children = out.read_text().count("\n")
    assert children <= 2 * parents


def test_split_time_boundary_accepted(small_corpus, tmp_path):
    out = tmp_path / "t.ndjson"
    assert run(["split", "-i", str(small_corpus), "--strategy", "wr",
                "--boundary", "time", "--window-ms", "100", "-o", str(out)]) == 0
    assert load_dataset(out).traces


def test_split_time_boundary_requires_window(small_corpus, tmp_path, capsys):
    code = run(["split", "-i", str(small_corpus), "--strategy", "wr",
                "--boundary", "time", "-o", str(tmp_path / "t.ndjson")])
    assert code == 2
    assert "window-ms" in capsys.readouterr().err


def test_csv_output_format_inferred(small_corpus, tmp_path):
    out = tmp_path / "split.csv"
    assert run(["split", "-i", str(small_corpus), "--strategy", "rr",
                "-o", str(out)]) == 0
    assert out.read_text().startswith("trace_id,label,monitored,")
    assert load_dataset(out, "csv").traces


def test_evaluate_defended_f1_lower(tmp_path):
    data = tmp_path / "d.ndjson"
    assert run(["generate", "--classes", "10", "--per-class", "12",
                "--unmonitored", "60", "--seed", "5", "-o", str(data)]) == 0
    plain = tmp_path / "plain.json"
    defended = tmp_path / "wr.json"
    assert run(["evaluate", "-i", str(data), "--defense", "none",
                "--seed", "3", "-o", str(plain)]) == 0
    assert run(["evaluate", "-i", str(data), "--defense", "wr:3:50",
                "--seed", "3", "-o", str(defended)]) == 0
    f1_plain = json.loads(plain.read_text())["f1"]
    f1_def = json.loads(defended.read_text())["f1"]
    assert f1_def < f1_plain


def test_evaluate_echoes_default_r_and_config(small_corpus, tmp_path):
    out = tmp_path / "rep.json"
    assert run(["evaluate", "-i", str(small_corpus), "--defense", "none",
                "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["r"] == 20.0
    assert payload["config"]["defense"] == "none"
    assert payload["config"]["r"] == 20.0


def test_evaluate_time_defense_spec(small_corpus, tmp_path):
    out = tmp_path / "rep.json"
    assert run(["evaluate", "-i", str(small_corpus), "--defense", "wr:3:100ms",
                "-o", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["scheduler"]["boundary"] == "time"


def test_evaluate_bad_defense_spec_exits_2(small_corpus, tmp_path, capsys):
    code = run(["evaluate", "-i", str(small_corpus), "--defense", "bogus:3:50",
                "-o", str(tmp_path / "r.json")])
    assert code == 2
    assert "strategy" in capsys.readouterr().err


def test_malformed_dataset_exits_1_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text('{"label": "class-000", "monitored": true, "packets": [[0, 100]]}\nnot-json\n')
    code = run(["evaluate", "-i", str(bad), "--defense", "none",
                "-o", str(tmp_path / "r.json")])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_overhead_row_count_and_protocol_ordering(tmp_path):
    quic_csv = tmp_path / "quic.csv"
    wg_csv = tmp_path / "wg.csv"
    argv = ["--periods", "10,30,100,500", "--reps", "2", "--total-mb", "2"]
    assert run(["overhead", "--protocol", "quic", *argv, "-o", str(quic_csv)]) == 0
    assert run(["overhead", "--protocol", "wireguard", *argv, "-o", str(wg_csv)]) == 0
    quic_rows = quic_csv.read_text().strip().split("\n")[1:]
    wg_rows = wg_csv.read_text().strip().split("\n")[1:]
    assert len(quic_rows) == 4 and len(wg_rows) == 4
    for quic_row, wg_row in zip(quic_rows, wg_rows):
        assert float(wg_row.split(",")[3]) <= float(quic_row.split(",")[3])


def test_validate_cache_requires_quic(tmp_path, capsys):
    code = run(["overhead", "--protocol", "wireguard", "--periods", "10",
                "--validate-cache", "-o", str(tmp_path / "x.csv")])
    assert code == 2
    assert "quic" in capsys.readouterr().err


def test_replay_reproduces_artifacts_byte_identically(small_corpus, tmp_path):
    report = tmp_path / "rep.json"
    assert run(["evaluate", "-i", str(small_corpus), "--defense", "ur:2:25",
                "--seed", "9", "-o", str(report)]) == 0
    copy = tmp_path / "rep2.json"
    assert run(["replay", str(report) + ".manifest.json", "-o", str(copy)]) == 0
    assert copy.read_bytes() == report.read_bytes()

    data_copy = tmp_path / "data2.ndjson"
    assert run(["replay", str(small_corpus) + ".manifest.json",
                "-o", str(data_copy)]) == 0
    assert data_copy.read_bytes() == small_corpus.read_bytes()


def test_replay_missing_manifest_exits_1(tmp_path):
    assert run(["replay", str(tmp_path / "nope.manifest.json")]) == 1


def test_manifest_contents(small_corpus):
    with open(str(small_corpus) + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["subcommand"] == "generate"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == [str(small_corpus)]
    assert "tool_version" in manifest and "duration_s" in manifest


@pytest.mark.parametrize("argv", [
    ["evaluate", "--defense", "wr:3:50"],
    ["split", "--strategy", "wr", "--boundary", "time", "--window-ms", "100"],
])
def test_timestamp_outside_int64_exits_1_with_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(
        '{"label": "class-000", "monitored": true, "packets": [[0, 100]]}\n'
        f'{{"label": "class-001", "monitored": true, "packets": [[0, 100], [{2**70}, -9]]}}\n'
    )
    code = run([argv[0], "-i", str(bad), *argv[1:], "-o", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2") and "int64" in err


def test_csv_trace_id_reappearing_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "trace_id,label,monitored,timestamp_us,signed_size\n"
        "0,class-000,true,0,100\n"
        "1,class-001,true,0,100\n"
        "0,class-000,true,5,-100\n"
    )
    code = run(["split", "-i", str(bad), "--strategy", "rr",
                "-o", str(tmp_path / "s.csv")])
    assert code == 1
    assert "line 4" in capsys.readouterr().err


def test_csv_field_beyond_csv_module_limit_is_refused_by_line(tmp_path, capsys):
    # the fast path takes a 200,000-character label; so must the slow
    # path that names the line, though csv.reader's default limit is 131072
    label = "x" * 200_000
    bad = tmp_path / "long.csv"
    bad.write_text(
        "trace_id,label,monitored,timestamp_us,signed_size\n"
        f"0,{label},true,0,100\n"
        f"0,{label},true,5,0\n"
    )
    limit = csv.field_size_limit()
    code = run(["split", "-i", str(bad), "--input-format", "csv",
                "--strategy", "rr", "-o", str(tmp_path / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 3: zero-size packet")
    assert csv.field_size_limit() == limit


def _drop_seed(manifest):
    del manifest["config"]["seed"]
    return manifest


def _drop_config(manifest):
    del manifest["config"]
    return manifest


def _old_version(manifest):
    manifest["tool_version"] = "0.0.9"
    return manifest


def _null_classes(manifest):
    manifest["config"]["classes"] = None
    return manifest


def _string_path_count(manifest):
    # an evaluate of the generated corpus whose path count is a string
    manifest["subcommand"] = "evaluate"
    manifest["config"] = {
        "input": manifest["config"]["output"], "input_format": "ndjson",
        "scheduler": {"n_paths": "3", "strategy": "wr", "batch_packets": 50},
        "seed": 0, "k": 3, "threshold_quantile": 0.95, "r": 20.0,
        "output": "unused.json",
    }
    return manifest


def _negative_seed(manifest):
    # stream_rng would fold -1 onto 2**63 - 1
    manifest["config"]["seed"] = -1
    return manifest


def _overhead_seed_2_48(manifest):
    # netsim._rep_seed would fold 2**48 onto seed 0
    manifest["subcommand"] = "overhead"
    manifest["config"] = {
        "protocol": "quic", "periods_ms": [10], "reps": 1, "paths": 2,
        "rtt_ms": 50, "bandwidth_mbps": 10.0, "loss": 0.0, "total_mb": 0.1,
        "validate_cache": False, "seed": 2**48, "output": "unused.csv",
    }
    return manifest


def _scheduler_seed_2_63(manifest):
    manifest = _string_path_count(manifest)
    manifest["config"]["scheduler"] = {"n_paths": 3, "strategy": "wr", "seed": 2**63}
    return manifest


def _scheduler_batch_2_63(manifest):
    # schedule would overflow dividing the int64 packet index by it
    manifest = _string_path_count(manifest)
    manifest["config"]["scheduler"] = {"n_paths": 3, "strategy": "wr",
                                       "batch_packets": 2**63}
    return manifest


def _split_window_2_63(manifest):
    manifest["subcommand"] = "split"
    manifest["config"] = {
        "input": manifest["config"]["output"], "input_format": "ndjson",
        "scheduler": {"n_paths": 2, "strategy": "rr", "boundary": "time",
                      "window_us": 2**63},
        "output": "unused.ndjson", "format": "ndjson",
    }
    return manifest


def _split_paths_over_cap(manifest):
    manifest = _split_window_2_63(manifest)
    manifest["config"]["scheduler"] = {"n_paths": 1025, "strategy": "rr"}
    return manifest


def _overhead_paths_over_cap(manifest):
    manifest = _overhead_seed_2_48(manifest)
    manifest["config"].update(seed=0, paths=1025)
    return manifest


@pytest.mark.parametrize("mutate, message", [
    (lambda manifest: [manifest], "not a JSON object"),
    (_drop_config, "config"),
    (_drop_seed, "lacks seed"),
    (_old_version, "0.0.9"),
    (_null_classes, "generate has a value of the wrong type"),
    (_string_path_count, "evaluate has a value of the wrong type"),
    (_negative_seed, "seed must be an integer in [0, 9223372036854775808), got -1"),
    (_overhead_seed_2_48, "seed must be an integer in [0, 281474976710656)"),
    (_scheduler_seed_2_63, "scheduler.seed must be an integer in [0, 9223372036854775808)"),
    (_scheduler_batch_2_63, "batch_packets must be at most 2**63 - 1"),
    (_split_window_2_63, "window_us must be at most 2**63 - 1"),
    (_split_paths_over_cap, "n_paths must be at most 1024, got 1025"),
    (_overhead_paths_over_cap, "paths must be in [1, 1024], got 1025"),
])
def test_replay_rejects_bad_manifest(small_corpus, tmp_path, capsys, mutate, message):
    path = str(small_corpus) + ".manifest.json"
    with open(path) as fh:
        manifest = json.load(fh)
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(mutate(manifest)))
    capsys.readouterr()
    again = tmp_path / "again.ndjson"
    assert run(["replay", str(bad), "-o", str(again)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not again.exists()
    assert not (tmp_path / "again.ndjson.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--defense", "none", "--k", "0"],
    ["evaluate", "--defense", "none", "--r", "0"],
    ["evaluate", "--defense", "none", "--threshold-quantile", "0"],
    ["evaluate", "--defense", "none", "--r", "inf"],
    ["evaluate", "--defense", "wr:3:50", "--alpha", "inf"],
    ["evaluate", "--defense", "none", "--seed", str(2**63)],
    ["overhead", "--periods", "5,10,20,50,0"],
    ["overhead", "--periods", "10", "--reps", "0"],
    ["overhead", "--periods", "10", "--paths", "0"],
    ["overhead", "--periods", "10", "--paths", "100000"],
    ["overhead", "--periods", "10", "--loss", "1.5"],
    ["overhead", "--periods", "10", "--rtt-ms", "0"],
    ["overhead", "--periods", "10", "--bandwidth-mbps", "0"],
    ["overhead", "--periods", "10", "--bandwidth-mbps", "inf"],
    ["overhead", "--periods", "10", "--total-mb", "0.001"],
    ["overhead", "--periods", "10", "--seed", str(2**48)],
    ["split", "--strategy", "rr", "--boundary", "time", "--window-ms", "0"],
    ["split", "--strategy", "wr", "--alpha", "nan"],
    ["split", "--alpha", "nan", "--strategy", "rr"],
    ["split", "--strategy", "wr", "--batch-packets", "99999999999999999999"],
    ["split", "--strategy", "rr", "--paths", "1025"],
    ["evaluate", "--defense", "rr:1025:50"],
    ["split", "--strategy", "wr", "--boundary", "time", "--window-ms", "99999999999999999"],
    ["evaluate", "--defense", "wr:3:99999999999999999999"],
    ["generate", "--per-class", "8", "--classes", "0"],
    ["generate", "--classes", "2", "--per-class", "0"],
    ["generate", "--classes", "2", "--per-class", "8", "--unmonitored", "-1"],
    ["generate", "--classes", "2", "--per-class", "8", "--seed", "-1"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_bad_flag_value_exits_2_before_writing(small_corpus, tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] in ("evaluate", "split"):
        argv = [*argv, "-i", str(small_corpus)]
    elif argv[0] == "overhead":
        argv = [*argv, "--protocol", "quic"]
    capsys.readouterr()
    assert run([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_k_above_exemplar_count_exits_1(small_corpus, tmp_path, capsys):
    # a value only the data can refuse stays a runtime error
    code = run(["evaluate", "-i", str(small_corpus), "--defense", "none",
                "--k", "1000", "-o", str(tmp_path / "r.json")])
    assert code == 1
    assert "exemplars" in capsys.readouterr().err
