import csv
import gc
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import pathsplit
from pathsplit import __version__, cli, netsim
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


def test_overhead_takes_every_seed_below_2_63(tmp_path):
    # overhead once refused seeds from 2**48, which its sweep folded
    argv = ["overhead", "--protocol", "wireguard", "--loss", "0.05", "--periods", "10",
            "--reps", "2", "--total-mb", "1"]
    rows = []
    for seed in (0, 2**48, 2**63 - 1):
        out = tmp_path / f"{seed}.csv"
        assert run([*argv, "--seed", str(seed), "-o", str(out)]) == 0
        copy = tmp_path / f"{seed}-replay.csv"
        assert run(["replay", f"{out}.manifest.json", "-o", str(copy)]) == 0
        assert copy.read_bytes() == out.read_bytes()
        rows.append(out.read_text())
    assert len(set(rows)) == 3


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


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_and_manifests_take_the_umask(tmp_path, umask, mode):
    # the mode open() gives a new file, not the temp file's 0o600
    old = os.umask(umask)
    try:
        for name in ("data.ndjson", "data.csv"):
            assert run(["generate", "--classes", "2", "--per-class", "4",
                        "--unmonitored", "4", "-o", str(tmp_path / name)]) == 0
        assert run(["evaluate", "-i", str(tmp_path / "data.ndjson"), "--defense", "none",
                    "--k", "2", "-o", str(tmp_path / "report.json")]) == 0
        assert run(["overhead", "--protocol", "quic", "--periods", "10", "--reps", "1",
                    "--total-mb", "0.1", "-o", str(tmp_path / "sweep.csv")]) == 0
    finally:
        os.umask(old)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 8  # four artifacts and their manifests
    for name in written:
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name


def test_total_mb_is_capped_before_any_work(tmp_path, capsys, monkeypatch):
    # 1e300 MB once ran on with no end in sight
    out = tmp_path / "sweep.csv"
    argv = ["overhead", "--protocol", "quic", "--periods", "10", "--reps", "1", "-o", str(out)]
    assert run([*argv, "--total-mb", "1e300"]) == 2
    assert capsys.readouterr().err == (
        "usage error: total_mb must be at most 10000 (netsim.MAX_TOTAL_BYTES), got 1e+300\n")
    assert not out.exists() and not (tmp_path / "sweep.csv.manifest.json").exists()
    at_cap = cli.OverheadConfig.from_dict(
        _flag_config(monkeypatch, [*argv, "--total-mb", "10000"]))
    assert at_cap.total_bytes == netsim.MAX_TOTAL_BYTES == 10_000 * 1_000_000


def test_total_mb_cap_shrinks_with_loss(tmp_path, capsys):
    # at loss 0.99, 10,000 MB once passed and asked for some 3.5e8 flights
    # per transfer
    out = tmp_path / "sweep.csv"
    assert run(["overhead", "--protocol", "quic", "--periods", "10", "--reps", "1",
                "--loss", "0.99", "--total-mb", "10000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "usage error: total_mb must be at most 100 "
        "(netsim.MAX_TOTAL_BYTES * (1 - loss)), got 10000.0\n")
    assert list(tmp_path.iterdir()) == []


def test_replay_missing_manifest_exits_1(tmp_path):
    assert run(["replay", str(tmp_path / "nope.manifest.json")]) == 1


@pytest.mark.parametrize("content, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["empty", "not-utf-8"])
def test_replay_names_a_manifest_that_is_not_json(tmp_path, capsys, content, reason):
    # the decoder's message alone once named neither the file nor its kind
    manifest = tmp_path / "bad.manifest.json"
    manifest.write_bytes(content)
    assert run(["replay", str(manifest)]) == 1
    assert capsys.readouterr().err == f"error: manifest {manifest} is not valid JSON: {reason}\n"


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
        "defense": "wr:3:50", "seed": 0, "k": 3, "threshold_quantile": 0.95,
        "r": 20.0, "output": "unused.json",
    }
    return manifest


def _negative_seed(manifest):
    # stream_rng refuses -1, which it once folded onto 2**63 - 1
    manifest["config"]["seed"] = -1
    return manifest


def _overhead_seed_2_63(manifest):
    # stream_rng refuses 2**63, which it once folded onto seed 0
    return _overhead(manifest, seed=2**63)


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
    return _overhead(manifest, paths=1025)


def _overhead_no_periods(manifest):
    return _overhead(manifest, periods_ms=[])


def _evaluate(manifest, **changes):
    """An evaluate manifest of wr:3:50 whose input is missing, its config
    changed by changes: each check must come before the load."""
    manifest["subcommand"] = "evaluate"
    manifest["config"] = {
        "input": "missing.ndjson", "input_format": "ndjson",
        "scheduler": {"n_paths": 3, "strategy": "wr", "batch_packets": 50},
        "defense": "wr:3:50", "seed": 0, "k": 3, "threshold_quantile": 0.95,
        "r": 20.0, "output": "unused.json", **changes,
    }
    return manifest


def _overhead(manifest, **changes):
    """An overhead manifest of a small lossless sweep, its config changed
    by changes."""
    manifest["subcommand"] = "overhead"
    manifest["config"] = {
        "protocol": "quic", "periods_ms": [10], "reps": 1, "paths": 2,
        "rtt_ms": 50, "bandwidth_mbps": 10.0, "loss": 0.0, "total_mb": 0.1,
        "validate_cache": False, "seed": 0, "output": "unused.csv", **changes,
    }
    return manifest


@pytest.mark.parametrize("mutate, message", [
    (lambda manifest: [manifest], "not a JSON object"),
    (_drop_config, "config"),
    (_drop_seed, "lacks seed"),
    (_old_version, "0.0.9"),
    (_null_classes, "generate has a value of the wrong type"),
    (lambda m: m["config"].update(classes=6.0) or m, "classes must be an integer, got 6.0"),
    (_string_path_count, "evaluate has a value of the wrong type"),
    (_negative_seed, "seed must be an integer in [0, 9223372036854775808), got -1"),
    (_overhead_seed_2_63, "seed must be an integer in [0, 9223372036854775808)"),
    (_scheduler_seed_2_63, "scheduler.seed must be an integer in [0, 9223372036854775808)"),
    (_scheduler_batch_2_63, "batch_packets must be at most 2**63 - 1"),
    (_split_window_2_63, "window_us must be at most 2**63 - 1"),
    (_split_paths_over_cap, "n_paths must be at most 1024, got 1025"),
    (_overhead_paths_over_cap, "paths must be in [1, 1024], got 1025"),
    (_overhead_no_periods, "need at least one switching period"),
    (_evaluate, "missing.ndjson"),  # the unchanged config fails only at the load
    (lambda m: _evaluate(m, k=2.5), "k must be an integer, got 2.5"),
    (lambda m: _evaluate(m, k=True), "k must be an integer, got True"),
    (lambda m: _evaluate(m, scheduler={"n_paths": 3, "strategy": "wr",
                                       "batch_packets": 50.0}),
     "scheduler.batch_packets must be an integer, got 50.0"),
    (lambda m: _overhead(m, reps=True), "reps must be an integer, got True"),
    (lambda m: _overhead(m, periods_ms=[1.5]), "periods_ms[0] must be an integer, got 1.5"),
    (lambda m: _overhead(m, periods_ms="10"), "periods_ms must be a list of integers"),
    (lambda m: _overhead(m, rtt_ms=50.5), "rtt_ms must be an integer, got 50.5"),
    (lambda m: _overhead(m, paths=2.0), "paths must be an integer, got 2.0"),
    (lambda m: _evaluate(m, defense="none"),
     "defense 'none' does not describe the config's scheduler"),
    (lambda m: _evaluate(m, scheduler=None),
     "defense 'wr:3:50' does not describe the config's scheduler"),
    (lambda m: _evaluate(m, defense="wr:3:100ms"),
     "defense 'wr:3:100ms' does not describe the config's scheduler"),
    (lambda m: _evaluate(m, defense="wr:4:50"),
     "defense 'wr:4:50' does not describe the config's scheduler"),
    (lambda m: _evaluate(m, defense="wr:3"), "defense spec 'wr:3' must be"),
    (lambda m: _evaluate(m, defense=None), "defense must be a string, got None"),
    (lambda m: _overhead(m, total_mb=True, bandwidth_mbps=True),
     "bandwidth_mbps must be a number, got True"),
    (lambda m: _overhead(m, loss=False), "loss must be a number, got False"),
    (lambda m: _overhead(m, bandwidth_mbps=0.000001),
     "bandwidth_mbps must be at least one byte per second"),
    # finite, but their byte counts are not
    (lambda m: _overhead(m, total_mb=1e303),
     "total_mb must be a finite number of bytes, got 1e+303"),
    (lambda m: _overhead(m, bandwidth_mbps=1e305),
     "bandwidth_mbps must be a finite number of bytes per second, got 1e+305"),
    (lambda m: _evaluate(m, r=True), "r must be a number, got True"),
    (lambda m: _evaluate(m, threshold_quantile=True),
     "threshold_quantile must be a number, got True"),
    (lambda m: _evaluate(m, scheduler={"n_paths": 3, "strategy": "wr", "batch_packets": 50,
                                       "dirichlet_alpha": True}),
     "scheduler.dirichlet_alpha must be a number, got True"),
    (lambda m: _evaluate(m, note="x"), "unknown evaluate config field(s): note"),
    (lambda m: m.update(subcommand="bogus") or m, "manifest names unknown subcommand 'bogus'"),
    (lambda m: _evaluate(m, scheduler={"n_paths": 3, "strategy": "zz", "batch_packets": 50}),
     "error: scheduler.strategy must be one of ('rr', 'ur', 'wr', 'context'), got 'zz'\n"),
    (lambda m: _evaluate(m, scheduler=5),
     "error: manifest config for evaluate has a value of the wrong type: "
     "scheduler must be an object, got 5\n"),
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


# flag values the command refuses before any work; every one reaches the
# config, so replaying that config must refuse it too
BAD_FLAG_VALUES = [
    ["evaluate", "--defense", "none", "--k", "0"],
    ["evaluate", "--defense", "none", "--r", "0"],
    ["evaluate", "--defense", "none", "--threshold-quantile", "0"],
    ["evaluate", "--defense", "none", "--r", "inf"],
    ["evaluate", "--defense", "wr:3:50", "--alpha", "inf"],
    ["evaluate", "--defense", "none", "--seed", str(2**63)],
    ["overhead", "--periods", "5,10,20,50,0"],
    ["overhead", "--periods", "5,5,10"],
    ["overhead", "--periods", "10", "--reps", "0"],
    ["overhead", "--periods", "10", "--paths", "0"],
    ["overhead", "--periods", "10", "--paths", "100000"],
    ["overhead", "--periods", "10", "--loss", "1.5"],
    ["overhead", "--periods", "10", "--rtt-ms", "0"],
    ["overhead", "--periods", "10", "--bandwidth-mbps", "0"],
    ["overhead", "--periods", "10", "--bandwidth-mbps", "inf"],
    ["overhead", "--periods", "10", "--bandwidth-mbps", "0.000001"],
    ["overhead", "--periods", "10", "--total-mb", "0.001"],
    ["overhead", "--periods", "10", "--total-mb", "1e303"],
    ["overhead", "--periods", "10", "--total-mb", "1e300"],
    ["overhead", "--periods", "10", "--total-mb", "10000.000001"],  # one byte over
    ["overhead", "--periods", "10", "--bandwidth-mbps", "1e305"],
    ["overhead", "--periods", "10", "--seed", str(2**64)],
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
]


def _bad_flag_id(argv):
    return " ".join(argv[-2:])


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=_bad_flag_id)
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


def _flag_config(monkeypatch, argv):
    """The config dict the flags of argv build, captured before it runs."""
    configs = []

    def capture(cls, config):
        configs.append(config)
        raise ValueError("captured")

    # patched on the subcommand's class, which inherits from_dict, so the
    # undo deletes the patch rather than put back a method bound to Config
    config_class = cli._RUNNERS[argv[0]][0]
    with monkeypatch.context() as patch:
        patch.setattr(config_class, "from_dict", classmethod(capture))
        assert run(argv) == 2
    return configs[0]


def _assert_replay_refuses(tmp_path, capsys, subcommand, config, message):
    manifest = tmp_path / "bad.manifest.json"
    manifest.write_text(json.dumps(
        {"subcommand": subcommand, "config": config, "tool_version": __version__}
    ))
    capsys.readouterr()
    assert run(["replay", str(manifest)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.manifest.json").exists()


def _flag_argv(argv, tmp_path):
    # the input does not exist: a refusal names the value, not the file,
    # only if it comes before the load
    if argv[0] in ("evaluate", "split"):
        argv = [*argv, "-i", str(tmp_path / "missing.ndjson")]
    elif argv[0] == "overhead" and "--protocol" not in argv:
        argv = [*argv, "--protocol", "quic"]
    return [*argv, "-o", str(tmp_path / "out")]


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=_bad_flag_id)
def test_replay_refuses_the_config_of_a_bad_flag(tmp_path, capsys, monkeypatch, argv):
    argv = _flag_argv(argv, tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    message = err.removeprefix("usage error: ").removesuffix("\n")
    config = _flag_config(monkeypatch, argv)
    _assert_replay_refuses(tmp_path, capsys, argv[0], config, message)


@pytest.mark.parametrize("argv, change, message", [
    (["overhead", "--periods", "10"], {"protocol": "wireguard", "validate_cache": True},
     "validate_cache is only valid with protocol quic"),
    (["overhead", "--periods", "10"], {"validate_cache": "yes"},
     "validate_cache must be true or false, got 'yes'"),
    (["split", "--strategy", "rr"], {"format": "xml"},
     "format must be one of ('ndjson', 'csv'), got 'xml'"),
    (["evaluate", "--defense", "none"], {"input_format": "xml"},
     "input_format must be one of ('ndjson', 'csv'), got 'xml'"),
    (["evaluate", "--defense", "wr:3:50"], {"defense": "none"},
     "defense 'none' does not describe the config's scheduler"),
    (["evaluate", "--defense", "wr:3:50"], {"k": 2.5},
     "manifest config for evaluate has a value of the wrong type: "
     "k must be an integer, got 2.5"),
], ids=["wireguard-validate_cache", "validate_cache-yes", "format-xml", "input_format-xml",
        "wr-defense-none", "k-float"])
def test_replay_refuses_a_config_no_flag_builds(tmp_path, capsys, monkeypatch,
                                                argv, change, message):
    config = _flag_config(monkeypatch, _flag_argv(argv, tmp_path))
    _assert_replay_refuses(tmp_path, capsys, argv[0], {**config, **change}, message)


@pytest.mark.parametrize("defense", ["none", "wr:3:50"])
def test_evaluate_never_imports_numpy_ma(small_corpus, tmp_path, defense):
    """np.quantile imports numpy.ma (about 15 ms of a fresh process);
    the tau gate takes its quantile without it."""
    child = (
        "import sys\n"
        "from pathsplit.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(pathsplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    out = subprocess.run(
        [sys.executable, "-c", child, "evaluate", "-i", str(small_corpus),
         "--defense", defense, "-o", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "False"


FREEZE_CHILD = """\
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from pathsplit.cli import main
mode, args = sys.argv[1], sys.argv[2:]
if mode == "program":
    sys.argv = ["pathsplit", *args]
    main()
elif mode == "argv":
    main(args)
"""


@pytest.mark.parametrize("mode, frozen", [("program", True), ("argv", False),
                                          ("import", False)])
def test_only_the_program_run_freezes_the_heap_at_exit(tmp_path, mode, frozen):
    """main() with argv None registers gc.freeze at exit, after the child's
    own check, so (atexit runs last-in first-out) the check sees it done; a
    caller's main(argv), like importing the package, registers nothing."""
    argv = ["overhead", "--protocol", "wireguard", "--periods", "10", "--reps", "1",
            "--total-mb", "0.1", "-o", str(tmp_path / "w.csv")]
    src = str(Path(pathsplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    out = subprocess.run([sys.executable, "-c", FREEZE_CHILD, mode, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == f"frozen at exit: {frozen}"


def test_an_in_process_main_leaves_the_collector_alone(small_corpus, tmp_path):
    assert main(["split", "-i", str(small_corpus), "--strategy", "rr",
                 "-o", str(tmp_path / "s.ndjson")]) == 0
    assert gc.get_freeze_count() == 0


# --- each subcommand's run ends in one place, which records and reports it


def test_evaluate_context_defense_runs_and_replays(small_corpus, tmp_path):
    report = tmp_path / "ctx.json"
    assert run(["evaluate", "-i", str(small_corpus), "--defense", "context:2:4",
                "-o", str(report)]) == 0
    manifest = json.loads(Path(f"{report}.manifest.json").read_text())
    scheduler = manifest["config"]["scheduler"]
    assert scheduler["strategy"] == "context" and scheduler["handshake_packets"] == 4
    assert scheduler["n_paths"] == 2
    copy = tmp_path / "ctx2.json"
    assert run(["replay", f"{report}.manifest.json", "-o", str(copy)]) == 0
    assert copy.read_bytes() == report.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--defense", "wr:x:50"], "path count 'x' is not an integer"),
    (["evaluate", "--defense", "wr:3:x"], "bad frequency 'x' in defense spec"),
    (["split", "--strategy", "wr", "--window-ms", "20"], "--window-ms requires --boundary time"),
    (["split", "--strategy", "wr", "--boundary", "time", "--window-ms", "20",
      "--batch-packets", "50"], "--batch-packets requires --boundary packets"),
    (["overhead", "--protocol", "quic", "--periods", "10,x"],
     "--periods must be a comma list of integers, got '10,x'"),
    # an empty field is refused, not skipped
    (["overhead", "--protocol", "quic", "--periods", "5,,100"],
     "--periods must be a comma list of integers, got '5,,100'"),
    (["overhead", "--protocol", "quic", "--periods", "5,100,"],
     "--periods must be a comma list of integers, got '5,100,'"),
    (["overhead", "--protocol", "quic", "--periods", ",5"],
     "--periods must be a comma list of integers, got ',5'"),
], ids=["defense-paths", "defense-frequency", "window-without-time", "batch-with-time",
        "periods", "periods-empty-inner", "periods-empty-last", "periods-empty-first"])
def test_flags_refused_before_the_config_exit_2(small_corpus, tmp_path, capsys,
                                                argv, message):
    if argv[0] != "overhead":
        argv = [*argv, "-i", str(small_corpus)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


def test_each_subcommand_reports_what_it_wrote(small_corpus, tmp_path, capsys):
    def stdout(argv):
        capsys.readouterr()
        assert run(argv) == 0
        return capsys.readouterr().out

    data = tmp_path / "d.csv"
    assert stdout(["generate", "--classes", "3", "--per-class", "4", "--unmonitored", "5",
                   "-o", str(data)]) == f"wrote {data} (17 traces)\n"
    split = tmp_path / "s.ndjson"
    assert stdout(["split", "-i", str(data), "--strategy", "rr", "--paths", "2",
                   "-o", str(split)]) == (
        f"wrote {split} ({len(load_dataset(split))} traces from 17 parents)\n")
    report = tmp_path / "r.json"
    line = stdout(["evaluate", "-i", str(small_corpus), "--defense", "none",
                   "-o", str(report)])
    payload = json.loads(report.read_text())
    assert line == (f"wrote {report} (f1={payload['f1']:.3f} "
                    f"r_precision={payload['r_precision']:.3f} "
                    f"recall={payload['recall']:.3f})\n")
    sweep = tmp_path / "o.csv"
    assert stdout(["overhead", "--protocol", "quic", "--periods", "10,100", "--reps", "1",
                   "--total-mb", "1", "-o", str(sweep)]) == (
        f"wrote {sweep} (2 periods; max overhead 86.9% at 10000us)\n")
    again = tmp_path / "o2.csv"
    assert stdout(["replay", f"{sweep}.manifest.json", "-o", str(again)]) == (
        f"wrote {again} (2 periods; max overhead 86.9% at 10000us)\n")
    for artifact, seed, inputs in ((data, 0, []), (split, 0, [str(data)]),
                                   (report, 0, [str(small_corpus)]), (again, 0, [])):
        manifest = json.loads(Path(f"{artifact}.manifest.json").read_text())
        assert (manifest["seed"], manifest["inputs"]) == (seed, inputs)
        assert manifest["outputs"] == [str(artifact)]
