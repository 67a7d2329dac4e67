"""The benchmark's traced run (perfbench/run.py --trace 1) wraps pathsplit
functions by module and attribute name, listed in its PROBES, and counts
work from their arguments and results. A rename or a changed result type
would crash only that run; these checks catch it here. The seed-0
artifacts are held to the hashes workloads.json records. perfbench/ is
imported, never written."""

import importlib.util
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import pathsplit
import pathsplit.cli  # noqa: F401  (every probed module is loaded)
from pathsplit.scheduler import SchedulerConfig, Strategy, schedule
from pathsplit.splitter import split, split_dataset
from pathsplit.traces import Dataset, Trace, generate_synthetic, load_dataset, save_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it imports its sibling tracing.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    sys.path.insert(0, str(PERFBENCH))
    dont_write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_probe_resolves_to_a_function(bench):
    assert bench.PROBES
    for module, attr, _, _ in bench.PROBES:
        assert callable(getattr(getattr(pathsplit, module), attr)), f"{module}.{attr}"


def test_probe_counters_read_loaded_traces_and_split_results(bench, tmp_path):
    corpus = generate_synthetic(2, 2, 2, seed=1)
    one_packet = Trace([0], [100], "class-000", True)  # leaves paths empty
    path = tmp_path / "d.ndjson"
    save_dataset(Dataset.from_traces([*corpus.traces, one_packet]), path, "ndjson")
    dataset = load_dataset(path, "ndjson")
    config = SchedulerConfig(n_paths=3, strategy=Strategy.ROUND_ROBIN, batch_packets=40)

    counts = defaultdict(float)
    bench._count_loaded(counts, dataset, path, "ndjson")
    for index, trace in enumerate(dataset.traces):
        paths = schedule(trace, config, trace_index=index)
        bench._count_scheduled(counts, paths, trace, config, trace_index=index)
        bench._count_split(counts, split(trace, paths, config.n_paths), trace, paths,
                           config.n_paths)

    packets = sum(len(t) for t in dataset.traces)
    assert counts["load_packets"] == counts["schedule_packets"] == packets
    assert counts["subtraces"] == len(split_dataset(dataset, config))
    assert counts["subtraces"] + counts["empty_subtraces"] == 3 * len(dataset)
    assert counts["empty_subtraces"] >= 2


def test_every_probe_is_called_by_the_cli_flow(bench, tmp_path, monkeypatch):
    """The traced run has spans only for probes the flow calls through
    them: a layer batched into a call the probe does not see would leave
    its per-layer metrics empty."""
    calls = defaultdict(int)

    def counting(key, function):
        def counted(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return counted

    probes = [(module, attr) for module, attr, _, _ in bench.PROBES]
    for module, attr in probes:
        owner = getattr(pathsplit, module)
        monkeypatch.setattr(owner, attr, counting((module, attr), getattr(owner, attr)))
    data = tmp_path / "d.ndjson"
    for argv in (
        ["generate", "--classes", "3", "--per-class", "4", "--unmonitored", "6",
         "--seed", "7", "-o", str(data)],
        ["split", "-i", str(data), "--strategy", "wr", "--paths", "2",
         "--batch-packets", "20", "-o", str(tmp_path / "s.ndjson")],
        ["evaluate", "-i", str(data), "--defense", "wr:2:20", "-o", str(tmp_path / "r.json")],
        ["overhead", "--protocol", "quic", "--periods", "5,100", "--total-mb", "0.5",
         "--reps", "1", "-o", str(tmp_path / "o.csv")],
    ):
        assert pathsplit.cli.main(argv) == 0
    assert [key for key in probes if not calls[key]] == []


@pytest.mark.parametrize("workload", ["long-traces", "many-traces"])
def test_seed_0_artifacts_keep_their_recorded_hashes(bench, workload, tmp_path, monkeypatch):
    """generate, split and both evaluate stages at seed 0 write the bytes
    whose sha256 workloads.json records. The quic and wireguard records
    are left out: they hold 0.1.0's lossy sweeps, whose bytes changed at
    0.2.0 with netsim's loss model. run.py checks no record at all while
    the tool version differs from the recorded one, so this is the check
    on the other four."""
    config = json.loads(bench.WORKLOADS.read_text())
    spec = config["workloads"][workload]
    golden = spec["record"]["golden_sha256"]
    stages = bench.build_stages(spec, config["overhead_common"], config["base_seeds"], 0)
    monkeypatch.chdir(tmp_path)
    checked = []
    for stage in stages:
        if stage.name in ("quic", "wireguard"):
            continue
        assert pathsplit.cli.main(stage.argv) == 0
        assert bench.sha256(tmp_path / stage.artifact) == golden[stage.name], stage.name
        checked.append(stage.name)
    assert checked == ["generate", "split", "baseline", "evaluate"]
