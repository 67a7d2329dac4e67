"""The benchmark's traced run (perfbench/run.py --trace 1) wraps pathsplit
functions by module and attribute name, listed in its PROBES, and counts
work from their arguments and results. A rename or a changed result type
would crash only that run; these checks catch it here. perfbench/ is
imported, never written."""

import importlib.util
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
        assignment = schedule(trace, config, trace_index=index)
        bench._count_scheduled(counts, assignment, trace, config, trace_index=index)
        bench._count_split(counts, split(trace, assignment), trace, assignment)

    packets = sum(len(t) for t in dataset.traces)
    assert counts["load_packets"] == counts["schedule_packets"] == packets
    assert counts["subtraces"] == len(split_dataset(dataset, config))
    assert counts["subtraces"] + counts["empty_subtraces"] == 3 * len(dataset)
    assert counts["empty_subtraces"] >= 2
