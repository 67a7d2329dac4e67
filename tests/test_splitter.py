import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathsplit.rand import stream_rng
from pathsplit.scheduler import (
    BoundaryMode,
    SchedulerConfig,
    Strategy,
    schedule,
)
from pathsplit.splitter import merge, split, split_dataset
from pathsplit.traces import (
    Dataset,
    Trace,
    UNMONITORED_LABEL,
    generate_synthetic,
    normalize_trace,
)


def mk_trace(pairs, label="class-000", monitored=True):
    return Trace([ts for ts, _ in pairs], [s for _, s in pairs], label, monitored)


def test_even_round_robin_partition():
    trace = mk_trace([(i * 10, 100) for i in range(6)])
    config = SchedulerConfig(n_paths=3, strategy=Strategy.ROUND_ROBIN,
                             batch_packets=2)
    subs = split(trace, schedule(trace, config), config.n_paths)
    assert [len(s) for s in subs] == [2, 2, 2]


def test_constant_assignment_is_identity_on_path0():
    trace = mk_trace([(0, 100), (5, -200), (9, 50)])
    subs = split(trace, [0, 0, 0], 3)
    assert subs[0].times_us.tolist() == trace.times_us.tolist()
    assert subs[0].signed_size.tolist() == trace.signed_size.tolist()
    assert len(subs[1]) == 0 and len(subs[2]) == 0
    assert all(s.label == trace.label and s.monitored for s in subs)


def test_time_window_round_robin_worked_example():
    # packets at 0, 50, 120, 260 ms with 100 ms windows under RR over 2
    # paths: windows 0,0,1,2 -> paths 0,0,1,0
    trace = mk_trace([(0, 100), (50_000, 100), (120_000, -200), (260_000, 100)])
    config = SchedulerConfig(n_paths=2, strategy=Strategy.ROUND_ROBIN,
                             boundary=BoundaryMode.TIME_WINDOW, window_us=100_000)
    subs = split(trace, schedule(trace, config), config.n_paths)
    assert subs[0].times_us.tolist() == [0, 50_000, 260_000]
    assert subs[1].times_us.tolist() == [120_000]


def test_subtrace_keeps_parent_clock_and_can_rebase():
    trace = mk_trace([(0, 100), (50_000, 100), (120_000, -200), (260_000, 100)])
    config = SchedulerConfig(n_paths=2, strategy=Strategy.ROUND_ROBIN,
                             boundary=BoundaryMode.TIME_WINDOW, window_us=100_000)
    sub = split(trace, schedule(trace, config), config.n_paths)[1]
    assert sub.times_us[0] == 120_000  # parent clock by default
    assert normalize_trace(sub).times_us[0] == 0


def test_merge_inverts_split_on_random_pairs():
    ds = generate_synthetic(3, 4, 6, seed=21)
    rng = stream_rng(99, 0)
    strategies = [Strategy.ROUND_ROBIN, Strategy.UNIFORM_RANDOM,
                  Strategy.WEIGHTED_RANDOM, Strategy.CONTEXT_DEPENDENT]
    for rep in range(100):
        trace = ds.traces[int(rng.integers(0, len(ds.traces)))]
        config = SchedulerConfig(
            n_paths=int(rng.integers(2, 6)),
            strategy=strategies[int(rng.integers(0, len(strategies)))],
            boundary=BoundaryMode.TIME_WINDOW if rng.integers(0, 2) else BoundaryMode.PACKET_COUNT,
            batch_packets=int(rng.integers(1, 200)),
            window_us=int(rng.integers(1_000, 400_000)),
            handshake_packets=int(rng.integers(1, 30)),
            seed=int(rng.integers(0, 1_000_000)),
        )
        subs = split(trace, schedule(trace, config, trace_index=rep), config.n_paths)
        merged = merge(subs)
        assert merged == trace
        # conservation: packet and byte totals
        assert sum(len(s) for s in subs) == len(trace)
        assert (sum(abs(size) for s in subs for size in s.signed_size.tolist())
                == trace.total_bytes)


def test_merge_single_nonempty_subtrace():
    trace = mk_trace([(0, 100), (10, -50)])
    subs = [
        trace,
        Trace([], [], trace.label, trace.monitored),
        Trace([], [], trace.label, trace.monitored),
    ]
    assert merge(subs) == trace


def test_merge_tie_break_by_path_then_order():
    # equal timestamps on different paths come back in path order
    trace = mk_trace([(5, 100), (5, -200)])
    subs = split(trace, [0, 1], 2)
    assert merge(subs) == trace


def lexsort_merge(subtraces):
    """merge's order by the explicit rule: timestamp, then path index, then
    intra-path order."""
    times = np.concatenate([t.times_us for t in subtraces])
    sizes = np.concatenate([t.signed_size for t in subtraces])
    lengths = [len(t) for t in subtraces]
    path = np.repeat(np.arange(len(subtraces)), lengths)
    rank = np.concatenate([np.arange(n) for n in lengths])
    order = np.lexsort((rank, path, times))
    return Trace(times[order], sizes[order], subtraces[0].label, subtraces[0].monitored)


# a narrow clock, so equal timestamps are common within and across paths
sorted_subtraces = st.lists(
    st.tuples(st.integers(0, 6), st.integers(-3, 3).filter(bool)), max_size=8
).map(lambda pairs: mk_trace(sorted(pairs, key=lambda p: p[0])))


@given(subtraces=st.lists(sorted_subtraces, min_size=1, max_size=5))
def test_merge_orders_as_the_lexsort_rule(subtraces):
    assert merge(subtraces) == lexsort_merge(subtraces)


def test_split_length_mismatch_rejected():
    trace = mk_trace([(0, 100), (1, 100)])
    with pytest.raises(ValueError, match="length"):
        split(trace, [0], 2)


def test_merge_empty_list_rejected():
    with pytest.raises(ValueError):
        merge([])


# --- dataset-level splitting


def test_split_dataset_triples_trace_count_when_no_empties():
    traces = [mk_trace([(i * 1000, 100) for i in range(150)],
                       label=f"class-{k:03d}") for k in range(10) for _ in range(10)]
    ds = Dataset.from_traces(traces)
    config = SchedulerConfig(n_paths=3, strategy=Strategy.ROUND_ROBIN,
                             batch_packets=50)
    out = split_dataset(ds, config)
    assert len(out) == 300  # every path sees at least one batch


def test_split_dataset_keeps_empty_subtraces_on_request():
    # split keeps a path's empty subtrace; split_dataset drops it
    ds = Dataset.from_traces([mk_trace([(0, 100)])])
    config = SchedulerConfig(n_paths=3, strategy=Strategy.ROUND_ROBIN,
                             batch_packets=50)
    subs = split(ds.traces[0], schedule(ds.traces[0], config), config.n_paths)
    assert sum(1 for t in subs if not len(t)) == 2
    dropped = split_dataset(ds, config)
    assert len(dropped) == 1


def test_split_dataset_deterministic_and_inherits_labels():
    ds = generate_synthetic(3, 5, 8, seed=4)
    config = SchedulerConfig(n_paths=3, strategy=Strategy.WEIGHTED_RANDOM,
                             batch_packets=20, seed=9)
    a = split_dataset(ds, config)
    b = split_dataset(ds, config)
    assert a.traces == b.traces
    parent_labels = {(t.label, t.monitored) for t in ds.traces}
    assert {(t.label, t.monitored) for t in a.traces} <= parent_labels
    assert (len({t.label for t in a.traces if t.monitored})
            == len({t.label for t in ds.traces if t.monitored}))


def test_split_dataset_unmonitored_labels_preserved():
    ds = generate_synthetic(2, 3, 5, seed=6)
    config = SchedulerConfig(n_paths=2, strategy=Strategy.UNIFORM_RANDOM,
                             batch_packets=10, seed=2)
    out = split_dataset(ds, config)
    assert any(t.label == UNMONITORED_LABEL and not t.monitored for t in out.traces)
