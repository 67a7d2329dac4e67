"""Property tests: loader round trips, the split/merge inverse, schedule
determinism and clock-shift invariance of the features."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pathsplit.scheduler import (
    BoundaryMode,
    PathAssignment,
    SchedulerConfig,
    Strategy,
    schedule,
)
from pathsplit.splitter import merge, split
from pathsplit.traces import (
    INT64_MAX,
    INT64_MIN,
    UNMONITORED_LABEL,
    Dataset,
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
def raw_traces(draw, size=sizes, max_time=INT64_MAX):
    """A trace with non-negative, unsorted timestamps and any label."""
    pairs = draw(st.lists(st.tuples(st.integers(0, max_time), size),
                          min_size=1, max_size=40))
    monitored = draw(st.booleans())
    label = draw(labels) if monitored else UNMONITORED_LABEL
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


@given(trace=increasing_traces(), data=st.data())
def test_merge_inverts_split_and_conserves(trace, data):
    n_paths = data.draw(st.integers(2, 5))
    paths = data.draw(st.lists(st.integers(0, n_paths - 1),
                               min_size=len(trace), max_size=len(trace)))
    subs = split(trace, PathAssignment(paths, n_paths))
    assert merge(subs) == trace
    assert sum(len(s) for s in subs) == len(trace)
    assert sum(s.total_bytes for s in subs) == trace.total_bytes
    for i, s in enumerate(subs):
        on_path = np.asarray(paths) == i
        assert np.array_equal(s.times_us, trace.times_us[on_path])


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
    assert schedule(copy, config, trace_index=index) == first


@given(trace=raw_traces(size=small_sizes, max_time=10**12), shift=st.integers(0, 10**12))
def test_features_invariant_to_clock_shift(trace, shift):
    trace = normalize_trace(trace)
    shifted = Trace(trace.times_us + shift, trace.signed_size, trace.label,
                    trace.monitored)
    assert np.array_equal(extract_features(shifted), extract_features(trace))
