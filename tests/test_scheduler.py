import numpy as np
import pytest

from pathsplit.rand import stream_rng
from pathsplit.scheduler import (
    MAX_PATHS,
    BoundaryMode,
    SchedulerConfig,
    Strategy,
    _STREAM_SCHEDULE,
    draw_connection_weights,
    schedule,
)
from pathsplit.traces import Trace


def uniform_trace(n, gap_us=1000, label="class-000"):
    return Trace([i * gap_us for i in range(n)], [100] * n, label, True)


def timed_trace(times_us):
    return Trace(times_us, [100] * len(times_us), "class-000", True)


def cfg(**kw):
    base = dict(n_paths=3, strategy=Strategy.ROUND_ROBIN,
                boundary=BoundaryMode.PACKET_COUNT, batch_packets=2, seed=0)
    base.update(kw)
    return SchedulerConfig(**base)


# --- round robin


def test_round_robin_packet_batches():
    a = schedule(uniform_trace(8), cfg())
    assert a.tolist() == [0, 0, 1, 1, 2, 2, 0, 0]


def test_round_robin_cycles_by_batch():
    a = schedule(uniform_trace(30), cfg(n_paths=4, batch_packets=3))
    batches = [a[i * 3] for i in range(10)]
    assert batches == [i % 4 for i in range(10)]


def test_round_robin_offset():
    a = schedule(uniform_trace(4), cfg(rr_offset=2, batch_packets=2))
    assert a.tolist() == [2, 2, 0, 0]


def test_round_robin_time_windows_use_absolute_index():
    # windows of 100ms at 0,0,1,2 -> paths 0,0,1,0 for n=2
    trace = timed_trace([0, 50_000, 120_000, 260_000])
    a = schedule(trace, cfg(n_paths=2, boundary=BoundaryMode.TIME_WINDOW,
                            window_us=100_000))
    assert a.tolist() == [0, 0, 1, 0]


def test_window_boundary_tie_belongs_to_new_window():
    # a packet at exactly k*T is in window k
    trace = timed_trace([0, 100_000])
    a = schedule(trace, cfg(n_paths=2, boundary=BoundaryMode.TIME_WINDOW,
                            window_us=100_000))
    assert a.tolist() == [0, 1]
    trace = timed_trace([0, 99_999])
    a = schedule(trace, cfg(n_paths=2, boundary=BoundaryMode.TIME_WINDOW,
                            window_us=100_000))
    assert a.tolist() == [0, 0]


# --- uniform random


def test_uniform_random_frequencies_and_regression():
    trace = uniform_trace(30_000)
    config = cfg(strategy=Strategy.UNIFORM_RANDOM, batch_packets=1, seed=42)
    a = schedule(trace, config)
    counts = np.bincount(a, minlength=3)
    freqs = counts / 30_000
    assert np.all(np.abs(freqs - 1 / 3) < 0.02)
    # regression: exact counts pinned by the seed
    assert counts.tolist() == [9950, 10013, 10037]


# --- weighted random


def test_weighted_random_per_connection_weights():
    trace = uniform_trace(400)
    config = cfg(strategy=Strategy.WEIGHTED_RANDOM, batch_packets=10, seed=5)
    a0 = schedule(trace, config, trace_index=0)
    a1 = schedule(trace, config, trace_index=1)
    f0 = np.bincount(a0, minlength=3) / len(trace)
    f1 = np.bincount(a1, minlength=3) / len(trace)
    assert np.abs(f0 - f1).max() > 0.1  # new draw per connection
    assert np.array_equal(schedule(trace, config, trace_index=0), a0)  # deterministic


def test_weighted_random_empirical_frequencies_track_weights():
    trace = uniform_trace(30_000)
    config = cfg(strategy=Strategy.WEIGHTED_RANDOM, batch_packets=1, seed=8)
    a = schedule(trace, config)
    freqs = np.bincount(a, minlength=3) / 30_000
    weights = draw_connection_weights(3, 1.0, stream_rng(8, _STREAM_SCHEDULE, 0))
    assert np.all(np.abs(freqs - weights) < 0.02)


def test_dirichlet_simplex_membership():
    rng = stream_rng(0, 1)
    for _ in range(50):
        w = draw_connection_weights(2, 0.7, rng)
        assert w.shape == (2,)
        assert 0.0 <= w[0] <= 1.0
        assert abs(w.sum() - 1.0) <= 1e-9


def test_dirichlet_moments_match_analytic():
    # symmetric Dirichlet: mean alpha_i/sum, var alpha(sum-alpha)/(sum^2 (sum+1))
    n, alpha, draws = 3, 1.0, 100_000
    rng = stream_rng(123, 0)
    samples = np.stack([draw_connection_weights(n, alpha, rng) for _ in range(draws)])
    total = n * alpha
    mean = alpha / total
    var = alpha * (total - alpha) / (total**2 * (total + 1))
    assert np.all(np.abs(samples.mean(axis=0) - mean) < 0.01)
    assert np.all(np.abs(samples.var(axis=0) - var) < 0.1 * var)


# --- context-dependent


def context(handshake_packets):
    return cfg(strategy=Strategy.CONTEXT_DEPENDENT, n_paths=2,
               handshake_packets=handshake_packets, vpn_path=0, direct_path=1)


def test_context_dependent_basic():
    a = schedule(uniform_trace(10), context(4))
    assert a.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]


def test_context_dependent_short_trace_stays_on_vpn():
    a = schedule(uniform_trace(3), context(4))
    assert a.tolist() == [0, 0, 0]


def test_context_dependent_single_switch():
    a = schedule(uniform_trace(2), context(1))
    transitions = sum(
        1 for i in range(1, 2) if a[i] != a[i - 1]
    )
    assert transitions == 1


def test_schedule_dispatches_context_strategy():
    config = cfg(strategy=Strategy.CONTEXT_DEPENDENT, n_paths=2,
                 handshake_packets=3)
    a = schedule(uniform_trace(5), config)
    assert a.tolist() == [0, 0, 0, 1, 1]


# --- shared properties


@pytest.mark.parametrize("strategy", [Strategy.ROUND_ROBIN,
                                      Strategy.UNIFORM_RANDOM,
                                      Strategy.WEIGHTED_RANDOM])
def test_packet_boundary_honored(strategy):
    trace = uniform_trace(501)
    config = cfg(strategy=strategy, batch_packets=50, seed=3)
    a = schedule(trace, config)
    for i in range(1, len(trace)):
        if a[i] != a[i - 1]:
            assert i % 50 == 0


@pytest.mark.parametrize("strategy", [Strategy.ROUND_ROBIN,
                                      Strategy.UNIFORM_RANDOM,
                                      Strategy.WEIGHTED_RANDOM])
def test_time_boundary_honored(strategy):
    rng = stream_rng(77, 0)
    times = np.cumsum(rng.integers(1, 9000, size=800))
    trace = timed_trace([int(t) for t in times])
    config = cfg(strategy=strategy, boundary=BoundaryMode.TIME_WINDOW,
                 window_us=100_000, seed=3)
    a = schedule(trace, config)
    for i in range(1, len(trace)):
        if a[i] != a[i - 1]:
            w_prev = trace.times_us[i - 1] // 100_000
            w_cur = trace.times_us[i] // 100_000
            assert w_cur != w_prev


def test_assignment_indices_in_range():
    trace = uniform_trace(333)
    for strategy in Strategy:
        config = cfg(strategy=strategy, n_paths=4, batch_packets=7, seed=1)
        a = schedule(trace, config)
        assert isinstance(a, np.ndarray) and a.dtype == np.int64
        assert len(a) == 333
        assert all(0 <= p < 4 for p in a)


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty"):
        schedule(Trace([], [], "class-000", True), cfg())


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(n_paths=1)
    with pytest.raises(ValueError):
        cfg(batch_packets=0)
    with pytest.raises(ValueError):
        cfg(dirichlet_alpha=0.0)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            cfg(dirichlet_alpha=alpha)
        with pytest.raises(ValueError, match="finite"):
            draw_connection_weights(3, alpha, stream_rng(0))
    with pytest.raises(ValueError):
        cfg(strategy=Strategy.CONTEXT_DEPENDENT, vpn_path=1, direct_path=1)
    cfg(n_paths=MAX_PATHS)
    with pytest.raises(ValueError, match=f"n_paths must be at most {MAX_PATHS}"):
        cfg(n_paths=MAX_PATHS + 1)
    for name in ("batch_packets", "window_us"):
        cfg(**{name: 2**63 - 1})
        with pytest.raises(ValueError, match=f"{name} must be at most 2\\*\\*63 - 1"):
            cfg(**{name: 2**63})


def test_config_round_trips_as_dict():
    config = cfg(strategy=Strategy.WEIGHTED_RANDOM, seed=17)
    assert SchedulerConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ValueError, match="unknown scheduler config"):
        SchedulerConfig.from_dict({"bogus": 1})
