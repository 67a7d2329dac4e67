import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathsplit import netsim
from pathsplit.netsim import (
    PathModel,
    Protocol,
    SenderModel,
    SWEEP_CSV_COLUMNS,
    compare_validation_caching,
    simulate_transfer,
    sweep_frequencies,
    sweep_to_csv,
)

RTT = 50_000
BW = 1_250_000  # 10 Mbit/s
MB = 1_000_000


def paths(n=2, loss=0.0):
    return [PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=loss)] * n


QUIC = SenderModel(protocol=Protocol.QUIC_MIGRATION)
QUIC_CACHED = SenderModel(protocol=Protocol.QUIC_MIGRATION, validation_cache=True)
WG = SenderModel(protocol=Protocol.WIREGUARD_ROAMING)


def test_no_switching_is_the_baseline():
    result = simulate_transfer(paths(), QUIC, None, 5 * MB, seed=1)
    assert result.overhead_fraction == 0.0
    assert result.throughput_bytes_per_s == result.baseline_throughput_bytes_per_s


def test_bytes_conserved_exactly():
    for sender in (QUIC, WG):
        for loss in (0.0, 0.02):
            result = simulate_transfer(paths(loss=loss), sender, 100_000, 3 * MB, seed=7)
            assert result.bytes_transferred == 3 * MB


def test_deterministic_under_seed():
    a = simulate_transfer(paths(loss=0.01), QUIC, 80_000, 4 * MB, seed=9)
    b = simulate_transfer(paths(loss=0.01), QUIC, 80_000, 4 * MB, seed=9)
    assert a == b
    c = simulate_transfer(paths(loss=0.01), QUIC, 80_000, 4 * MB, seed=10)
    assert c.elapsed_us != a.elapsed_us


def test_rapid_quic_switching_pins_connection_in_slow_start():
    # switching every RTT/2: each cycle delivers one initial window and
    # pays one validation stall, so throughput ~ init_cwnd / (2 * RTT)
    result = simulate_transfer(paths(), QUIC, RTT // 2, 2 * MB, seed=1)
    closed_form = QUIC.initial_cwnd_packets * QUIC.mss_bytes / (2 * RTT / 1e6)
    assert result.throughput_bytes_per_s == pytest.approx(closed_form, rel=0.05)
    assert result.throughput_bytes_per_s < 0.25 * result.baseline_throughput_bytes_per_s


def test_wireguard_persistent_state_keeps_overhead_low():
    # per-path congestion state persists, so any period >= RTT costs only
    # the extra slow starts, bounded well under the no-loss ceiling
    for period in (RTT, 2 * RTT, 100_000, 300_000):
        result = simulate_transfer(paths(), WG, period, 10 * MB, seed=3)
        assert result.overhead_fraction < 0.05
        assert result.throughput_bytes_per_s <= BW  # analytic no-loss bound


def test_baseline_dominates_switched_runs():
    for sender in (QUIC, QUIC_CACHED, WG):
        for period in (30_000, 50_000, 100_000, 500_000):
            result = simulate_transfer(paths(), sender, period, 5 * MB, seed=5)
            assert result.overhead_fraction >= -0.01  # 1% numerical slack


def test_quic_overhead_exceeds_wireguard_at_fast_periods():
    for period in (20_000, 50_000, 100_000):
        q = simulate_transfer(paths(), QUIC, period, 5 * MB, seed=2)
        w = simulate_transfer(paths(), WG, period, 5 * MB, seed=2)
        assert q.overhead_fraction >= w.overhead_fraction


def test_sweep_throughput_non_increasing_as_period_shrinks():
    points = sweep_frequencies(paths(), QUIC, [10_000, 30_000, 100_000, 500_000],
                               5 * MB, repetitions=3, seed=4)
    assert [p.period_us for p in points] == [10_000, 30_000, 100_000, 500_000]
    for earlier, later in zip(points, points[1:]):
        assert earlier.mean_throughput_bps <= later.mean_throughput_bps + 0.02 * later.mean_throughput_bps


def test_validation_caching_dominates_pointwise():
    pairs = compare_validation_caching(paths(), [10_000, 50_000, 100_000, 500_000],
                                       5 * MB, seed=6)
    for _, uncached, cached in pairs:
        assert cached.overhead_fraction <= uncached.overhead_fraction


def test_caching_strictly_better_near_rtt_period():
    # rotation revisits a validated path every n switches; uncached pays
    # one RTT per switch, cached only for the first visit of each path
    [(_, uncached, cached)] = compare_validation_caching(paths(), [RTT], 5 * MB, seed=6)
    assert uncached.elapsed_us - cached.elapsed_us >= RTT


def test_caching_amortized_for_long_periods():
    [(_, uncached, cached)] = compare_validation_caching(paths(), [2_000_000],
                                                         10 * MB, seed=6)
    assert abs(uncached.overhead_fraction - cached.overhead_fraction) < 0.05


def test_single_path_is_degenerate():
    switched = simulate_transfer(paths(1), QUIC, 50_000, 2 * MB, seed=8)
    plain = simulate_transfer(paths(1), QUIC, None, 2 * MB, seed=8)
    assert switched.elapsed_us == plain.elapsed_us
    assert switched.overhead_fraction == 0.0


def test_lossy_run_still_dominated_by_baseline():
    result = simulate_transfer(paths(loss=0.01), QUIC, 100_000, 3 * MB, seed=11)
    assert result.overhead_fraction >= -0.01
    assert result.elapsed_us > 0


def test_sweep_csv_shape():
    points = sweep_frequencies(paths(), WG, [10_000, 100_000], 2 * MB,
                               repetitions=2, seed=1)
    text = sweep_to_csv(points)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("10000,")


def test_input_validation():
    with pytest.raises(ValueError):
        simulate_transfer([], QUIC, None, MB, seed=0)
    with pytest.raises(ValueError):
        simulate_transfer(paths(), QUIC, None, 100, seed=0)  # below one MSS
    with pytest.raises(ValueError):
        simulate_transfer(paths(), QUIC, 0, MB, seed=0)
    with pytest.raises(ValueError):
        PathModel(rtt_us=RTT, bandwidth_bytes_per_s=BW, loss_rate=1.0)
    with pytest.raises(ValueError):
        compare_validation_caching(paths(), [1000], MB, sender=WG)


def test_sweep_runs_each_baseline_once(monkeypatch):
    unswitched = []
    real_run = netsim._run

    def counting_run(paths, sender, switch_period_us, *rest):
        if switch_period_us is None:
            unswitched.append(paths)
        return real_run(paths, sender, switch_period_us, *rest)

    monkeypatch.setattr(netsim, "_run", counting_run)
    periods = [10_000, 50_000, 100_000]
    for _ in range(2):  # the same sweep again costs the same
        unswitched.clear()
        sweep_frequencies(paths(loss=0.01), WG, periods, MB, repetitions=2, seed=1)
        assert len(unswitched) == 2  # one per repetition, not per (period, rep)
    unswitched.clear()
    compare_validation_caching(paths(3), periods, MB, seed=6)
    assert len(unswitched) == 1


path_models = st.builds(
    PathModel,
    rtt_us=st.integers(1, 200_000),
    bandwidth_bytes_per_s=st.integers(10_000, 100_000_000),
    loss_rate=st.floats(0.0, 0.3),
)


@given(models=st.lists(path_models, min_size=1, max_size=4),
       total_bytes=st.integers(1500, 200_000),
       seed=st.integers(0, 2**40))
def test_unswitched_run_depends_only_on_first_path(models, total_bytes, seed):
    # the baseline memo is keyed on paths[0], the MSS, the initial window,
    # the size and the seed only: protocol, validation caching and the
    # other paths must not change an unswitched run
    stream = (seed, netsim._STREAM_NETSIM)
    expected = netsim._run(models[:1], QUIC, None, total_bytes, stream)
    for sender in (QUIC, QUIC_CACHED, WG):
        assert netsim._run(models, sender, None, total_bytes, stream) == expected
        result = simulate_transfer(models, sender, None, total_bytes, seed)
        assert result.elapsed_us == expected
